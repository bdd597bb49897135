"""Block objects of the surjection-block functor and the seeded corpus
that the tests run on.

Objects are assembled from a chain-complex-valued system of pieces via
the surjection-block functor: level k is one copy of piece j for each
order-preserving surjection from [k] onto [j].  Its conormalization
returns the input pieces on the nose, which is what makes these the
right fixtures for locality and fiber checks.  ``corpus`` mixes such
objects with constant objects; ``quasi_iso_pairs`` gives levelwise
quasi-isomorphisms between block objects.

Randomized material is generated from explicit integer seeds only, so
every corpus is reproducible byte for byte.  Kernels are drawn from
``smith_reference.kernel_basis``, whose basis the corpus depends on.
"""

from __future__ import annotations

import itertools
import math
import random

from shadow_reference import CosimplicialMap
from smith_reference import kernel_basis
from tottower._record import record
from tottower.chains import ChainComplexInt, ChainMap, chain_map
from tottower.constructions import constant_object
from tottower.cosimplicial import CosimplicialChain
from tottower.errors import InputError
from tottower.intlinalg import IntMatrix


# -- surjection-block functor -------------------------------------------------

def surjection_tuples(k: int) -> tuple:
    """Order-preserving surjections out of [k], as value tuples, sorted.

    A value tuple starts at 0 and climbs by 0 or 1 at each step; its
    maximum names the target.  Lexicographic order fixes the block
    layout once and for all."""
    shapes = []
    for steps in itertools.product((0, 1), repeat=k):
        values = [0]
        for st in steps:
            values.append(values[-1] + st)
        shapes.append(tuple(values))
    return tuple(sorted(shapes))


def gamma_blocks(k: int) -> tuple:
    """(surjection tuple, piece index) per block of level k."""
    return tuple((sig, sig[-1]) for sig in surjection_tuples(k))


def _epi_mono(values: tuple):
    """Split a monotone map, given by values, into collapse then
    inclusion: returns (surjection tuple, sorted image tuple)."""
    image = sorted(set(values))
    pos = {v: q for q, v in enumerate(image)}
    return tuple(pos[v] for v in values), tuple(image)


def _compose_values(outer: tuple, inner: tuple) -> tuple:
    return tuple(outer[v] for v in inner)


def _monotone_injections_ok(image: tuple, target_top: int):
    """Classify the inclusion with the given image inside [target_top]:
    'id', 'top' (misses exactly the top), or None."""
    full = tuple(range(target_top + 1))
    if image == full:
        return "id"
    if image == full[:-1]:
        return "top"
    return None


def _block_map(pieces, deltas, src_blocks, dst_blocks, phi_values,
               src_level, dst_level) -> ChainMap:
    """Assemble the level map for a monotone map with the given values.

    Component from source block sigma to target block tau: factor
    tau composed with phi; it contributes only when its collapse part
    equals sigma, as the identity when the inclusion part is full, and
    as the piece differential (weighted by (-1)^top) when the inclusion
    misses exactly the top."""
    src_offsets = {}
    dst_offsets = {}
    comps = {}
    for t in set(src_level.degrees()) & set(dst_level.degrees()):
        entries = {}
        col = 0
        src_cols = []
        for sig in src_blocks:
            j = sig[-1]
            src_cols.append((sig, col, pieces[j].rank(t)))
            col += pieces[j].rank(t)
        row = 0
        dst_rows = {}
        for tau in dst_blocks:
            jp = tau[-1]
            dst_rows[tau] = row
            row += pieces[jp].rank(t)
        for tau in dst_blocks:
            jp = tau[-1]
            composed = _compose_values(tau, phi_values)
            pi, image = _epi_mono(composed)
            kind = _monotone_injections_ok(image, jp)
            if kind is None:
                continue
            for sig, col0, width in src_cols:
                if sig != pi or not width:
                    continue
                row0 = dst_rows[tau]
                if kind == "id":
                    for i in range(width):
                        entries[(row0 + i, col0 + i)] = 1
                else:
                    sign = -1 if jp % 2 else 1
                    block = deltas[jp - 1].component(t)
                    for (i, jj, v) in block.entries:
                        entries[(row0 + i, col0 + jj)] = sign * v
        comps[t] = IntMatrix.from_dict(
            dst_level.rank(t), src_level.rank(t), entries
        )
    return chain_map(src_level, dst_level, comps)


def direct_sum(a: ChainComplexInt, b: ChainComplexInt) -> ChainComplexInt:
    lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
    return ChainComplexInt(
        lo, tuple(a.rank(k) + b.rank(k) for k in range(lo, hi + 1)),
        tuple(IntMatrix.from_blocks(
            [a.rank(k - 1), b.rank(k - 1)], [a.rank(k), b.rank(k)],
            {(0, 0): a.boundary(k), (1, 1): b.boundary(k)},
        ) for k in range(lo + 1, hi + 1)))


def _gamma_level(pieces, blocks) -> ChainComplexInt:
    summands = [pieces[sig[-1]] for sig in blocks]
    level = summands[0]
    for extra in summands[1:]:
        level = direct_sum(level, extra)
    return level


def gamma_co(pieces, deltas) -> CosimplicialChain:
    """Cosimplicial object with conormalization equal to the input.

    ``pieces`` is a tuple of complexes N^0..N^M and ``deltas`` the chain
    maps N^s -> N^{s+1}, consecutive composites zero.  Level k is the
    direct sum of one copy of N^j per order-preserving surjection from
    [k] to [j], blocks in lexicographic order of value tuples.
    """
    pieces = tuple(pieces)
    deltas = tuple(deltas)
    if len(deltas) != len(pieces) - 1:
        raise InputError("need one connecting map per adjacent pair")
    for s, d in enumerate(deltas):
        if d.src != pieces[s] or d.dst != pieces[s + 1]:
            raise InputError(f"connecting map {s} has wrong endpoints")
    for s in range(len(deltas) - 1):
        if not deltas[s + 1].compose_is_zero(deltas[s]):
            raise InputError("consecutive connecting maps must compose to zero")
    truncation = len(pieces) - 1
    blocks = [surjection_tuples(k) for k in range(truncation + 1)]
    levels = tuple(
        _gamma_level(pieces, blocks[k]) for k in range(truncation + 1)
    )
    cofaces = []
    codegeneracies = []
    for k in range(truncation):
        d_row = []
        for i in range(k + 2):
            # delta^i on [k]: values skip i inside [k+1]
            values = tuple(v if v < i else v + 1 for v in range(k + 1))
            d_row.append(_block_map(
                pieces, deltas, blocks[k], blocks[k + 1], values,
                levels[k], levels[k + 1],
            ))
        s_row = []
        for i in range(k + 1):
            # sigma^i on [k+1]: values repeat i inside [k]
            values = tuple(v if v <= i else v - 1 for v in range(k + 2))
            s_row.append(_block_map(
                pieces, deltas, blocks[k + 1], blocks[k], values,
                levels[k + 1], levels[k],
            ))
        cofaces.append(tuple(d_row))
        codegeneracies.append(tuple(s_row))
    return CosimplicialChain(levels, tuple(cofaces), tuple(codegeneracies))


def gamma_co_map(src_system, dst_system, piece_maps) -> CosimplicialMap:
    """Blockwise map of block objects from a map of piece systems.

    ``piece_maps[j]`` must commute with the connecting maps; the level
    maps place piece_maps[j] on every block with target [j]."""
    src_pieces, src_deltas = src_system
    dst_pieces, dst_deltas = dst_system
    piece_maps = tuple(piece_maps)
    for s in range(len(piece_maps) - 1):
        if not dst_deltas[s].compose_equals(piece_maps[s], piece_maps[s + 1],
                                            src_deltas[s]):
            raise InputError(
                f"piece maps fail to commute with connecting map {s}"
            )
    x = gamma_co(src_pieces, src_deltas)
    y = gamma_co(dst_pieces, dst_deltas)
    truncation = x.truncation
    components = []
    for k in range(truncation + 1):
        blocks = surjection_tuples(k)
        entries_by_degree = {}
        degrees = set(x.levels[k].degrees()) | set(y.levels[k].degrees())
        for t in degrees:
            entries = {}
            row = col = 0
            for sig in blocks:
                j = sig[-1]
                block = piece_maps[j].component(t)
                for (i, jj, v) in block.entries:
                    entries[(row + i, col + jj)] = v
                row += dst_pieces[j].rank(t)
                col += src_pieces[j].rank(t)
            entries_by_degree[t] = IntMatrix.from_dict(
                y.levels[k].rank(t), x.levels[k].rank(t), entries
            )
        components.append(chain_map(x.levels[k], y.levels[k],
                                    entries_by_degree))
    return CosimplicialMap(src=x, dst=y, components=tuple(components))


# -- randomized material -------------------------------------------------------

def random_complex(rng: random.Random, lo: int, length: int,
                   max_rank: int) -> ChainComplexInt:
    """Random bounded complex; boundaries built degree by degree so the
    square-zero law holds by construction."""
    ranks = tuple(rng.randrange(max_rank + 1) for _ in range(length))
    boundaries = []
    lower_kernel = None
    for t in range(1, length):
        nrows, ncols = ranks[t - 1], ranks[t]
        if lower_kernel is None:
            window = IntMatrix.identity(nrows)
        else:
            window = lower_kernel
        coeffs = IntMatrix.from_dict(window.ncols, ncols, {
            (i, j): rng.randint(-2, 2)
            for i in range(window.ncols)
            for j in range(ncols)
            if rng.random() < 0.6
        })
        b = window @ coeffs
        boundaries.append(b)
        lower_kernel = kernel_basis(b)
    return ChainComplexInt(lo, ranks, tuple(boundaries))


def _chain_map_solution_space(src: ChainComplexInt, dst: ChainComplexInt,
                              precompose_zero: ChainMap | None = None):
    """Basis of the integer space of chain maps src -> dst, optionally
    restricted to maps vanishing after precomposition with the given
    map.  Unknowns are all entries of all components, packed per degree.
    """
    degrees = sorted(set(src.degrees()) | set(dst.degrees()))
    slots = []
    offset = {}
    total = 0
    for t in degrees:
        offset[t] = total
        slots.append((t, dst.rank(t), src.rank(t)))
        total += dst.rank(t) * src.rank(t)

    def unknown(t, i, j):
        return offset[t] + i * src.rank(t) + j

    rows = []

    def add_equation(coeffs: dict):
        if coeffs:
            rows.append(coeffs)

    for t in degrees:
        # dst boundary after f in degree t minus f after src boundary
        bd = dst.boundary(t)
        bs = src.boundary(t)
        for i in range(dst.rank(t - 1)):
            for j in range(src.rank(t)):
                coeffs = {}
                for (a, b, v) in bd.entries:
                    if a != i:
                        continue
                    coeffs[unknown(t, b, j)] = coeffs.get(
                        unknown(t, b, j), 0) + v
                for (a, b, v) in bs.entries:
                    if b != j:
                        continue
                    key = unknown(t - 1, i, a)
                    coeffs[key] = coeffs.get(key, 0) - v
                add_equation(coeffs)
        if precompose_zero is not None:
            g = precompose_zero.component(t)
            for i in range(dst.rank(t)):
                for j in range(g.ncols):
                    coeffs = {}
                    for (a, b, v) in g.entries:
                        if b != j:
                            continue
                        key = unknown(t, i, a)
                        coeffs[key] = coeffs.get(key, 0) + v
                    add_equation(coeffs)
    data = {}
    for r, coeffs in enumerate(rows):
        for c, v in coeffs.items():
            data[(r, c)] = v
    system = IntMatrix.from_dict(len(rows), total, data)
    return slots, offset, kernel_basis(system)


def random_chain_map(rng: random.Random, src: ChainComplexInt,
                     dst: ChainComplexInt,
                     precompose_zero: ChainMap | None = None) -> ChainMap:
    """Random integer combination of a basis of the chain map space."""
    slots, offset, space = _chain_map_solution_space(
        src, dst, precompose_zero
    )
    coeffs = IntMatrix.from_dict(space.ncols, 1, {
        (i, 0): rng.randint(-2, 2) for i in range(space.ncols)
        if rng.random() < 0.7
    })
    vec = space @ coeffs
    cells = {(i, j): v for i, j, v in vec.entries}
    mats = {}
    for t, nr, nc in slots:
        entries = {}
        for i in range(nr):
            for j in range(nc):
                v = cells.get((offset[t] + i * nc + j, 0), 0)
                if v:
                    entries[(i, j)] = v
        mats[t] = IntMatrix.from_dict(nr, nc, entries)
    return chain_map(src, dst, mats)


def _random_piece_system(rng: random.Random, truncation: int,
                         degree_lo: int = -3, degree_hi: int = 3,
                         level_budget: int = 4):
    """Pieces plus connecting maps whose block object keeps every level
    rank within the budget.

    The top level of the block object holds binomial(M, j) copies of
    piece j, so the budget constrains the weighted rank sum per degree.
    """
    weights = [math.comb(truncation, j) for j in range(truncation + 1)]
    span = degree_hi - degree_lo + 1
    budget = [level_budget] * span
    ranks = [[0] * span for _ in range(truncation + 1)]
    placements = rng.randrange(2, 7)
    for _ in range(placements):
        j = rng.randrange(truncation + 1)
        t = rng.randrange(span)
        if budget[t] >= weights[j] and weights[j] > 0:
            ranks[j][t] += 1
            budget[t] -= weights[j]
    pieces = []
    for j in range(truncation + 1):
        window = ranks[j]
        boundaries = []
        lower_kernel = None
        for t in range(1, span):
            nrows, ncols = window[t - 1], window[t]
            basis = (IntMatrix.identity(nrows) if lower_kernel is None
                     else lower_kernel)
            coeffs = IntMatrix.from_dict(basis.ncols, ncols, {
                (i, jj): rng.randint(-2, 2)
                for i in range(basis.ncols)
                for jj in range(ncols)
                if rng.random() < 0.5
            })
            b = basis @ coeffs
            boundaries.append(b)
            lower_kernel = kernel_basis(b)
        pieces.append(ChainComplexInt(degree_lo, tuple(window),
                                      tuple(boundaries)))
    deltas = []
    prev = None
    for s in range(truncation):
        d = random_chain_map(rng, pieces[s], pieces[s + 1],
                             precompose_zero=prev)
        deltas.append(d)
        prev = d
    return tuple(pieces), tuple(deltas)


@record
class CorpusObject:
    """A generated object together with the data that produced it.

    For block objects the pieces and connecting maps double as the
    independent expected value of the conormalization."""

    name: str
    x: CosimplicialChain
    pieces: tuple
    deltas: tuple


def corpus(seed: int, count: int) -> tuple:
    """Reproducible object corpus: block objects of random piece
    systems plus constant objects, truncations 1..5."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        idx = len(out)
        if idx % 7 == 6:
            lo = rng.randint(-3, 0)
            # keep the degree window inside [-3, 3]
            c = random_complex(rng, lo, rng.randint(2, min(5, 4 - lo)), 3)
            if not any(c.ranks):
                continue
            truncation = rng.choice((1, 2, 3, 4, 5))
            x = constant_object(c, truncation)
            # expected conormalization: the complex itself, then nothing
            zero = ChainComplexInt(
                c.lo, (0,) * len(c.ranks),
                tuple(IntMatrix.zeros(0, 0) for _ in c.boundaries),
            )
            pieces = (c,) + (zero,) * truncation
            deltas = tuple(
                chain_map(pieces[s], pieces[s + 1], {})
                for s in range(truncation)
            )
            out.append(CorpusObject(
                name=f"constant-{idx}", x=x, pieces=pieces, deltas=deltas,
            ))
            continue
        truncation = rng.choice((1, 2, 2, 3, 3, 4))
        pieces, deltas = _random_piece_system(rng, truncation)
        if not any(any(p.ranks) for p in pieces):
            continue
        x = gamma_co(pieces, deltas)
        out.append(CorpusObject(
            name=f"blocks-{idx}", x=x, pieces=pieces, deltas=deltas,
        ))
    return tuple(out)


def quasi_iso_pairs(seed: int, count: int) -> tuple:
    """Levelwise quasi-isomorphisms between block objects.

    Each map includes the source pieces into source-plus-acyclic-cone
    pieces, with connecting maps extended by zero."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        truncation = rng.choice((1, 2, 2, 3))
        pieces, deltas = _random_piece_system(rng, truncation,
                                              level_budget=2)
        if not any(any(p.ranks) for p in pieces):
            continue
        fat_pieces = []
        incls = []
        for j, p in enumerate(pieces):
            if rng.random() < 0.5:
                lo = rng.randint(-3, 2)
                cone = ChainComplexInt(
                    lo, (1, 1), (IntMatrix.identity(1),)
                )
                fat = direct_sum(p, cone)
            else:
                fat = p
            fat_pieces.append(fat)
            mats = {
                t: IntMatrix.from_blocks(
                    (p.rank(t), fat.rank(t) - p.rank(t)), (p.rank(t),),
                    {(0, 0): IntMatrix.identity(p.rank(t))},
                )
                for t in fat.degrees() if p.rank(t)
            }
            incls.append(chain_map(p, fat, mats))
        fat_deltas = []
        for s in range(truncation):
            d = deltas[s].component
            mats = {}
            for t in set(fat_pieces[s].degrees()) \
                    & set(fat_pieces[s + 1].degrees()):
                block = d(t)
                mats[t] = IntMatrix.from_blocks(
                    (pieces[s + 1].rank(t),
                     fat_pieces[s + 1].rank(t) - pieces[s + 1].rank(t)),
                    (pieces[s].rank(t),
                     fat_pieces[s].rank(t) - pieces[s].rank(t)),
                    {(0, 0): block} if not block.is_zero else {},
                )
            fat_deltas.append(chain_map(fat_pieces[s], fat_pieces[s + 1],
                                        mats))
        f = gamma_co_map((pieces, deltas),
                         (tuple(fat_pieces), tuple(fat_deltas)),
                         incls)
        out.append(f)
    return tuple(out)
