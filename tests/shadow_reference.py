"""Connective covers of cosimplicial chain objects: the chain shadow of
the source paper's theorem, as a test reference.

Over simplicial abelian groups (Dold-Kan), the k-fold loop space
Omega^k X is levelwise tau_{>=0}(X[-k]): the connective cover
tau_{>=k} X shifted down k degrees.  ``connective_cover`` builds
tau_{>=k} level by level.  Degrees above k are kept, degree k becomes
the cycles Z_k (in their Hermite basis), and lower degrees go.  Every
structure map restricts, because a chain map sends cycles to cycles;
its degree-k component is found in the cycle coordinates by
substitution.  A homotopy limit of connective objects is tau_{>=0} of
the unbounded one, so the homology of a connective tower fiber is the
window fiber's homology in degrees >= 0.

The stable-shadow functoriality checks follow; they read the package's
stripe windows, and no report runs them: ``shift_object`` and
``shift_check`` (shifting an object shifts each fiber's homology),
and ``CosimplicialMap``, a levelwise chain map checked for naturality
against every structure map, with ``quasi_iso_invariance`` (a levelwise
quasi-isomorphism induces isomorphisms on the homology of every tower
fiber).
"""

from __future__ import annotations

from map_reference import ReferenceWindow
from tottower._record import record
from tottower.abelian import (GroupHom, HomologyGroup, Subquotient,
                              _relation_matrix, induced_hom,
                              subquotient_presentation)
from tottower.chains import ChainComplexInt, ChainMap, chain_map
from tottower.cosimplicial import CosimplicialChain, tower_fiber
from tottower.errors import InputError, InvariantError, PreconditionError
from tottower.intlinalg import (IntMatrix, hermite_solve, kernel_lattice,
                                snf_invariants)


def _cover(c: ChainComplexInt, k: int):
    """tau_{>=k} c, and the basis of its degree-k group in the
    coordinates of c."""
    if k <= c.lo:
        return c, IntMatrix.identity(c.rank(k))
    if k > c.hi:
        return ChainComplexInt(k, (0,), ()), IntMatrix.zeros(0, 0)
    cycles = kernel_lattice(c.boundary(k))
    t = k - c.lo
    into_cycles = ((hermite_solve(cycles, c.boundary(k + 1)),)
                   if k < c.hi else ())
    return ChainComplexInt(k, (cycles.ncols,) + c.ranks[t + 1:],
                           into_cycles + c.boundaries[t + 1:]), cycles


def connective_cover(x: CosimplicialChain, k: int) -> CosimplicialChain:
    """The levelwise connective cover tau_{>=k} x."""
    covers = [_cover(level, k) for level in x.levels]

    def restrict(f, s: int, t: int):
        (src, src_cycles), (dst, dst_cycles) = covers[s], covers[t]
        mats = {d: f.component(d) for d in f.src.degrees() if d > k}
        mats[k] = hermite_solve(dst_cycles, f.component(k) @ src_cycles)
        return chain_map(src, dst, mats)

    return CosimplicialChain(
        levels=tuple(c for c, _ in covers),
        cofaces=tuple(
            tuple(restrict(d, s, s + 1) for d in row)
            for s, row in enumerate(x.cofaces)
        ),
        codegeneracies=tuple(
            tuple(restrict(g, s + 1, s) for g in row)
            for s, row in enumerate(x.codegeneracies)
        ),
    )


# -- stable-shadow functoriality ---------------------------------------------

def shift(c: ChainComplexInt, j: int) -> ChainComplexInt:
    """Reindex degrees by +j.  Boundaries are reused without signs."""
    return ChainComplexInt(c.lo + j, c.ranks, c.boundaries)


def shift_map(f: ChainMap, j: int) -> ChainMap:
    return ChainMap(shift(f.src, j), shift(f.dst, j),
                    tuple((k + j, m) for k, m in f.comps))


def shift_object(x: CosimplicialChain, j: int) -> CosimplicialChain:
    """Shift every level and every structure map by j degrees."""
    return CosimplicialChain(
        levels=tuple(shift(level, j) for level in x.levels),
        cofaces=tuple(
            tuple(shift_map(d, j) for d in row) for row in x.cofaces
        ),
        codegeneracies=tuple(
            tuple(shift_map(s, j) for s in row) for row in x.codegeneracies
        ),
    )


def shift_check(x: CosimplicialChain, n: int, m: int, j: int) -> bool:
    """Does shifting the object shift the fiber's homology by j?"""
    shifted = tower_fiber(shift_object(x, j), n, m).homology_all()
    plain = tower_fiber(x, n, m).homology_all()
    zero = HomologyGroup(0)
    return all(shifted.get(k, zero) == plain.get(k - j, zero)
               for k in set(shifted) | {d + j for d in plain})


@record
class CosimplicialMap:
    """Levelwise chain maps commuting with all structure maps."""

    src: CosimplicialChain
    dst: CosimplicialChain
    components: tuple

    def __post_init__(self):
        if self.src.truncation != self.dst.truncation:
            raise InputError("truncation mismatch")
        if len(self.components) != self.src.truncation + 1:
            raise InputError("need one component per level")
        for k, f in enumerate(self.components):
            if f.src != self.src.levels[k] or f.dst != self.dst.levels[k]:
                raise InputError(f"component {k} connects wrong levels")
        f = self.components
        for k in range(self.src.truncation):
            for i in range(k + 2):
                if not f[k + 1].compose_equals(
                        self.src.coface(k, i), self.dst.coface(k, i), f[k]):
                    raise InvariantError(
                        f"map fails naturality against d^{i} at level {k}"
                    )
            for i in range(k + 1):
                if not f[k].compose_equals(self.src.codegeneracy(k + 1, i),
                                           self.dst.codegeneracy(k + 1, i),
                                           f[k + 1]):
                    raise InvariantError(
                        f"map fails naturality against s^{i} at level {k + 1}"
                    )


def _fiber_map(f: CosimplicialMap, n: int, m: int) -> ChainMap:
    """Restrict a cosimplicial map to the stripes of a fiber window.

    Each level map carries the kernel of the codegeneracies into the
    same kernel on the other side, so solving through the embeddings is
    guaranteed to succeed."""
    src = ReferenceWindow(f.src.conormalization, n, m)
    dst = ReferenceWindow(f.dst.conormalization, n, m)
    comps = {}
    for k, blocks in src.blocks.items():
        entries = {}
        for s, r in blocks:
            if r and k in dst.blocks:
                t = k + s
                restricted = hermite_solve(
                    dst.conorm.embeddings[s].component(t),
                    f.components[s].component(t)
                    @ src.conorm.embeddings[s].component(t),
                )
                row0, col0 = dst.start(s, k), src.start(s, k)
                for (i, j, v) in restricted.entries:
                    entries[(row0 + i, col0 + j)] = v
        comps[k] = IntMatrix.from_dict(dst.rank(k), src.rank(k), entries)
    return chain_map(src.complex(), dst.complex(), comps)


def quasi_iso_invariance(f: CosimplicialMap) -> bool:
    """A levelwise quasi-isomorphism must induce isomorphisms on the
    homology of every tower fiber.  Raises PreconditionError when some
    level map is not a quasi-isomorphism; returns whether all induced
    fiber maps are isomorphisms on homology."""
    for k, comp in enumerate(f.components):
        if not induces_iso_everywhere(comp):
            raise PreconditionError(
                f"level {k} map is not a quasi-isomorphism"
            )
    top = f.src.truncation
    for n in range(top + 1):
        for m in range(n, top + 1):
            induced = _fiber_map(f, n, m)
            if not induces_iso_everywhere(induced):
                return False
    return True


# -- quasi-isomorphisms -------------------------------------------------------

def group_from_orders(orders: tuple) -> HomologyGroup:
    """Canonical form of the sum of the Z/o, where Z/0 stands for Z."""
    return HomologyGroup(orders.count(0), tuple(
        d for d in snf_invariants(_relation_matrix(orders)) if d > 1))


def is_iso(f: GroupHom) -> bool:
    """Decided without any search: groups with equal invariants are
    isomorphic, and a surjection between such groups is an isomorphism,
    since finitely generated abelian groups are Hopfian."""
    if group_from_orders(f.src_orders) != group_from_orders(f.dst_orders):
        return False
    coker = IntMatrix.hstack([f.mat, _relation_matrix(f.dst_orders)])
    return snf_invariants(coker) == (1,) * len(f.dst_orders)


def homology_presentation(c: ChainComplexInt, k: int) -> Subquotient:
    """H_k on the unreduced boundaries, so maps can push its generators."""
    cycles = kernel_lattice(c.boundary(k))
    return subquotient_presentation(cycles, c.boundary(k + 1))


def induced_on_homology(f: ChainMap, k: int) -> GroupHom:
    """GroupHom on degree-k homology presentations."""
    return induced_hom(homology_presentation(f.src, k),
                       homology_presentation(f.dst, k), f.component(k))


def induces_iso_everywhere(f: ChainMap) -> bool:
    degs = set(f.src.degrees()) | set(f.dst.degrees())
    return all(is_iso(induced_on_homology(f, k)) for k in sorted(degs))
