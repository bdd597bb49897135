"""Finite posets, order complexes, slices and downward closed inclusions.

The relation is kept as bitmasks: down[i] is the set of indices weakly
below element i.  That makes transitivity checks, slices and cover
computations cheap integer arithmetic even for a few hundred elements.

Two model families are built here.  Subset posets hold the nonempty
subsets of a finite set within a card range; subspace posets hold the
nonzero subspaces of F_q^n up to a dimension cap, each subspace named by
its reduced row echelon basis so equality is literal tuple equality.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property

from ._record import record
from .errors import InputError, InvariantError
from .simplicial import (
    MAX_FACES,
    SimplicialComplex,
    complex_from_coded,
    label_key,
)

__all__ = [
    "FinPoset",
    "poset_from_relation",
    "full_subposet",
    "poset_dimension",
    "subset_poset",
    "subspace_poset",
    "gaussian_binomial",
    "PosetInclusion",
    "down_slice_masks",
    "order_complex",
    "checked_chain_count",
    "MAX_CHAINS",
    "MAX_POSET_ELEMENTS",
    "MAX_FIELD_ORDER",
    "check_fence_condition",
]


# order_complex refuses a poset with more maximal chains than this.  The
# chains are the facets of its order complex, and each brings up to
# 2^length faces: on a 2-vCPU Xeon VM a wedge check of the subsets of an
# 8-set with card <= 6 (20160 chains of 6) took about 5 s and 280 MiB.
# MAX_FACES now refuses that poset: it has 167490 chains in all.
MAX_CHAINS = 25_000
# subset_poset and subspace_poset refuse to build more elements than this.
# Relating them costs little: on a 2-vCPU Xeon VM, subspace_poset built
# the costliest poset under the cap, all 3651 subspaces of F_7^4, in 0.22 s.
MAX_POSET_ELEMENTS = 4096
# subspace_poset refuses a larger q.  For n >= 2 the q + 1 lines of F_q^2
# already pass MAX_POSET_ELEMENTS, so this bounds the n = 1 case, and the
# primality test by trial division, to the same range.
MAX_FIELD_ORDER = MAX_POSET_ELEMENTS


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@record
class FinPoset:
    """Partial order on a canonical tuple of elements.

    down[i] is the bitmask of indices j with elements[j] <= elements[i].
    The constructor trusts its caller for all of it: poset_from_relation,
    subset_poset and subspace_poset sort distinct elements by
    ``label_key``, computing each key once, and get their masks from one
    closure that makes them reflexive and refuses a cycle; full_subposet
    and down_slice_masks keep a subsequence of a poset's elements and
    restrict a relation that has both.
    """

    elements: tuple
    down: tuple

    @cached_property
    def _index(self) -> dict:
        return {e: i for i, e in enumerate(self.elements)}

    @cached_property
    def _up(self) -> tuple:
        up = [0] * len(self.elements)
        for i, m in enumerate(self.down):
            for j in _bits(m):
                up[j] |= 1 << i
        return tuple(up)

    def index(self, v) -> int:
        """The position of v; InputError if v is not an element.  The
        lookup goes by ``==``, under which True is 1, so a label that
        ``label_key`` refuses, at any depth, is refused first."""
        label_key(v)
        try:
            return self._index[v]
        except KeyError:
            raise InputError(f"{v!r} is not a poset element") from None

    @cached_property
    def covers(self) -> tuple:
        """Cover pairs (j, i) of indices: e_j covered by e_i."""
        out = []
        for i in range(len(self.elements)):
            strict_down = self.down[i] & ~(1 << i)
            for j in _bits(strict_down):
                strict_up_j = self._up[j] & ~(1 << j)
                if strict_down & strict_up_j == 0:
                    out.append((j, i))
        return tuple(out)

    @cached_property
    def _succ(self) -> tuple:
        """Per index, the sorted indices of the elements covering it."""
        succ = [[] for _ in self.elements]
        for j, i in self.covers:
            succ[j].append(i)
        return tuple(sorted(lst) for lst in succ)

    def maximal_chain_count(self) -> int:
        """How many maximal chains there are, counted without listing any."""
        n = len(self.elements)
        succ = self._succ
        # up[i]: the maximal chains of the part above e_i that start at
        # e_i.  A larger element has a larger down-set, so it comes first.
        order = sorted(range(n), key=lambda i: self.down[i].bit_count())
        up = [0] * n
        for i in reversed(order):
            up[i] = sum(up[t] for t in succ[i]) or 1
        return sum(up[i] for i, m in enumerate(self.down) if m == 1 << i)

    def chain_count(self) -> int:
        """How many nonempty chains there are, counted without listing
        any.  They are the faces of the order complex."""
        n = len(self.elements)
        # ending[i]: the chains whose largest element is e_i.  Everything
        # strictly below e_i has a smaller down-set, so it comes first.
        order = sorted(range(n), key=lambda i: self.down[i].bit_count())
        ending = [0] * n
        for i in order:
            ending[i] = 1 + sum(
                ending[j] for j in _bits(self.down[i] & ~(1 << i))
            )
        return sum(ending)

    @cached_property
    def _chain_counts(self) -> tuple:
        """(maximal chains, all chains), counted once per poset."""
        return self.maximal_chain_count(), self.chain_count()


def _close(lower) -> tuple:
    """The down-masks of the reflexive transitive closure of a relation.

    lower[i] lists indices j with e_j <= e_i; repeats and i itself are
    allowed.  Elements are finished in a topological order (Kahn's
    algorithm), each mask its own bit ORed with the finished masks below
    it.  Elements left unfinished when none is free lie on or above a
    cycle, and the relation is refused.
    """
    below = [set(js) - {i} for i, js in enumerate(lower)]
    above = [[] for _ in below]
    for i, js in enumerate(below):
        for j in js:
            above[j].append(i)
    waiting = [len(js) for js in below]
    ready = [i for i, w in enumerate(waiting) if not w]
    down = [0] * len(below)
    for i in ready:     # ready grows as elements are freed
        m = 1 << i
        for j in below[i]:
            m |= down[j]
        down[i] = m
        for k in above[i]:
            waiting[k] -= 1
            if not waiting[k]:
                ready.append(k)
    if len(ready) < len(below):
        raise InputError("relation has a cycle")
    return tuple(down)


def poset_from_relation(elements, pairs=()) -> FinPoset:
    """Build a poset from explicit pairs (a, b), each saying a <= b.

    The pairs are closed reflexively and transitively; self-pairs and
    repeats are allowed, and a cycle among distinct elements is refused.
    This is where a relation from outside the package is proved to be a
    partial order.
    """
    elems = sorted(elements, key=label_key)
    if len(set(elems)) != len(elems):
        raise InputError("duplicate poset elements")
    pos = {e: i for i, e in enumerate(elems)}
    lower = [[] for _ in elems]
    for a, b in pairs:
        if a not in pos or b not in pos:
            raise InputError(f"relation pair ({a!r}, {b!r}) off the set")
        lower[pos[b]].append(pos[a])
    return FinPoset(tuple(elems), _close(lower))


def _restrict(down, picked) -> tuple:
    """The masks down[t] for t in picked, cut to the indices in picked and
    renumbered by their positions there."""
    pos = {t: k for k, t in enumerate(picked)}
    return tuple(
        sum(1 << pos[u] for u in _bits(down[t]) if u in pos) for t in picked
    )


def full_subposet(p: FinPoset, selection) -> FinPoset:
    """The elements of selection, ordered as in p."""
    picked = sorted({p.index(e) for e in selection})
    return FinPoset(tuple(p.elements[t] for t in picked),
                    _restrict(p.down, picked))


def poset_dimension(p: FinPoset) -> int:
    """Length of a longest chain, minus one."""
    if not p.elements:
        raise InputError("an empty poset has no dimension")
    n = len(p.elements)
    heights = [0] * n
    order = sorted(range(n), key=lambda i: p.down[i].bit_count())
    for i in order:
        below = _bits(p.down[i] & ~(1 << i))
        heights[i] = max((heights[j] + 1 for j in below), default=0)
    return max(heights)


def _refuse_large(totals) -> None:
    # totals: the running element count of a poset, level by level
    for total in totals:
        if total > MAX_POSET_ELEMENTS:
            raise InputError(
                f"the poset would have more than {MAX_POSET_ELEMENTS} "
                f"elements"
            )


def subset_poset(base, min_card: int = 1, max_card: int | None = None) \
        -> FinPoset:
    """Nonempty subsets of ``base`` with min_card <= size <= max_card,
    ordered by inclusion.  Subsets are key-sorted tuples.

    ``base`` must have a len().  More than MAX_POSET_ELEMENTS subsets are
    refused with InputError before any is built.
    """
    n = len(base)
    top = n if max_card is None else min(max_card, n)
    _refuse_large(itertools.accumulate(
        math.comb(n, k) for k in range(max(min_card, 1), top + 1)
    ))
    items = sorted(base, key=label_key)
    if len(set(items)) != len(items):
        raise InputError("base set has repeated items")
    if not items:
        raise InputError("base set is empty")
    if min_card < 1 or min_card > top:
        raise InputError("need 1 <= min_card <= max_card")
    # index tuples in lexicographic order are the subsets in label_key
    # order.  Above min_card, the subsets below one are those one element
    # smaller, so no pair of subsets is compared.
    combos = sorted(
        c
        for k in range(min_card, top + 1)
        for c in itertools.combinations(range(n), k)
    )
    at = {sum(1 << i for i in c): t for t, c in enumerate(combos)}
    lower = [[] for _ in combos]
    for bits, t in at.items():
        if bits.bit_count() > min_card:
            lower[t] = [at[bits ^ (1 << i)] for i in _bits(bits)]
    return FinPoset(
        tuple(tuple(items[i] for i in c) for c in combos), _close(lower))


def _is_prime(q: int) -> bool:
    return q >= 2 and all(q % d for d in range(2, math.isqrt(q) + 1))


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    assert num % den == 0
    return num // den


def _rref_matrices(n: int, k: int, q: int):
    for pivots in itertools.combinations(range(n), k):
        free = [
            (i, c)
            for i, p in enumerate(pivots)
            for c in range(p + 1, n)
            if c not in pivots
        ]
        for vals in itertools.product(range(q), repeat=len(free)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, c), v in zip(free, vals):
                rows[i][c] = v
            yield tuple(tuple(r) for r in rows)


def _add_line(v, piv, line, q: int) -> tuple:
    """The reduced echelon basis of v + line.  v has pivot columns piv,
    and line is a 1-dimensional echelon basis that is zero on all of
    them, so it lies outside v."""
    (r,) = line
    c = r.index(1)      # the pivot of line
    rows = [tuple((a - w[c] * b) % q for a, b in zip(w, r)) for w in v]
    rows.insert(sum(p < c for p in piv), r)
    return tuple(rows)


def subspace_poset(q: int, n: int, max_dim: int) -> FinPoset:
    """Nonzero subspaces of F_q^n of dimension <= max_dim, by inclusion.

    Each subspace is the tuple of rows of its reduced row echelon basis.
    The enumeration is cross-checked against the Gaussian binomials, which
    also count the elements up front: more than MAX_POSET_ELEMENTS are
    refused with InputError before any is built, and so is a q above
    MAX_FIELD_ORDER.
    """
    if not 2 <= q <= MAX_FIELD_ORDER:
        raise InputError(f"q must be a prime of at most {MAX_FIELD_ORDER}")
    if n < 1:
        raise InputError("need n >= 1")
    if max_dim < 1:
        raise InputError("need max_dim >= 1")
    max_dim = min(max_dim, n)
    # F_q^n has at least 2^n - 1 lines; checking that bound first keeps
    # q^n from being computed for a huge n
    _refuse_large([2 ** min(n, MAX_POSET_ELEMENTS.bit_length()) - 1])
    _refuse_large(itertools.accumulate(
        gaussian_binomial(n, k, q) for k in range(1, max_dim + 1)
    ))
    if not _is_prime(q):
        raise InputError("q must be prime")
    elements = []
    for k in range(1, max_dim + 1):
        level = list(_rref_matrices(n, k, q))
        expected = gaussian_binomial(n, k, q)
        if len(level) != len(set(level)) or len(level) != expected:
            raise InvariantError(
                f"echelon enumeration for dimension {k} found "
                f"{len(level)}, expected {expected}"
            )
        elements.extend(level)
    # a subspace of dimension k + 1 holding a k-dimensional v is v plus
    # exactly one line zero on the pivot columns of v, so v is related to
    # each subspace covering it once; free[piv] lists those lines
    lines = elements[:gaussian_binomial(n, 1, q)]
    free = {piv: [line for line in lines if not any(line[0][p] for p in piv)]
            for k in range(1, max_dim)
            for piv in itertools.combinations(range(n), k)}
    elements.sort(key=label_key)
    at = {v: t for t, v in enumerate(elements)}
    lower = [[] for _ in elements]
    for v, t in at.items():
        if len(v) < max_dim:
            piv = tuple(row.index(1) for row in v)
            for line in free[piv]:
                lower[at[_add_line(v, piv, line, q)]].append(t)
    return FinPoset(tuple(elements), _close(lower))


@record
class PosetInclusion:
    """A full subposet sitting inside an ambient poset.

    Trusted, not checked: build sub with full_subposet(ambient, ...), as
    the deloop models do, and it is full."""

    sub: FinPoset
    ambient: FinPoset

    def complement(self) -> tuple:
        inside = set(self.sub.elements)
        return tuple(e for e in self.ambient.elements if e not in inside)


def down_slice_masks(incl: PosetInclusion):
    """Yield, per ambient element in order, the slice of the subposet
    weakly below it as (picked, down): the subposet indices in it,
    ascending, and its relation masks over positions in picked.

    The slice poset is FinPoset(tuple(incl.sub.elements[t] for t in
    picked), down).  Each slice is cut from the ambient element's own
    mask, so no comparison is made and no poset is built.
    """
    amb, sub = incl.ambient, incl.sub
    at = [None] * len(amb.elements)    # ambient index -> subposet index
    for t, c in enumerate(sub.elements):
        at[amb.index(c)] = t
    for mask in amb.down:
        picked = [at[j] for j in _bits(mask) if at[j] is not None]
        yield picked, _restrict(sub.down, picked)


def checked_chain_count(p: FinPoset) -> int:
    """The number of maximal chains of p; InputError above MAX_CHAINS,
    or when p has more than MAX_FACES chains in all (the faces of its
    order complex)."""
    count, faces = p._chain_counts
    if count > MAX_CHAINS:
        raise InputError(
            f"poset has {count} maximal chains; order complexes are "
            f"built for at most {MAX_CHAINS}"
        )
    if faces > MAX_FACES:
        raise InputError(
            f"poset has {faces} chains; order complexes are built with "
            f"at most {MAX_FACES} faces"
        )
    return count


def _chains(p: FinPoset) -> tuple:
    """(facets, by_size): every chain of p once, as the ascending tuple of
    its element indices.  by_size[s] lists the chains of s + 1 elements
    in lexicographic order; facets lists the maximal chains, the same
    tuple objects, in lexicographic order.

    A chain is the clique it spans in the comparability graph, and it
    carries the AND of down[i] | up[i] over its elements: those comparable
    with all of them, its own included.  It grows by each of those above
    its last index, so it is built once, from its prefix, and it is
    maximal exactly when the mask holds no element but its own.  The walk
    is depth first on its own stack, which leaves no reference cycle
    behind, and pushes the larger index first, so chains come off in
    lexicographic order.  Call it only after checked_chain_count(p).
    """
    comp = [d | u for d, u in zip(p.down, p._up)]
    # a chain of s elements has 2^s - 1 subchains and checked_chain_count
    # holds them to MAX_FACES, so no chain is longer than this
    by_size = [[] for _ in range(MAX_FACES.bit_length())]
    facets = []
    stack = [((i,), comp[i]) for i in reversed(range(len(comp)))]
    while stack:
        chain, mask = stack.pop()
        size = len(chain)
        by_size[size - 1].append(chain)
        if mask.bit_count() == size:
            facets.append(chain)
            continue
        start = chain[-1] + 1
        above = mask >> start << start
        while above:
            j = above.bit_length() - 1
            above ^= 1 << j
            stack.append((chain + (j,), mask & comp[j]))
    return facets, [s for s in by_size if s]


def order_complex(p: FinPoset) -> SimplicialComplex:
    """Complex of chains; the empty poset gives the empty complex.

    A poset with more than MAX_CHAINS maximal chains, or more than
    MAX_FACES chains in all, is refused with InputError before any chain
    is listed.

    The chains are listed once each, by one walk over the relation masks
    (``_chains``), already coded and sorted: the elements passed
    ``label_key`` when the poset was built and are stored in its order,
    so element indices are the vertex codes.  The complex takes the
    facets and every face from the walk through ``complex_from_coded``
    and does not list them again.
    """
    checked_chain_count(p)
    facets, by_size = _chains(p)
    return complex_from_coded(p.elements, facets, by_size)


def check_fence_condition(incl: PosetInclusion):
    """The subposet must be downward closed in the ambient.

    Returns (ok, witnesses); each witness is a pair (x, c) with x outside
    the subposet strictly below c inside it.
    """
    inside = set(incl.sub.elements)
    witnesses = []
    for c in incl.sub.elements:
        ci = incl.ambient.index(c)
        for j in _bits(incl.ambient.down[ci] & ~(1 << ci)):
            x = incl.ambient.elements[j]
            if x not in inside:
                witnesses.append((x, c))
    return (not witnesses, witnesses)

