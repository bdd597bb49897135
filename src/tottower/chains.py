"""Bounded chain complexes of finitely generated free Z-modules.

A complex stores the rank of each degree in a contiguous window plus the
boundary matrices inside the window; everything outside is zero.  The
constructors trust their callers for the laws, which every complex and
chain map the package builds obeys by construction; data from outside is
checked once, as ``cosimplicial`` reads it, by ``check_square_zero`` and
``check_commutes``.

Homology uses the rank formula (free rank n_k - r_k - r_{k+1}, torsion
from the invariant factors of the incoming boundary).  One reduction first
cancels every +-1 pivot across all boundaries together (the elementary
reductions of Kaczynski, Mrozek and Slusarek, "Homology computation by
reduction of chain complexes", 1998), then takes Smith forms of the small
residuals.  It reads the boundaries column by column from a feed: the
matrix entries of a complex, or the faces ``simplicial`` codes.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from ._record import record
from .abelian import HomologyGroup
from .errors import InputError, InvariantError
from .intlinalg import IntMatrix, snf_invariants

__all__ = [
    "ChainComplexInt",
    "ChainMap",
    "chain_map",
    "homology_from_columns",
]


@record
class ChainComplexInt:
    """Chain complex concentrated in degrees lo .. lo+len(ranks)-1.

    boundaries[t] is the boundary C_{lo+t+1} -> C_{lo+t}, so it has shape
    (ranks[t], ranks[t+1]).  The constructor checks the boundary count and
    shapes, which every stripe layout rests on; the ranks of a level read
    from JSON are checked by its reader.
    """

    lo: int
    ranks: tuple
    boundaries: tuple

    def __post_init__(self):
        if len(self.boundaries) != len(self.ranks) - 1:
            raise InputError("wrong number of boundary matrices")
        for t, b in enumerate(self.boundaries):
            if b.shape != (self.ranks[t], self.ranks[t + 1]):
                raise InputError(
                    f"boundary into degree {self.lo + t} has shape "
                    f"{b.shape}, expected ({self.ranks[t]}, {self.ranks[t+1]})"
                )

    def check_square_zero(self) -> None:
        """Raise InvariantError unless the boundary squares to zero."""
        for t in range(len(self.boundaries) - 1):
            if self.boundaries[t].product_cells(self.boundaries[t + 1]):
                raise InvariantError(
                    f"boundary squared is nonzero at degree {self.lo + t + 2}"
                )

    # -- shape ---------------------------------------------------------

    @property
    def hi(self) -> int:
        return self.lo + len(self.ranks) - 1

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def rank(self, k: int) -> int:
        if self.lo <= k <= self.hi:
            return self.ranks[k - self.lo]
        return 0

    def boundary(self, k: int) -> IntMatrix:
        """The boundary C_k -> C_{k-1}, zero-padded outside the window."""
        t = k - self.lo - 1
        if 0 <= t < len(self.boundaries):
            return self.boundaries[t]
        return IntMatrix.zeros(self.rank(k - 1), self.rank(k))

    # -- homology --------------------------------------------------------

    @cached_property
    def _boundary_invariants(self) -> tuple:
        return _invariants(self.ranks, _entry_columns(self.boundaries))

    def homology(self, k: int) -> HomologyGroup:
        t = k - self.lo
        if 0 <= t < len(self.ranks):
            return _homology(self.ranks, self._boundary_invariants, t)
        return HomologyGroup(0)

    def homology_all(self) -> dict:
        return {k: self.homology(k) for k in self.degrees()}


def homology_from_columns(lo: int, ranks: tuple, columns) -> dict:
    """{degree: HomologyGroup} in degrees lo .. lo+len(ranks)-1, boundary t
    (degree lo+t+1 to lo+t) read from the feed columns(t, skip): it gives
    (cols, row_index), column -> {row: value} and row -> set of columns,
    filled in ascending (row, column) order and without the rows in skip.
    The order decides which pivots are taken, never the groups."""
    invariants = _invariants(ranks, columns)
    return {lo + t: _homology(ranks, invariants, t) for t in range(len(ranks))}


def _homology(ranks: tuple, invariants: tuple, t: int) -> HomologyGroup:
    """The group in degree lo+t, boundary t running from lo+t+1 to lo+t."""
    out = invariants[t - 1] if t else ()
    into = invariants[t] if t < len(invariants) else ()
    return HomologyGroup(ranks[t] - len(out) - len(into),
                         tuple(d for d in into if d > 1))


def _invariants(ranks: tuple, columns) -> tuple:
    pairs, residuals = _unit_reduce(ranks, columns)
    return tuple(
        (1,) * p + snf_invariants(r) for p, r in zip(pairs, residuals)
    )


def _entry_columns(boundaries: tuple):
    """The feed of _unit_reduce that reads boundaries[t].entries."""
    def columns(t, skip):
        ct, rt = {}, {}
        for i, j, v in boundaries[t].entries:
            if i in skip:
                continue
            col = ct.get(j)
            if col is None:
                ct[j] = {i: v}
            else:
                col[i] = v
            row = rt.get(i)
            if row is None:
                rt[i] = {j}
            else:
                row.add(j)
        return ct, rt
    return columns


def _unit_reduce(ranks: tuple, columns) -> tuple:
    """Cancel every +-1 pivot of the boundaries; return (pairs, residuals).

    Boundary t, of shape (ranks[t], ranks[t+1]), comes from the feed
    columns, taken from the bottom up.  In boundary t each column b, in
    index order, with a unit entry is paired with the unit row a that has
    the fewest nonzeros (ties to the lower index).  Column operations
    clear row a, then row a and column b are deleted.  In the new basis
    row b of boundary t+1 and column a of boundary t-1 are zero, because
    the boundary squares to zero, so they are dropped unchanged: row b by
    the feed of boundary t+1, and column a when the residuals are read
    off.  Columns that the clearing changed, beyond losing row a, are
    visited again, and boundary t only loses rows and columns afterwards,
    so no unit is left when the pass ends.  Bottom up is about three times
    faster than top down on order complexes.

    pairs[t] counts the pivots removed from boundary t and residuals[t] is
    what is left of it: invariant factors being unique, boundary t has
    (1,) * pairs[t] + snf_invariants(residuals[t]) as its own.
    """
    # cols[t][j] maps row -> value of column j; rt[i] holds the columns
    # where row i is nonzero
    cols = []
    gone = [set() for _ in ranks]
    pairs = [0] * (len(ranks) - 1)
    for t in range(len(pairs)):
        ct, rt = columns(t, gone[t])
        cols.append(ct)
        queue = deque(sorted(ct))
        queued = set(queue)
        while queue:
            b = queue.popleft()
            queued.discard(b)
            col_b = ct[b]
            if len(col_b) == 1:
                # a lone entry is the only candidate
                a = next(iter(col_b))
                if col_b[a] not in (1, -1):
                    continue
            else:
                a = -1
                for i, v in col_b.items():
                    if v == 1 or v == -1:
                        n = len(rt[i])
                        if a < 0 or n < best or (n == best and i < a):
                            a, best = i, n
                if a < 0:
                    continue
            del ct[b]
            v = col_b.pop(a)
            for i in col_b:
                rt[i].discard(b)
            row_a = rt.pop(a)
            row_a.discard(b)
            for j in row_a:
                col_j = ct[j]
                c = col_j.pop(a) * v
                if not col_b:
                    continue  # deleting row a makes no unit to revisit
                for i, w in col_b.items():
                    nv = col_j.get(i, 0) - c * w
                    if nv:
                        if i not in col_j:
                            rt[i].add(j)
                        col_j[i] = nv
                    elif i in col_j:
                        del col_j[i]
                        rt[i].discard(j)
                if j not in queued:
                    queue.append(j)
                    queued.add(j)
            gone[t].add(a)
            gone[t + 1].add(b)
            pairs[t] += 1
    residuals = []
    for t, ct in enumerate(cols):
        keep_r = [i for i in range(ranks[t]) if i not in gone[t]]
        keep_c = [j for j in range(ranks[t + 1]) if j not in gone[t + 1]]
        new_r = {i: p for p, i in enumerate(keep_r)}
        data = {
            (new_r[i], q): v
            for q, j in enumerate(keep_c) if j in ct
            for i, v in ct[j].items()
        }
        residuals.append(IntMatrix.from_dict(len(keep_r), len(keep_c), data))
    return pairs, residuals


@record
class ChainMap:
    """Degreewise map of complexes commuting with the boundaries.

    The constructor trusts its caller for the shapes and for commuting;
    ``check_commutes`` checks the latter on a map read from outside.
    """

    src: ChainComplexInt
    dst: ChainComplexInt
    comps: tuple  # sorted ((degree, IntMatrix), ...), zero components absent

    def check_commutes(self) -> None:
        """Raise InvariantError unless boundaries commute with the map."""
        comps = self._by_degree
        for k in sorted(comps.keys() | {k + 1 for k in comps}):
            lhs = _product_cells(self.dst.boundary(k), comps.get(k))
            rhs = _product_cells(comps.get(k - 1), self.src.boundary(k))
            if lhs != rhs:
                raise InvariantError(
                    f"boundaries do not commute with the map in degree {k}"
                )

    @cached_property
    def _by_degree(self) -> dict:
        return dict(self.comps)

    def component(self, k: int) -> IntMatrix:
        if k in self._by_degree:
            return self._by_degree[k]
        return IntMatrix.zeros(self.dst.rank(k), self.src.rank(k))

    # A composite is compared cell by cell, in the degrees where it can
    # be nonzero, and never built.

    def _composite_cells(self, other: "ChainMap") -> dict:
        """{k: nonzero cells of self_k @ other_k} over the degrees k where
        both maps are nonzero; self∘other is zero in every other degree."""
        if other.dst != self.src:
            raise InputError("composition through different complexes")
        mine, theirs = self._by_degree, other._by_degree
        return {k: mine[k].product_cells(theirs[k])
                for k in mine.keys() & theirs.keys()}

    def compose_equals(self, other: "ChainMap", f: "ChainMap",
                       g: "ChainMap") -> bool:
        """Whether self∘other equals f∘g."""
        lhs, rhs = self._composite_cells(other), f._composite_cells(g)
        if (other.src, self.dst) != (g.src, f.dst):
            return False
        return all(lhs.get(k, {}) == rhs.get(k, {})
                   for k in lhs.keys() | rhs.keys())

    def compose_is_zero(self, other: "ChainMap") -> bool:
        """Whether self∘other is the zero map."""
        return not any(self._composite_cells(other).values())

    def compose_is_identity(self, other: "ChainMap") -> bool:
        """Whether self∘other is the identity of other.src."""
        c = other.src
        if self.dst != c:
            return False
        cells = self._composite_cells(other)
        for k in cells.keys() | {k for k in c.degrees() if c.rank(k)}:
            n = c.rank(k)
            if cells.get(k, {}) != {i * (n + 1): 1 for i in range(n)}:
                return False
        return True


def _product_cells(a: IntMatrix | None, b: IntMatrix | None) -> dict:
    """The nonzero cells of a @ b, where None stands for a zero matrix."""
    if a is None or b is None:
        return {}
    return a.product_cells(b)


def chain_map(src: ChainComplexInt, dst: ChainComplexInt,
              mats: dict) -> ChainMap:
    comps = tuple(sorted(
        (k, m) for k, m in mats.items() if not m.is_zero
    ))
    return ChainMap(src, dst, comps)
