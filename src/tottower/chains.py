"""Bounded chain complexes of finitely generated free Z-modules.

A complex stores the rank of each degree in a contiguous window plus the
boundary matrices inside the window; everything outside is zero.  The
constructors trust their callers for the laws, which every complex and
chain map the package builds obeys by construction; data from outside is
checked once, by ``check_square_zero`` and ``check_commutes``.

Homology comes in two flavours.  ``homology`` uses the rank formula
(free rank n_k - r_k - r_{k+1}, torsion from the invariant factors of the
incoming boundary), which is the cheap path.  Before any Smith form it
cancels every +-1 pivot across all boundaries together (the elementary
reductions of Kaczynski, Mrozek and Slusarek, "Homology computation by
reduction of chain complexes", 1998) and takes Smith forms only of the
small residual matrices.  ``homology_presentation`` builds an explicit
kernel-modulo-image presentation whose generators can be pushed through
chain maps, so it works on the unreduced matrices; the two are compared
against each other in the test suite rather than trusted separately.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from ._record import record
from .abelian import (
    HomologyGroup,
    Subquotient,
    induced_hom,
    subquotient_presentation,
)
from .errors import InputError, InvariantError
from .intlinalg import IntMatrix, kernel_lattice, snf_invariants
from .schema import checked, field, list_of

__all__ = [
    "ChainComplexInt",
    "ChainMap",
    "chain_map",
    "identity_chain_map",
]


@record
class ChainComplexInt:
    """Chain complex concentrated in degrees lo .. lo+len(ranks)-1.

    boundaries[t] is the boundary C_{lo+t+1} -> C_{lo+t}, so it has shape
    (ranks[t], ranks[t+1]).
    """

    lo: int
    ranks: tuple
    boundaries: tuple

    def __post_init__(self):
        if not self.ranks:
            raise InputError("a complex needs at least one degree")
        if min(self.ranks) < 0:
            raise InputError("ranks must be nonnegative integers")
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

    def total_rank(self) -> int:
        return sum(self.ranks)

    def euler_characteristic(self) -> int:
        return sum(
            (-1) ** k * self.rank(k) for k in self.degrees()
        )

    # -- homology --------------------------------------------------------

    @cached_property
    def _boundary_invariants(self) -> tuple:
        pairs, residuals = _unit_reduce(self.boundaries)
        return tuple(
            (1,) * p + snf_invariants(r) for p, r in zip(pairs, residuals)
        )

    def _rank_of_boundary(self, k: int) -> int:
        t = k - self.lo - 1
        if 0 <= t < len(self.boundaries):
            return len(self._boundary_invariants[t])
        return 0

    def homology(self, k: int) -> HomologyGroup:
        n = self.rank(k)
        free = n - self._rank_of_boundary(k) - self._rank_of_boundary(k + 1)
        t_in = k + 1 - self.lo - 1
        if 0 <= t_in < len(self.boundaries):
            torsion = tuple(
                d for d in self._boundary_invariants[t_in] if d > 1
            )
        else:
            torsion = ()
        return HomologyGroup(free, torsion)

    def homology_all(self) -> dict:
        return {k: self.homology(k) for k in self.degrees()}

    def homology_presentation(self, k: int) -> Subquotient:
        cycles = kernel_lattice(self.boundary(k))
        return subquotient_presentation(cycles, self.boundary(k + 1))

    # -- constructions ----------------------------------------------------

    def shift(self, j: int) -> "ChainComplexInt":
        """Reindex degrees by +j.  Boundaries are reused without signs."""
        return ChainComplexInt(self.lo + j, self.ranks, self.boundaries)

    def direct_sum(self, other: "ChainComplexInt") -> "ChainComplexInt":
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        ranks = tuple(
            self.rank(k) + other.rank(k) for k in range(lo, hi + 1)
        )
        bnds = []
        for k in range(lo + 1, hi + 1):
            blocks = {}
            a, b = self.boundary(k), other.boundary(k)
            if not a.is_zero:
                blocks[(0, 0)] = a
            if not b.is_zero:
                blocks[(1, 1)] = b
            bnds.append(IntMatrix.from_blocks(
                [self.rank(k - 1), other.rank(k - 1)],
                [self.rank(k), other.rank(k)],
                blocks,
            ))
        return ChainComplexInt(lo, ranks, tuple(bnds))

    # -- serialization -----------------------------------------------------

    def to_data(self):
        return {
            "lo": self.lo,
            "ranks": list(self.ranks),
            "boundaries": [b.to_rows() for b in self.boundaries],
        }

    @classmethod
    def from_data(cls, data) -> "ChainComplexInt":
        lo, ranks, raw = (field(data, key, "chain complex")
                          for key in ("lo", "ranks", "boundaries"))
        checked(lo, int, "lowest degree must be an integer")
        list_of(ranks, int, "'ranks' must be a list of integers")
        checked(raw, list, "'boundaries' must be a list of matrices")
        if len(raw) != max(len(ranks) - 1, 0):
            raise InputError("wrong number of boundary matrices")
        # the constructor checks the row counts
        complex_ = cls(lo, tuple(ranks), tuple(
            IntMatrix.from_rows(rows, ncols=ranks[t + 1])
            for t, rows in enumerate(raw)
        ))
        complex_.check_square_zero()
        return complex_


def _unit_reduce(boundaries: tuple) -> tuple:
    """Cancel every +-1 pivot of the boundaries; return (pairs, residuals).

    Boundaries are taken from the bottom up.  In boundaries[t] each column
    b, in index order, with a unit entry is paired with the unit row a
    that has the fewest nonzeros (ties to the lower index).  Column
    operations clear row a, then row a and column b are deleted.  In the
    new basis row b of boundaries[t+1] and column a of boundaries[t-1]
    are zero, because the boundary squares to zero, so they are dropped
    unchanged: row b when boundaries[t+1] is indexed, as its reduction
    starts, and column a when the residuals are read off.  Columns that
    the clearing touched are visited again, and boundaries[t] only loses
    rows and columns afterwards, so no unit entry is left when the pass
    ends.  Bottom up is about three times faster than top down on order
    complexes.

    pairs[t] counts the pivots removed from boundaries[t] and
    residuals[t] is what is left of it, so that, invariant factors being
    unique, snf_invariants(boundaries[t]) equals
    (1,) * pairs[t] + snf_invariants(residuals[t]).
    """
    # cols[t][j] maps row -> value of column j; rt[i] holds the columns
    # where row i is nonzero
    cols = []
    gone = [set() for _ in range(len(boundaries) + 1)]
    pairs = [0] * len(boundaries)
    for t, bnd in enumerate(boundaries):
        ct = {}
        rt = {}
        skip = gone[t]
        for i, j, v in bnd.entries:
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
    for t, bnd in enumerate(boundaries):
        keep_r = [i for i in range(bnd.nrows) if i not in gone[t]]
        keep_c = [j for j in range(bnd.ncols) if j not in gone[t + 1]]
        new_r = {i: p for p, i in enumerate(keep_r)}
        ct = cols[t]
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

    @property
    def is_zero(self) -> bool:
        return not self.comps

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

    def shift(self, j: int) -> "ChainMap":
        return ChainMap(self.src.shift(j), self.dst.shift(j),
                        tuple((k + j, m) for k, m in self.comps))

    def induced_on_homology(self, k: int):
        """GroupHom on degree-k homology presentations."""
        src_pres = self.src.homology_presentation(k)
        dst_pres = self.dst.homology_presentation(k)
        return induced_hom(src_pres, dst_pres, self.component(k))

    def induces_iso_everywhere(self) -> bool:
        degs = set(self.src.degrees()) | set(self.dst.degrees())
        return all(self.induced_on_homology(k).is_iso() for k in sorted(degs))


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


def identity_chain_map(c: ChainComplexInt) -> ChainMap:
    mats = {
        k: IntMatrix.identity(c.rank(k))
        for k in c.degrees() if c.rank(k)
    }
    return chain_map(c, c, mats)
