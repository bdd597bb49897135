"""Finitely generated abelian groups, exactly.

Groups are carried around in two forms.  ``HomologyGroup`` is the abstract
answer: a free rank plus invariant factors in divisibility order, suitable
for equality tests and reports.  ``Subquotient`` keeps enough of a
presentation (the numerator's echelon basis and the transform into
generator coordinates) to push elements through and to induce
homomorphisms, building ambient generators only when a map reads them.
Coordinates in the numerator come from forward substitution against its
echelon basis (``hermite_solve``), so each subquotient takes exactly one
Smith form, that of the quotient, and pushing elements through takes none.

Equal presentations are built once.  ``subquotient_presentation``
remembers its latest MEMO_SIZE distinct (numerator, denominator) pairs,
keyed on the matrices themselves (``IntMatrix`` equality is
structural).  A ``Subquotient`` is an immutable, exact function of its
two immutable inputs, so a hit is exactly what rebuilding would give.
It is the package's one memo across calls; the eliminations of
``intlinalg`` remember nothing.  The pages, the page check and the
graded limit of a Tot spectral sequence ask for the same subquotients
again and again: ss on the Cech object of 4 points with truncation 4
presents 60 subquotients of 17 distinct pairs.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from ._record import record
from .errors import InputError, InvariantError
from .intlinalg import (
    IntMatrix,
    hermite_solve,
    kernel_lattice,
    lattice_basis,
    right_inverse,
    smith_normal_form,
)

__all__ = [
    "HomologyGroup",
    "format_group",
    "GroupHom",
    "presented_homology",
    "Subquotient",
    "subquotient_presentation",
    "induced_hom",
    "MEMO_SIZE",
]

# How many distinct (numerator, denominator) pairs subquotient_presentation
# remembers; a Tot spectral sequence repeats them on every page past
# stabilization, in page verification and in the graded limit.
MEMO_SIZE = 1024


@record
class HomologyGroup:
    """Z^rank plus cyclic torsion in divisibility order.

    Every group is built from an internal elimination, never read from
    input, so a malformed one is an InvariantError.
    """

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if not isinstance(self.rank, int) or self.rank < 0:
            raise InvariantError("rank must be a nonnegative integer")
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d:
                raise InvariantError("torsion must be in divisibility order")
        for d in self.torsion:
            if not isinstance(d, int) or d < 2:
                raise InvariantError("torsion coefficients must be >= 2")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        return format_group(self)


def format_group(g: HomologyGroup) -> str:
    parts = []
    if g.rank == 1:
        parts.append("Z")
    elif g.rank:
        parts.append(f"Z^{g.rank}")
    parts.extend(f"Z/{d}" for d in g.torsion)
    return " + ".join(parts) if parts else "0"


def _relation_matrix(orders) -> IntMatrix:
    # One relation column o*e_i per finite-order generator.
    finite = [(i, o) for i, o in enumerate(orders) if o > 0]
    return IntMatrix.from_dict(
        len(orders), len(finite),
        {(i, t): o for t, (i, o) in enumerate(finite)},
    )


@record
class GroupHom:
    """Homomorphism between groups presented as direct sums of cyclics.

    ``src_orders`` and ``dst_orders`` list one order per cyclic
    generator: 0 for an infinite cyclic summand, d >= 1 for Z/d.  ``mat``
    sends source generators (columns) to integer combinations of
    destination generators, and must respect the orders: o * mat[:, j]
    has to vanish in the destination whenever the j-th source generator
    has finite order o.  Every one is induced by an internal map, so a
    malformed one is an InvariantError.
    """

    src_orders: tuple
    dst_orders: tuple
    mat: IntMatrix

    def __post_init__(self):
        if self.mat.shape != (len(self.dst_orders), len(self.src_orders)):
            raise InvariantError("matrix shape does not fit the presentations")
        for i, j, v in self.mat.entries:
            o = self.src_orders[j]
            if o == 0:
                continue
            target = self.dst_orders[i]
            scaled = o * v
            if target == 0:
                if scaled != 0:
                    raise InvariantError(
                        f"entry ({i}, {j}) ignores the order-{o} relation"
                    )
            elif scaled % target:
                raise InvariantError(
                    f"entry ({i}, {j}) ignores the order-{o} relation"
                )


def _zero_modulo(orders: tuple, cells) -> bool:
    """Whether every (row, value) of cells vanishes in the cyclic group of
    that row's order."""
    return all((o := orders[i]) and not v % o for i, v in cells)


def presented_homology(f: GroupHom, g: GroupHom) -> HomologyGroup:
    """Homology ker(g)/im(f) at the middle of A --f--> B --g--> C."""
    if f.dst_orders != g.src_orders:
        raise InputError("maps do not share a middle group")
    n = f.mat.ncols
    cells = g.mat.product_cells(f.mat).items()
    if not _zero_modulo(g.dst_orders, ((key // n, v) for key, v in cells)):
        raise InvariantError("composite is not zero, no homology to take")
    m = len(f.dst_orders)
    rb = _relation_matrix(f.dst_orders)
    rc = _relation_matrix(g.dst_orders)
    # lifts of ker g: x with g.mat @ x in the relation lattice of C
    paired = kernel_lattice(IntMatrix.hstack([g.mat, -rc]))
    numer = lattice_basis(paired.block(range(m), range(paired.ncols)))
    denom = IntMatrix.hstack([f.mat, rb])
    return subquotient_presentation(numer, denom).group()


@record
class Subquotient:
    """Presentation of L/L' for lattices L' <= L inside some Z^N.

    The generators have the orders listed in ``orders``: the invariant
    factors >= 2 in divisibility order, then a 0 per infinite summand
    (trivial generators are dropped).  ``_numer`` is the column echelon
    basis of L and ``_u`` sends L-coordinates to generator coordinates.
    """

    ambient: int
    orders: tuple
    _numer: IntMatrix
    _u: IntMatrix

    @cached_property
    def gens(self) -> IntMatrix:
        """Ambient generators as columns, column t with coordinates e_t."""
        return self._numer @ right_inverse(self._u)

    def group(self) -> HomologyGroup:
        return HomologyGroup(self.orders.count(0),
                             tuple(o for o in self.orders if o))

    def coords(self, vecs: IntMatrix) -> IntMatrix:
        """Generator coordinates of each column of ``vecs``, column by column.

        Every column must lie in L, or InvariantError is raised.  Finite
        coordinates are reduced mod their order.
        """
        if vecs.nrows != self.ambient:
            raise InputError("expected ambient column vectors")
        y = self._u @ hermite_solve(self._numer, vecs)
        data = {}
        for i, j, v in y.entries:
            o = self.orders[i]
            data[(i, j)] = v % o if o else v
        return IntMatrix.from_dict(y.nrows, y.ncols, data)


def subquotient_presentation(numer_basis: IntMatrix,
                             denom_gens: IntMatrix) -> Subquotient:
    """Present (span of numer_basis)/(span of denom_gens).

    The numerator columns must be in column echelon form, with pivot rows
    strictly increasing (as lattice_basis and kernel_lattice give them, so
    they are independent), and the denominator columns must lie in their
    span; violations raise InvariantError, they are never patched up.
    Every caller passes lattices the package built, so a violation is a
    fault in the package, not bad input.
    An input pair equal to a recent one gets that one's result object back.
    """
    return _subquotient_memo(numer_basis, denom_gens)


@lru_cache(maxsize=MEMO_SIZE)
def _subquotient_memo(numer_basis: IntMatrix,
                      denom_gens: IntMatrix) -> Subquotient:
    if numer_basis.nrows != denom_gens.nrows:
        raise InvariantError("numerator and denominator in different ambients")
    # the top row of each column, -1 for a zero column
    tops = [-1] * numer_basis.ncols
    for i, j, _ in reversed(numer_basis.entries):
        tops[j] = i
    if any(q <= p for p, q in zip([-1] + tops, tops)):
        raise InvariantError("numerator pivot rows do not strictly increase")
    wres = smith_normal_form(hermite_solve(numer_basis, denom_gens))
    n = numer_basis.ncols
    all_orders = wres.invariants + (0,) * (n - wres.rank)
    # the invariants run in divisibility order, so the trivial generators
    # (the 1s) come first and the kept ones are a contiguous suffix
    keep = range(wres.invariants.count(1), n)
    return Subquotient(numer_basis.nrows, all_orders[keep.start:],
                       numer_basis, wres.u.block(keep, range(n)))


def induced_hom(src: Subquotient, dst: Subquotient,
                ambient_map: IntMatrix) -> GroupHom:
    """Homomorphism induced on subquotients by a map of ambient lattices.

    The ambient map must send the numerator of ``src`` into the numerator
    of ``dst`` and the denominator into the denominator; only the first is
    checked directly (via coords), the second is the caller's theory.
    """
    if ambient_map.shape != (dst.ambient, src.ambient):
        raise InvariantError("ambient map shape mismatch")
    return GroupHom(src.orders, dst.orders,
                    dst.coords(ambient_map @ src.gens))
