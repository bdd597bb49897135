"""Solves against a Smith form with transforms, kept verbatim as the
references for the echelon routes that replaced them in the package.

``snf_solve`` is the body of the former ``SNFResult.solve`` method and
``solve_matrix`` the former ``intlinalg.solve_matrix``.  ``SmithSubquotient``
and ``smith_subquotient`` are ``abelian.Subquotient`` and the body of
``abelian._subquotient_memo`` from when a subquotient kept its numerator's
Smith form and took two Smith forms: one of the numerator, solved against
for the denominator and for ``coords``, and one of the quotient.  The only
edit is that ``res.solve(b)`` reads ``snf_solve(res, b)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from tottower.errors import InputError, InvariantError
from tottower.intlinalg import IntMatrix, SNFResult, smith_normal_form


def snf_solve(self: SNFResult, b: IntMatrix) -> IntMatrix:
    """One integral solution x of a @ x == b for the factored a.

    Needs the transforms; raises InvariantError when some column of b
    has no integral solution.
    """
    c = self.u @ b
    data = {}
    for i, j, w in c.entries:
        if i >= self.rank:
            raise InvariantError("system has no integral solution")
        q, r = divmod(w, self.invariants[i])
        if r:
            raise InvariantError("system has no integral solution")
        data[(i, j)] = q
    y = IntMatrix.from_dict(self.ncols, b.ncols, data)
    return self.v @ y


def solve_matrix(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """One integral solution x of a @ x == b, column by column.

    Raises InvariantError when no integral solution exists; callers use
    this for maps that are forced to exist by theory, so a failure means a
    broken invariant rather than bad user input.
    """
    if a.nrows != b.nrows:
        raise InputError("solve requires matching row counts")
    return snf_solve(smith_normal_form(a), b)


@dataclass(frozen=True)
class SmithSubquotient:
    """Presentation of L/L' for lattices L' <= L inside some Z^N.

    ``gens`` columns are ambient representatives of the generators, whose
    orders are listed in ``orders``: the invariant factors >= 2 in
    divisibility order, then a 0 per infinite summand (trivial generators
    are dropped).  ``_numer`` is the Smith form of the basis of L and
    ``_u`` sends L-coordinates to generator coordinates.
    """

    ambient: int
    orders: tuple
    gens: IntMatrix
    _numer: SNFResult
    _u: IntMatrix

    def coords(self, vecs: IntMatrix) -> IntMatrix:
        """Generator coordinates of each column of ``vecs``, column by column.

        Every column must lie in L, or InvariantError is raised.  Finite
        coordinates are reduced mod their order.
        """
        if vecs.nrows != self.ambient:
            raise InputError("expected ambient column vectors")
        y = self._u @ snf_solve(self._numer, vecs)
        data = {}
        for i, j, v in y.entries:
            o = self.orders[i]
            data[(i, j)] = v % o if o else v
        return IntMatrix.from_dict(y.nrows, y.ncols, data)


def smith_subquotient(numer_basis: IntMatrix,
                      denom_gens: IntMatrix) -> SmithSubquotient:
    if numer_basis.nrows != denom_gens.nrows:
        raise InputError("numerator and denominator in different ambients")
    res = smith_normal_form(numer_basis)
    if res.rank != numer_basis.ncols:
        raise InputError("numerator columns are not independent")
    wres = smith_normal_form(snf_solve(res, denom_gens))
    all_orders = wres.invariants + (0,) * (numer_basis.ncols - wres.rank)
    keep = [i for i, d in enumerate(all_orders) if d != 1]
    return SmithSubquotient(numer_basis.nrows,
                            tuple(all_orders[i] for i in keep),
                            (numer_basis @ wres.u_inv).take_columns(keep),
                            res, wres.u.take_rows(keep))
