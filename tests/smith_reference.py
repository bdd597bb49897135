"""The package's Smith form with its column transform v or with the
inverse u_inv of its row transform, and the solves, kernels and
generators that read them, kept as references for the echelon routes
that replaced them in the package.

``VSmith`` is the package's ``_Smith`` reduction, also tracking v: it
overrides only ``__init__`` and the two column operations, so every
elimination it runs is the package's own, and ``smith_with_v`` returns
the package's ``SNFResult`` together with v, so that
u @ a @ v == diagonal(res).  ``UInvSmith`` likewise also tracks u_inv,
as the package's ``_Smith`` did before subquotients built their
generators from ``right_inverse``: it overrides ``__init__``, the two row
operations and ``export``, and ``smith_with_u_inv`` returns the package's
``SNFResult`` together with u_inv.  ``u_inv_gens`` is the generator
matrix a subquotient kept then, ``numer @ u_inv`` on the columns past the
invariants equal to 1.  ``kernel_basis`` reads the kernel off v; the
seeded corpus (``corpus_reference``) draws random combinations of that
basis, so it must stay byte for byte what it was.

``diagonal`` and ``transpose`` are the former methods of those names.
``snf_solve`` is the body of the former ``SNFResult.solve`` method and
``solve_matrix`` the former ``intlinalg.solve_matrix``.  ``SmithSubquotient``
and ``smith_subquotient`` are ``abelian.Subquotient`` and the body of
``abelian._subquotient_memo`` from when a subquotient kept its numerator's
Smith form and took two Smith forms: one of the numerator, solved against
for the denominator and for ``coords``, and one of the quotient.  The only
edits are that ``res.solve(b)`` reads ``snf_solve(res, v, b)``, with the
numerator's v kept next to its Smith form, and that ``wres.u_inv`` reads
the u_inv of ``smith_with_u_inv``.
"""

from __future__ import annotations

from dataclasses import dataclass

from map_reference import take_columns, take_rows
from tottower.errors import InputError, InvariantError
from tottower.intlinalg import (
    IntMatrix,
    SNFResult,
    _dict_add,
    _placed,
    _Smith,
    hermite_solve,
    snf_invariants,
)


class VSmith(_Smith):
    """``_Smith`` with transforms, also tracking the column transform v
    as one column dict per working column."""

    def __init__(self, mat: IntMatrix):
        super().__init__(mat, True)
        self.v_cols = {j: {j: 1} for j in range(self.n)}

    def _col_add(self, j: int, l: int, c: int) -> None:
        super()._col_add(j, l, c)
        _dict_add(self.v_cols[j], self.v_cols[l], c)

    def _col_pair(self, j1: int, j2: int, x: int, y: int, z: int, w: int) -> None:
        super()._col_pair(j1, j2, x, y, z, w)
        vj1, vj2 = self.v_cols[j1], self.v_cols[j2]
        new1: dict = {}
        new2: dict = {}
        for k in vj1.keys() | vj2.keys():
            p, q = vj1.get(k, 0), vj2.get(k, 0)
            n1, n2 = x * p + y * q, z * p + w * q
            if n1:
                new1[k] = n1
            if n2:
                new2[k] = n2
        self.v_cols[j1], self.v_cols[j2] = new1, new2


class UInvSmith(_Smith):
    """``_Smith`` with transforms, also tracking the inverse u_inv of the
    row transform as one column dict per working row."""

    def __init__(self, mat: IntMatrix):
        super().__init__(mat, True)
        self.uinv_columns = {i: {i: 1} for i in range(self.m)}

    def _row_add(self, i: int, k: int, c: int) -> None:
        super()._row_add(i, k, c)
        _dict_add(self.uinv_columns[k], self.uinv_columns[i], -c)

    def _row_negate(self, i: int) -> None:
        super()._row_negate(i)
        col = self.uinv_columns[i]
        for k in col:
            col[k] = -col[k]

    def export(self, order: list) -> tuple:
        """(u, u_inv); the columns of u_inv move as the rows of u do."""
        m = self.m
        row_at = _placed([i for i, _ in order], m)
        u_inv = {i * m + p: w for p, k in enumerate(row_at)
                 for i, w in self.uinv_columns[k].items()}
        return super().export(order), IntMatrix.from_cells(m, m, u_inv)


def smith_with_u_inv(mat: IntMatrix) -> tuple:
    """(smith_normal_form(mat), u_inv) with u @ u_inv the identity; the
    steps are those of ``smith_normal_form`` with transforms."""
    worker = UInvSmith(mat)
    order = worker.eliminate()
    worker.fix_divisibility(order)
    invariants = tuple(worker.rows[i][j] for i, j in order)
    u, u_inv = worker.export(order)
    return SNFResult(mat.nrows, mat.ncols, invariants, tuple(order),
                     u=u), u_inv


def u_inv_gens(numer: IntMatrix, denom: IntMatrix) -> IntMatrix:
    """The generators of numer/denom as ``abelian`` built them from u_inv,
    for a numerator in column echelon form."""
    wres, u_inv = smith_with_u_inv(hermite_solve(numer, denom))
    n = numer.ncols
    return (numer @ u_inv).block(range(numer.nrows),
                                 range(wres.invariants.count(1), n))


def diagonal(res: SNFResult) -> IntMatrix:
    """The nrows x ncols matrix with the invariants of res on its diagonal."""
    return IntMatrix.from_dict(
        res.nrows, res.ncols,
        {(t, t): d for t, d in enumerate(res.invariants)},
    )


def transpose(a: IntMatrix) -> IntMatrix:
    return IntMatrix.from_dict(
        a.ncols, a.nrows, {(j, i): v for i, j, v in a.entries}
    )


def smith_with_v(mat: IntMatrix) -> tuple:
    """(smith_normal_form(mat), v) with u @ mat @ v == diagonal(res).

    The steps are those of ``smith_normal_form`` with transforms; v's
    columns move as u's rows do, pivot t to column t."""
    worker = VSmith(mat)
    order = worker.eliminate()
    worker.fix_divisibility(order)
    invariants = tuple(worker.rows[i][j] for i, j in order)
    n = mat.ncols
    col_at = _placed([j for _, j in order], n)
    v = IntMatrix.from_cells(n, n, {
        i * n + p: w for p, j in enumerate(col_at)
        for i, w in worker.v_cols[j].items()
    })
    return SNFResult(mat.nrows, mat.ncols, invariants, tuple(order),
                     u=worker.export(order)), v


def kernel_basis(mat: IntMatrix) -> IntMatrix:
    """Basis of the integer kernel, as columns.

    The basis spans a saturated sublattice (it extends to a basis of the
    ambient lattice), because it consists of columns of a unimodular
    matrix.  Columns are ordered by their position in v.  The seeded
    corpus draws random combinations of this basis, so
    ``kernel_lattice``, which spans the same lattice in another basis,
    would give different objects.
    """
    res, v = smith_with_v(mat)
    return take_columns(v, range(res.rank, mat.ncols))


def matrix_rank(mat: IntMatrix) -> int:
    return len(snf_invariants(mat))


def snf_solve(self: SNFResult, v: IntMatrix, b: IntMatrix) -> IntMatrix:
    """One integral solution x of a @ x == b for the factored a, whose
    column transform is v.

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
    return v @ y


def solve_matrix(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """One integral solution x of a @ x == b, column by column.

    Raises InvariantError when no integral solution exists; callers use
    this for maps that are forced to exist by theory, so a failure means a
    broken invariant rather than bad user input.
    """
    if a.nrows != b.nrows:
        raise InputError("solve requires matching row counts")
    return snf_solve(*smith_with_v(a), b)


@dataclass(frozen=True)
class SmithSubquotient:
    """Presentation of L/L' for lattices L' <= L inside some Z^N.

    ``gens`` columns are ambient representatives of the generators, whose
    orders are listed in ``orders``: the invariant factors >= 2 in
    divisibility order, then a 0 per infinite summand (trivial generators
    are dropped).  ``_numer`` is the Smith form of the basis of L,
    ``_v`` its column transform, and ``_u`` sends L-coordinates to
    generator coordinates.
    """

    ambient: int
    orders: tuple
    gens: IntMatrix
    _numer: SNFResult
    _v: IntMatrix
    _u: IntMatrix

    def coords(self, vecs: IntMatrix) -> IntMatrix:
        """Generator coordinates of each column of ``vecs``, column by column.

        Every column must lie in L, or InvariantError is raised.  Finite
        coordinates are reduced mod their order.
        """
        if vecs.nrows != self.ambient:
            raise InputError("expected ambient column vectors")
        y = self._u @ snf_solve(self._numer, self._v, vecs)
        data = {}
        for i, j, v in y.entries:
            o = self.orders[i]
            data[(i, j)] = v % o if o else v
        return IntMatrix.from_dict(y.nrows, y.ncols, data)


def smith_subquotient(numer_basis: IntMatrix,
                      denom_gens: IntMatrix) -> SmithSubquotient:
    if numer_basis.nrows != denom_gens.nrows:
        raise InputError("numerator and denominator in different ambients")
    res, v = smith_with_v(numer_basis)
    if res.rank != numer_basis.ncols:
        raise InputError("numerator columns are not independent")
    wres, u_inv = smith_with_u_inv(snf_solve(res, v, denom_gens))
    all_orders = wres.invariants + (0,) * (numer_basis.ncols - wres.rank)
    keep = [i for i, d in enumerate(all_orders) if d != 1]
    return SmithSubquotient(numer_basis.nrows,
                            tuple(all_orders[i] for i in keep),
                            take_columns(numer_basis @ u_inv, keep),
                            res, v, take_rows(wres.u, keep))
