"""Sparse exact linear algebra over the integers.

Everything downstream (homology, conormalizations, spectral sequence pages)
reduces to the routines here.  All arithmetic uses Python's unbounded ints;
there is no floating point and no modular shortcut anywhere in the package.

The Smith reduction follows one fixed pivot rule so that every run is
reproducible down to the unimodular transforms: among all eligible entries
of the working matrix, pick the one minimizing (|value|, row, column).
Clearing a pivot's row and column can leave remainders; when that happens
the rule is simply applied again, and termination follows because the
minimal absolute value strictly drops on every such retry.  No row or
column is ever swapped: each pivot stays at the site where elimination
finds it and its value is read there.  A form with transforms tracks
only the row transform u, and permutes its rows once, as it exports it.

No elimination is remembered here.  The package's one memo across
calls sits a layer up: ``abelian.subquotient_presentation`` remembers
whole subquotient presentations, so a repeated one takes neither its
Smith form nor the solves and products around it.  Repeated kernels are
not asked for in the first place: the spectral filtration keys each of
its kernels on the block of the total differential that the kernel cuts.

A Smith form with transforms is not needed for a canonical kernel or for
coordinates in a canonical basis.  ``kernel_lattice`` gives the Hermite
basis of a kernel from the same row clearing that ``lattice_basis``
runs, over [A; I], and ``hermite_solve`` finds coordinates against a
column echelon basis by forward substitution.  Conormalization, the
subquotients and the spectral filtration use only these two, and
``right_inverse``, which inverts rows of u, is built from them.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left
from functools import cached_property
from itertools import accumulate, compress

from ._record import record
from .errors import InputError, InvariantError
from .schema import int_rows, is_int

__all__ = [
    "IntMatrix",
    "SNFResult",
    "xgcd",
    "smith_normal_form",
    "snf_invariants",
    "kernel_lattice",
    "hermite_solve",
    "lattice_basis",
    "right_inverse",
]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: (g, x, y) with g = a*x + b*y and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@record
class IntMatrix:
    """Immutable sparse integer matrix.

    ``entries`` holds (row, col, value) triples of ints, in range, values
    nonzero, sorted row-major with no duplicates.  The constructor checks
    only the dimensions and trusts its entries: every caller in the
    package builds them that way.  ``from_rows`` is the checked entry
    point for data from outside the program; it checks every cell.
    Equality and hashing are structural, so two matrices are equal
    exactly when they have the same shape and the same entries.  Zero-row
    and zero-column shapes are legal; they show up constantly at the ends
    of chain complexes.
    """

    nrows: int
    ncols: int
    entries: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if not is_int(self.nrows) or not is_int(self.ncols):
            raise InputError("matrix dimensions must be integers")
        if self.nrows < 0 or self.ncols < 0:
            raise InputError("matrix dimensions must be nonnegative")

    # -- constructors -------------------------------------------------

    @classmethod
    def from_dict(cls, nrows: int, ncols: int, data) -> "IntMatrix":
        """The matrix whose cells are data[(i, j)]; zero values are dropped."""
        return cls.from_cells(nrows, ncols, {
            i * ncols + j: v for (i, j), v in data.items()
        })

    @classmethod
    def from_cells(cls, nrows: int, ncols: int, cells: dict) -> "IntMatrix":
        """The matrix whose cell (i, j) is cells[i * ncols + j]; zero values
        are dropped.  Ints sort faster than pairs, so from_dict and every
        product assemble their matrix here."""
        if not ncols:
            return cls(nrows, 0, ())
        return cls(nrows, ncols, tuple([
            (key // ncols, key % ncols, v)
            for key in sorted(cells) if (v := cells[key])
        ]))

    @classmethod
    def from_rows(cls, rows, ncols: int | None = None) -> "IntMatrix":
        ncols = int_rows(rows, ncols)
        # a list, not a range: compress then makes no int object per cell
        cols = list(range(ncols))
        entries = []
        for i, row in enumerate(rows):
            entries += [(i, j, row[j]) for j in compress(cols, row)]
        return cls(len(rows), ncols, tuple(entries))

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> "IntMatrix":
        return cls(nrows, ncols, ())

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple((i, i, 1) for i in range(n)))

    @classmethod
    def hstack(cls, mats) -> "IntMatrix":
        mats = list(mats)
        if not mats:
            raise InputError("hstack of nothing")
        return cls.from_blocks([mats[0].nrows], [m.ncols for m in mats],
                               {(0, j): m for j, m in enumerate(mats)})

    @classmethod
    def vstack(cls, mats) -> "IntMatrix":
        mats = list(mats)
        if not mats:
            raise InputError("vstack of nothing")
        return cls.from_blocks([m.nrows for m in mats], [mats[0].ncols],
                               {(i, 0): m for i, m in enumerate(mats)})

    @classmethod
    def from_blocks(cls, row_sizes, col_sizes, blocks) -> "IntMatrix":
        """Assemble from a block grid.

        ``blocks`` maps (block_row, block_col) to an IntMatrix of shape
        (row_sizes[block_row], col_sizes[block_col]); absent blocks are
        zero.
        """
        row_sizes = list(row_sizes)
        col_sizes = list(col_sizes)
        row_off = [0, *accumulate(row_sizes)]
        col_off = [0, *accumulate(col_sizes)]
        data = {}
        for (bi, bj), m in blocks.items():
            if not (0 <= bi < len(row_sizes) and 0 <= bj < len(col_sizes)):
                raise InputError(f"block index ({bi}, {bj}) out of range")
            if m.shape != (row_sizes[bi], col_sizes[bj]):
                raise InputError(
                    f"block ({bi}, {bj}) has shape {m.shape}, "
                    f"expected ({row_sizes[bi]}, {col_sizes[bj]})"
                )
            ro, co = row_off[bi], col_off[bj]
            for i, j, v in m.entries:
                data[(ro + i, co + j)] = v
        return cls.from_dict(row_off[-1], col_off[-1], data)

    # -- cached views --------------------------------------------------

    @cached_property
    def _row_items(self) -> tuple:
        acc = [[] for _ in range(self.nrows)]
        for i, j, v in self.entries:
            acc[i].append((j, v))
        return tuple(tuple(r) for r in acc)

    # -- queries -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def __repr__(self):
        return f"<IntMatrix {self.nrows}x{self.ncols}, {len(self.entries)} nz>"

    # -- algebra ---------------------------------------------------------

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(
            self.nrows, self.ncols,
            tuple((i, j, -v) for i, j, v in self.entries),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix.from_cells(self.nrows, other.ncols,
                                    self.product_cells(other))

    def product_cells(self, other: "IntMatrix") -> dict:
        """The nonzero cells of self @ other, cell (i, j) keyed
        i * other.ncols + j.  Two products of one shape are equal exactly
        when their cell dicts are, so a product that is only compared
        need not be built."""
        if self.ncols != other.nrows:
            raise InputError(
                f"cannot multiply {self.nrows}x{self.ncols} "
                f"by {other.nrows}x{other.ncols}"
            )
        acc: dict = {}
        if not self.entries or not other.entries:
            return acc
        orows = other._row_items
        n = other.ncols
        get = acc.get
        for i, k, v in self.entries:
            base = i * n
            for j, w in orows[k]:
                key = base + j
                acc[key] = get(key, 0) + v * w
        for key in [key for key, x in acc.items() if not x]:
            del acc[key]
        return acc

    def block(self, rows: range, cols: range) -> "IntMatrix":
        """The submatrix on a run of rows and a run of columns, each a
        step-1 range inside the shape.  The rows' entries are found by
        bisection, and shifting keeps them sorted, so nothing is sorted."""
        for run, size in ((rows, self.nrows), (cols, self.ncols)):
            if not (run.step == 1 and 0 <= run.start <= run.stop <= size):
                raise InputError(f"{run} is not a run inside 0..{size}")
        if len(rows) == self.nrows and len(cols) == self.ncols:
            return self
        r0, c0, c1 = rows.start, cols.start, cols.stop
        lo = bisect_left(self.entries, (r0,))
        hi = bisect_left(self.entries, (rows.stop,), lo)
        return IntMatrix(len(rows), len(cols), tuple([
            (i - r0, j - c0, v) for i, j, v in self.entries[lo:hi]
            if c0 <= j < c1
        ]))


def _symquo(b: int, v: int) -> int:
    # Quotient q with |b - q*v| <= |v| / 2.
    q, r = divmod(b, v)
    if 2 * abs(r) > abs(v):
        q += 1
    return q


def _dict_add(dst: dict, src: dict, c: int) -> None:
    for k, w in src.items():
        nv = dst.get(k, 0) + c * w
        if nv:
            dst[k] = nv
        else:
            dst.pop(k, None)


class _Smith:
    """Working state of a Smith reduction.

    The matrix lives in ``rows`` (dict of row dicts) with a column
    occupancy index in ``cols``.  ``heap`` is a lazy min-heap of
    (|value|, row, col) candidates; every write pushes a fresh entry and
    pops skip anything stale, so the top valid entry is always the true
    minimum under the pivot rule.
    """

    def __init__(self, mat: IntMatrix, transforms: bool):
        self.m = mat.nrows
        self.n = mat.ncols
        self.track = transforms
        self.rows = {i: {} for i in range(self.m)}
        self.cols = {j: set() for j in range(self.n)}
        self.heap = []
        for i, j, v in mat.entries:
            self.rows[i][j] = v
            self.cols[j].add(i)
            self.heap.append((abs(v), i, j))
        heapq.heapify(self.heap)
        self.done_rows = set()
        self.done_cols = set()
        if transforms:
            self.u_rows = {i: {i: 1} for i in range(self.m)}

    # -- elementary operations, applied to the matrix and u --------------

    def _set(self, i: int, j: int, v: int) -> None:
        row = self.rows[i]
        if v:
            row[j] = v
            self.cols[j].add(i)
            heapq.heappush(self.heap, (abs(v), i, j))
        elif j in row:
            del row[j]
            self.cols[j].discard(i)

    def _row_add(self, i: int, k: int, c: int) -> None:
        # r_i += c * r_k, for c != 0
        row_i = self.rows[i]
        for j, w in list(self.rows[k].items()):
            self._set(i, j, row_i.get(j, 0) + c * w)
        if self.track:
            _dict_add(self.u_rows[i], self.u_rows[k], c)

    def _col_add(self, j: int, l: int, c: int) -> None:
        # c_j += c * c_l, for c != 0
        for i in list(self.cols[l]):
            self._set(i, j, self.rows[i].get(j, 0) + c * self.rows[i][l])

    def _row_negate(self, i: int) -> None:
        row = self.rows[i]
        for r in (row, self.u_rows[i]) if self.track else (row,):
            for j in r:
                r[j] = -r[j]

    def _col_pair(self, j1: int, j2: int, x: int, y: int, z: int, w: int) -> None:
        # (c_j1, c_j2) <- (x c_j1 + y c_j2, z c_j1 + w c_j2), det x*w - y*z = ±1
        for i in list(self.cols[j1] | self.cols[j2]):
            row = self.rows[i]
            a = row.get(j1, 0)
            b = row.get(j2, 0)
            self._set(i, j1, x * a + y * b)
            self._set(i, j2, z * a + w * b)

    # -- phases -----------------------------------------------------------

    def eliminate(self) -> list:
        """Extract pivots until no live entry remains.

        Returns the pivot sites as (row, col) in selection order.  A site
        is committed only once its row and column are fully cleared; if a
        clearing pass leaves remainders, those are strictly smaller in
        absolute value and the pivot rule is re-applied.
        """
        order = []
        heap = self.heap
        while heap:
            a, i, j = heapq.heappop(heap)
            if i in self.done_rows or j in self.done_cols:
                continue
            v = self.rows[i].get(j, 0)
            if v == 0 or abs(v) != a:
                continue  # stale heap entry
            if not self._isolate(i, j):
                heapq.heappush(heap, (abs(self.rows[i][j]), i, j))
                continue
            if self.rows[i][j] < 0:
                self._row_negate(i)
            self.done_rows.add(i)
            self.done_cols.add(j)
            order.append((i, j))
        return order

    def _isolate(self, i: int, j: int) -> bool:
        v = self.rows[i][j]
        for k in list(self.cols[j]):
            if k == i:
                continue
            self._row_add(k, i, -_symquo(self.rows[k][j], v))
        if len(self.cols[j]) > 1:
            return False  # remainder beat the pivot; reselect
        for l in list(self.rows[i].keys()):
            if l == j:
                continue
            self._col_add(l, j, -_symquo(self.rows[i][l], v))
        return len(self.rows[i]) == 1

    def fix_divisibility(self, order: list) -> None:
        """Bubble adjacent pivot pairs (a, b) with a not dividing b into
        (gcd, a*b/gcd) by genuine unimodular row and column operations, so
        the tracked transforms stay exact."""
        changed = True
        while changed:
            changed = False
            for t in range(len(order) - 1):
                i1, j1 = order[t]
                i2, j2 = order[t + 1]
                a = self.rows[i1][j1]
                b = self.rows[i2][j2]
                if b % a == 0:
                    continue
                g, x, y = xgcd(a, b)
                self._row_add(i1, i2, 1)
                self._col_pair(j1, j2, x, y, -(b // g), a // g)
                self._row_add(i2, i1, -(y * (b // g)))
                changed = True

    def export(self, order: list) -> IntMatrix:
        """u with pivot t moved to row t.  Row p of the placed form is the
        working row that _placed puts there; the rows of u move with it."""
        m = self.m
        row_at = _placed([i for i, _ in order], m)
        u = {p * m + j: w for p, i in enumerate(row_at)
             for j, w in self.u_rows[i].items()}
        return IntMatrix.from_cells(m, m, u)


def _placed(pivots: list, size: int) -> list:
    """at[p] is the index left at position p when, for t = 0, 1, ..., the
    position holding pivots[t] is swapped with position t.  The swaps
    are followed on two index lists, so this is O(size)."""
    at = list(range(size))
    pos = list(range(size))
    for t, i in enumerate(pivots):
        p, x = pos[i], at[t]
        at[t], at[p] = i, x
        pos[i], pos[x] = t, p
    return at


@record
class SNFResult:
    """Smith normal form of an integer matrix.

    ``invariants`` lists the diagonal d_1 | d_2 | ... | d_r, all positive.
    With transforms, u is unimodular (its inverse is not kept) and
    u @ a == d @ w, for the nrows x ncols matrix d with the invariants
    down its diagonal and a unimodular w that is not kept: row t of
    u @ a is invariants[t] times a primitive row, and the rows past the
    rank are zero.  ``pivot_sites`` records where each pivot was selected
    in the original coordinates, in selection order; the value finally
    living at site t (after divisibility fixes) is invariants[t], and it
    is read there.  The exported u moves pivot t from its site's row to
    row t.
    """

    nrows: int
    ncols: int
    invariants: tuple
    pivot_sites: tuple
    u: IntMatrix | None = None

    @property
    def rank(self) -> int:
        return len(self.invariants)


def smith_normal_form(mat: IntMatrix, transforms: bool = True) -> SNFResult:
    """Smith normal form with the (|value|, row, column) pivot rule.

    With ``transforms`` the result carries a unimodular u such that
    u @ mat is the invariant diagonal times a unimodular matrix.
    Skipping transforms roughly halves the work for rank-only callers, and
    such a form moves nothing: it reads each invariant at its pivot site.
    """
    worker = _Smith(mat, transforms)
    order = worker.eliminate()
    worker.fix_divisibility(order)
    invariants = tuple(worker.rows[i][j] for i, j in order)
    u = worker.export(order) if transforms else None
    return SNFResult(mat.nrows, mat.ncols, invariants, tuple(order), u)


def snf_invariants(mat: IntMatrix) -> tuple:
    # most rank-only inputs (unit-reduced residuals, empty relation
    # matrices) have no entries, and so no invariants
    if not mat.entries:
        return ()
    return smith_normal_form(mat, transforms=False).invariants


def _subtract(dst: dict, q: int, src: dict, cid: int, index: dict) -> None:
    """dst -= q * src in place, for q != 0.

    ``index`` maps a row to the ids of the columns nonzero there; column
    ``cid`` (which is dst) enters or leaves it as dst gains or loses rows.
    """
    for k, v in src.items():
        nv = dst.get(k, 0) - q * v
        if nv:
            if k not in dst:
                index.setdefault(k, set()).add(cid)
            dst[k] = nv
        else:
            del dst[k]
            index[k].discard(cid)


def lattice_basis(mat: IntMatrix) -> IntMatrix:
    """Canonical basis of the lattice spanned by the columns.

    Column Hermite form: pivot rows strictly increase, pivot entries are
    positive, and earlier columns are reduced at later pivot rows into
    [0, pivot).  Two column sets span the same lattice exactly when they
    produce equal output here.

    Rows are cleared top down.  At each row the columns nonzero there are
    reduced against the one with the smallest |entry| (ties: fewest
    nonzeros, then lowest id) until one is left; it becomes the next basis
    column and reduces the earlier ones at its row.  Two row -> column-id
    indexes, one over the working columns and one over the basis, let
    each step touch only the columns nonzero at that row.  The Hermite
    form is unique, so the pivot rule changes speed, never output.
    """
    basis = []
    basis_at = {}
    for r, _, main in _clear_rows(mat):
        p = len(basis)
        if main[r] < 0:
            main = {k: -v for k, v in main.items()}
        d = main[r]
        for b in list(basis_at.get(r, ())):
            q = basis[b][r] // d
            if q:
                _subtract(basis[b], q, main, b, basis_at)
        for k in main:
            basis_at.setdefault(k, set()).add(p)
        basis.append(main)
    data = {}
    for idx, col in enumerate(basis):
        for k, v in col.items():
            data[(k, idx)] = v
    return IntMatrix.from_dict(mat.nrows, len(basis), data)


def _clear_rows(mat: IntMatrix, tails: list | None = None):
    """Clear the rows of mat top down by column operations.

    At each row the columns nonzero there are reduced against the one
    with the smallest |entry| (ties: fewest nonzeros, then lowest id)
    until one is left; that column leaves the working set and is yielded
    as (row, column id, column dict), so later rows never touch it.  The
    working columns are row -> value dicts with a row -> column-id index.
    With ``tails`` (one row -> value dict per column, kept outside the
    index) every column operation is applied to the tails as well; a
    yielded column's tail is final from then on, and the columns never
    yielded are those whose mat-part ended zero.
    """
    cols = [{} for _ in range(mat.ncols)]
    at_row = {}
    for i, j, v in mat.entries:
        cols[j][i] = v
        at_row.setdefault(i, set()).add(j)
    for r in range(mat.nrows):
        hit = at_row.get(r)
        if not hit:
            continue
        while len(hit) > 1:
            p = min(hit, key=lambda t: (abs(cols[t][r]), len(cols[t]), t))
            main, d = cols[p], cols[p][r]
            for t in [t for t in hit if t != p]:
                q = cols[t][r] // d
                _subtract(cols[t], q, main, t, at_row)
                if tails is not None:
                    _dict_add(tails[t], tails[p], -q)
        p = next(iter(hit))
        main = cols[p]
        for k in main:
            at_row[k].discard(p)
        yield r, p, main


def kernel_lattice(mat: IntMatrix) -> IntMatrix:
    """Canonical basis of the integer kernel, as columns.

    Equals lattice_basis of any basis of the kernel, since the column
    Hermite form of a lattice is unique, but takes no Smith form: the
    rows of mat are cleared over the columns of [mat; I], and the I-parts
    (tails) of the columns never yielded span the kernel.  They are
    columns of a unimodular matrix, so the lattice they span is
    saturated; the yielded columns have independent images.  A matrix
    with no entries has all of Z^ncols as its kernel, whose Hermite basis
    is the identity.
    """
    if not mat.entries:
        return IntMatrix.identity(mat.ncols)
    tails = [{j: 1} for j in range(mat.ncols)]
    pivots = {p for _, p, _ in _clear_rows(mat, tails)}
    kernel = [col for j, col in enumerate(tails) if j not in pivots]
    k = len(kernel)
    return lattice_basis(IntMatrix.from_cells(mat.ncols, k, {
        i * k + c: v for c, col in enumerate(kernel) for i, v in col.items()
    }))


def hermite_solve(basis: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The integral x with basis @ x == b, for a basis in column echelon
    form (pivot rows strictly increasing, as lattice_basis gives).

    The solution is unique.  It is found by forward substitution: at each
    column's pivot row the residual of b is divided by the pivot and that
    multiple of the column is subtracted.  Raises InvariantError when a
    pivot does not divide, when a residual is left over, or when the pivot
    rows of the basis do not strictly increase.
    """
    if basis.nrows != b.nrows:
        raise InputError("solve requires matching row counts")
    cols = [[] for _ in range(basis.ncols)]
    for i, j, v in basis.entries:
        cols[j].append((i, v))
    rest = {}
    for i, j, v in b.entries:
        row = rest.get(i)
        if row is None:
            rest[i] = {j: v}
        else:
            row[j] = v
    n = b.ncols
    cells = {}
    last = -1
    for c, col in enumerate(cols):
        if not col or col[0][0] <= last:
            raise InvariantError("basis pivot rows do not strictly increase")
        last, d = col[0]
        row = rest.pop(last, None)
        if not row:
            continue
        x = {}
        for j, w in row.items():
            q, r = divmod(w, d)
            if r:
                raise InvariantError("system has no integral solution")
            x[j] = q
            cells[c * n + j] = q
        for i, v in col[1:]:
            target = rest.get(i)
            if target is None:
                rest[i] = {j: -q * v for j, q in x.items()}
                continue
            for j, q in x.items():
                nv = target.get(j, 0) - q * v
                if nv:
                    target[j] = nv
                else:
                    del target[j]
    if any(rest.values()):
        raise InvariantError("system has no integral solution")
    return IntMatrix.from_cells(basis.ncols, n, cells)


def right_inverse(rows: IntMatrix) -> IntMatrix:
    """An integral x with rows @ x == I, for rows whose maximal minors
    have gcd 1 (rows that extend to a unimodular matrix).  Clearing the
    rows over [rows; I], as kernel_lattice does, leaves a lower triangular
    rows @ tails, which hermite_solve inverts; it raises InvariantError
    when a row has no pivot or a pivot is not a unit."""
    tails = [{j: 1} for j in range(rows.ncols)]
    pivots = list(_clear_rows(rows, tails))
    lower, picked = {}, {}
    for t, (_, p, main) in enumerate(pivots):
        lower.update({(i, t): v for i, v in main.items()})
        picked.update({(i, t): v for i, v in tails[p].items()})
    return IntMatrix.from_dict(rows.ncols, len(pivots), picked) @ \
        hermite_solve(IntMatrix.from_dict(rows.nrows, len(pivots), lower),
                      IntMatrix.identity(rows.nrows))
