"""Exact linear algebra: frozen hand values plus randomized algebraic laws.

The independent oracle here is the classical one: the product of the first
k invariant factors equals the gcd of all k x k minors.  It is computed by
brute-force determinant expansion, sharing no code with the package.
"""

import inspect
import itertools
import math

import pytest
from hypothesis import given, strategies as st

import shadow_reference
from corpus_reference import corpus, quasi_iso_pairs
from map_reference import take_columns, take_rows
from shadow_reference import quasi_iso_invariance
from simplicial_reference import chain_complex
from smith_reference import (
    diagonal,
    kernel_basis,
    matrix_rank,
    smith_with_u_inv,
    smith_with_v,
    solve_matrix,
    transpose,
)
from test_cosimplicial import stripe_sign_objects
from tottower import abelian, cosimplicial, intlinalg, spectral
from tottower.abelian import subquotient_presentation
from tottower.constructions import cech_object
from tottower.cosimplicial import (
    cosimplicial_from_data,
    cosimplicial_to_data,
    matching_kernel_agrees,
    tot_n,
)
from tottower.cover import cover_from_subcomplexes, hocolim_chain
from tottower.errors import InputError, InvariantError
from tottower.intlinalg import (
    IntMatrix,
    hermite_solve,
    kernel_lattice,
    lattice_basis,
    right_inverse,
    smith_normal_form,
    snf_invariants,
    xgcd,
)
from tottower.posets import order_complex, subset_poset
from tottower.schema import is_int
from tottower.simplicial import complex_from_facets
from tottower.spectral import e2_from_level_homology, spectral_sequence


# -- oracle helpers -------------------------------------------------------

def det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for t in range(n):
        v = rows[0][t]
        if v == 0:
            continue
        minor = [r[:t] + r[t + 1:] for r in rows[1:]]
        total += (-1 if t % 2 else 1) * v * det(minor)
    return total


def snf_oracle(mat):
    """Invariant factors via gcds of k x k minors."""
    rows = mat.to_rows()
    m, n = mat.nrows, mat.ncols
    inv = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rsel in itertools.combinations(range(m), k):
            for csel in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                g = math.gcd(g, det(sub))
        if g == 0:
            break
        inv.append(g // prev)
        prev = g
    return tuple(inv)


def dense_strategy(max_dim=4, max_val=9):
    def build(dims):
        m, n = dims
        return st.lists(
            st.lists(st.integers(-max_val, max_val), min_size=n, max_size=n),
            min_size=m, max_size=m,
        ).map(lambda rows: IntMatrix.from_rows(rows, ncols=n))
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(build)


def sparse_strategy(max_dim=12):
    """Sparse matrices with torsion: several columns often share a row,
    and pivots need not be units."""
    entry = st.sampled_from((0,) * 8 + (1, -1, 2, -2, 3, -3, 4, 6))

    def build(dims):
        m, n = dims
        return st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m,
        ).map(lambda rows: IntMatrix.from_rows(rows, ncols=n))
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim)
    ).flatmap(build)


# The column Hermite form as the package computed it before the indexed
# elimination, kept verbatim as the reference for the differential tests.

def _combine(ca: int, da: dict, cb: int, db: dict) -> dict:
    out = {}
    for k in da.keys() | db.keys():
        v = ca * da.get(k, 0) + cb * db.get(k, 0)
        if v:
            out[k] = v
    return out


def _reference_lattice_basis(mat: IntMatrix) -> IntMatrix:
    """Canonical basis of the lattice spanned by the columns.

    Column Hermite form: pivot rows strictly increase, pivot entries are
    positive, and earlier columns are reduced at later pivot rows into
    [0, pivot).  Two column sets span the same lattice exactly when they
    produce equal output here.
    """
    remaining = []
    for j in range(mat.ncols):
        remaining.append({})
    for i, j, v in mat.entries:
        remaining[j][i] = v
    remaining = [c for c in remaining if c]
    basis = []
    for r in range(mat.nrows):
        hit = [t for t, c in enumerate(remaining) if r in c]
        if not hit:
            continue
        t0 = hit[0]
        for t in hit[1:]:
            a, b = remaining[t0][r], remaining[t][r]
            g, x, y = xgcd(a, b)
            c0, c1 = remaining[t0], remaining[t]
            remaining[t0] = _combine(x, c0, y, c1)
            remaining[t] = _combine(-(b // g), c0, a // g, c1)
        main = remaining.pop(t0)
        if main[r] < 0:
            main = {k: -v for k, v in main.items()}
        d = main[r]
        for _, bc in basis:
            q = bc.get(r, 0) // d
            if q:
                for k, v in main.items():
                    nv = bc.get(k, 0) - q * v
                    if nv:
                        bc[k] = nv
                    else:
                        bc.pop(k, None)
        basis.append((r, main))
    data = {}
    for idx, (_, col) in enumerate(basis):
        for k, v in col.items():
            data[(k, idx)] = v
    return IntMatrix.from_dict(mat.nrows, len(basis), data)


# -- xgcd ------------------------------------------------------------------

@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd_identity(a, b):
    g, x, y = xgcd(a, b)
    assert g == a * x + b * y
    assert g == math.gcd(a, b)


# -- frozen hand values ----------------------------------------------------

def test_snf_hand_values():
    assert snf_invariants(IntMatrix.from_rows([[2, 4], [6, 8]])) == (2, 4)
    assert snf_invariants(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)
    assert snf_invariants(
        IntMatrix.from_rows([[6, 0, 0], [0, 10, 0], [0, 0, 15]])
    ) == (1, 30, 30)
    assert snf_invariants(IntMatrix.zeros(2, 2)) == ()
    assert snf_invariants(IntMatrix.from_rows([[-5]])) == (5,)
    assert snf_invariants(IntMatrix.identity(3)) == (1, 1, 1)


def test_pivot_rule_prefers_small_then_lex():
    # |1| ties at (0,1) and (1,1); lexicographic order picks (0,1).
    res = smith_normal_form(IntMatrix.from_rows([[3, 1], [2, 1]]))
    assert res.pivot_sites[0] == (0, 1)
    # unique smallest entry wins when it clears its row and column cleanly
    res = smith_normal_form(IntMatrix.from_rows([[4, 6], [6, 2]]))
    assert res.pivot_sites[0] == (1, 1)
    assert res.invariants == (2, 14)


def test_transforms_on_hand_value():
    a = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = smith_normal_form(a)
    assert res.invariants == (2, 4)
    _, v = smith_with_v(a)
    assert res.u @ a @ v == diagonal(res)
    # u is unimodular: the reference that also tracks u_inv inverts it
    ref, u_inv = smith_with_u_inv(a)
    assert ref == res
    assert res.u @ u_inv == IntMatrix.identity(2)
    assert u_inv @ res.u == IntMatrix.identity(2)


# -- randomized laws --------------------------------------------------------

@given(dense_strategy())
def test_snf_matches_minor_gcd_oracle(a):
    assert snf_invariants(a) == snf_oracle(a)


@given(dense_strategy())
def test_snf_transform_equation(a):
    res = smith_normal_form(a)
    _, v = smith_with_v(a)
    assert res.u @ a @ v == diagonal(res)
    ref, u_inv = smith_with_u_inv(a)
    assert ref == res
    assert res.u @ u_inv == IntMatrix.identity(a.nrows)
    assert u_inv @ res.u == IntMatrix.identity(a.nrows)
    for d, e in zip(res.invariants, res.invariants[1:]):
        assert e % d == 0
    assert all(d > 0 for d in res.invariants)


def smith_shapes():
    """Full-rank, rank-deficient, zero-row and entry-less matrices."""
    dims = st.tuples(st.integers(0, 5), st.integers(0, 5))
    return st.one_of(
        dense_strategy(),
        dense_strategy().map(lambda a: IntMatrix.vstack(
            [a, IntMatrix.identity(a.ncols)])),
        dense_strategy().map(lambda a: IntMatrix.hstack(
            [a, IntMatrix.identity(a.nrows)])),
        dense_strategy().map(lambda a: IntMatrix.vstack([a, IntMatrix(
            a.nrows, a.ncols, tuple((i, j, 2 * v) for i, j, v in a.entries),
        )])),
        sparse_strategy(),
        st.integers(0, 5).map(lambda n: IntMatrix.zeros(0, n)),
        dims.map(lambda shape: IntMatrix.zeros(*shape)),
    )


@given(smith_shapes())
def test_v_tracking_reference_runs_the_package_elimination(a):
    """smith_reference's VSmith only adds v to the package's _Smith, and
    UInvSmith only u_inv: each form (invariants, pivot sites and u) is
    the package's, v is unimodular with u @ a @ v == diagonal(res), and
    u_inv is the inverse of u."""
    res, v = smith_with_v(a)
    assert res == smith_normal_form(a)
    assert v.shape == (a.ncols, a.ncols)
    assert res.u @ a @ v == diagonal(res)
    assert snf_invariants(v) == (1,) * a.ncols
    ref, u_inv = smith_with_u_inv(a)
    assert ref == res
    assert u_inv @ res.u == IntMatrix.identity(a.nrows)


@given(dense_strategy())
def test_snf_invariant_under_transpose(a):
    assert snf_invariants(a) == snf_invariants(transpose(a))


@given(dense_strategy(), st.randoms(use_true_random=False))
def test_snf_invariant_under_permutation(a, rng):
    rperm = list(range(a.nrows))
    cperm = list(range(a.ncols))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    rows = a.to_rows()
    shuffled = IntMatrix.from_rows(
        [[rows[i][j] for j in cperm] for i in rperm], ncols=a.ncols
    )
    assert snf_invariants(a) == snf_invariants(shuffled)


@given(dense_strategy())
def test_kernel_basis_laws(a):
    k = kernel_basis(a)
    assert (a @ k).is_zero
    assert k.ncols == a.ncols - matrix_rank(a)
    if k.ncols:
        # kernel lattice is saturated: its basis is part of a basis of Z^n
        assert snf_invariants(k) == (1,) * k.ncols


@given(dense_strategy(max_dim=3), dense_strategy(max_dim=3))
def test_solve_recovers_a_solution(a, x0):
    if a.ncols != x0.nrows:
        x0 = IntMatrix.from_dict(
            a.ncols, x0.ncols,
            {(i, j): v for i, j, v in x0.entries if i < a.ncols},
        )
    b = a @ x0
    x = solve_matrix(a, b)
    assert a @ x == b


def test_solve_detects_unsolvable():
    with pytest.raises(InvariantError):
        solve_matrix(IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[1]]))
    with pytest.raises(InvariantError):
        solve_matrix(IntMatrix.zeros(2, 2), IntMatrix.from_rows([[1], [0]]))


def unimodular_from_ops(n, ops):
    m = IntMatrix.identity(n)
    rows = m.to_rows()
    for kind, i, j, c in ops:
        i, j = i % n, j % n
        if i == j:
            continue
        if kind == 0:
            for t in range(n):
                rows[t][j] += c * rows[t][i]
        else:
            for t in range(n):
                rows[t][i], rows[t][j] = rows[t][j], rows[t][i]
    return IntMatrix.from_rows(rows, ncols=n)


@given(
    dense_strategy(max_dim=3),
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 5), st.integers(0, 5),
                  st.integers(-3, 3)),
        max_size=6,
    ),
)
def test_lattice_basis_canonical(a, ops):
    t = unimodular_from_ops(a.ncols, ops)
    assert lattice_basis(a) == lattice_basis(a @ t)
    assert lattice_basis(a) == lattice_basis(IntMatrix.hstack([a, a]))
    # idempotent
    assert lattice_basis(lattice_basis(a)) == lattice_basis(a)


@given(dense_strategy(max_dim=3))
def test_lattice_basis_spans_same_lattice(a):
    basis = lattice_basis(a)
    assert matrix_rank(basis) == basis.ncols == matrix_rank(a)
    # each original column is an integer combination of the basis
    if basis.ncols:
        solve_matrix(basis, a)
    else:
        assert a.is_zero


def test_lattice_basis_hand_value():
    # three columns meet at row 0 with no unit among them; |det| = 58
    a = IntMatrix.from_rows([[4, 6, -2], [1, 0, 3], [0, 2, 5]])
    assert lattice_basis(a).to_rows() == [[2, 0, 0], [0, 1, 0], [20, 18, 29]]


@given(sparse_strategy())
def test_lattice_basis_matches_reference(a):
    assert lattice_basis(a) == _reference_lattice_basis(a)


def test_lattice_basis_matches_reference_on_spectral_calls(monkeypatch):
    """Every lattice_basis call spectral_sequence makes on the seeded
    corpus and on cech_object(3, 3) gives the reference's output."""
    seen = []

    def record(mat):
        seen.append(mat)
        return lattice_basis(mat)
    for module in (spectral, abelian, cosimplicial):
        monkeypatch.setattr(module, "lattice_basis", record)
    for obj in corpus(seed=20250811, count=20):
        spectral_sequence(obj.x)
    spectral_sequence(cech_object(3, 3))
    assert len(seen) > 100
    assert any(
        sum(1 for i, _, _ in m.entries if i == r) > 1
        for m in seen for r in range(m.nrows)
    )
    for mat in seen:
        assert lattice_basis(mat) == _reference_lattice_basis(mat)


@given(sparse_strategy())
def test_lattice_basis_is_hermite_normal_form(a):
    basis = lattice_basis(a)
    cols = [{} for _ in range(basis.ncols)]
    for i, j, v in basis.entries:
        cols[j][i] = v
    pivots = [min(c) for c in cols]
    assert all(p < q for p, q in zip(pivots, pivots[1:]))
    for j, (c, p) in enumerate(zip(cols, pivots)):
        assert c[p] > 0
        for earlier in cols[:j]:
            assert 0 <= earlier.get(p, 0) < c[p]
    assert matrix_rank(basis) == basis.ncols == matrix_rank(a)
    if basis.ncols:
        assert basis @ solve_matrix(basis, a) == a
        assert a @ solve_matrix(a, basis) == basis
    else:
        assert a.is_zero


# -- the subquotient memo ---------------------------------------------------

SUBQUOTIENT_MEMO = abelian._subquotient_memo


def clear_memo():
    SUBQUOTIENT_MEMO.cache_clear()


def subquotient_fields(sq):
    return (sq.ambient, sq.orders, sq.gens, sq._u, sq._numer)


def record_smith_forms(monkeypatch):
    """Log (input, transforms) of every Smith form taken."""
    calls = []
    init = intlinalg._Smith.__init__

    def recording(self, mat, transforms):
        calls.append((mat, transforms))
        init(self, mat, transforms)
    monkeypatch.setattr(intlinalg._Smith, "__init__", recording)
    return calls


@given(sparse_strategy(max_dim=6), st.integers(0, 5), st.data())
def test_subquotient_memo_hit_equals_cold_computation(a, width, data):
    numer = lattice_basis(a)
    entry = st.sampled_from((0, 0, 1, -1, 2, 3, -4))
    coeffs = data.draw(st.lists(entry, min_size=numer.ncols * width,
                                max_size=numer.ncols * width))
    denom = numer @ IntMatrix.from_dict(numer.ncols, width, {
        divmod(p, width): v for p, v in enumerate(coeffs)
    })
    warm = subquotient_presentation(numer, denom)
    twins = [IntMatrix(m.nrows, m.ncols, m.entries) for m in (numer, denom)]
    hit = subquotient_presentation(*twins)
    assert hit is warm
    clear_memo()
    cold = subquotient_presentation(numer, denom)
    assert cold is not hit
    assert subquotient_fields(hit) == subquotient_fields(cold)


def test_subquotient_memo_hits_equal_cold_on_spectral_calls(monkeypatch):
    """Every subquotient_presentation call spectral_sequence makes on the
    seeded corpus and on cech_object(3, 3), hit or not, returns what the
    unmemoized construction gives."""
    clear_memo()
    calls = []

    def recording(*args):
        res = SUBQUOTIENT_MEMO(*args)
        calls.append((args, res))
        return res
    monkeypatch.setattr(abelian, "_subquotient_memo", recording)
    for obj in corpus(seed=20250811, count=20):
        spectral_sequence(obj.x)
    spectral_sequence(cech_object(3, 3))
    info = SUBQUOTIENT_MEMO.cache_info()
    assert info.hits > 0 and info.misses > 0
    assert len(calls) == info.hits + info.misses
    cold = {}
    for args, res in calls:
        if args not in cold:
            cold[args] = SUBQUOTIENT_MEMO.__wrapped__(*args)
        assert subquotient_fields(res) == subquotient_fields(cold[args])


def test_memoized_functions_keep_the_traced_signatures():
    # the benchmark tracer wraps plain functions and binds transforms by
    # name, so neither may become a cache object or change its parameters
    for fn, params in ((smith_normal_form, ["mat", "transforms"]),
                       (lattice_basis, ["mat"]),
                       (subquotient_presentation,
                        ["numer_basis", "denom_gens"])):
        assert inspect.isfunction(fn)
        assert list(inspect.signature(fn).parameters) == params
    default = inspect.signature(smith_normal_form).parameters["transforms"]
    assert default.default is True


# -- echelon kernels and substitution solves ------------------------------------

def smith_kernel_lattice(mat):
    """The canonical kernel basis by way of a Smith form with transforms."""
    return lattice_basis(kernel_basis(mat))


def solve_outcome(solve, a, b):
    """solve(a, b), or the message of the InvariantError it raises."""
    try:
        return solve(a, b)
    except InvariantError as exc:
        return str(exc)


def assert_hermite_solve_matches_smith(basis, b):
    assert solve_outcome(hermite_solve, basis, b) == \
        solve_outcome(solve_matrix, basis, b)


def draw_matrix(data, nrows, ncols):
    entry = st.sampled_from((0,) * 6 + (1, -1, 2, -3, 4))
    cells = data.draw(st.lists(entry, min_size=nrows * ncols,
                               max_size=nrows * ncols))
    return IntMatrix.from_dict(nrows, ncols, {
        divmod(p, ncols): v for p, v in enumerate(cells)
    })


# matrices with no entries: no rows, or rows that are all zero
EMPTY_MATRICES = st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
    lambda dims: IntMatrix.zeros(*dims))


@given(st.one_of(sparse_strategy(), EMPTY_MATRICES))
def test_kernel_lattice_matches_smith_route(a):
    assert kernel_lattice(a) == smith_kernel_lattice(a)


def test_kernel_lattice_edge_shapes():
    assert kernel_lattice(IntMatrix.zeros(0, 3)) == IntMatrix.identity(3)
    # the boundary out of the bottom degree of a wide level, whose kernel
    # the E2 oracle takes; the Smith route agrees
    wide = IntMatrix.zeros(0, 1024)
    assert kernel_lattice(wide) == smith_kernel_lattice(wide) == \
        IntMatrix.identity(1024)
    assert kernel_lattice(IntMatrix.zeros(5, 4)) == IntMatrix.identity(4)
    assert kernel_lattice(IntMatrix.zeros(3, 0)) == IntMatrix.zeros(0, 0)
    assert kernel_lattice(IntMatrix.identity(2)) == IntMatrix.zeros(2, 0)
    # a single relation 2x = 3y: the kernel is spanned by (3, 2)
    a = IntMatrix.from_rows([[2, -3]])
    assert kernel_lattice(a) == IntMatrix.from_rows([[3], [2]])


@given(sparse_strategy(), st.integers(0, 4), st.data())
def test_hermite_solve_matches_solve_matrix(a, width, data):
    basis = lattice_basis(a)
    x = draw_matrix(data, basis.ncols, width)
    assert hermite_solve(basis, basis @ x) == x
    # a right-hand side drawn at random mostly has no solution; both
    # routes must then raise the same error
    assert_hermite_solve_matches_smith(
        basis, draw_matrix(data, a.nrows, width))


def test_hermite_solve_failures():
    basis = IntMatrix.from_rows([[2, 0], [1, 3], [0, 1]])
    assert hermite_solve(basis, IntMatrix.from_rows([[2], [4], [1]])) == \
        IntMatrix.from_rows([[1], [1]])
    no_solution = "system has no integral solution"
    for b in ([[1], [0], [0]],      # the first pivot does not divide
              [[0], [1], [0]],      # the second pivot does not divide
              [[0], [0], [1]],      # something is left over
              [[2], [1], [1]]):     # left over after the first column
        with pytest.raises(InvariantError, match=no_solution):
            hermite_solve(basis, IntMatrix.from_rows(b))
        assert_hermite_solve_matches_smith(basis, IntMatrix.from_rows(b))
    b = IntMatrix.from_rows([[1], [1]])
    for bad in ([[0, 1], [1, 0]],   # pivot rows decrease
                [[1, 1], [0, 0]],   # pivot rows repeat
                [[1, 0], [0, 0]]):  # a zero column has no pivot
        with pytest.raises(InvariantError, match="pivot rows"):
            hermite_solve(IntMatrix.from_rows(bad), b)
    with pytest.raises(InputError):
        hermite_solve(IntMatrix.identity(2), IntMatrix.zeros(3, 1))


# -- right inverses of unimodular rows ----------------------------------------

def wide_ints():
    """Small integers and integers past 2^64, of either sign."""
    return st.one_of(st.integers(-3, 3), st.integers(2**64, 2**66),
                     st.integers(-2**66, -2**64))


def draw_unimodular(data, n):
    """The n x n identity under elementary row operations (r_i += c r_k,
    r_i <-> r_k, r_i <- -r_i), with multipliers past 2^64 allowed; these
    operations generate every unimodular matrix."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(data.draw(st.integers(0, 3 * n))):
        i, k = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        op = data.draw(st.sampled_from(("add", "swap", "negate")))
        if op == "add" and i != k:
            c = data.draw(wide_ints())
            rows[i] = [a + c * b for a, b in zip(rows[i], rows[k])]
        elif op == "swap":
            rows[i], rows[k] = rows[k], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return IntMatrix.from_rows(rows, ncols=n)


def maximal_minor_gcd(mat):
    """gcd of the k x k minors of a k x n matrix, by expansion."""
    rows = mat.to_rows()
    g = 0
    for csel in itertools.combinations(range(mat.ncols), mat.nrows):
        g = math.gcd(g, det([[r[j] for j in csel] for r in rows]))
    return g


@given(st.data())
def test_right_inverse_of_unimodular_rows(data):
    u = draw_unimodular(data, data.draw(st.integers(1, 5)))
    keep = data.draw(st.lists(st.integers(0, u.nrows - 1), unique=True))
    rows = take_rows(u, keep)
    assert maximal_minor_gcd(rows) == 1
    x = right_inverse(rows)
    assert x.shape == (u.nrows, len(keep))
    assert rows @ x == IntMatrix.identity(len(keep))


@given(st.data())
def test_right_inverse_refuses_rows_with_a_common_minor_factor(data):
    """m @ scale @ rows has maximal minors det(m) * d * those of rows, so
    their gcd is d; with d = 0 the rows are dependent."""
    u = draw_unimodular(data, data.draw(st.integers(1, 5)))
    k = data.draw(st.integers(1, u.nrows))
    rows = take_rows(u, data.draw(st.permutations(range(u.nrows)))[:k])
    d = data.draw(st.sampled_from((0, 2, 3, 6, 2**64 + 2)))
    t = data.draw(st.integers(0, k - 1))
    scale = IntMatrix.from_dict(k, k, {(i, i): d if i == t else 1
                                       for i in range(k)})
    bad = draw_unimodular(data, k) @ scale @ rows
    assert maximal_minor_gcd(bad) == d
    with pytest.raises(InvariantError):
        right_inverse(bad)


def test_right_inverse_edge_shapes():
    for n in range(4):
        assert right_inverse(IntMatrix.zeros(0, n)) == IntMatrix.zeros(n, 0)
    rows = IntMatrix.from_rows([[2, 3]])
    assert rows @ right_inverse(rows) == IntMatrix.identity(1)
    for bad in ([[0, 0]], [[2, 4]], [[1, 0], [1, 0]], [[1, 0, 0], [0, 2, 4]]):
        with pytest.raises(InvariantError):
            right_inverse(IntMatrix.from_rows(bad))


def echelon_calls(monkeypatch):
    """Log the input of every kernel_lattice and hermite_solve call the
    cosimplicial layer, the E2 oracle and the fiber maps of
    shadow_reference make."""
    kernels, solves = [], []

    def kernel(mat):
        kernels.append(mat)
        return kernel_lattice(mat)

    def solve(basis, b):
        solves.append((basis, b))
        return hermite_solve(basis, b)
    for module in (cosimplicial, spectral):
        monkeypatch.setattr(module, "kernel_lattice", kernel)
    for module in (cosimplicial, shadow_reference):
        monkeypatch.setattr(module, "hermite_solve", solve)
    return kernels, solves


def echelon_objects():
    """Fresh objects, so that none has its conormalization cached."""
    return (
        [obj.x for obj in corpus(seed=20250811, count=20)]
        + [obj.x for obj in stripe_sign_objects()]
        + [cech_object(n, top) for n in (2, 3, 4) for top in range(1, 5)]
    )


def test_echelon_routes_match_smith_on_tower_calls(monkeypatch):
    """Every kernel_lattice and hermite_solve call that conormalization,
    the matching objects, the fiber maps and the E2 oracle make on the
    seeded corpus, the stripe-sign objects and cech_object up to (4, 4)
    gives what the Smith route gives."""
    kernels, solves = echelon_calls(monkeypatch)
    for x in echelon_objects():
        x.conormalization
        e2_from_level_homology(x)
        for m in range(x.truncation):
            assert matching_kernel_agrees(x, m)
    for f in quasi_iso_pairs(seed=20250812, count=4):
        assert quasi_iso_invariance(f)
    assert len(kernels) > 100 and len(solves) > 100
    assert any(not k.is_zero for k in kernels)
    for mat in set(kernels):
        assert kernel_lattice(mat) == smith_kernel_lattice(mat)
    for basis, b in set(solves):
        assert hermite_solve(basis, b) == solve_matrix(basis, b)


def test_conormalization_takes_no_smith_form_with_transforms(monkeypatch):
    objects = echelon_objects()
    calls = record_smith_forms(monkeypatch)
    for x in objects:
        x.conormalization
    assert calls == []
    # the recorder does see the Smith forms that the pages take
    clear_memo()
    spectral_sequence(objects[-1])
    assert calls


# -- pivot placement ---------------------------------------------------------

# _Smith.place as the package had it before the row and column indexes,
# kept verbatim as the reference for the differential tests.

def _reference_place(self, order: list) -> None:
    # Move pivot t to position (t, t) by swaps.
    pos = list(order)
    for t in range(len(pos)):
        i, j = pos[t]
        if i != t:
            self._row_swap(i, t)
            for u in range(t + 1, len(pos)):
                if pos[u][0] == t:
                    pos[u] = (i, pos[u][1])
                    break
        if j != t:
            self._col_swap(j, t)
            for u in range(t + 1, len(pos)):
                if pos[u][1] == t:
                    pos[u] = (pos[u][0], j)
                    break
        pos[t] = (t, t)


class _IndexSwaps:
    """What _reference_place moves, reduced to two index lists: after it
    runs, rows[p] (cols[p]) is the working row (column) that its swaps
    leave at position p."""

    def __init__(self, nrows, ncols):
        self.rows = list(range(nrows))
        self.cols = list(range(ncols))

    def _row_swap(self, i, k):
        self.rows[i], self.rows[k] = self.rows[k], self.rows[i]

    def _col_swap(self, j, l):
        self.cols[j], self.cols[l] = self.cols[l], self.cols[j]


def assert_place_matches_reference(mat, transforms):
    """The positions _placed gives the exported transforms are those the
    reference's swaps reach, for the pivot sites of mat's Smith form; the
    sites do not depend on transforms."""
    res = smith_normal_form(mat, transforms)
    sites = list(res.pivot_sites)
    assert sites == list(smith_normal_form(mat, not transforms).pivot_sites)
    swaps = _IndexSwaps(mat.nrows, mat.ncols)
    _reference_place(swaps, sites)
    assert intlinalg._placed([i for i, _ in sites], mat.nrows) == swaps.rows
    assert intlinalg._placed([j for _, j in sites], mat.ncols) == swaps.cols
    if transforms:
        _, v = smith_with_v(mat)
        assert res.u @ mat @ v == diagonal(res)


@given(sparse_strategy(), st.booleans())
def test_place_matches_reference(a, transforms):
    assert_place_matches_reference(a, transforms)


@given(st.permutations(range(24)), st.permutations(range(24)),
       st.integers(0, 4))
def test_place_matches_reference_on_scattered_pivots(rows, values, extra):
    """A permuted diagonal with distinct values: the pivot rule picks the
    sites in value order, so most swaps displace a later pivot."""
    entries = sorted((i, j, v + 1) for i, j, v in zip(rows, range(24), values))
    a = IntMatrix(24 + extra, 24, tuple(entries))
    assert_place_matches_reference(a, True)
    assert_place_matches_reference(transpose(a), False)


def test_place_matches_reference_on_spectral_and_tower_calls(monkeypatch):
    """Every Smith form spectral_sequence, the E2 oracle and the stage
    homologies take on the seeded corpus, the stripe-sign
    objects and cech_object up to (3, 4) gets the reference placement's
    positions."""
    calls = record_smith_forms(monkeypatch)
    # a warm subquotient memo would take no Smith form
    clear_memo()
    for x in [obj.x for obj in corpus(seed=20250811, count=60)] + [
            obj.x for obj in stripe_sign_objects()] + [
            cech_object(n, top) for n in (2, 3) for top in range(1, 5)]:
        spectral_sequence(x)
        e2_from_level_homology(x)
        for n in range(x.truncation + 1):
            tot_n(x, n).homology_all()
    inputs = set(calls)
    assert len(inputs) > 100
    assert any(not transforms for _, transforms in inputs)
    for mat, transforms in inputs:
        assert_place_matches_reference(mat, transforms)


# -- IntMatrix plumbing -----------------------------------------------------

@given(dense_strategy(max_dim=3), dense_strategy(max_dim=3),
       dense_strategy(max_dim=3))
def test_matmul_associative(a, b, c):
    b2 = IntMatrix.from_dict(
        a.ncols, b.ncols, {(i, j): v for i, j, v in b.entries if i < a.ncols}
    )
    c2 = IntMatrix.from_dict(
        b2.ncols, c.ncols, {(i, j): v for i, j, v in c.entries if i < b2.ncols}
    )
    assert (a @ b2) @ c2 == a @ (b2 @ c2)
    assert transpose(a @ b2) == transpose(b2) @ transpose(a)


def dense_product(a_rows, b_rows, ncols):
    """Schoolbook product of two lists of rows."""
    return [
        [sum(x * b_rows[k][j] for k, x in enumerate(row))
         for j in range(ncols)]
        for row in a_rows
    ]


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_matmul_matches_dense_product(m, n, p, data):
    def rows(nrows, ncols):
        return data.draw(st.lists(
            st.lists(st.integers(-3, 3) | st.just(0), min_size=ncols,
                     max_size=ncols),
            min_size=nrows, max_size=nrows,
        ))

    a_rows, b_rows = rows(m, n), rows(n, p)
    a = IntMatrix.from_rows(a_rows, n)
    b = IntMatrix.from_rows(b_rows, p)
    want = dense_product(a_rows, b_rows, p)
    assert (a @ b) == IntMatrix.from_rows(want, p)
    assert (a @ b).to_rows() == want
    # [a a] times [b; -b] cancels to zero cell by cell
    zero = IntMatrix.hstack([a, a]) @ IntMatrix.vstack([b, -b])
    assert zero.shape == (m, p) and zero.is_zero
    with pytest.raises(InputError):
        a @ IntMatrix.zeros(n + 1, p)


def dense_cells(rows, ncols) -> dict:
    """The nonzero cells of a list of rows, cell (i, j) keyed i * ncols + j."""
    return {i * ncols + j: v for i, row in enumerate(rows)
            for j, v in enumerate(row) if v}


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_product_cells_and_assembly_match_dense_rows(m, n, p, data):
    def rows(nrows, ncols):
        return data.draw(st.lists(
            st.lists(st.integers(-3, 3) | st.just(0), min_size=ncols,
                     max_size=ncols),
            min_size=nrows, max_size=nrows,
        ))

    a_rows, b_rows = rows(m, n), rows(n, p)
    a = IntMatrix.from_rows(a_rows, n)
    b = IntMatrix.from_rows(b_rows, p)
    want = dense_product(a_rows, b_rows, p)
    assert a.product_cells(b) == dense_cells(want, p)
    assert (a @ b).entries == IntMatrix.from_rows(want, p).entries
    # [a a] times [b; -b] has terms in every cell where a @ b has, and
    # they cancel
    assert IntMatrix.hstack([a, a]).product_cells(
        IntMatrix.vstack([b, -b])) == {}
    # zero values given to the assemblers are dropped
    cells = {(i, j): v for i, row in enumerate(a_rows)
             for j, v in enumerate(row)}
    assert IntMatrix.from_dict(m, n, cells) == a
    keyed = {i * n + j: v for (i, j), v in cells.items()}
    assert IntMatrix.from_cells(m, n, keyed) == a
    with pytest.raises(InputError):
        a.product_cells(IntMatrix.zeros(n + 1, p))


# IntMatrix.__matmul__ as it was before a product with an operand of no
# entries returned at once, kept verbatim as the differential reference

def _reference_matmul(self, other):
    if self.ncols != other.nrows:
        raise InputError(
            f"cannot multiply {self.nrows}x{self.ncols} "
            f"by {other.nrows}x{other.ncols}"
        )
    orows = other._row_items
    n = other.ncols
    acc: dict = {}
    get = acc.get
    for i, k, v in self.entries:
        base = i * n
        for j, w in orows[k]:
            key = base + j
            acc[key] = get(key, 0) + v * w
    cells = sorted(kx for kx in acc.items() if kx[1])
    return IntMatrix(self.nrows, n,
                     tuple((*divmod(key, n), x) for key, x in cells))


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5), st.data())
def test_matmul_matches_reference(m, n, p, data):
    # mostly zero cells, so whole operands are often zero or empty
    cell = st.sampled_from((0,) * 6 + (1, -1, 2, -3))

    def draw(nrows, ncols):
        return IntMatrix.from_rows(data.draw(st.lists(
            st.lists(cell, min_size=ncols, max_size=ncols),
            min_size=nrows, max_size=nrows,
        )), ncols)

    a, b = draw(m, n), draw(n, p)
    for left, right in ((a, b), (IntMatrix.zeros(m, n), b),
                        (a, IntMatrix.zeros(n, p))):
        got, want = left @ right, _reference_matmul(left, right)
        assert (got.nrows, got.ncols, got.entries) == \
            (want.nrows, want.ncols, want.entries)
    wrong = IntMatrix.zeros(n + 1, p)
    with pytest.raises(InputError) as got:
        IntMatrix.zeros(m, n) @ wrong
    with pytest.raises(InputError) as want:
        _reference_matmul(IntMatrix.zeros(m, n), wrong)
    assert str(got.value) == str(want.value)


def test_matrix_validation():
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(InputError):
        IntMatrix.from_rows([[1]]) @ IntMatrix.from_rows([[1, 2], [3, 4]])


# -- the entry check before the constructor trusted its entries --------------
# kept verbatim from IntMatrix.__post_init__ as the oracle for every matrix
# the package builds; data from outside reaches a matrix only through
# IntMatrix.from_rows, whose cells schema.int_rows checks

def _reference_entry_check(self):
    prev = None
    for item in self.entries:
        if len(item) != 3:
            raise InputError(f"bad matrix entry {item!r}")
        i, j, v = item
        if not (is_int(i) and is_int(j) and is_int(v)):
            raise InputError(f"bad matrix entry {item!r}")
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise InputError(
                f"entry {item!r} out of range for "
                f"{self.nrows}x{self.ncols} matrix"
            )
        if v == 0:
            raise InputError("explicit zero entries are not allowed")
        if prev is not None and prev >= (i, j):
            raise InputError("entries must be sorted row-major, no duplicates")
        prev = (i, j)


def test_reference_entry_check_rejects_bad_triples():
    for entries in (((0, 0, 0),), ((0, 3, 1),), ((1, 0, 1), (0, 0, 1))):
        with pytest.raises(InputError):
            _reference_entry_check(IntMatrix(2, 2, entries))


def test_built_matrices_pass_the_entry_check(monkeypatch):
    """Every matrix built by the spectral sequence, the tower, a reduced
    simplicial chain complex and a hocolim chain complex has sorted,
    in-range, nonzero int entries."""
    checked = 0
    post_init = IntMatrix.__post_init__

    def check(self):
        nonlocal checked
        post_init(self)
        _reference_entry_check(self)
        checked += 1
    monkeypatch.setattr(IntMatrix, "__post_init__", check)
    clear_memo()
    objects = [cech_object(3, 3)] + [
        cosimplicial_from_data(cosimplicial_to_data(obj.x))
        for obj in corpus(seed=20250811, count=14)
    ]
    for x in objects:
        spectral_sequence(x)
        for n in range(x.truncation + 1):
            tot_n(x, n).homology_all()
    chain_complex(order_complex(subset_poset(range(4))),
                  reduced=True).homology_all()
    space = complex_from_facets([[0, 2], [0, 3], [1, 2], [1, 3]])
    hocolim_chain(cover_from_subcomplexes(
        space, [[[0, 2], [0, 3]], [[1, 2], [1, 3]]], basepoint=2
    )).homology_all()
    assert checked > 1000


def test_block_assembly():
    a = IntMatrix.from_rows([[1, 2]])
    b = IntMatrix.from_rows([[3], [4]])
    m = IntMatrix.from_blocks([1, 2], [2, 1], {(0, 0): a, (1, 1): b})
    assert m.to_rows() == [[1, 2, 0], [0, 0, 3], [0, 0, 4]]
    with pytest.raises(InputError):
        IntMatrix.from_blocks([1], [1], {(0, 0): a})


def test_empty_shapes():
    z = IntMatrix.zeros(0, 3)
    res = smith_normal_form(z)
    assert res.invariants == ()
    assert kernel_basis(z) == IntMatrix.identity(3)
    assert kernel_basis(IntMatrix.zeros(3, 0)).ncols == 0
    assert hermite_solve(IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 1)) \
        == IntMatrix.zeros(0, 1)
    for shape in ((0, 0), (0, 5), (16, 1), (3, 2)):
        z = IntMatrix.zeros(*shape)
        assert snf_invariants(z) == smith_normal_form(z, False).invariants \
            == ()
    assert (IntMatrix.zeros(0, 2) @ IntMatrix.zeros(2, 4)).shape == (0, 4)


@st.composite
def matrix_and_runs(draw):
    """A matrix of 0..6 rows and columns, zero shapes included, and a
    run of its rows and one of its columns, empty runs included."""
    m, n = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -5))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                         min_size=m, max_size=m))
    mat = IntMatrix.from_rows(rows, ncols=n)
    runs = []
    for size in (m, n):
        start = draw(st.integers(0, size))
        runs.append(range(start, draw(st.integers(start, size))))
    return mat, runs[0], runs[1]


@given(matrix_and_runs())
def test_block_matches_the_index_reference(case):
    mat, rows, cols = case
    got = mat.block(rows, cols)
    assert got == take_columns(take_rows(mat, rows), cols)
    assert got.shape == (len(rows), len(cols))


def test_block_refuses_a_run_outside_the_shape():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert a.block(range(2), range(3)) is a
    assert a.block(range(1, 1), range(3, 3)) == IntMatrix.zeros(0, 0)
    assert IntMatrix.zeros(0, 0).block(range(0), range(0)).shape == (0, 0)
    for rows, cols in ((range(3), range(3)), (range(2), range(4)),
                       (range(-1, 1), range(3)), (range(2), range(2, 1)),
                       (range(0, 2, 2), range(3)), (range(2), range(2, 0, -1))):
        with pytest.raises(InputError):
            a.block(rows, cols)


def test_take_and_stack_roundtrip():
    a = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert take_columns(a, [2, 0]).to_rows() == [[3, 1], [6, 4]]
    assert take_rows(a, [1]).to_rows() == [[4, 5, 6]]
    assert IntMatrix.hstack([take_columns(a, [0, 1]),
                             take_columns(a, [2])]) == a
    assert IntMatrix.vstack([take_rows(a, [0]), take_rows(a, [1])]) == a
