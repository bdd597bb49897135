"""Group presentations, induced maps, and the Hopfian isomorphism test."""

import pytest
from hypothesis import given, strategies as st

from constructions_reference import cech_object, to_rows
from corpus_reference import corpus
from map_reference import compose_homs, is_zero_hom, take_columns, take_rows
from shadow_reference import group_from_orders, is_iso
from smith_reference import (
    smith_subquotient,
    smith_with_u_inv,
    solve_matrix,
    u_inv_gens,
)
from test_cosimplicial import SIGNED
from test_intlinalg import sparse_strategy, wide_ints
from tottower import abelian, intlinalg, spectral
from tottower.abelian import (
    GroupHom,
    HomologyGroup,
    Subquotient,
    format_group,
    induced_hom,
    presented_homology,
    subquotient_presentation,
)
from tottower.errors import InputError, InvariantError
from tottower.intlinalg import (
    IntMatrix,
    kernel_lattice,
    lattice_basis,
    smith_normal_form,
    snf_invariants,
)
from tottower.spectral import e2_from_level_homology, spectral_sequence


def test_format_group():
    assert format_group(HomologyGroup(0)) == "0"
    assert format_group(HomologyGroup(1)) == "Z"
    assert format_group(HomologyGroup(3)) == "Z^3"
    assert format_group(HomologyGroup(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
    assert str(HomologyGroup(0, (5,))) == "Z/5"


def test_homology_group_validation():
    with pytest.raises(InvariantError):
        HomologyGroup(-1)
    with pytest.raises(InvariantError):
        HomologyGroup(0, (3, 2))
    with pytest.raises(InvariantError):
        HomologyGroup(0, (1,))


def test_group_from_orders_canonicalizes():
    assert group_from_orders((0, 0)) == HomologyGroup(2)
    assert group_from_orders((4, 6)) == HomologyGroup(0, (2, 12))
    assert group_from_orders((2, 3)) == HomologyGroup(0, (6,))
    assert group_from_orders((1, 1)) == HomologyGroup(0)
    assert group_from_orders((0, 2, 1)) == HomologyGroup(1, (2,))


def test_group_hom_well_definedness():
    # a malformed homomorphism is an internal fault, not bad input
    # Z/2 -> Z/4 by 1 is not a homomorphism of presentations
    with pytest.raises(InvariantError):
        GroupHom((2,), (4,), IntMatrix.from_rows([[1]]))
    GroupHom((2,), (4,), IntMatrix.from_rows([[2]]))
    # Z/2 -> Z must be zero
    with pytest.raises(InvariantError):
        GroupHom((2,), (0,), IntMatrix.from_rows([[3]]))
    GroupHom((0,), (2,), IntMatrix.from_rows([[1]]))


def test_is_iso_via_surjectivity():
    # Z/2 + Z/3 -> Z/6, a |-> 3g, b |-> 2g: an isomorphism
    f = GroupHom((2, 3), (6,), IntMatrix.from_rows([[3, 2]]))
    assert is_iso(f)
    # a |-> 3g alone misses the index-3 part
    g = GroupHom((2, 3), (6,), IntMatrix.from_rows([[3, 0]]))
    assert not is_iso(g)
    # mismatched groups are never isomorphic
    h = GroupHom((2,), (4,), IntMatrix.from_rows([[2]]))
    assert not is_iso(h)
    # multiplication by 1 on Z^2
    assert is_iso(GroupHom((0, 0), (0, 0), IntMatrix.identity(2)))
    assert not is_iso(GroupHom((0, 0), (0, 0),
                               IntMatrix.from_rows([[2, 0], [0, 1]])))


def test_zero_hom_detection():
    f = GroupHom((0,), (4,), IntMatrix.from_rows([[4]]))
    assert is_zero_hom(f)
    g = GroupHom((0,), (4,), IntMatrix.from_rows([[2]]))
    assert not is_zero_hom(g)


def test_presented_homology_free_case():
    two = GroupHom((0,), (0,), IntMatrix.from_rows([[2]]))
    zero = GroupHom((0,), (0,), IntMatrix.zeros(1, 1))
    assert presented_homology(two, zero) == HomologyGroup(0, (2,))
    assert presented_homology(zero, two) == HomologyGroup(0)
    with pytest.raises(InvariantError):
        presented_homology(two, two)  # composite 4 is not zero on Z


def test_presented_homology_with_torsion():
    # Z/2 --x2--> Z/4 --proj--> Z/2 is exact in the middle
    f = GroupHom((2,), (4,), IntMatrix.from_rows([[2]]))
    g = GroupHom((4,), (2,), IntMatrix.from_rows([[1]]))
    assert presented_homology(f, g) == HomologyGroup(0)
    # drop the left map: homology becomes ker g = Z/2
    zero = GroupHom((2,), (4,), IntMatrix.zeros(1, 1))
    assert presented_homology(zero, g) == HomologyGroup(0, (2,))


def test_subquotient_presentation():
    # (2Z + Z) / span{(4, 0)} inside Z^2
    numer = IntMatrix.from_rows([[2, 0], [0, 1]])
    denom = IntMatrix.from_rows([[4], [0]])
    sq = subquotient_presentation(numer, denom)
    assert sq.group() == HomologyGroup(1, (2,))
    assert sq.coords(IntMatrix.from_rows([[4], [0]])).is_zero
    assert not sq.coords(IntMatrix.from_rows([[2], [0]])).is_zero
    # coords are additive mod the orders, and one call takes many columns
    cols = sq.coords(IntMatrix.from_rows([[2, 2, 0], [5, 0, 5]]))
    assert cols.shape == (len(sq.orders), 3)
    s, t1, t2 = zip(*to_rows(cols))
    summed = [
        (a + b) % o if o else a + b
        for a, b, o in zip(t1, t2, sq.orders)
    ]
    assert list(s) == summed
    assert sq.coords(IntMatrix.from_rows([[2], [5]])) \
        == take_columns(cols, [0])


def test_subquotient_group_hand_values():
    i2 = IntMatrix.identity(2)

    def group(numer, denom):
        return subquotient_presentation(numer, denom).group()

    assert group(i2, IntMatrix.from_rows([[2, 0], [0, 3]])) \
        == HomologyGroup(0, (6,))
    assert group(i2, IntMatrix.from_rows([[1], [0]])) == HomologyGroup(1)
    numer = IntMatrix.from_rows([[1, 0], [0, 2], [0, 0]])
    denom = IntMatrix.from_rows([[2], [0], [0]])
    assert group(numer, denom) == HomologyGroup(1, (2,))


def test_subquotient_presentation_rejects_bad_input():
    dep = IntMatrix.from_rows([[1, 2], [2, 4]])
    with pytest.raises(InvariantError):
        subquotient_presentation(dep, IntMatrix.zeros(2, 1))
    i2 = IntMatrix.identity(2)
    with pytest.raises(InvariantError):
        subquotient_presentation(i2, IntMatrix.zeros(3, 1))


def test_subquotient_presentation_needs_an_echelon_numerator():
    # the first two have independent columns, but none is in echelon form
    for rows in ([[0, 1], [1, 0]],      # pivot rows decrease
                 [[1, 1], [0, 1]],      # pivot rows repeat
                 [[0, 1], [0, 0]]):     # a zero column has no pivot
        with pytest.raises(InvariantError, match="pivot rows"):
            subquotient_presentation(IntMatrix.from_rows(rows),
                                     IntMatrix.zeros(2, 0))


def test_subquotient_rejects_outside_vectors():
    numer = IntMatrix.from_rows([[2], [0]])
    sq = subquotient_presentation(numer, IntMatrix.zeros(2, 0))
    with pytest.raises(InvariantError):
        sq.coords(IntMatrix.from_rows([[1], [0]]))
    with pytest.raises(InputError):
        sq.coords(IntMatrix.from_rows([[2], [0], [0]]))


def test_induced_hom_on_subquotients():
    # multiplication by 3 on Z^2 / 2Z^2
    numer = IntMatrix.identity(2)
    denom = IntMatrix.from_rows([[2, 0], [0, 2]])
    sq = subquotient_presentation(numer, denom)
    assert sq.group() == HomologyGroup(0, (2, 2))
    tripling = induced_hom(sq, sq, IntMatrix.from_rows([[3, 0], [0, 3]]))
    assert is_iso(tripling)
    doubling = induced_hom(sq, sq, denom)
    assert is_zero_hom(doubling)


@given(st.lists(st.integers(0, 12), max_size=5))
def test_identity_hom_is_iso(orders):
    orders = tuple(orders)
    n = len(orders)
    ident = GroupHom(orders, orders, IntMatrix.identity(n))
    assert is_iso(ident)
    assert compose_homs(ident, ident).mat == ident.mat


# -- the per-column path that Subquotient replaced, kept as a reference -------

class ReferenceSubquotient:
    """One fresh ``solve_matrix`` (so one Smith form) per coordinate column,
    and the group read off Smith invariants of the quotient directly."""

    def __init__(self, numer, denom):
        self.numer = numer
        w = solve_matrix(numer, denom)
        wres, u_inv = smith_with_u_inv(w)
        all_orders = wres.invariants + (0,) * (numer.ncols - wres.rank)
        self.keep = [i for i, d in enumerate(all_orders) if d != 1]
        self.orders = tuple(all_orders[i] for i in self.keep)
        self.gens = take_columns(numer @ u_inv, self.keep)
        self.u = wres.u
        inv = snf_invariants(w)
        self.group = HomologyGroup(numer.ncols - len(inv),
                                   tuple(d for d in inv if d > 1))

    def coords(self, vecs):
        data = {}
        for j in range(vecs.ncols):
            x = solve_matrix(self.numer, take_columns(vecs, [j]))
            y = take_rows(self.u @ x, self.keep)
            for i, _, v in y.entries:
                o = self.orders[i]
                data[(i, j)] = v % o if o else v
        return IntMatrix.from_dict(len(self.orders), vecs.ncols, data)


def assert_same_generators(sq, gens):
    """gens stand for the generators of sq, as sq.gens does: both have
    the identity as coordinates.  Two such matrices differ by columns of
    the denominator, so every map reads the same matrix off either."""
    ident = IntMatrix.identity(len(sq.orders))
    assert sq.coords(sq.gens) == ident
    assert sq.coords(gens) == ident


def assert_matches_reference(numer, denom, vecs):
    sq = subquotient_presentation(numer, denom)
    ref = ReferenceSubquotient(numer, denom)
    assert sq.group() == ref.group
    assert sq.orders == ref.orders
    assert_same_generators(sq, ref.gens)
    try:
        expected = ref.coords(vecs)
    except InvariantError:
        with pytest.raises(InvariantError):
            sq.coords(vecs)
    else:
        assert sq.coords(vecs) == expected
    return sq, ref


def draw_matrix(data, nrows, ncols, bound=3):
    rows = data.draw(st.lists(
        st.lists(st.integers(-bound, bound), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ))
    return IntMatrix.from_rows(rows, ncols=ncols)


@given(st.data())
def test_subquotients_match_per_column_reference(data):
    n = data.draw(st.integers(1, 4))
    numer = lattice_basis(draw_matrix(data, n, data.draw(st.integers(0, 4))))
    k = numer.ncols
    denom = numer @ draw_matrix(data, k, data.draw(st.integers(0, 4)), 4)
    sq, ref = assert_matches_reference(numer, denom,
                                       numer @ draw_matrix(data, k, 3))
    # a vector that need not lie in the numerator: both paths agree or
    # both refuse
    assert_matches_reference(numer, denom, draw_matrix(data, n, 1))
    # a second subquotient that receives the first through a map a
    n2 = data.draw(st.integers(1, 4))
    a = draw_matrix(data, n2, n)
    numer2 = lattice_basis(IntMatrix.hstack([a @ numer,
                                             draw_matrix(data, n2, 2)]))
    denom2 = IntMatrix.hstack([
        a @ denom, numer2 @ draw_matrix(data, numer2.ncols, 2, 4),
    ])
    sq2, ref2 = assert_matches_reference(numer2, denom2, a @ numer)
    hom = induced_hom(sq, sq2, a)
    assert (hom.src_orders, hom.dst_orders) == (ref.orders, ref2.orders)
    assert hom.mat == ref2.coords(a @ ref.gens)


def test_corpus_induced_homs_match_per_column_reference():
    checked = 0
    for obj in corpus(seed=20250811, count=20):
        x = obj.x
        pres = []
        for level in x.levels:
            pres.append({})
            for k in level.degrees():
                numer = kernel_lattice(level.boundary(k))
                sq, ref = assert_matches_reference(
                    numer, level.boundary(k + 1), numer,
                )
                assert sq.group() == level.homology(k)
                pres[-1][k] = sq, ref
        for n, row in enumerate(x.cofaces):
            for d in row:
                for k in pres[n].keys() & pres[n + 1].keys():
                    (sq, ref), (sq2, ref2) = pres[n][k], pres[n + 1][k]
                    hom = induced_hom(sq, sq2, d.component(k))
                    assert hom.mat == ref2.coords(d.component(k) @ ref.gens)
                    checked += 1
    assert checked > 100


# -- the two-Smith-form subquotient that echelon numerators replaced ---------

SUBQUOTIENT_MEMO = abelian._subquotient_memo


def coords_outcome(sq, vecs):
    """sq.coords(vecs), or the message of the InvariantError it raises."""
    try:
        return sq.coords(vecs)
    except InvariantError as exc:
        return str(exc)


def assert_matches_smith_subquotient(numer, denom, vecs):
    """The echelon presentation of numer/denom equals the Smith one in
    orders and transform, its generators stand for the Smith one's, and
    each column of vecs gets the same coordinates from both, or the same
    refusal.  Returns how many columns both refused."""
    sq = SUBQUOTIENT_MEMO.__wrapped__(numer, denom)
    ref = smith_subquotient(numer, denom)
    assert (sq.ambient, sq.orders, sq._u) == (ref.ambient, ref.orders, ref._u)
    assert_same_generators(sq, ref.gens)
    refused = 0
    for j in range(vecs.ncols):
        col = take_columns(vecs, [j])
        got = coords_outcome(sq, col)
        assert got == coords_outcome(ref, col)
        refused += isinstance(got, str)
    return refused


@given(sparse_strategy(max_dim=6), st.data())
def test_subquotients_match_smith_reference(a, data):
    numer = lattice_basis(a)
    k = numer.ncols
    denom = numer @ draw_matrix(data, k, data.draw(st.integers(0, 4)), 4)
    inside = numer @ draw_matrix(data, k, 2)
    # vectors that need not lie in the numerator
    anywhere = draw_matrix(data, numer.nrows, 2)
    assert_matches_smith_subquotient(
        numer, denom, IntMatrix.hstack([inside, anywhere]))


def test_subquotients_match_smith_reference_on_spectral_calls(monkeypatch):
    """Every subquotient the pages, the page check, the graded limit and
    the E2 oracle present on the seeded corpus, the stripe-sign objects
    and cech_object up to (4, 4) equals the Smith presentation, and so do
    the coordinates of its generators, its numerator and a few ambient
    unit vectors, some of which lie outside the numerator."""
    pairs = set()

    def recording(numer, denom):
        pairs.add((numer, denom))
        return SUBQUOTIENT_MEMO(numer, denom)
    monkeypatch.setattr(abelian, "_subquotient_memo", recording)
    objects = [obj.x for obj in corpus(seed=20250811, count=40)] + [
        obj.x for obj in SIGNED] + [
        cech_object(n, top) for n in (2, 3, 4) for top in range(1, 5)]
    for x in objects:
        spectral_sequence(x)
        e2_from_level_homology(x)
    refused = 0
    for numer, denom in pairs:
        n = numer.nrows
        units = take_columns(IntMatrix.identity(n),
                             range(0, n, max(1, n // 6)))
        sq = SUBQUOTIENT_MEMO(numer, denom)
        refused += assert_matches_smith_subquotient(
            numer, denom, IntMatrix.hstack([sq.gens, numer, units]))
    assert len(pairs) > 150
    assert refused > 200


# -- generators from right_inverse against the u_inv route -------------------

def draw_wide(data, nrows, ncols):
    return IntMatrix.from_rows(
        [[data.draw(wide_ints()) for _ in range(ncols)]
         for _ in range(nrows)], ncols=ncols)


def draw_pair(data):
    """(numer, denom): an echelon numerator with zero rows above and below
    it, and a denominator in its span of full rank, of lower rank, or
    zero, with entries past 2^64."""
    n = data.draw(st.integers(1, 4))
    basis = lattice_basis(draw_wide(data, n, data.draw(st.integers(0, 4))))
    k = basis.ncols
    above, below = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    numer = IntMatrix.vstack([IntMatrix.zeros(above, k), basis,
                              IntMatrix.zeros(below, k)])
    kind = data.draw(st.sampled_from(("full", "deficient", "zero")))
    if kind == "full":
        # lower triangular with a nonzero diagonal
        cells = {(i, j): data.draw(wide_ints())
                 for i in range(k) for j in range(i)}
        cells.update({(i, i): data.draw(wide_ints().filter(bool))
                      for i in range(k)})
        rel = IntMatrix.from_dict(k, k, cells)
    elif kind == "deficient":
        r = data.draw(st.integers(0, max(k - 1, 0)))
        rel = draw_wide(data, k, r) @ draw_wide(
            data, r, data.draw(st.integers(0, 4)))
    else:
        rel = IntMatrix.zeros(k, data.draw(st.integers(0, 2)))
    return numer, numer @ rel


def assert_hom_matches_u_inv_route(src, dst, ambient_map, numer, denom):
    """The map induced from src, whose presented pair is (numer, denom),
    reads the same matrix off the u_inv generators."""
    assert induced_hom(src, dst, ambient_map).mat == \
        dst.coords(ambient_map @ u_inv_gens(numer, denom))


@given(st.data())
def test_generators_match_u_inv_route(data):
    """On (numerator, denominator) pairs with a finite quotient, a free
    part or no relations, and entries past 2^64, the lazily built
    generators have the coordinates of the u_inv generators, and a map
    onto a second subquotient induces the same matrix from either."""
    numer, denom = draw_pair(data)
    sq = subquotient_presentation(numer, denom)
    assert_same_generators(sq, u_inv_gens(numer, denom))
    n2 = data.draw(st.integers(1, 4))
    a = draw_wide(data, n2, numer.nrows)
    numer2 = lattice_basis(IntMatrix.hstack([a @ numer,
                                             draw_wide(data, n2, 1)]))
    denom2 = IntMatrix.hstack([
        a @ denom, numer2 @ draw_wide(data, numer2.ncols, 1)])
    sq2 = subquotient_presentation(numer2, denom2)
    assert_same_generators(sq2, u_inv_gens(numer2, denom2))
    assert_hom_matches_u_inv_route(sq, sq2, a, numer, denom)


def test_spectral_generators_match_u_inv_route(monkeypatch):
    """Every subquotient that the spectral sequence and the E2 oracle
    present on the seeded corpus and on cech_object(3, 3) has generators
    with the coordinates of the u_inv ones, and every map they induce
    reads the same matrix off the u_inv generators."""
    pairs = {}
    homs = []

    def recording(numer, denom):
        sq = SUBQUOTIENT_MEMO(numer, denom)
        pairs[id(sq)] = sq, numer, denom
        return sq

    def recording_hom(src, dst, ambient_map):
        homs.append((src, dst, ambient_map))
        return induced_hom(src, dst, ambient_map)
    monkeypatch.setattr(abelian, "_subquotient_memo", recording)
    monkeypatch.setattr(spectral, "induced_hom", recording_hom)
    for x in [obj.x for obj in corpus(seed=20250811, count=40)] + [
            cech_object(3, 3)]:
        spectral_sequence(x)
        e2_from_level_homology(x)
    for sq, numer, denom in pairs.values():
        assert_same_generators(sq, u_inv_gens(numer, denom))
    for src, dst, ambient_map in homs:
        _, numer, denom = pairs[id(src)]
        assert_hom_matches_u_inv_route(src, dst, ambient_map, numer, denom)
    assert len(pairs) > 90
    assert len(homs) > 500


# -- Smith form budget -------------------------------------------------------

def count_smith_forms(monkeypatch):
    calls = []
    real = intlinalg.smith_normal_form

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    for module in (intlinalg, abelian):
        monkeypatch.setattr(module, "smith_normal_form", counting)
    return calls


def test_subquotients_reuse_the_numerator_smith_form(monkeypatch):
    # Z^3 / (2Z + 6Z + 0) = Z/2 + Z/6 + Z, three generator columns
    numer = IntMatrix.identity(3)
    denom = IntMatrix.from_rows([[2, 0], [0, 6], [0, 0]])
    src = subquotient_presentation(numer, denom)
    calls = count_smith_forms(monkeypatch)
    # an equal pair would hit the subquotient memo and take no Smith form
    abelian._subquotient_memo.cache_clear()
    dst = subquotient_presentation(numer, denom)
    # the quotient; the numerator is solved against by substitution
    assert len(calls) == 1
    calls.clear()
    hom = induced_hom(src, dst, IntMatrix.from_rows(
        [[5, 0, 0], [0, 5, 0], [0, 0, 5]]))
    assert hom.mat == IntMatrix.from_rows([[1, 0, 0], [0, 5, 0], [0, 0, 5]])
    assert calls == []
