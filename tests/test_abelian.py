"""Group presentations, induced maps, and the Hopfian isomorphism test."""

import pytest
from hypothesis import given, strategies as st

from corpus_reference import corpus
from map_reference import compose_homs, is_zero_hom, take_columns, take_rows
from shadow_reference import group_from_orders, is_iso
from smith_reference import smith_subquotient, solve_matrix
from test_cosimplicial import SIGNED
from test_intlinalg import sparse_strategy
from tottower import abelian, intlinalg
from tottower.abelian import (
    GroupHom,
    HomologyGroup,
    Subquotient,
    format_group,
    induced_hom,
    presented_homology,
    subquotient_presentation,
)
from tottower.constructions import cech_object
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
    s, t1, t2 = zip(*cols.to_rows())
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
        wres = smith_normal_form(w)
        all_orders = wres.invariants + (0,) * (numer.ncols - wres.rank)
        self.keep = [i for i, d in enumerate(all_orders) if d != 1]
        self.orders = tuple(all_orders[i] for i in self.keep)
        self.gens = take_columns(numer @ wres.u_inv, self.keep)
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


def assert_matches_reference(numer, denom, vecs):
    sq = subquotient_presentation(numer, denom)
    ref = ReferenceSubquotient(numer, denom)
    assert sq.group() == ref.group
    assert (sq.orders, sq.gens) == (ref.orders, ref.gens)
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
    orders, generators and transform, and each column of vecs gets the
    same coordinates from both, or the same refusal.  Returns how many
    columns both refused."""
    sq = SUBQUOTIENT_MEMO.__wrapped__(numer, denom)
    ref = smith_subquotient(numer, denom)
    assert (sq.ambient, sq.orders, sq.gens, sq._u) == \
        (ref.ambient, ref.orders, ref.gens, ref._u)
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
