"""Stripe-filtration pages: frozen small cases plus corpus cross-checks."""

import json
import sys

import pytest

from constructions_reference import (cech_object, constant_object,
                                    cosimplicial_to_data)
from corpus_reference import corpus, gamma_co
from map_reference import ReferenceWindow, add, stripe_head, stripe_tail
from shadow_reference import is_iso
from smith_reference import kernel_basis
from test_cosimplicial import SIGNED
from test_intlinalg import record_smith_forms
from tottower import abelian, cosimplicial, intlinalg, spectral
from tottower.abelian import GroupHom, HomologyGroup
from tottower.chains import ChainComplexInt, chain_map
from tottower.cli import main
from tottower.errors import InputError, InvariantError
from tottower.intlinalg import IntMatrix, lattice_basis
from tottower.spectral import (
    differential_range,
    e2_from_level_homology,
    fringe_filtration_check,
    spectral_sequence,
)

CORPUS = corpus(seed=20250811, count=14)
# the corpus, and objects on which the stripe signs are at work
OBJECTS = CORPUS + SIGNED

Z = HomologyGroup(1)
ONE = IntMatrix.identity(1)
SUBQUOTIENT_MEMO = abelian._subquotient_memo


def zigzag_two_step():
    """Three stripes: a class in stripe 0 hits stripe 2 through an
    acyclic middle, so the first nonzero differential lives on page 2."""
    p0 = ChainComplexInt(1, (1,), ())
    p1 = ChainComplexInt(1, (1, 1), (ONE,))
    p2 = ChainComplexInt(2, (1,), ())
    return gamma_co(
        (p0, p1, p2),
        (chain_map(p0, p1, {1: ONE}), chain_map(p1, p2, {2: ONE})),
    )


def zigzag_high_step():
    """Same zig-zag pushed up one stripe, so the page-2 death of the
    diagonal entry happens within the allowed differential range."""
    q0 = ChainComplexInt(2, (0,), ())
    q1 = ChainComplexInt(2, (1,), ())
    q2 = ChainComplexInt(2, (1, 1), (ONE,))
    q3 = ChainComplexInt(3, (1,), ())
    return gamma_co(
        (q0, q1, q2, q3),
        (chain_map(q0, q1, {}),
         chain_map(q1, q2, {2: ONE}),
         chain_map(q2, q3, {3: ONE})),
    )


def test_constant_collapses_at_the_corner():
    x = constant_object(ChainComplexInt(0, (1,), ()), 3)
    ss = spectral_sequence(x)
    assert ss.r_max == 5
    for r in range(1, 6):
        assert dict(ss.page(r).entries) == {(0, 0): Z}
    assert dict(ss.e_infinity) == {(0, 0): Z}
    assert dict(ss.graded_limit) == {(0, 0): Z}


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_cech_second_page_is_two_lines(m):
    """Rank 2 in every stripe, with the connecting maps cancelling all
    but the bottom corner and the top of the truncation window."""
    ss = spectral_sequence(cech_object(2, m))
    if m == 0:
        expected = {(0, 0): HomologyGroup(2)}
    else:
        expected = {(0, 0): Z, (m, 0): Z}
    page = dict(ss.page(min(2, ss.r_max)).entries)
    assert page == expected
    # no room for later differentials out of internal degree zero
    assert dict(ss.e_infinity) == expected


def test_zigzag_supports_a_page_two_differential():
    ss = spectral_sequence(zigzag_two_step())
    assert dict(ss.page(2).entries) == {(0, 1): Z, (2, 2): Z}
    diffs = dict(ss.page(2).differentials)
    assert set(diffs) == {(0, 1)}
    assert is_iso(diffs[(0, 1)])
    assert dict(ss.page(3).entries) == {}
    assert dict(ss.e_infinity) == {}


def test_zigzag_fringe_death_out_of_range():
    report = fringe_filtration_check(spectral_sequence(zigzag_two_step()), 0)
    assert not report["vacuous"]
    (row,) = report["rows"]
    assert (row["s"], row["t"]) == (2, 2)
    assert row["changes"] == [(2, "0")]
    assert not row["survives"]
    assert not row["within_range"]
    assert not report["all_accounted"]


def test_zigzag_fringe_death_within_range():
    report = fringe_filtration_check(spectral_sequence(zigzag_high_step()), 0)
    (row,) = report["rows"]
    assert (row["s"], row["t"]) == (3, 3)
    assert row["within_range"] and not row["survives"]
    assert report["all_accounted"]


def test_fringe_row_of_a_surviving_class():
    # (1, 1) = Z is on every page of this corpus object, so each page
    # finds the entry it is asked for
    x = corpus(seed=20250811, count=3)[2].x
    report = fringe_filtration_check(spectral_sequence(x), 0)
    assert report["rows"] == [{
        "s": 1, "t": 1, "e2": "Z", "stable": "Z", "changes": [],
        "within_range": True, "survives": True,
    }]
    assert report["all_accounted"] and not report["vacuous"]


def test_fringe_vacuous_on_constant():
    x = constant_object(ChainComplexInt(0, (1,), ()), 2)
    report = fringe_filtration_check(spectral_sequence(x), 0)
    assert report["vacuous"] and report["all_accounted"]


def test_fringe_needs_the_stable_page():
    x = cech_object(2, 2)
    ss = spectral_sequence(x, r_max=2)
    with pytest.raises(InputError):
        fringe_filtration_check(ss, 0)


def test_differential_range_boundary():
    assert differential_range(5, 4)
    assert not differential_range(2, 2)
    assert differential_range(3, 2)
    assert not differential_range(1, 2)


def test_page_index_validation():
    ss = spectral_sequence(cech_object(2, 1), r_max=2)
    with pytest.raises(InputError):
        ss.page(0)
    with pytest.raises(InputError):
        ss.page(3)
    with pytest.raises(InputError):
        spectral_sequence(cech_object(2, 1), r_max=0)


@pytest.mark.parametrize("x", [obj.x for obj in CORPUS] + [
    cech_object(3, 3), cech_object(2, 4),
] + [obj.x for obj in SIGNED])
def test_pages_past_stabilization_are_the_stable_page(x):
    """Past page truncation + 1 every spot is presented by the lattices
    of the stable page, so spectral_sequence copies that page instead of
    building the later ones."""
    top = x.truncation
    fil = spectral._Filtration(x.conormalization)
    for k, blocks in fil.win.blocks.items():
        for s, rank in blocks:
            if not rank:
                continue
            stable = fil.page_spot(s, top + 1, k)
            for r in range(top + 2, top + 6):
                spot = fil.page_spot(s, r, k)
                assert (spot.orders, spot.gens) == \
                    (stable.orders, stable.gens)
    result = spectral_sequence(x, r_max=top + 5)
    for r in range(top + 2, top + 6):
        assert result.page(r).entries == result.page(top + 1).entries
        assert result.page(r).differentials == ()


def reference_z_lattice(win, s, r, k):
    """_Filtration.z_lattice as the package had it before it sliced the
    condition out of the boundary: coordinate projections and
    inclusions of a window with its own differential multiplied out.
    Kept as the reference."""
    inc = stripe_tail(win, s, k)
    cond = stripe_head(win, s + r, k - 1) @ win.boundary(k) @ inc
    return lattice_basis(inc @ kernel_basis(cond))


@pytest.mark.parametrize("x", [obj.x for obj in OBJECTS] + [
    cech_object(3, 3)])
def test_sliced_z_lattice_matches_the_product_reference(x, monkeypatch):
    """Every z-lattice spectral_sequence reads, on the pages, in the page
    check and in the graded limit, equals the multiplied-out one."""
    read = {}
    z_lattice = spectral._Filtration.z_lattice

    def recording(self, s, r, k):
        res = z_lattice(self, s, r, k)
        read[(self, s, r, k)] = res
        return res
    monkeypatch.setattr(spectral._Filtration, "z_lattice", recording)
    spectral_sequence(x)
    assert read
    win = ReferenceWindow(x.conormalization, -1, x.truncation)
    for (_, s, r, k), res in read.items():
        assert res == reference_z_lattice(win, s, r, k), (s, r, k)


def test_z_lattices_take_one_elimination_per_block(monkeypatch, tmp_path,
                                                   capsys):
    """ss on cech_object(4, 4) reads z-lattices at many (s, r, k) but cuts
    few blocks (k, rows, col0) of the total differential: each block
    takes one kernel_lattice elimination.  The graded limit presents only
    the 5 of its 25 pieces whose two z-lattices differ."""
    path = tmp_path / "cech_4_4.json"
    path.write_text(json.dumps(cosimplicial_to_data(cech_object(4, 4))))
    callers, presenters = [], []
    blocks = set()
    reads = 0
    kernel_lattice = intlinalg.kernel_lattice
    z_lattice = spectral._Filtration.z_lattice
    presented = spectral.subquotient_presentation

    def counting(mat):
        callers.append(sys._getframe(1).f_code.co_name)
        return kernel_lattice(mat)

    def presenting(numer, denom):
        presenters.append(sys._getframe(1).f_code.co_name)
        return presented(numer, denom)

    def reading(self, s, r, k):
        nonlocal reads
        reads += 1
        blocks.add((k, self.win.start(s + r, k - 1), self.win.start(s, k)))
        return z_lattice(self, s, r, k)
    for module in (abelian, cosimplicial, spectral):
        monkeypatch.setattr(module, "kernel_lattice", counting)
    monkeypatch.setattr(spectral._Filtration, "z_lattice", reading)
    monkeypatch.setattr(spectral, "subquotient_presentation", presenting)
    assert main(["ss", str(path)]) == 0
    capsys.readouterr()
    assert callers.count("z_lattice") == len(blocks) == 19 < reads
    assert len(callers) <= 57
    assert presenters.count("_graded_limit") == 5


@pytest.mark.parametrize("obj", OBJECTS, ids=lambda o: o.name)
def test_corpus_second_page_matches_level_homology(obj):
    """The page built from the filtration must agree with the cohomology
    of the conormalized levelwise homology, computed without stripes."""
    ss = spectral_sequence(obj.x)
    assert dict(ss.page(2).entries) == e2_from_level_homology(obj.x)


@pytest.mark.parametrize("obj", OBJECTS, ids=lambda o: o.name)
def test_corpus_stable_page_is_the_graded_limit(obj):
    ss = spectral_sequence(obj.x)
    assert dict(ss.e_infinity) == dict(ss.graded_limit)
    # tables carry nontrivial groups only, in sorted key order
    for page in ss.pages:
        keys = [key for key, _ in page.entries]
        assert keys == sorted(keys)
        assert all(not g.is_trivial for _, g in page.entries)


def test_first_differential_fires_somewhere():
    changed = 0
    for obj in corpus(seed=20250811, count=30):
        ss = spectral_sequence(obj.x)
        if dict(ss.page(1).entries) != dict(ss.page(2).entries):
            changed += 1
    assert changed >= 2


def test_report_serializes():
    ss = spectral_sequence(cech_object(2, 2))
    data = json.loads(json.dumps(ss.to_data(), sort_keys=True))
    assert data["pages"]["2"] == {"(0,0)": "Z", "(2,0)": "Z"}
    assert data["truncation"] == 2
    assert data["e_infinity"] == data["pages"]["3"]


# -- the second routes catch a fault with the subquotients memoized

def test_page_check_catches_a_wrong_differential(monkeypatch):
    spectral_sequence(zigzag_two_step())  # warms the memo

    def zero_map(src, dst, mat):
        return GroupHom(src.orders, dst.orders,
                        IntMatrix.zeros(len(dst.orders), len(src.orders)))
    monkeypatch.setattr(spectral, "induced_hom", zero_map)
    presented = SUBQUOTIENT_MEMO.cache_info().hits
    with pytest.raises(InvariantError,
                       match=r"page 3 entry .* is not the homology of page 2"):
        spectral_sequence(zigzag_two_step())
    assert SUBQUOTIENT_MEMO.cache_info().hits > presented


def test_limit_check_catches_a_wrong_graded_limit(monkeypatch):
    x = cech_object(2, 2)
    spectral_sequence(x)  # warms the memo
    graded_limit = spectral._graded_limit

    def perturbed(fil):
        out = graded_limit(fil)
        out[(0, 0)] = HomologyGroup(2)
        return out
    monkeypatch.setattr(spectral, "_graded_limit", perturbed)
    presented = SUBQUOTIENT_MEMO.cache_info().hits
    with pytest.raises(InvariantError,
                       match=r"stable page entry \(s=0, t=0\) is Z but the "
                             r"filtration of the totalization gives Z\^2"):
        spectral_sequence(x)
    assert SUBQUOTIENT_MEMO.cache_info().hits > presented


def test_e2_oracle_catches_a_wrong_coface_sum(monkeypatch, tmp_path,
                                              capsys):
    path = tmp_path / "cech_2_2.json"
    path.write_text(json.dumps(cosimplicial_to_data(cech_object(2, 2))))
    assert main(["ss", str(path)]) == 0  # warms the memo
    report = json.loads(capsys.readouterr().out)
    assert report["e2_matches_level_homology"] is True
    coface_sum = spectral.coface_sum

    def doubled(x, s):
        total = coface_sum(x, s)
        return add(total, total)
    monkeypatch.setattr(spectral, "coface_sum", doubled)
    presented = SUBQUOTIENT_MEMO.cache_info().hits
    assert main(["ss", str(path)]) == 0
    faulty = json.loads(capsys.readouterr().out)
    assert faulty["pages"] == report["pages"]
    assert faulty["e2_matches_level_homology"] is False
    assert SUBQUOTIENT_MEMO.cache_info().hits > presented


def test_one_smith_form_per_subquotient_miss(monkeypatch, tmp_path, capsys):
    """A subquotient takes the Smith form of its quotient and no other:
    numerators are echelon bases, solved against by substitution, and no
    kernel on the ss path goes through a Smith form."""
    path = tmp_path / "cech_3_3.json"
    path.write_text(json.dumps(cosimplicial_to_data(cech_object(3, 3))))
    forms = record_smith_forms(monkeypatch)
    SUBQUOTIENT_MEMO.cache_clear()
    assert main(["ss", str(path)]) == 0
    capsys.readouterr()
    misses = SUBQUOTIENT_MEMO.cache_info().misses
    assert misses > 10
    assert [transforms for _, transforms in forms].count(True) == misses
