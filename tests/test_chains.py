"""Chain complexes: the two homology paths must agree on random complexes."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from constructions_reference import (chain_complex_to_data, constant_object,
                                    cosimplicial_to_data, identity_chain_map,
                                    level_from_data, to_rows)
from corpus_reference import corpus, direct_sum
from map_reference import add, compose, negate
from shadow_reference import (homology_presentation, induced_on_homology,
                              induces_iso_everywhere, is_iso, shift)
from simplicial_reference import chain_complex
from smith_reference import kernel_basis, matrix_rank
from suspension_reference import down_slice
from test_cosimplicial import SIGNED
from torsion_reference import chain_euler
from unit_reduce_reference import unit_reduce as reference_unit_reduce
from tottower import chains
from tottower.abelian import HomologyGroup
from tottower.chains import ChainComplexInt, chain_map
from tottower.cosimplicial import (
    cosimplicial_from_data,
    tot_n,
    tower_fiber,
)
from tottower.deloop import subset_model
from tottower.errors import InputError, InvariantError
from tottower.intlinalg import IntMatrix, snf_invariants
from tottower.posets import (
    order_complex,
    poset_from_relation,
    subset_poset,
    subspace_poset,
)
from tottower.simplicial import (
    complex_from_facets,
    reduced_homology,
)


def circle_complex():
    # triangle: three vertices, three edges
    d1 = IntMatrix.from_rows([
        [-1, 0, 1],
        [1, -1, 0],
        [0, 1, -1],
    ])
    return ChainComplexInt(0, (3, 3), (d1,))


def test_circle_homology():
    c = circle_complex()
    assert c.homology(0) == HomologyGroup(1)
    assert c.homology(1) == HomologyGroup(1)
    assert c.homology(2) == HomologyGroup(0)
    assert c.homology(-1) == HomologyGroup(0)
    assert chain_euler(c) == 0


def test_boundary_squared_checked():
    # the constructor trusts its caller; the law is checked by
    # check_square_zero, which the level reader runs on data from outside
    d2 = IntMatrix.from_rows([[1], [0], [0]])
    bad = ChainComplexInt(0, (3, 3, 1), (circle_complex().boundary(1), d2))
    message = "boundary squared is nonzero at degree 2"
    with pytest.raises(InvariantError, match=message):
        bad.check_square_zero()
    with pytest.raises(InvariantError, match=message):
        level_from_data(chain_complex_to_data(bad))
    circle_complex().check_square_zero()


def test_shape_validation():
    with pytest.raises(InputError):
        ChainComplexInt(0, (), ())
    with pytest.raises(InputError):
        ChainComplexInt(0, (2, 2), (IntMatrix.zeros(3, 2),))
    with pytest.raises(InputError):
        ChainComplexInt(0, (2, 2), ())


def test_shift_moves_degrees():
    c = shift(circle_complex(), 5)
    assert c.homology(5) == HomologyGroup(1)
    assert c.homology(6) == HomologyGroup(1)
    assert c.homology(0) == HomologyGroup(0)
    assert chain_euler(c) == 0  # even shift keeps the signs


def test_direct_sum_adds_homology():
    c = circle_complex()
    d = direct_sum(shift(c, 2), c)
    assert d.homology(0) == HomologyGroup(1)
    assert d.homology(1) == HomologyGroup(1)
    assert d.homology(2) == HomologyGroup(1)
    assert d.homology(3) == HomologyGroup(1)


def random_complex(draw_mats):
    """Build a genuine complex from two random matrices.

    d1 is arbitrary; d2 is a random combination of kernel vectors of d1,
    so d1 @ d2 = 0 holds by construction rather than by luck.
    """
    d1, mix = draw_mats
    k = kernel_basis(d1)
    d2 = k @ mix
    return ChainComplexInt(0, (d1.nrows, d1.ncols, d2.ncols), (d1, d2))


def mats_strategy(bound=3):
    def inner(dims):
        m, n, p = dims
        d1 = st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=m, max_size=m,
        ).map(lambda rows: IntMatrix.from_rows(rows, ncols=n))

        def mix_for(d):
            kdim = d.ncols - matrix_rank(d)
            return st.lists(
                st.lists(st.integers(-2, 2), min_size=p, max_size=p),
                min_size=kdim, max_size=kdim,
            ).map(lambda rows: IntMatrix.from_rows(rows, ncols=p)).map(
                lambda mx: (d, mx)
            )
        return d1.flatmap(mix_for)
    return st.tuples(
        st.integers(1, 3), st.integers(1, 4), st.integers(1, 3)
    ).flatmap(inner)


@given(mats_strategy())
def test_homology_paths_agree(draw_mats):
    c = random_complex(draw_mats)
    for k in range(c.lo - 1, c.hi + 2):
        fast = c.homology(k)
        pres = homology_presentation(c, k)
        assert pres.group() == fast


@given(mats_strategy())
def test_identity_map_induces_isos(draw_mats):
    c = random_complex(draw_mats)
    ident = identity_chain_map(c)
    assert induces_iso_everywhere(ident)


def test_chain_map_must_commute():
    # the constructor trusts its caller; the law is checked by
    # check_commutes, which cosimplicial_from_data runs on every map
    c = circle_complex()
    rows = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    message = "boundaries do not commute with the map in degree 1"
    with pytest.raises(InvariantError, match=message):
        chain_map(c, c, {1: IntMatrix.from_rows(rows)}).check_commutes()
    identity_chain_map(c).check_commutes()
    data = cosimplicial_to_data(constant_object(c, 1))
    data["cofaces"][0][0] = {"1": rows}
    with pytest.raises(InvariantError,
                       match=f"^coface 0 out of level 0: {message}$"):
        cosimplicial_from_data(data)


def test_chain_map_compose_and_sum():
    c = circle_complex()
    ident = identity_chain_map(c)
    two = add(ident, ident)
    assert to_rows(two.component(0)) == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    assert compose(two, ident).component(1) == two.component(1)
    assert not add(ident, negate(ident)).comps


def test_induced_hom_degree_one():
    c = circle_complex()
    ident = identity_chain_map(c)
    assert is_iso(induced_on_homology(ident, 1))
    doubled = induced_on_homology(add(ident, ident), 1)
    # x2 on H_1 = Z is injective but not onto
    assert not is_iso(doubled)


def test_serialization_roundtrip():
    c = circle_complex()
    assert level_from_data(chain_complex_to_data(c)) == c
    with pytest.raises(InputError):
        level_from_data({"lo": 0, "ranks": [1]})
    with pytest.raises(InputError):
        level_from_data(
            {"lo": 0, "ranks": [2, 1], "boundaries": [[[1], [0], [0]]]}
        )


@pytest.mark.parametrize("data", [
    {"lo": True, "ranks": [1], "boundaries": []},
    {"lo": 0, "ranks": [True], "boundaries": []},
    {"lo": 0, "ranks": [1, 1], "boundaries": [5]},
    {"lo": 0, "ranks": [1, 1], "boundaries": [[5]]},
], ids=["bool-lo", "bool-rank", "int-matrix", "int-row"])
def test_from_data_rejects_booleans_and_non_list_matrices(data):
    with pytest.raises(InputError):
        level_from_data(data)


# -- unit reduction before Smith ----------------------------------------------

def unit_reduce(c):
    """chains._unit_reduce fed from the entries of c's boundaries."""
    return chains._unit_reduce(c.ranks, chains._entry_columns(c.boundaries))


def assert_invariants_match_direct_smith(c):
    # the rank path reduces unit pairs first; invariant factors are
    # unique, so the whole tuple must equal a plain Smith form's
    direct = tuple(snf_invariants(b) for b in c.boundaries)
    assert c._boundary_invariants == direct
    # and the reduction runs until no unit entry is left
    _, residuals = unit_reduce(c)
    assert not any(abs(v) == 1 for r in residuals for _, _, v in r.entries)


def test_unit_reduction_revisits_touched_columns():
    # column 0 has no unit until clearing row 0 against column 1 turns
    # its 3 into 3 - 2 = 1, so column 0 must be visited again
    c = ChainComplexInt(0, (2, 2), (IntMatrix.from_rows([[2, 1], [3, 1]]),))
    assert_invariants_match_direct_smith(c)
    assert unit_reduce(c)[0] == [2]


@given(mats_strategy())
def test_unit_reduction_matches_smith_on_random_complexes(draw_mats):
    assert_invariants_match_direct_smith(random_complex(draw_mats))


@given(mats_strategy(bound=5))
def test_unit_reduction_matches_smith_with_torsion(draw_mats):
    assert_invariants_match_direct_smith(random_complex(draw_mats))


def tower_complexes(x):
    """The levels, the stages and every fiber of a cosimplicial object."""
    stages = [tot_n(x, m) for m in range(x.truncation + 1)]
    return list(x.levels) + stages + [
        tower_fiber(x, n, m)
        for m in range(x.truncation + 1) for n in range(m)
    ]


def test_unit_reduction_matches_smith_on_corpus():
    for obj in corpus(seed=20250811, count=20):
        for c in tower_complexes(obj.x):
            assert_invariants_match_direct_smith(c)


def acceptance_posets():
    """The posets whose homology the acceptance gate checks."""
    for n in range(2, 7):
        for r in range(1, n):
            yield subset_poset(range(n), max_card=r)
    for q in (2, 3):
        for n in range(2, 5):
            for r in range(2, n + 1):
                yield subspace_poset(q, n, r)


def test_unit_reduction_matches_smith_on_acceptance_posets():
    for p in acceptance_posets():
        c = chain_complex(order_complex(p), reduced=True)
        assert_invariants_match_direct_smith(c)


# -- the unit reduction against the version it replaced ------------------------

def assert_unit_reduce_matches_reference(c):
    assert unit_reduce(c) == reference_unit_reduce(c.boundaries)


def wedge_posets():
    """The nonempty subsets of {0..6} of size at most 5, under four
    relabelings that each give another vertex order."""
    subsets = [
        c for k in range(1, 6) for c in itertools.combinations(range(7), k)
    ]
    for ordering in range(4):
        labels = random.Random(ordering).sample(
            range(len(subsets)), len(subsets))
        label = dict(zip(subsets, labels))
        covers = [
            (label[b[:i] + b[i + 1:]], label[b])
            for b in subsets if len(b) > 1 for i in range(len(b))
        ]
        yield poset_from_relation(labels, pairs=covers)


def wedge_complexes():
    """The reduced order complexes of wedge_posets, each vertex order
    giving another elimination."""
    for p in wedge_posets():
        yield chain_complex(order_complex(p), reduced=True)


def deloop_complexes():
    """The reduced order complexes of the 63 down slices of the card <= 4
    subsets of {0..5}."""
    incl = subset_model(6, 4)
    for d in incl.ambient.elements:
        yield chain_complex(order_complex(down_slice(incl, d)), reduced=True)


@given(mats_strategy())
def test_unit_reduce_matches_reference_on_random_complexes(draw_mats):
    assert_unit_reduce_matches_reference(random_complex(draw_mats))


@given(mats_strategy(bound=5))
def test_unit_reduce_matches_reference_with_torsion(draw_mats):
    assert_unit_reduce_matches_reference(random_complex(draw_mats))


def test_unit_reduce_matches_reference_on_tower_complexes():
    for obj in list(corpus(seed=20250811, count=20)) + list(SIGNED):
        for c in tower_complexes(obj.x):
            assert_unit_reduce_matches_reference(c)


def test_unit_reduce_matches_reference_on_wedge_and_deloop_complexes():
    for c in [*wedge_complexes(), *deloop_complexes()]:
        assert_unit_reduce_matches_reference(c)


RP2_FACETS = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (2, 4, 5), (2, 4, 6), (3, 4, 6), (3, 5, 6),
]


def test_unit_reduction_keeps_torsion_of_rp2():
    c = chain_complex(complex_from_facets(RP2_FACETS))
    assert_invariants_match_direct_smith(c)
    assert c.homology(1) == HomologyGroup(0, (2,))
    assert c.homology(2) == HomologyGroup(0)


def test_unit_reduction_leaves_smith_small_work(monkeypatch):
    # the unreduced boundaries of this complex reach 4620 x 5880 cells;
    # after the unit pairs are gone Smith sees only the homology
    cells = []

    def counting(mat):
        cells.append(mat.nrows * mat.ncols)
        return snf_invariants(mat)

    monkeypatch.setattr(chains, "snf_invariants", counting)
    k = order_complex(subset_poset(range(7), min_card=1, max_card=5))
    assert reduced_homology(k) == {
        d: HomologyGroup(6 if d == 4 else 0) for d in range(-1, 5)
    }
    assert cells and max(cells) <= 100
