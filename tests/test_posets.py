"""Posets and their order topology against classical counts.

Frozen facts used as oracles: the proper part of the Boolean lattice on m
elements is a wedge of one (m-2)-sphere; the poset of proper nontrivial
subspaces of F_q^m is a wedge of q^(m choose 2) spheres of dimension m-2;
counts of subspaces are Gaussian binomials.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from tottower import posets
from tottower.deloop import delta_model, subset_model, subspace_model
from tottower.errors import InputError, PreconditionError
from tottower.posets import (
    FinPoset,
    PosetInclusion,
    check_fence_condition,
    full_subposet,
    gaussian_binomial,
    order_complex,
    poset_dimension,
    poset_from_relation,
    checked_chain_count,
    down_slice_masks,
    subset_poset,
    subspace_poset,
)
from tottower.simplicial import (
    SimplicialComplex,
    WedgeSignature,
    complex_from_facets,
    label_key,
    skeleton,
    wedge_signature,
)

from poset_reference import (
    maximal_chains,
    pairwise_poset,
    subspace_inclusion,
    warshall_poset,
)
from suspension_reference import (
    DiagramOfComplexes,
    down_slice,
    lan_point,
    t_functor,
)
from test_chains import wedge_posets
from test_laws import reference_inclusion_check


def test_chain_poset_and_antichain():
    chain = poset_from_relation([0, 1, 2], pairs=[(0, 1), (1, 2)])
    assert poset_dimension(chain) == 2
    assert maximal_chains(chain) == ((0, 1, 2),)
    oc = order_complex(chain)
    assert wedge_signature(oc) == WedgeSignature.contractible()
    anti = poset_from_relation("abc")
    assert poset_dimension(anti) == 0
    assert len(maximal_chains(anti)) == 3


def test_lookups_refuse_what_label_key_refuses():
    """Lookups go by ==, under which True is 1 and (True,) is (1,): a bool
    label, at any depth, or a label of another type is refused, never
    read as the element it equals."""
    p = poset_from_relation([0, 1, 2], pairs=[(0, 1)])
    q = poset_from_relation([(0,), (1,)], pairs=[((0,), (1,))])
    assert (p.index(1), p.leq(0, 1), q.index((1,))) == (1, True, 1)
    bad = [(p, True), (p, False), (p, 1.0), (p, [1]),
           (q, (True,)), (q, ((0,), False))]
    for poset, label in bad:
        with pytest.raises(InputError):
            poset.index(label)
    for a, b in ((False, True), (0, True), (False, 1)):
        with pytest.raises(InputError):
            p.leq(a, b)
    with pytest.raises(InputError):
        full_subposet(q, [(True,)])


def test_relation_closure_and_cycles():
    p = poset_from_relation([0, 1, 2], pairs=[(0, 1), (1, 2)])
    assert p.leq(0, 2)  # transitive closure filled this in
    with pytest.raises(InputError):
        poset_from_relation([0, 1], pairs=[(0, 1), (1, 0)])
    with pytest.raises(InputError):
        poset_from_relation([0, 0, 1], pairs=[])


def test_covers_skip_long_edges():
    p = poset_from_relation(
        [0, 1, 2], pairs=itertools.combinations(range(3), 2))
    assert p.covers == ((0, 1), (1, 2))


def test_subset_poset_shape():
    p = subset_poset(range(3))
    assert len(p.elements) == 7
    assert poset_dimension(p) == 2
    assert len(maximal_chains(p)) == 6
    bounded = subset_poset(range(4), max_card=2)
    assert len(bounded.elements) == 4 + 6
    with pytest.raises(InputError):
        subset_poset(range(3), min_card=0)
    with pytest.raises(InputError):
        subset_poset([])
    with pytest.raises(InputError):
        subset_poset([1, 1, 2])


@pytest.mark.parametrize("base", [
    range(7), "abcdefg", [3, "b", (0,), -1, "a", (1, "x"), ()],
], ids=["ints", "strs", "mixed"])
def test_subset_poset_is_inclusion(base):
    """subset_poset closes the relation "one element smaller"; relating
    every pair of subsets by set inclusion gives the same poset."""
    items = list(base)
    for size in range(1, len(items) + 1):
        part = items[:size]
        for lo, hi in {(1, None), (1, 1), (2, size), (1, (size + 1) // 2),
                       (size // 2 + 1, size - 1)}:
            if hi is not None and not 1 <= lo <= hi:
                continue
            want = pairwise_poset(
                [c for k in range(lo, (hi or size) + 1)
                 for c in itertools.combinations(
                     sorted(part, key=label_key), k)],
                lambda a, b: set(a) <= set(b))
            assert subset_poset(part, lo, hi) == want, (size, lo, hi)


def test_boolean_proper_part_is_a_sphere():
    # proper nonempty subsets of an m-set: one (m-2)-sphere
    for m in (2, 3, 4):
        p = subset_poset(range(m), max_card=m - 1)
        sig = wedge_signature(order_complex(p))
        assert sig == WedgeSignature(m - 2, 1), f"m={m}"


def test_subspace_poset_counts():
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(4, 2, 3) == 130
    p = subspace_poset(2, 3, 3)
    assert len(p.elements) == 7 + 7 + 1
    assert poset_dimension(p) == 2
    q = subspace_poset(3, 4, 4)
    assert len(q.elements) == 40 + 130 + 40 + 1
    with pytest.raises(InputError):
        subspace_poset(4, 2, 1)
    with pytest.raises(InputError):
        subspace_poset(2, 0, 1)


# every (q, n) whose whole subspace poset has at most about 400 elements
SMALL_SUBSPACE_SPACES = [(q, n) for q, top in ((2, 5), (3, 4), (5, 3), (7, 3))
                         for n in range(1, top + 1)]


@pytest.mark.parametrize("q,n", SMALL_SUBSPACE_SPACES)
def test_subspace_poset_is_inclusion(q, n):
    """subspace_poset closes the relation "v plus one line"; relating
    every pair of subspaces by row reduction gives the same poset."""
    related = subspace_inclusion(subspace_poset(q, n, n).elements, q)
    for d in range(1, n + 1):
        p = subspace_poset(q, n, d)
        assert p == pairwise_poset(
            p.elements, lambda a, b: (a, b) in related), d


def test_subspace_proper_part_is_folkman_wedge():
    # proper nontrivial subspaces of F_2^3: wedge of 2^3 circles
    p = subspace_poset(2, 3, 2)
    sig = wedge_signature(order_complex(p))
    assert sig == WedgeSignature(1, 8)


def test_full_subposet_and_inclusion():
    amb = subset_poset(range(3))
    sub = full_subposet(amb, [e for e in amb.elements if len(e) <= 2])
    incl = PosetInclusion(sub, amb)
    ok, witnesses = check_fence_condition(incl)
    assert ok and not witnesses
    # an upward-closed subposet fails the fence condition
    top = full_subposet(amb, [e for e in amb.elements if len(e) >= 2])
    bad = PosetInclusion(top, amb)
    ok, witnesses = check_fence_condition(bad)
    assert not ok
    assert all(len(x) < len(c) for x, c in witnesses)


def test_inclusion_must_be_full():
    """PosetInclusion trusts its caller; the check it used to run, kept in
    tests/test_laws.py, refuses a subposet that is not full."""
    amb = subset_poset(range(2))
    broken = poset_from_relation(list(amb.elements))
    with pytest.raises(InputError, match="not full"):
        reference_inclusion_check(PosetInclusion(broken, amb))


def test_down_slice_and_lan():
    amb = subset_poset(range(3))
    sub = full_subposet(amb, [e for e in amb.elements if len(e) <= 1])
    incl = PosetInclusion(sub, amb)
    sl = down_slice(incl, (0, 1))
    assert sl.elements == ((0,), (1,))
    # two incomparable points: lan is a 0-sphere
    assert wedge_signature(lan_point(incl, (0, 1))) == WedgeSignature(0, 1)
    # a singleton slice is a point
    assert wedge_signature(lan_point(incl, (2,))) == \
        WedgeSignature.contractible()


def test_t_functor_on_two_point_model():
    amb = subset_poset(range(2))
    sub = full_subposet(amb, [(0,), (1,)])
    incl = PosetInclusion(sub, amb)
    diag = t_functor(incl)
    assert isinstance(diag, DiagramOfComplexes)
    # suspensions of points over the singletons, of S^0 over the pair
    assert wedge_signature(diag.values[(0,)]) == WedgeSignature.contractible()
    assert wedge_signature(diag.values[(0, 1)]) == WedgeSignature(1, 1)
    # maps exist along each cover and fix the poles
    assert set(diag.vertex_maps) == {((0,), (0, 1)), ((1,), (0, 1))}
    for vmap in diag.vertex_maps.values():
        assert vmap["north"] == "north"
        assert vmap["south"] == "south"


def test_t_functor_refuses_empty_slice():
    amb = subset_poset(range(2))
    sub = full_subposet(amb, [(0,)])
    incl = PosetInclusion(sub, amb)
    with pytest.raises(PreconditionError):
        t_functor(incl)


def test_order_complex_respects_skeleton_homology():
    # skeleton of the order complex vs order complex of the card-bounded
    # poset: the latter is the full subcomplex on short chains
    p = subset_poset(range(3), max_card=2)
    oc = order_complex(p)
    assert oc.dimension == 1
    assert wedge_signature(oc) == WedgeSignature(1, 1)


@given(st.integers(2, 5), st.data())
def test_random_subposets_stay_posets(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=6,
    ))
    try:
        p = poset_from_relation(range(n), pairs=pairs)
    except InputError:
        return  # the random relation had a cycle
    for i, e in enumerate(p.elements):
        assert p.leq(e, e)
    for a, b in itertools.product(p.elements, repeat=2):
        if p.leq(a, b) and p.leq(b, a):
            assert a == b


@given(st.integers(1, 7), st.data())
def test_chain_count_matches_enumeration(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=12,
    ))
    try:
        p = poset_from_relation(range(n), pairs=pairs)
    except InputError:
        return  # the random relation had a cycle
    assert p.maximal_chain_count() == len(maximal_chains(p))
    chains = sum(
        1 for size in range(1, n + 1)
        for c in itertools.combinations(p.elements, size)
        if all(p.leq(a, b) or p.leq(b, a)
               for a, b in itertools.combinations(c, 2))
    )
    k = order_complex(p)
    faces = sum(map(len, k.simplices_by_dim.values()))
    assert p.chain_count() == chains == faces


# mixed labels whose label_key order is not the order of any relation
LABELS = st.one_of(
    st.integers(-3, 9),
    st.text("ab", max_size=2),
    st.tuples(st.integers(0, 2), st.text("ab", max_size=1)),
)


@given(st.lists(LABELS, max_size=8, unique=True), st.data())
def test_relation_closure_matches_warshall(labels, data):
    """poset_from_relation closes its pairs as Warshall's algorithm does,
    self-pairs and repeats included, and refuses exactly the relations
    with a cycle among distinct elements."""
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
        max_size=16,
    )) if labels else []
    want = warshall_poset(labels, pairs)
    if want is None:
        with pytest.raises(InputError, match="relation has a cycle"):
            poset_from_relation(labels, pairs=pairs)
    else:
        assert poset_from_relation(labels, pairs=pairs) == want


@given(st.lists(LABELS, max_size=7, unique=True), st.data())
def test_order_complex_matches_the_checked_route(labels, data):
    """order_complex builds the canonical facets itself; the checked
    complex_from_facets on the maximal chains gives the same complex."""
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
        max_size=12,
    )) if labels else []
    try:
        p = poset_from_relation(labels, pairs=pairs)
    except InputError:
        return  # the random relation had a cycle
    k = assert_walk_matches_facet_route(p)
    vertices = {v for (v,) in k.simplices_by_dim.get(0, ())}
    assert k.basepoint is None and vertices == set(labels)


def assert_walk_matches_facet_route(p):
    """order_complex lists every chain once in one walk and hands the
    faces over already coded; the facet route lists the maximal chains
    along the covers and canonicalizes them, and a complex built from
    the facets alone lists its faces again from scratch.  All three
    agree in facets and in every coded face."""
    k = order_complex(p)
    assert k == complex_from_facets(maximal_chains(p))
    assert k._coded == SimplicialComplex(k.facets)._coded
    return k


@given(st.lists(LABELS, max_size=8, unique=True), st.data())
def test_walk_matches_facet_route_with_isolated_elements(labels, data):
    """Relations on part of the elements only, the rest isolated, and
    with no pairs at all an antichain."""
    related = data.draw(st.lists(st.sampled_from(labels), unique=True)) \
        if labels else []
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(related), st.sampled_from(related)),
        max_size=10,
    )) if related else []
    try:
        p = poset_from_relation(labels, pairs=pairs)
    except InputError:
        return  # the random relation had a cycle
    k = assert_walk_matches_facet_route(p)
    isolated = set(labels) - {v for pair in pairs for v in pair}
    assert {(v,) for v in isolated} <= set(k.facets)
    assert assert_walk_matches_facet_route(poset_from_relation(labels)) \
        .facets == tuple((v,) for v in sorted(labels, key=label_key))


def model_inclusions():
    yield subset_model(5, 3)
    yield subset_model(6, 4)
    yield subspace_model(2, 4, 2)
    yield subspace_model(3, 3, 1)
    for n, m in ((1, 3), (2, 4), (3, 4)):
        yield delta_model(n, m)


def slice_posets(incl):
    """The slice of the subposet under each ambient element, as deloop
    builds it."""
    for picked, down in down_slice_masks(incl):
        yield FinPoset(tuple(incl.sub.elements[t] for t in picked), down)


def test_walk_matches_facet_route_on_models():
    for p in (subset_poset(range(5)), subset_poset(range(6), max_card=4),
              subset_poset("abcdef", min_card=2, max_card=4),
              subspace_poset(2, 4, 4), subspace_poset(3, 3, 2)):
        assert_walk_matches_facet_route(p)
    for incl in model_inclusions():
        assert_walk_matches_facet_route(incl.sub)
        for sl in slice_posets(incl):
            assert_walk_matches_facet_route(sl)


def test_walk_matches_facet_route_on_wedge_orderings():
    for p in wedge_posets():
        assert_walk_matches_facet_route(p)


def test_the_walk_builds_each_chain_once():
    """The wedge_subset poset: 14511 chains, each built as one tuple,
    the 2520 facets among them."""
    p = subset_poset(range(7), max_card=5)
    facets, by_size = posets._chains(p)
    built = {id(c) for chains in by_size for c in chains}
    assert len(built) == sum(map(len, by_size)) == p.chain_count() == 14511
    assert len(facets) == p.maximal_chain_count() == 2520
    assert all(id(f) in built for f in facets)
    assert len(by_size) == 5


def line_poset(n):
    return poset_from_relation(range(n), pairs=[(i, i + 1)
                                                 for i in range(n - 1)])


def refuse_listing(p):
    raise AssertionError("chains were listed")


def test_longest_total_order_under_the_face_cap(monkeypatch):
    """A total order of 16 has 2^16 - 1 = 65535 chains, under MAX_FACES,
    and all are listed; one of 17 is refused before any is."""
    k = assert_walk_matches_facet_route(line_poset(16))
    assert k.facets == (tuple(range(16)),)
    assert sum(map(len, k.simplices_by_dim.values())) == 65535
    monkeypatch.setattr(posets, "_chains", refuse_listing)
    with pytest.raises(InputError, match="poset has 131071 chains"):
        order_complex(line_poset(17))


def assert_in_label_key_order(p):
    keys = [label_key(e) for e in p.elements]
    assert all(a < b for a, b in zip(keys, keys[1:])), p.elements


@given(st.lists(LABELS, min_size=1, max_size=7, unique=True), st.data())
def test_every_builder_keeps_label_key_order(labels, data):
    """The FinPoset constructor trusts its element order; every builder
    hands it the elements in label_key order."""
    assert_in_label_key_order(subset_poset(labels))
    assert_in_label_key_order(subset_poset(labels, min_card=len(labels)))
    pairs = data.draw(st.lists(
        st.tuples(st.sampled_from(labels), st.sampled_from(labels)),
        max_size=10,
    ))
    try:
        p = poset_from_relation(labels, pairs=pairs)
    except InputError:
        return  # the random relation had a cycle
    assert_in_label_key_order(p)
    picked = data.draw(st.lists(st.sampled_from(labels)))
    assert_in_label_key_order(full_subposet(p, picked))


def test_model_posets_and_deloop_slices_keep_label_key_order():
    for q, n in SMALL_SUBSPACE_SPACES:
        assert_in_label_key_order(subspace_poset(q, n, n))
    for incl in model_inclusions():
        assert_in_label_key_order(incl.ambient)
        assert_in_label_key_order(incl.sub)
        for sl in slice_posets(incl):
            assert_in_label_key_order(sl)


def test_order_complex_of_the_empty_poset():
    k = order_complex(poset_from_relation([]))
    assert k == complex_from_facets([]) and not k.facets


def test_chain_count_on_model_posets():
    assert poset_from_relation([]).maximal_chain_count() == 0
    for p in (subset_poset(range(5)), subset_poset(range(6), max_card=4),
              subspace_poset(3, 4, 3), subspace_poset(2, 4, 4)):
        assert p.maximal_chain_count() == len(maximal_chains(p))
    assert subset_poset(range(5)).maximal_chain_count() == 120
    # complete flags in F_3^4: [4]_3! = 1 * 4 * 13 * 40
    assert subspace_poset(3, 4, 4).maximal_chain_count() == 2080
    assert poset_from_relation([]).chain_count() == 0
    # the wedge_subset benchmark poset
    p = subset_poset(range(7), max_card=5)
    k = order_complex(p)
    assert p.chain_count() == 14511 == sum(
        map(len, k.simplices_by_dim.values()))


def test_chain_cap_is_checked_before_listing(monkeypatch):
    monkeypatch.setattr(posets, "MAX_CHAINS", 6)
    assert checked_chain_count(subset_poset(range(3))) == 6
    assert order_complex(subset_poset(range(3))).dimension == 2
    big = subset_poset(range(4), max_card=3)
    monkeypatch.setattr(posets, "_chains", refuse_listing)
    with pytest.raises(InputError, match="24 maximal chains"):
        order_complex(big)


def test_face_cap_is_checked_before_listing(monkeypatch):
    monkeypatch.setattr(posets, "MAX_FACES", 26)
    # the subsets of a 3-set: 7 elements, 6 maximal chains, 26 chains
    assert checked_chain_count(subset_poset(range(3))) == 6
    # a total order of 5: one maximal chain, 2^5 - 1 chains
    line = line_poset(5)
    monkeypatch.setattr(posets, "_chains", refuse_listing)
    with pytest.raises(InputError, match="poset has 31 chains"):
        order_complex(line)


def test_subspace_poset_refuses_a_large_q_before_testing_it():
    assert len(subspace_poset(4093, 1, 1).elements) == 1
    for q in (10**18 + 3, 4099, 1, 0):
        with pytest.raises(InputError, match="prime of at most 4096"):
            subspace_poset(q, 1, 1)
    # elements are counted before q is found not prime
    with pytest.raises(InputError, match="more than 4096 elements"):
        subspace_poset(4, 40, 3)
    with pytest.raises(InputError, match="more than 4096 elements"):
        subspace_poset(2, 10**9, 1)
    with pytest.raises(InputError, match="q must be prime"):
        subspace_poset(4, 2, 2)


def test_element_cap_is_checked_before_building(monkeypatch):
    monkeypatch.setattr(posets, "MAX_POSET_ELEMENTS", 7)
    assert len(subset_poset(range(3)).elements) == 7
    assert len(subset_poset(range(5), min_card=4, max_card=4).elements) == 5
    assert len(subspace_poset(2, 3, 1).elements) == 7

    def refuse(*args, **kwargs):
        raise AssertionError("elements were related")

    # every builder relates its elements through the one closure
    monkeypatch.setattr(posets, "_close", refuse)
    for build in (lambda: subset_poset(range(4), max_card=2),
                  lambda: subset_poset(range(5), min_card=2, max_card=2),
                  lambda: subspace_poset(2, 3, 2)):
        with pytest.raises(InputError, match="more than 7 elements"):
            build()
