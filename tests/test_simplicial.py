"""Complexes whose homology is known by hand, plus structural laws.

The Euler characteristic is the independent cross-check used throughout:
for a complex whose reduced homology is free of rank c in a single degree
p, the alternating simplex count must equal 1 + (-1)^p c.
"""

import itertools

import pytest
from hypothesis import given, strategies as st

from test_chains import acceptance_posets, wedge_posets
from tottower import chains
from tottower.abelian import HomologyGroup
from tottower.chains import ChainComplexInt
from tottower.deloop import delta_model, subset_model, subspace_model
from tottower.errors import InputError
from tottower.intlinalg import IntMatrix, snf_invariants
from tottower.posets import order_complex
from tottower import simplicial
from tottower.simplicial import (
    MAX_FACES,
    MAX_LABEL_DEPTH,
    SimplicialComplex,
    WedgeSignature,
    barycentric_subdivision,
    complex_from_data,
    complex_from_facets,
    complex_to_data,
    euler_characteristic,
    homology_from_reduced,
    label_from_data,
    label_key,
    reduced_homology,
    skeleton,
    wedge_signature,
)

from poset_reference import maximal_chains
from simplicial_reference import chain_complex
from suspension_reference import down_slice, unreduced_suspension
from torsion_reference import chain_euler

CIRCLE = complex_from_facets([[0, 1], [1, 2], [0, 2]])
TRIANGLE = complex_from_facets([[0, 1, 2]])
# minimal 6-vertex triangulation of the real projective plane
RP2 = complex_from_facets([
    [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
    [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
])


def test_label_key_orders_mixed_types():
    labels = ["b", 2, (1, "a"), 1, "a", (1, 2)]
    ordered = sorted(labels, key=label_key)
    assert ordered == [1, 2, "a", "b", (1, 2), (1, "a")]
    with pytest.raises(InputError):
        label_key(True)
    with pytest.raises(InputError):
        label_key(3.5)


def test_canonicalization_absorbs_faces():
    k = complex_from_facets([[2, 1], [1, 2, 3], [3]])
    assert k.facets == ((1, 2, 3),)
    with pytest.raises(InputError):
        complex_from_facets([[1, 1, 2]])
    with pytest.raises(InputError):
        complex_from_facets([[]])
    with pytest.raises(InputError):
        complex_from_facets([[1, 2]], basepoint=7)


# -- the canonical-form check before the constructor trusted its facets ------
# kept verbatim from SimplicialComplex.__post_init__ as the oracle for every
# complex the package builds; data from outside reaches a complex only
# through complex_from_facets, which builds the canonical form and checks
# the basepoint

def reference_canonical_check(self):
    prev = None
    sets = []
    for f in self.facets:
        if not isinstance(f, tuple) or not f:
            raise InputError("facets must be nonempty tuples")
        key = _facet_key(f)
        if list(key) != sorted(key):
            raise InputError(f"facet {f!r} is not in canonical order")
        if len(set(f)) != len(f):
            raise InputError(f"facet {f!r} repeats a vertex")
        if prev is not None and prev >= key:
            raise InputError("facet list is not sorted, or repeats")
        prev = key
        sets.append(frozenset(f))
    # containment can only pair facets of different sizes
    by_size = {}
    for s in sets:
        by_size.setdefault(len(s), []).append(s)
    for small_size, smalls in by_size.items():
        for big_size, bigs in by_size.items():
            if big_size <= small_size:
                continue
            for s in smalls:
                for b in bigs:
                    if s <= b:
                        raise InputError(
                            "facet contained in another facet"
                        )


def test_direct_constructor_rejects_non_canonical():
    for facets, message in ((((2, 1),), "not in canonical order"),
                            (((1, 2), (1, 2, 3)), "contained in another"),
                            (((1, 2), (0, 1)), "not sorted, or repeats"),
                            (((1, 1),), "repeats a vertex"),
                            (((),), "nonempty tuples")):
        with pytest.raises(InputError, match=message):
            reference_canonical_check(SimplicialComplex(facets))
    reference_canonical_check(RP2)
    reference_canonical_check(complex_from_facets([]))


def test_circle_homology():
    assert wedge_signature(CIRCLE) == WedgeSignature(1, 1)
    assert wedge_signature(TRIANGLE) == WedgeSignature.contractible()
    assert euler_characteristic(CIRCLE) == 0
    assert euler_characteristic(TRIANGLE) == 1


def test_rp2_has_torsion_and_no_signature():
    h = reduced_homology(RP2)
    assert h[1] == HomologyGroup(0, (2,))
    assert h[0] == HomologyGroup(0)
    assert h[2] == HomologyGroup(0)
    assert wedge_signature(RP2) is None
    assert euler_characteristic(RP2) == 1


def test_empty_complex():
    empty = complex_from_facets([])
    assert not empty.facets
    assert empty.dimension == -1
    assert reduced_homology(empty) == {-1: HomologyGroup(1), 0: HomologyGroup(0)}
    assert homology_from_reduced(reduced_homology(empty)) == \
        {0: HomologyGroup(0)}
    assert wedge_signature(empty) is None
    with pytest.raises(InputError):
        unreduced_suspension(empty)


def test_skeleton():
    tetra = complex_from_facets([[0, 1, 2, 3]])
    sphere = skeleton(tetra, 2)
    assert wedge_signature(sphere) == WedgeSignature(2, 1)
    graph = skeleton(tetra, 1)
    assert wedge_signature(graph) == WedgeSignature(1, 3)
    assert skeleton(tetra, 5) is tetra
    with pytest.raises(InputError):
        skeleton(tetra, -1)


def test_suspension_is_a_sphere_builder():
    s0 = complex_from_facets([[0], [1]])
    assert wedge_signature(s0) == WedgeSignature(0, 1)
    s1 = unreduced_suspension(s0)
    assert wedge_signature(s1) == WedgeSignature(1, 1)
    s2 = unreduced_suspension(s1)
    assert wedge_signature(s2) == WedgeSignature(2, 1)
    assert s1.basepoint == "north"
    assert s2.basepoint == "north_"  # s1 already uses the plain label
    # explicit poles, and collision avoidance for implicit ones
    named = unreduced_suspension(s0, "top", "bottom")
    assert ("top",) in named.simplices_by_dim[0]
    tricky = complex_from_facets([["north"], ["south"]])
    susp = unreduced_suspension(tricky)
    assert wedge_signature(susp) == WedgeSignature(1, 1)
    with pytest.raises(InputError):
        unreduced_suspension(s0, "x", "x")


def test_barycentric_subdivision_of_circle_is_hexagon():
    hexagon = barycentric_subdivision(CIRCLE)
    assert len(hexagon.simplices_by_dim[0]) == 6
    assert len(hexagon.simplices_by_dim[1]) == 6
    assert wedge_signature(hexagon) == WedgeSignature(1, 1)


def small_complex_strategy(max_verts=5, max_facets=4, max_size=3):
    verts = st.integers(0, max_verts - 1)
    facet = st.lists(verts, min_size=1, max_size=max_size, unique=True)
    return st.lists(facet, min_size=1, max_size=max_facets).map(
        complex_from_facets
    )


@given(small_complex_strategy())
def test_suspension_shifts_reduced_homology(k):
    before = reduced_homology(k)
    after = reduced_homology(unreduced_suspension(k))
    for d in range(-1, k.dimension + 3):
        got = after.get(d + 1, HomologyGroup(0))
        want = before.get(d, HomologyGroup(0))
        assert got == want, f"degree {d}"


@given(small_complex_strategy())
def test_subdivision_preserves_homology(k):
    sd = barycentric_subdivision(k)
    before = reduced_homology(k)
    after = reduced_homology(sd)
    degrees = set(before) | set(after)
    for d in degrees:
        assert before.get(d, HomologyGroup(0)) == after.get(d, HomologyGroup(0))


@given(small_complex_strategy())
def test_euler_characteristic_two_ways(k):
    assert euler_characteristic(k) == chain_euler(chain_complex(k))


@given(small_complex_strategy())
def test_wedge_signature_forces_euler(k):
    sig = wedge_signature(k)
    if sig is not None:
        assert euler_characteristic(k) == 1 + (-1) ** sig.sphere_dim * sig.count


def test_chain_complex_reduced_vs_not():
    c = chain_complex(CIRCLE)
    assert c.homology(0) == HomologyGroup(1)
    r = chain_complex(CIRCLE, reduced=True)
    assert r.homology(0) == HomologyGroup(0)
    assert r.homology(-1) == HomologyGroup(0)
    assert r.homology(1) == HomologyGroup(1)


def test_serialization_roundtrip():
    k = complex_from_facets(
        [[("a", 1), ("b", 2)], [0, ("a", 1)]], basepoint=("a", 1)
    )
    data = complex_to_data(k)
    assert complex_from_data(data) == k
    with pytest.raises(InputError):
        complex_from_data({"facets": [[1.5]]})
    with pytest.raises(InputError):
        complex_from_data({"nope": []})


def test_label_depth_cap():
    def nested(depth):
        v = 1
        for _ in range(depth):
            v = [v]
        return v

    inner = label_from_data(nested(MAX_LABEL_DEPTH))
    for _ in range(MAX_LABEL_DEPTH):
        assert isinstance(inner, tuple) and len(inner) == 1
        inner = inner[0]
    assert inner == 1
    with pytest.raises(InputError):
        label_from_data(nested(MAX_LABEL_DEPTH + 1))


def test_face_cap_refuses_a_large_facet_before_listing(monkeypatch):
    top = MAX_FACES.bit_length() - 1  # the largest facet under the cap
    assert 2 ** top - 1 <= MAX_FACES < 2 ** (top + 1) - 1
    for size in (top + 1, 40):
        k = complex_from_facets([range(size)])
        with pytest.raises(InputError, match=f"facet of {size} vertices"):
            k.dimension
    monkeypatch.setattr(simplicial, "MAX_FACES", 7)
    # 9 faces, though each facet has at most 7
    with pytest.raises(InputError, match="complex has more than 7 faces"):
        complex_from_facets([[0, 1, 2], [2, 3]]).dimension
    # shared faces are counted once: 6 faces, though the facets sum to 9
    assert complex_from_facets([[0, 1], [1, 2], [0, 2]]).dimension == 1
    # 7 faces, the cap itself
    assert complex_from_facets([[0, 1, 2]]).dimension == 2
    with pytest.raises(InputError, match="more than 7 faces"):
        euler_characteristic(complex_from_facets([[0, 1, 2, 3]]))


# -- the label-keyed code before vertices were coded as ints ----------------
# kept verbatim as the reference for the coded one

def _facet_key(f):
    return tuple(label_key(v) for v in f)


def reference_complex_from_facets(facets, basepoint=None):
    canon = []
    for f in facets:
        f = list(f)
        if not f:
            raise InputError("empty facet")
        sf = tuple(sorted(f, key=label_key))
        if len(set(sf)) != len(sf):
            raise InputError(f"facet {f!r} repeats a vertex")
        canon.append(sf)
    canon = sorted(set(canon), key=_facet_key)
    by_size: dict = {}
    for f in canon:
        by_size.setdefault(len(f), []).append(frozenset(f))
    bigger = sorted(by_size, reverse=True)
    keep = []
    for f in canon:
        s = frozenset(f)
        absorbed = False
        for sz in bigger:
            if sz <= len(f):
                break
            if any(s <= t for t in by_size[sz]):
                absorbed = True
                break
        if not absorbed:
            keep.append(f)
    if basepoint is not None and basepoint not in {v for f in keep for v in f}:
        raise InputError("basepoint is not a vertex")
    return SimplicialComplex(tuple(keep), basepoint)


def reference_simplices_by_dim(k) -> dict:
    seen = set()
    by_dim: dict = {}
    for f in k.facets:
        for n in range(1, len(f) + 1):
            for s in itertools.combinations(f, n):
                if s not in seen:
                    seen.add(s)
                    by_dim.setdefault(n - 1, []).append(s)
    return {
        d: tuple(sorted(lst, key=_facet_key))
        for d, lst in by_dim.items()
    }


def reference_chain_complex(k, reduced=False):
    by_dim = reference_simplices_by_dim(k)
    top = max(by_dim, default=-1)
    if top < 0:
        if reduced:
            return ChainComplexInt(-1, (1, 0), (IntMatrix.zeros(1, 0),))
        return ChainComplexInt(0, (0,), ())
    index = {
        d: {s: i for i, s in enumerate(simps)}
        for d, simps in by_dim.items()
    }
    ranks = tuple(len(by_dim[d]) for d in range(top + 1))
    bnds = []
    for d in range(1, top + 1):
        data = {}
        for j, s in enumerate(by_dim[d]):
            for i in range(len(s)):
                face = s[:i] + s[i + 1:]
                data[(index[d - 1][face], j)] = -1 if i % 2 else 1
        bnds.append(IntMatrix.from_dict(ranks[d - 1], ranks[d], data))
    if not reduced:
        return ChainComplexInt(0, ranks, tuple(bnds))
    aug = IntMatrix.from_dict(1, ranks[0], {(0, j): 1 for j in range(ranks[0])})
    return ChainComplexInt(-1, (1,) + ranks, (aug,) + tuple(bnds))


def outcome(fn, *args):
    try:
        return fn(*args)
    except InputError as exc:
        return ("InputError", str(exc))


def assert_matches_reference(facets, basepoint=None, reduced=(False, True)):
    got = outcome(complex_from_facets, facets, basepoint)
    want = outcome(reference_complex_from_facets, facets, basepoint)
    assert got == want
    if isinstance(got, tuple):
        return
    assert got.simplices_by_dim == reference_simplices_by_dim(want)
    assert list(got.simplices_by_dim) == sorted(got.simplices_by_dim)
    for r in reduced:
        assert chain_complex(got, r) == reference_chain_complex(want, r)


LABELS = st.recursive(
    st.integers(-3, 3) | st.sampled_from(["a", "b", "ab", ""]),
    lambda inner: st.tuples(inner, inner) | st.tuples(inner),
    max_leaves=4,
)
# labels the program refuses, hashable or not, and some equal to a valid
# one under == (True == 1, 1.0 == 1)
BAD_LABELS = st.sampled_from([True, False, 1.0, 0.0, None, [1], (1, True)])


def facet_lists(labels):
    facet = st.lists(labels, min_size=1, max_size=4, unique_by=repr)
    return st.lists(facet, max_size=6).flatmap(
        lambda fs: st.tuples(
            st.just(fs),
            # repeated and contained facets
            st.lists(st.sampled_from(fs), max_size=3) if fs else st.just([]),
            st.lists(st.sampled_from(fs), max_size=3) if fs else st.just([]),
        )
    ).map(lambda t: t[0] + t[1] + [f[:-1] or f for f in t[2]])


@given(facet_lists(LABELS), st.data())
def test_coded_complex_matches_reference(facets, data):
    verts = [v for f in facets for v in f]
    basepoint = data.draw(
        st.sampled_from(verts) | LABELS if verts else LABELS | st.none()
    )
    assert_matches_reference(facets, basepoint)


@given(facet_lists(LABELS | BAD_LABELS), st.data())
def test_coded_complex_refuses_like_reference(facets, data):
    # empty facets and repeated vertices are refused, and the first bad
    # label met names the error
    facets = data.draw(st.sampled_from([
        facets, facets + [[]], facets + [[0, 0]], [[]] + facets,
    ]))
    assert_matches_reference(facets)


def test_coded_complex_matches_reference_on_acceptance_posets():
    for p in acceptance_posets():
        assert_matches_reference(maximal_chains(p), reduced=(True,))


# -- the face route against the boundary matrices it replaced -----------------

def face_reduction(k):
    """reduced_homology(k), the ranks and feed it reduced, and the
    (pairs, residuals) of that one unit reduction."""
    made = []
    reduce = chains._unit_reduce

    def recording(ranks, columns):
        made.append((ranks, columns, reduce(ranks, columns)))
        return made[-1][2]

    chains._unit_reduce = recording
    try:
        groups = reduced_homology(k)
    finally:
        chains._unit_reduce = reduce
    (made,) = made
    return (groups, *made)


def assert_face_route_matches_matrices(k):
    """Same groups as the boundary matrices of chain_complex, reduced and
    not; the same columns and row indexes, with no row skipped and with
    every other one; and the same unit pairs and residual invariants per
    boundary."""
    groups, ranks, columns, (pairs, residuals) = face_reduction(k)
    c = chain_complex(k, reduced=True)
    assert groups == c.homology_all()
    assert homology_from_reduced(groups) == chain_complex(k).homology_all()
    entries = chains._entry_columns(c.boundaries)
    assert ranks == c.ranks
    for t in range(len(c.boundaries)):
        for skip in (set(), set(range(0, ranks[t], 2))):
            assert columns(t, skip) == entries(t, skip)
    want_pairs, want_residuals = chains._unit_reduce(c.ranks, entries)
    assert pairs == want_pairs
    assert [r.shape for r in residuals] == [r.shape for r in want_residuals]
    assert list(map(snf_invariants, residuals)) == \
        list(map(snf_invariants, want_residuals))


def test_face_route_matches_matrices_on_named_complexes():
    named = [
        complex_from_facets([]),
        complex_from_facets([[0]]),
        complex_from_facets([[0, 1], [1, 2], [3], [4, 5]]),
        CIRCLE, TRIANGLE, RP2, barycentric_subdivision(RP2),
        unreduced_suspension(RP2),
        complex_from_facets(itertools.combinations(range(6), 5)),
    ]
    named += [order_complex(p) for p in acceptance_posets()]
    for k in named:
        assert_face_route_matches_matrices(k)
    # the subdivided projective plane keeps its torsion
    assert reduced_homology(barycentric_subdivision(RP2)) == {
        -1: HomologyGroup(0), 0: HomologyGroup(0),
        1: HomologyGroup(0, (2,)), 2: HomologyGroup(0)}


def test_face_route_matches_matrices_on_deloop_slices():
    for incl in (subset_model(6, 4), subspace_model(2, 4, 2),
                 subspace_model(3, 3, 1), delta_model(2, 4)):
        for d in incl.ambient.elements:
            assert_face_route_matches_matrices(
                order_complex(down_slice(incl, d)))


def test_face_route_matches_matrices_on_wedge_orderings():
    for p in wedge_posets():
        assert_face_route_matches_matrices(order_complex(p))


@given(small_complex_strategy(max_verts=7, max_facets=6, max_size=5))
def test_face_route_matches_matrices_on_random_complexes(k):
    assert_face_route_matches_matrices(k)
