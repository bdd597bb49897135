"""Complexes whose homology is known by hand, plus structural laws.

The Euler characteristic is the independent cross-check used throughout:
for a complex whose reduced homology is free of rank c in a single degree
p, the alternating simplex count must equal 1 + (-1)^p c.
"""

import pytest
from hypothesis import given, strategies as st

from tottower.abelian import HomologyGroup
from tottower.errors import InputError
from tottower.simplicial import (
    MAX_LABEL_DEPTH,
    SimplicialComplex,
    WedgeSignature,
    barycentric_subdivision,
    chain_complex,
    complex_from_data,
    complex_from_facets,
    complex_to_data,
    euler_characteristic,
    label_from_data,
    label_key,
    reduced_homology,
    skeleton,
    unreduced_suspension,
    wedge_signature,
)

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


def test_direct_constructor_rejects_non_canonical():
    with pytest.raises(InputError):
        SimplicialComplex(((2, 1),))
    with pytest.raises(InputError):
        SimplicialComplex(((1, 2), (1, 2, 3)))


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
    assert empty.is_empty
    assert empty.dimension == -1
    assert reduced_homology(empty) == {-1: HomologyGroup(1), 0: HomologyGroup(0)}
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
    assert "top" in named.vertices()
    tricky = complex_from_facets([["north"], ["south"]])
    susp = unreduced_suspension(tricky)
    assert wedge_signature(susp) == WedgeSignature(1, 1)
    with pytest.raises(InputError):
        unreduced_suspension(s0, "x", "x")


def test_barycentric_subdivision_of_circle_is_hexagon():
    hexagon = barycentric_subdivision(CIRCLE)
    assert hexagon.simplex_count(0) == 6
    assert hexagon.simplex_count(1) == 6
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
    assert euler_characteristic(k) == chain_complex(k).euler_characteristic()


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
