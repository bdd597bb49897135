"""Cover diagrams, the bar model, and the connectivity bound.

The three named covers here (two cones over a circle, three stars of a
subdivided triangle, three cones over an octahedron) were checked by
hand before freezing; the bar-model comparison must also hold on covers
that fail the acyclicity hypothesis.
"""

import pytest

from tottower import InputError, PreconditionError
from tottower.cover import (
    check_r_acyclic,
    cover_from_subcomplexes,
    hocolim_chain,
    verify_cover_theorem,
)
from simplicial_reference import barycentric_subdivision, chain_complex
from tottower.simplicial import complex_from_facets


def nerve_of_cover(cov):
    """Index sets with nonempty intersection.  With a basepoint in every
    piece this is the full simplex on {1..n}."""
    facets = [
        tuple(sorted(key))
        for key, inter in cov.intersections.items()
        if inter.facets
    ]
    return complex_from_facets(facets)


def circle_cover():
    # 4-cycle as the suspension of two points, covered by the two cones
    space = complex_from_facets([[0, 2], [0, 3], [1, 2], [1, 3]])
    return cover_from_subcomplexes(
        space, [[[0, 2], [0, 3]], [[1, 2], [1, 3]]], basepoint=2
    )


def octahedron_cover():
    # suspension axes {0,1}, {2,3}, {4,5}; three cones meeting in {4,5}
    space = complex_from_facets(
        [[a, b, c] for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    )
    return cover_from_subcomplexes(
        space,
        [
            [[0, 2, 4], [0, 2, 5], [1, 2, 4], [1, 2, 5]],
            [[0, 3, 4], [0, 3, 5]],
            [[1, 3, 4], [1, 3, 5]],
        ],
        basepoint=4,
    )


def star_cover():
    # barycentric subdivision of a triangle covered by the three closed
    # stars of its corner vertices
    space = barycentric_subdivision(complex_from_facets([[0, 1, 2]]))
    corners = [(0,), (1,), (2,)]
    stars = []
    for corner in corners:
        stars.append([
            f for f in space.facets if corner in f
        ])
    return cover_from_subcomplexes(
        space, stars, basepoint=(0, 1, 2)
    )


def test_cover_validation():
    space = complex_from_facets([[0, 1], [1, 2]])
    with pytest.raises(InputError):
        cover_from_subcomplexes(space, [[[0, 1]]], basepoint=0)
    with pytest.raises(InputError):
        cover_from_subcomplexes(
            space, [[[0, 1]], [[1, 2]]], basepoint=0
        )
    with pytest.raises(InputError):
        cover_from_subcomplexes(
            space, [[[0, 1]], [[2, 3]]], basepoint=1
        )


def test_circle_cover_intersections():
    cov = circle_cover()
    inter = cov.intersections[frozenset({1, 2})]
    assert inter.simplices_by_dim[0] == ((2,), (3,))
    assert 1 not in inter.simplices_by_dim


def test_circle_cover_acyclicity():
    cov = circle_cover()
    ok, witnesses = check_r_acyclic(cov, 1)
    assert ok and witnesses == ()
    ok, witnesses = check_r_acyclic(cov, 2)
    assert not ok
    assert witnesses == (((1, 2), 0, "Z"),)
    with pytest.raises(PreconditionError):
        check_r_acyclic(cov, 3)


def test_circle_hocolim_matches_space():
    cov = circle_cover()
    bar = hocolim_chain(cov)
    groups = bar.homology_all()
    assert str(groups[0]) == "Z"
    assert str(groups[1]) == "Z"
    assert all(
        groups[d].is_trivial for d in groups if d not in (0, 1)
    )


def test_single_piece_cover():
    space = complex_from_facets([[0, 1], [1, 2], [0, 2]])
    cov = cover_from_subcomplexes(
        space, [[[0, 1], [1, 2], [0, 2]]], basepoint=0
    )
    bar = hocolim_chain(cov)
    space_groups = chain_complex(space).homology_all()
    bar_groups = bar.homology_all()
    for d, g in space_groups.items():
        assert (bar_groups[d].rank, bar_groups[d].torsion) == \
            (g.rank, g.torsion)
    assert nerve_of_cover(cov).facets == ((1,),)


def test_circle_cover_report():
    report = verify_cover_theorem(circle_cover(), 1)
    assert report.acyclic_ok
    assert report.hocolim_matches
    assert report.connectivity_bound == 0
    assert report.connectivity_ok
    data = report.to_data()
    assert data["weakenings"]


def test_circle_cover_failed_hypothesis_still_reports():
    report = verify_cover_theorem(circle_cover(), 2)
    assert not report.acyclic_ok
    assert report.acyclic_witnesses
    assert report.hocolim_matches
    assert report.connectivity_ok is None


def test_octahedron_triple_cone():
    cov = octahedron_cover()
    ok, _ = check_r_acyclic(cov, 2)
    assert ok
    ok, witnesses = check_r_acyclic(cov, 3)
    assert not ok
    assert witnesses == (((1, 2, 3), 0, "Z"),)
    report = verify_cover_theorem(cov, 2)
    assert report.acyclic_ok
    assert report.connectivity_bound == 1
    assert report.connectivity_ok
    assert report.hocolim_matches
    table = {d: (a, b) for d, a, b in report.homology_table}
    assert table[0] == ("Z", "Z")
    assert table[2] == ("Z", "Z")
    assert nerve_of_cover(cov).facets == ((1, 2, 3),)


def test_star_cover_fully_acyclic():
    cov = star_cover()
    ok, _ = check_r_acyclic(cov, 3)
    assert ok
    report = verify_cover_theorem(cov, 3)
    assert report.acyclic_ok and report.hocolim_matches
    assert report.connectivity_ok
    assert report.connectivity_bound == 3
    groups = hocolim_chain(cov).homology_all()
    assert str(groups[0]) == "Z"
    assert all(groups[d].is_trivial for d in groups if d != 0)


def test_hocolim_on_inacyclic_cover_of_wedge():
    # two triangles sharing a vertex, pieces overlapping in two points:
    # hypothesis fails, bar model must still see the wedge of circles
    space = complex_from_facets(
        [[0, 1], [1, 2], [0, 2], [2, 3], [3, 4], [2, 4]]
    )
    cov = cover_from_subcomplexes(
        space,
        [
            [[0, 1], [1, 2], [0, 2], [3,]],
            [[2, 3], [3, 4], [2, 4], [0,]],
        ],
        basepoint=2,
    )
    ok, _ = check_r_acyclic(cov, 2)
    assert not ok
    groups = hocolim_chain(cov).homology_all()
    assert str(groups[0]) == "Z"
    assert str(groups[1]) == "Z^2"
