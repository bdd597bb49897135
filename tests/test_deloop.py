"""Delooping analysis on the model inclusions.

The d_max values here were worked out by hand from the slice order
complexes before the analyzer existed, and the numeric bound helpers
must agree with the analyzer on every model where both apply.
"""

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from tottower import InvariantError, PreconditionError, InputError
from tottower import deloop, posets, simplicial
from tottower.deloop import (
    analyze_inclusion,
    delta_model,
    subset_deloop_bound,
    subset_model,
    cover_suspension_bound,
    subspace_model,
    tot_truncation_bound,
)
from tottower.posets import (
    PosetInclusion,
    check_fence_condition,
    full_subposet,
    poset_from_relation,
)
from tottower.simplicial import WedgeSignature, wedge_signature

from suspension_reference import down_slice, t_functor


def test_subset_two_one():
    # single complement element {0,1}, slice two points, suspension S^1
    report = analyze_inclusion(subset_model(2, 1))
    assert report.uniform_sphere_dim == 1
    assert report.complement_dim == 0
    assert report.d_max == 1
    assert not report.trivial_fiber
    assert report.d_max == subset_deloop_bound(2, 1)


def test_subset_four_two():
    # complement has cards 3 and 4, a chain of length 1; values are
    # suspensions of a hexagon (S^2) and of the 1-skeleton of the
    # tetrahedron (wedge of three S^2)
    report = analyze_inclusion(subset_model(4, 2))
    assert report.uniform_sphere_dim == 2
    assert report.complement_dim == 1
    assert report.d_max == 1 == subset_deloop_bound(4, 2)
    top = dict(report.signatures)[(0, 1, 2, 3)]
    assert (top.sphere_dim, top.count) == (2, 3)


def test_subspace_two_three_two():
    # complement is the full space alone; its slice is the dim <= 2
    # subspace poset of F_2^3, a wedge of eight circles
    report = analyze_inclusion(subspace_model(2, 3, 2))
    assert report.uniform_sphere_dim == 2
    assert report.complement_dim == 0
    assert report.d_max == 2 == cover_suspension_bound(3, 2)
    noncontractible = [
        sig for _, sig in report.signatures if not sig.is_contractible
    ]
    assert len(noncontractible) == 1
    assert (noncontractible[0].sphere_dim, noncontractible[0].count) == (2, 8)


def test_trivial_fiber_when_nothing_truncated():
    report = analyze_inclusion(delta_model(2, 2))
    assert report.trivial_fiber
    assert report.d_max is None
    assert report.uniform_sphere_dim is None
    assert report.complement_dim == -1


@pytest.mark.parametrize(
    "n,m",
    [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4)],
)
def test_delta_model_matches_truncation_bound(n, m):
    report = analyze_inclusion(delta_model(n, m))
    assert report.uniform_sphere_dim == n + 1
    assert report.complement_dim == m - n - 1
    assert report.d_max == tot_truncation_bound(n, m) == 2 * n - m + 2


def test_raw_d_max_can_reach_zero():
    # push one extra card-2 subset into the subposet: the top slice
    # becomes disconnected but still a homology wedge of S^0, so the
    # suspensions stay in dimension 1 while the complement deepens
    ambient = delta_model(1, 2).ambient
    keep = [e for e in ambient.elements if len(e) <= 1] + [(0, 1)]
    incl = PosetInclusion(full_subposet(ambient, keep), ambient)
    report = analyze_inclusion(incl)
    assert report.uniform_sphere_dim == 1
    assert report.complement_dim == 1
    assert report.d_max == 0


def test_fence_violation_rejected():
    ambient = subset_model(2, 2).ambient
    bad = PosetInclusion(full_subposet(ambient, [(0, 1)]), ambient)
    with pytest.raises(PreconditionError):
        analyze_inclusion(bad)


def test_mixed_sphere_dimensions_rejected():
    # t sees only the two minimal points (suspension S^1); z sees the
    # full square a < x, y > b (suspension S^2)
    pairs = [
        ("a", "t"), ("b", "t"),
        ("a", "x"), ("b", "x"), ("a", "y"), ("b", "y"),
        ("x", "z"), ("y", "z"), ("a", "z"), ("b", "z"),
    ]
    ambient = poset_from_relation(
        ["a", "b", "t", "x", "y", "z"], pairs=pairs
    )
    incl = PosetInclusion(
        full_subposet(ambient, ["a", "b", "x", "y"]), ambient
    )
    with pytest.raises(PreconditionError):
        analyze_inclusion(incl)


def test_report_serializes():
    report = analyze_inclusion(subset_model(3, 1))
    data = report.to_data()
    text = json.dumps(data, sort_keys=True)
    assert "weakenings" in text
    assert data["weakenings"]
    assert data["d_max"] == report.d_max


def test_truncation_bound_edges():
    assert tot_truncation_bound(1, 1) == 3
    assert tot_truncation_bound(2, 5) == 1
    assert tot_truncation_bound(2, 5) == 2 * 2 - 5 + 2
    assert tot_truncation_bound(1, 3) == 1
    assert tot_truncation_bound(1, 4) is None
    with pytest.raises(PreconditionError):
        tot_truncation_bound(0, 1)
    with pytest.raises(PreconditionError):
        tot_truncation_bound(3, 2)


def test_numeric_helpers():
    assert subset_deloop_bound(6, 5) == 5
    assert cover_suspension_bound(4, 3) == 3
    assert cover_suspension_bound(3, 2) == 2
    with pytest.raises(PreconditionError):
        subset_deloop_bound(3, 0)
    with pytest.raises(InputError):
        subset_model(3, 0)
    with pytest.raises(InputError):
        delta_model(-1, 1)


def test_delta_model_degenerate_point():
    incl = delta_model(0, 0)
    assert incl.sub.elements == incl.ambient.elements == ((0,),)
    report = analyze_inclusion(incl)
    assert report.trivial_fiber


# -- differential: unsuspended slices against the t_functor diagram ----------

def _reference_signatures(incl):
    """Signatures of the suspended values that t_functor builds, with the
    checks of analyze_inclusion in its order and with its messages."""
    ok, witnesses = check_fence_condition(incl)
    if not ok:
        x, c = witnesses[0]
        raise PreconditionError(
            f"inclusion is not downward closed: {x!r} < {c!r} "
            f"({len(witnesses)} witnesses)"
        )
    diagram = t_functor(incl)
    inside = set(incl.sub.elements)
    signatures = []
    for e in incl.ambient.elements:
        sig = wedge_signature(diagram.values[e])
        if e in inside:
            if sig is None or not sig.is_contractible:
                raise InvariantError(
                    f"value over subposet element {e!r} is not a "
                    f"homology point"
                )
        elif sig is None:
            raise PreconditionError(
                f"value over {e!r} is not a homology wedge of "
                f"spheres in one dimension"
            )
        signatures.append((e, sig))
    dims = sorted({
        sig.sphere_dim for e, sig in signatures
        if e not in inside and not sig.is_contractible
    })
    if len(dims) > 1:
        raise PreconditionError(
            f"complement values mix sphere dimensions {dims}"
        )
    return tuple(signatures)


def _assert_matches_reference(incl):
    # the slices the package cuts from masks are the compared ones
    for d, (picked, down) in zip(incl.ambient.elements,
                                 posets.down_slice_masks(incl)):
        sl = down_slice(incl, d)
        assert tuple(incl.sub.elements[t] for t in picked) == sl.elements
        assert down == sl.down
    try:
        want = _reference_signatures(incl)
    except (PreconditionError, InvariantError) as exc:
        with pytest.raises(type(exc)) as got:
            analyze_inclusion(incl)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    assert analyze_inclusion(incl).signatures == want


# every inclusion the acceptance gate's deloop-bounds criterion builds
GATE_MODELS = (
    [("subset", (size, r)) for size in range(2, 6)
     for r in range(1, size + 1)]
    + [("delta", (n, m)) for n in range(1, 4)
       for m in range(n, min(2 * n + 1, 4) + 1)]
    + [("subspace", (2, n, r)) for n in range(2, 5) for r in range(2, n)]
)
BUILDERS = {
    "subset": subset_model, "delta": delta_model, "subspace": subspace_model,
}


@pytest.mark.parametrize(
    "family,args", GATE_MODELS,
    ids=[f"{f}{a}" for f, a in GATE_MODELS],
)
def test_analysis_matches_t_functor_on_gate_models(family, args):
    _assert_matches_reference(BUILDERS[family](*args))


@pytest.mark.parametrize("incl", [
    subset_model(6, 4), subspace_model(3, 3, 2), delta_model(3, 5),
], ids=["subset(6, 4)", "subspace(3, 3, 2)", "delta(3, 5)"])
def test_analysis_matches_t_functor_on_larger_models(incl):
    # slices repeat their shape many times over in these
    _assert_matches_reference(incl)


@given(st.integers(1, 6), st.data())
def test_analysis_matches_t_functor_on_random_inclusions(n, data):
    # pairs only run upward in the labels, so the relation has no cycle
    upward = list(itertools.combinations(range(n), 2))
    keep = data.draw(st.lists(
        st.booleans(), min_size=len(upward), max_size=len(upward)))
    ambient = poset_from_relation(
        range(n), pairs=[pr for pr, k in zip(upward, keep) if k])
    seeds = data.draw(st.sets(st.integers(0, n - 1)))
    if data.draw(st.booleans()):
        # every slice is nonempty once all minimal elements are inside
        seeds |= {
            e for i, e in enumerate(ambient.elements)
            if ambient.down[i] == 1 << i
        }
    inside = [
        e for e in ambient.elements if any(ambient.leq(e, s) for s in seeds)
    ]
    incl = PosetInclusion(full_subposet(ambient, inside), ambient)
    _assert_matches_reference(incl)


def _crown_with_point(extra=(), tops=("z",)):
    # a, b < c, d is a circle; e sits apart; z lies above all five, so
    # its slice has reduced homology in degrees 0 and 1 and is no wedge
    low = ["a", "b", "c", "d", "e"]
    pairs = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")]
    pairs += [(x, top) for x in low for top in tops]
    ambient = poset_from_relation(low + [*tops, *extra], pairs=pairs)
    return PosetInclusion(full_subposet(ambient, low), ambient)


def test_slice_that_is_no_wedge_matches_reference():
    incl = _crown_with_point()
    _assert_matches_reference(incl)
    with pytest.raises(PreconditionError, match="'z' is not a homology"):
        analyze_inclusion(incl)


def test_empty_slice_matches_reference():
    ambient = poset_from_relation(["a", "b"])
    incl = PosetInclusion(full_subposet(ambient, ["a"]), ambient)
    _assert_matches_reference(incl)
    with pytest.raises(PreconditionError, match="slice under 'b' is empty"):
        analyze_inclusion(incl)


def test_empty_slice_is_found_before_any_homology():
    # 'zz' sorts after the non-wedge value over 'z' and has an empty
    # slice; the empty slice must still be the error reported
    incl = _crown_with_point(extra=["zz"])
    _assert_matches_reference(incl)
    with pytest.raises(PreconditionError, match="slice under 'zz' is empty"):
        analyze_inclusion(incl)


def test_fence_check_comes_before_empty_slices():
    ambient = poset_from_relation(["a", "b"], pairs=[("a", "b")])
    incl = PosetInclusion(full_subposet(ambient, ["b"]), ambient)
    _assert_matches_reference(incl)
    with pytest.raises(PreconditionError, match="not downward closed"):
        analyze_inclusion(incl)


def test_analysis_never_suspends():
    # the suspension and its diagram live only in the tests' reference
    assert not hasattr(posets, "t_functor")
    assert not hasattr(simplicial, "unreduced_suspension")
    report = analyze_inclusion(subset_model(4, 2))
    assert report.d_max == 1


# -- one order complex per slice shape ----------------------------------------

def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("build,args,slices,shapes", [
    (subset_model, (6, 4), 63, 6),
    (subspace_model, (2, 4, 2), 66, 4),
    (delta_model, (2, 4), 31, 5),
])
def test_one_order_complex_per_slice_shape(monkeypatch, build, args,
                                           slices, shapes):
    incl = build(*args)
    assert len(incl.ambient.elements) == slices
    assert len({down_slice(incl, d).down
                for d in incl.ambient.elements}) == shapes
    counted = {name: _count_calls(monkeypatch, deloop, name) for name in
               ("checked_chain_count", "order_complex", "wedge_signature")}
    report = analyze_inclusion(incl)
    assert {name: len(c) for name, c in counted.items()} == dict.fromkeys(
        counted, shapes)
    assert len(report.signatures) == slices


def test_each_slice_shape_counts_its_chains_once(monkeypatch):
    # the caps of a shape are checked before its order complex is built,
    # and order_complex checks them again on the same poset
    counted = {name: _count_calls(monkeypatch, posets.FinPoset, name)
               for name in ("maximal_chain_count", "chain_count")}
    analyze_inclusion(subset_model(6, 4))
    assert {name: len(c) for name, c in counted.items()} == {
        "maximal_chain_count": 6, "chain_count": 6}


def test_slices_of_one_size_and_two_shapes_keep_their_values():
    # the slices under x and y both have two elements, but a and c are
    # incomparable while a < b, so only the value over x is a sphere
    ambient = poset_from_relation(
        ["a", "b", "c", "x", "y"],
        pairs=[("a", "b"), ("a", "x"), ("c", "x"), ("b", "y")])
    incl = PosetInclusion(full_subposet(ambient, ["a", "b", "c"]), ambient)
    _assert_matches_reference(incl)
    sigs = dict(analyze_inclusion(incl).signatures)
    assert sigs["x"] == WedgeSignature(1, 1)
    assert sigs["y"].is_contractible


def test_a_repeated_failing_shape_names_its_first_element(monkeypatch):
    # y and z lie above all five low elements, so their slices have one
    # shape, which is no wedge: the error names y.  Three order complexes
    # are built, for the points a, b and e, the slices under c and d,
    # and the slice under y.
    incl = _crown_with_point(tops=("y", "z"))
    _assert_matches_reference(incl)
    calls = _count_calls(monkeypatch, deloop, "order_complex")
    with pytest.raises(PreconditionError, match="'y' is not a homology"):
        analyze_inclusion(incl)
    assert [len(p.elements) for (p,) in calls] == [1, 3, 5]
