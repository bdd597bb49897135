"""Reference constructions the tests compare the library against.

``deloop.analyze_inclusion`` reads each slice's order complex and shifts
its wedge signature up one degree instead of suspending it.  The pointwise
suspension diagram it stands for is built here, with the unreduced
suspension of a complex, so the tests can check the shortcut against the
construction itself, with the slices cut by comparing elements one pair
at a time.  ``subset_deloop_bound`` and ``cover_suspension_bound`` are the
closed forms 2r - size + 1 and 2r - n + 1 that the reports' ``d_max`` must
reach on the subset and subspace models.  No module of the package uses
these.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from poset_reference import leq
from tottower.errors import InputError, InvariantError, PreconditionError
from tottower.posets import (
    FinPoset,
    PosetInclusion,
    full_subposet,
    order_complex,
)
from tottower.simplicial import (
    SimplicialComplex,
    complex_from_facets,
    label_key,
)


def unreduced_suspension(k: SimplicialComplex, north=None,
                         south=None) -> SimplicialComplex:
    """Join with two fresh cone points; the north pole becomes the
    basepoint.  Pole labels are picked fresh unless given explicitly
    (diagrams of suspensions want the same poles everywhere).  Suspending
    the empty complex is refused rather than given a conventional value."""
    if not k.facets:
        raise InputError("refusing to suspend an empty complex")
    verts = {v for (v,) in k.simplices_by_dim[0]}
    if north is None and south is None:
        north, south = "north", "south"
        while north in verts or south in verts:
            north += "_"
            south += "_"
    if north == south or north in verts or south in verts:
        raise InputError("pole labels must be fresh and distinct")
    facets = []
    for f in k.facets:
        facets.append(f + (north,))
        facets.append(f + (south,))
    return complex_from_facets(facets, basepoint=north)


def down_slice(incl: PosetInclusion, d) -> FinPoset:
    """Elements of the subposet lying weakly below d in the ambient, found
    by one comparison per subposet element; the package cuts its slices
    from masks with ``posets.down_slice_masks`` instead."""
    picked = [
        c for c in incl.sub.elements if leq(incl.ambient, c, d)
    ]
    return full_subposet(incl.sub, picked)


def lan_point(incl: PosetInclusion, d) -> SimplicialComplex:
    return order_complex(down_slice(incl, d))


@dataclass(eq=False)
class DiagramOfComplexes:
    """Complexes indexed by a poset with simplicial maps along covers."""

    poset: FinPoset
    values: dict
    vertex_maps: dict


def _check_simplicial(src: SimplicialComplex, dst: SimplicialComplex,
                      vmap: dict) -> None:
    dst_simplices = set()
    for simps in dst.simplices_by_dim.values():
        dst_simplices.update(simps)
    for f in src.facets:
        img = tuple(sorted({vmap[v] for v in f}, key=label_key))
        if img not in dst_simplices:
            raise InvariantError(
                f"facet {f!r} does not map to a simplex"
            )


def t_functor(incl: PosetInclusion) -> DiagramOfComplexes:
    """Pointwise unreduced suspension of the slice order complexes.

    Every ambient element d gets the suspension of the chain complex (as a
    space) of the slice below d; along a cover the map is the identity on
    slice elements and matches the poles up.  Slices must be nonempty for
    the suspension to make sense here.
    """
    amb = incl.ambient
    slices = {}
    for d in amb.elements:
        sl = down_slice(incl, d)
        if not sl.elements:
            raise PreconditionError(
                f"slice under {d!r} is empty; cannot take its suspension"
            )
        slices[d] = sl
    used = set()
    for sl in slices.values():
        used.update(sl.elements)
    north, south = "north", "south"
    while north in used or south in used:
        north += "_"
        south += "_"
    values = {
        d: unreduced_suspension(order_complex(sl), north, south)
        for d, sl in slices.items()
    }
    vmaps = {}
    for j, i in amb.covers:
        a, b = amb.elements[j], amb.elements[i]
        vmap = {v: v for v in slices[a].elements}
        vmap[north] = north
        vmap[south] = south
        _check_simplicial(values[a], values[b], vmap)
        vmaps[(a, b)] = vmap
    _check_diamonds(amb, vmaps)
    return DiagramOfComplexes(amb, values, vmaps)


def _check_diamonds(p: FinPoset, vmaps: dict) -> None:
    # composites along any two cover paths through a diamond must agree
    up_covers: dict = {}
    for j, i in p.covers:
        up_covers.setdefault(j, []).append(i)
    for a, mids in up_covers.items():
        for b, c in itertools.combinations(mids, 2):
            tops = set(up_covers.get(b, ())) & set(up_covers.get(c, ()))
            for d in tops:
                ea, eb, ec, ed = (p.elements[t] for t in (a, b, c, d))
                left = {
                    v: vmaps[(eb, ed)][w]
                    for v, w in vmaps[(ea, eb)].items()
                }
                right = {
                    v: vmaps[(ec, ed)][w]
                    for v, w in vmaps[(ea, ec)].items()
                }
                if left != right:
                    raise InvariantError(
                        "suspension diagram fails to commute"
                    )


# -- closed-form bounds ------------------------------------------------------

def subset_deloop_bound(size: int, r: int) -> int:
    """Bound for card <= r subsets inside the power set of a size-set."""
    if not 1 <= r <= size:
        raise PreconditionError("need 1 <= r <= size")
    return 2 * r - size + 1


def cover_suspension_bound(n: int, r: int) -> int:
    """Suspension count certified by an n-piece cover with r-acyclic
    intersections; the same arithmetic serves dim <= r subspaces inside
    the subspaces of F_q^n."""
    if not 1 <= r <= n:
        raise PreconditionError("need 1 <= r <= n")
    return 2 * r - n + 1
