"""Every complex, chain map and simplicial complex the package builds obeys
the laws its constructor trusts.

The constructors of ChainComplexInt, ChainMap and SimplicialComplex check
only cheap shapes; the laws are checked where JSON becomes the object.
Here every constructor call made by the main computations is hooked, and
each object is put through the check its constructor used to run.
"""

import pytest

from test_simplicial import reference_canonical_check
from tottower.chains import ChainComplexInt, ChainMap, identity_chain_map
from tottower.constructions import (
    cech_object,
    corpus,
    gamma_co,
    quasi_iso_pairs,
)
from tottower.cosimplicial import (
    cosimplicial_from_data,
    cosimplicial_to_data,
    matching_kernel_agrees,
    quasi_iso_invariance,
    tower,
    tower_fiber,
)
from tottower.cover import cover_from_subcomplexes, hocolim_chain
from tottower.deloop import analyze_inclusion, subset_model
from tottower.errors import InputError
from tottower.intlinalg import IntMatrix
from tottower.posets import order_complex, subset_poset
from tottower.simplicial import (
    SimplicialComplex,
    barycentric_subdivision,
    chain_complex,
    complex_from_facets,
    skeleton,
)
from tottower.spectral import spectral_sequence


# -- the component checks before the ChainMap constructor trusted its caller --
# kept verbatim from ChainMap.__post_init__, less the commuting loop that is
# now ChainMap.check_commutes

def reference_component_check(self):
    seen = set()
    for k, m in self.comps:
        if k in seen:
            raise InputError(f"duplicate component in degree {k}")
        seen.add(k)
        if m.shape != (self.dst.rank(k), self.src.rank(k)):
            raise InputError(
                f"component in degree {k} has shape {m.shape}, expected "
                f"({self.dst.rank(k)}, {self.src.rank(k)})"
            )
        if m.is_zero:
            raise InputError("zero components must be omitted")


def test_reference_component_check_rejects_bad_components():
    c = ChainComplexInt(0, (1,), ())
    one = IntMatrix.identity(1)
    for comps in (((0, one), (0, one)), ((0, IntMatrix.zeros(1, 1)),),
                  ((0, IntMatrix.identity(2)),)):
        with pytest.raises(InputError):
            reference_component_check(ChainMap(c, c, comps))


def test_built_objects_obey_their_laws(monkeypatch):
    """The towers, spectral sequences, matching objects and quasi-iso
    checks of the corpus and a Cech object, the stages of a suspension
    analysis, and the chain complexes of simplicial constructions and of
    a homotopy colimit build only complexes that square to zero, maps
    with one nonzero component per degree that commute with the
    boundaries, and canonical simplicial complexes."""
    counts = {"complexes": 0, "maps": 0, "simplicial": 0}
    post_init = ChainComplexInt.__post_init__
    map_init = ChainMap.__init__
    simplicial_init = SimplicialComplex.__init__

    def check_complex(self):
        post_init(self)
        self.check_square_zero()
        counts["complexes"] += 1

    # ChainMap and SimplicialComplex define no __post_init__, so their
    # generated __init__ calls none: wrap __init__ instead
    def check_map(self, *args, **kwargs):
        map_init(self, *args, **kwargs)
        reference_component_check(self)
        self.check_commutes()
        counts["maps"] += 1

    def check_simplicial(self, *args, **kwargs):
        simplicial_init(self, *args, **kwargs)
        reference_canonical_check(self)
        counts["simplicial"] += 1

    monkeypatch.setattr(ChainComplexInt, "__post_init__", check_complex)
    monkeypatch.setattr(ChainMap, "__init__", check_map)
    monkeypatch.setattr(SimplicialComplex, "__init__", check_simplicial)

    # no corpus object has a piece with a boundary and a nonzero coface
    # sum out of it, so only the last object here tests the stripe signs
    disk = ChainComplexInt(0, (1, 1), (IntMatrix.identity(1),))
    objects = [cech_object(3, 3)] + [
        cosimplicial_from_data(cosimplicial_to_data(obj.x))
        for obj in corpus(seed=20250811, count=14)
    ] + [gamma_co((disk, disk), (identity_chain_map(disk),))]
    for x in objects:
        for stage in tower(x).stages:
            stage.homology_all()
        spectral_sequence(x)
        top = x.truncation
        for n in range(top + 1):
            for m in range(n, top + 1):
                tower_fiber(x, n, m)
        for m in range(top):
            assert matching_kernel_agrees(x, m)
    for f in quasi_iso_pairs(seed=20250812, count=4):
        assert quasi_iso_invariance(f)

    k = order_complex(subset_poset(range(4)))
    chain_complex(k, reduced=True).homology_all()
    chain_complex(skeleton(k, 1))
    chain_complex(barycentric_subdivision(complex_from_facets(
        [[0, 1, 2], [2, 3]], basepoint=2)))
    space = complex_from_facets([[0, 2], [0, 3], [1, 2], [1, 3]])
    hocolim_chain(cover_from_subcomplexes(
        space, [[[0, 2], [0, 3]], [[1, 2], [1, 3]]], basepoint=2
    )).homology_all()
    analyze_inclusion(subset_model(5, 3))
    assert counts["complexes"] > 500
    assert counts["maps"] > 800
    assert counts["simplicial"] > 35
