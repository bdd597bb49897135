"""Every complex, chain map, simplicial complex, poset and poset inclusion
the package builds obeys the laws its constructor trusts.

The constructors of ChainComplexInt, ChainMap, SimplicialComplex, FinPoset
and PosetInclusion check only cheap shapes; the laws are checked where
JSON (or a relation given by the caller) becomes the object.  Here every
constructor call made by the main computations is hooked, and each object
is put through the check its constructor used to run.
"""

import pytest

from corpus_reference import corpus, quasi_iso_pairs
from shadow_reference import quasi_iso_invariance
from simplicial_reference import chain_complex
from suspension_reference import down_slice
from test_cosimplicial import stripe_sign_objects
from test_simplicial import reference_canonical_check
from tottower.chains import ChainComplexInt, ChainMap
from tottower.constructions import cech_object
from tottower.cosimplicial import (
    cosimplicial_from_data,
    cosimplicial_to_data,
    matching_kernel_agrees,
    tot_n,
    tower_fiber,
)
from tottower.cover import cover_from_subcomplexes, hocolim_chain
from tottower.deloop import analyze_inclusion, subset_model, subspace_model
from tottower.errors import InputError
from tottower.intlinalg import IntMatrix
from tottower.posets import (
    FinPoset,
    PosetInclusion,
    _bits,
    order_complex,
    poset_from_relation,
    subset_poset,
    subspace_poset,
)
from tottower.simplicial import (
    SimplicialComplex,
    barycentric_subdivision,
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


# -- the order and inclusion checks before FinPoset and PosetInclusion
# trusted their callers, kept verbatim from their __post_init__

def reference_order_check(self):
    n = len(self.elements)
    for i in range(n):
        mi = self.down[i]
        for j in _bits(mi):
            if self.down[j] & ~mi:
                raise InputError("relation is not transitive")
            if i != j and (self.down[j] >> i) & 1:
                raise InputError("relation has a cycle")


def reference_inclusion_check(self):
    for x in self.sub.elements:
        self.ambient.index(x)
    for x in self.sub.elements:
        for y in self.sub.elements:
            if self.sub.leq(x, y) != self.ambient.leq(x, y):
                raise InputError(
                    f"inclusion is not full at ({x!r}, {y!r})"
                )


def test_reference_order_checks_reject_bad_relations():
    # 0 <= 1 <= 2 without 0 <= 2, and 0 <= 1 <= 0
    for down, message in (((0b001, 0b011, 0b110), "not transitive"),
                          ((0b011, 0b011), "cycle")):
        p = FinPoset(tuple(range(len(down))), down)
        with pytest.raises(InputError, match=message):
            reference_order_check(p)
    amb = subset_poset(range(2))
    broken = poset_from_relation(list(amb.elements))
    with pytest.raises(InputError, match="not full"):
        reference_inclusion_check(PosetInclusion(broken, amb))
    with pytest.raises(InputError, match="not a poset element"):
        reference_inclusion_check(PosetInclusion(subset_poset("ab"), amb))


def test_built_objects_obey_their_laws(monkeypatch):
    """The towers, spectral sequences, matching objects and quasi-iso
    checks of the corpus and a Cech object, the stages of a suspension
    analysis, and the chain complexes of simplicial constructions and of
    a homotopy colimit build only complexes that square to zero, maps
    with one nonzero component per degree that commute with the
    boundaries, canonical simplicial complexes, partial orders and full
    poset inclusions."""
    counts = {"complexes": 0, "maps": 0, "simplicial": 0, "posets": 0,
              "inclusions": 0}
    post_init = ChainComplexInt.__post_init__
    map_init = ChainMap.__init__
    simplicial_init = SimplicialComplex.__init__
    poset_post_init = FinPoset.__post_init__
    inclusion_init = PosetInclusion.__init__

    def check_complex(self):
        post_init(self)
        self.check_square_zero()
        counts["complexes"] += 1

    # ChainMap and SimplicialComplex define no __post_init__, so their
    # __init__ calls none: wrap __init__ instead
    def check_map(self, *args, **kwargs):
        map_init(self, *args, **kwargs)
        reference_component_check(self)
        self.check_commutes()
        counts["maps"] += 1

    def check_simplicial(self, *args, **kwargs):
        simplicial_init(self, *args, **kwargs)
        reference_canonical_check(self)
        counts["simplicial"] += 1

    def check_poset(self):
        poset_post_init(self)
        reference_order_check(self)
        counts["posets"] += 1

    def check_inclusion(self, *args, **kwargs):
        inclusion_init(self, *args, **kwargs)
        reference_inclusion_check(self)
        counts["inclusions"] += 1

    monkeypatch.setattr(ChainComplexInt, "__post_init__", check_complex)
    monkeypatch.setattr(FinPoset, "__post_init__", check_poset)
    monkeypatch.setattr(PosetInclusion, "__init__", check_inclusion)
    monkeypatch.setattr(ChainMap, "__init__", check_map)
    monkeypatch.setattr(SimplicialComplex, "__init__", check_simplicial)

    # no corpus object has a piece with a boundary and a nonzero coface
    # sum out of it, so only the stripe-sign objects here test the stripe
    # signs; they are built afresh, so no conormalization is cached yet
    objects = [cech_object(3, 3), cech_object(2, 4)] + [
        cosimplicial_from_data(cosimplicial_to_data(obj.x))
        for obj in corpus(seed=20250811, count=14)
    ] + [obj.x for obj in stripe_sign_objects()]
    for x in objects:
        for n in range(x.truncation + 1):
            tot_n(x, n).homology_all()
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
    # the analysis builds one order complex per slice shape; the order
    # complex of every slice is checked here as well
    for incl in (subset_model(5, 3), subspace_model(2, 3, 1)):
        analyze_inclusion(incl)
        for d in incl.ambient.elements:
            chain_complex(order_complex(down_slice(incl, d)), reduced=True)
    order_complex(subspace_poset(2, 3, 2))
    assert counts["complexes"] > 500
    assert counts["maps"] > 800
    assert counts["simplicial"] > 35
    assert counts["posets"] > 50
    assert counts["inclusions"] == 2
