"""Every complex, chain map, simplicial complex, poset, poset inclusion and
cosimplicial object the package builds obeys the laws its constructor
trusts.

The constructors of ChainComplexInt and ChainMap check only cheap shapes,
and those of SimplicialComplex, FinPoset, PosetInclusion and
CosimplicialChain check nothing; the laws are checked where JSON (or a
relation given by the caller) becomes the object.  Here every constructor
call made by the main computations is hooked, and each object is put
through the check its constructor used to run.
"""

import pytest

from constructions_reference import cech_object, cosimplicial_to_data
from corpus_reference import corpus, quasi_iso_pairs
from matching_reference import matching_kernel_agrees
from poset_reference import leq
from shadow_reference import quasi_iso_invariance
from simplicial_reference import (barycentric_subdivision, chain_complex,
                                  skeleton)
from suspension_reference import down_slice
from test_cosimplicial import stripe_sign_objects
from test_simplicial import reference_canonical_check
from tottower.chains import ChainComplexInt, ChainMap
from tottower.cosimplicial import (
    CosimplicialChain,
    cosimplicial_from_data,
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
from tottower.simplicial import SimplicialComplex, complex_from_facets
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
            if leq(self.sub, x, y) != leq(self.ambient, x, y):
                raise InputError(
                    f"inclusion is not full at ({x!r}, {y!r})"
                )


# -- the rank checks before the ChainComplexInt constructor trusted the level
# reader, the table checks before the CosimplicialChain constructor trusted
# cosimplicial_from_data, and the element and mask checks before the
# FinPoset constructor trusted its builders, kept verbatim from their
# __post_init__

def reference_poset_check(self):
    n = len(self.elements)
    if len(set(self.elements)) != n:
        raise InputError("duplicate poset elements")
    if len(self.down) != n:
        raise InputError("one relation mask per element required")
    full = (1 << n) - 1
    for i, m in enumerate(self.down):
        if not isinstance(m, int) or m < 0 or m & ~full:
            raise InputError("relation mask out of range")
        if not (m >> i) & 1:
            raise InputError("relation must be reflexive")


def reference_rank_check(self):
    if not self.ranks:
        raise InputError("a complex needs at least one degree")
    if min(self.ranks) < 0:
        raise InputError("ranks must be nonnegative integers")


def reference_cosimplicial_check(self):
    m = len(self.levels) - 1
    if m < 0:
        raise InputError("need at least one level")
    if len(self.cofaces) != m or len(self.codegeneracies) != m:
        raise InputError("map tables must cover levels 0..M-1")
    for k in range(m):
        if len(self.cofaces[k]) != k + 2:
            raise InputError(f"level {k} needs {k + 2} cofaces")
        if len(self.codegeneracies[k]) != k + 1:
            raise InputError(f"level {k + 1} needs {k + 1} codegeneracies")
        for i, d in enumerate(self.cofaces[k]):
            if d.src != self.levels[k] or d.dst != self.levels[k + 1]:
                raise InputError(
                    f"coface {i} at level {k} connects wrong levels"
                )
        for i, s in enumerate(self.codegeneracies[k]):
            if s.src != self.levels[k + 1] or s.dst != self.levels[k]:
                raise InputError(
                    f"codegeneracy {i} at level {k + 1} connects "
                    f"wrong levels"
                )


def test_reference_constructor_checks_reject_bad_objects():
    c = ChainComplexInt(0, (1,), ())
    ident = ChainMap(c, c, ((0, IntMatrix.identity(1)),))
    other = ChainMap(c, ChainComplexInt(1, (1,), ()), ())
    with pytest.raises(InputError, match="nonnegative"):
        reference_rank_check(ChainComplexInt(0, (-1,), ()))
    for args, message in (
            (((), (), ()), "at least one level"),
            (((c, c), (), ()), "cover levels"),
            (((c, c), ((ident,),), ((ident,),)), "needs 2 cofaces"),
            (((c, c), ((ident, ident),), ((),)), "needs 1 codegeneracies"),
            (((c, c), ((ident, other),), ((ident,),)), "coface 1 at level 0"),
            (((c, c), ((ident, ident),), ((other,),)), "codegeneracy 0")):
        with pytest.raises(InputError, match=message):
            reference_cosimplicial_check(CosimplicialChain(*args))
    for elements, down, message in (
            (("a", "a"), (0b01, 0b10), "duplicate"),
            ((0, 1), (0b01,), "one relation mask"),
            ((0, 1), (0b01, 0b110), "out of range"),
            ((0, 1), (0b01, 0b01), "reflexive")):
        with pytest.raises(InputError, match=message):
            reference_poset_check(FinPoset(elements, down))


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
    boundaries, canonical simplicial complexes, partial orders, full
    poset inclusions and cosimplicial objects whose maps run between the
    levels they name."""
    counts = {"complexes": 0, "maps": 0, "simplicial": 0, "posets": 0,
              "inclusions": 0, "cosimplicial": 0}
    post_init = ChainComplexInt.__post_init__
    map_init = ChainMap.__init__
    simplicial_init = SimplicialComplex.__init__
    poset_init = FinPoset.__init__
    inclusion_init = PosetInclusion.__init__
    cosimplicial_init = CosimplicialChain.__init__

    def check_complex(self):
        post_init(self)
        reference_rank_check(self)
        self.check_square_zero()
        counts["complexes"] += 1

    # ChainMap, SimplicialComplex, FinPoset, PosetInclusion and
    # CosimplicialChain define no __post_init__, so their __init__ calls
    # none: wrap __init__ instead
    def check_map(self, *args, **kwargs):
        map_init(self, *args, **kwargs)
        reference_component_check(self)
        self.check_commutes()
        counts["maps"] += 1

    def check_simplicial(self, *args, **kwargs):
        simplicial_init(self, *args, **kwargs)
        reference_canonical_check(self)
        counts["simplicial"] += 1

    def check_poset(self, *args, **kwargs):
        poset_init(self, *args, **kwargs)
        reference_poset_check(self)
        reference_order_check(self)
        counts["posets"] += 1

    def check_inclusion(self, *args, **kwargs):
        inclusion_init(self, *args, **kwargs)
        reference_inclusion_check(self)
        counts["inclusions"] += 1

    def check_cosimplicial(self, *args, **kwargs):
        cosimplicial_init(self, *args, **kwargs)
        reference_cosimplicial_check(self)
        counts["cosimplicial"] += 1

    monkeypatch.setattr(ChainComplexInt, "__post_init__", check_complex)
    monkeypatch.setattr(FinPoset, "__init__", check_poset)
    monkeypatch.setattr(CosimplicialChain, "__init__", check_cosimplicial)
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
    assert counts["cosimplicial"] > 30
