"""The acceptance gate.

One test per contract criterion, each with a hard runtime budget and a
single visible PASS/FAIL line.  Every check here is exact integer
arithmetic; nothing is sampled down below the contracted sizes.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

import test_cosimplicial
import test_cover
import test_mutation
import test_shadow
from tottower.cosimplicial import tot_n, tower_fiber
from tottower.cover import verify_cover_theorem, cover_from_subcomplexes
from tottower.deloop import (
    analyze_inclusion,
    delta_model,
    subset_model,
    subspace_model,
    tot_truncation_bound,
)
from tottower.intlinalg import IntMatrix, snf_invariants
from tottower.posets import (
    order_complex,
    poset_dimension,
    subset_poset,
    subspace_poset,
)
from tottower.simplicial import (
    complex_from_facets,
    euler_characteristic,
    reduced_homology,
    wedge_signature,
)
from tottower.spectral import e2_from_level_homology, spectral_sequence

from corpus_reference import corpus, quasi_iso_pairs
from shadow_reference import quasi_iso_invariance, shift_check
from simplicial_reference import barycentric_subdivision
from suspension_reference import (
    cover_suspension_bound,
    subset_deloop_bound,
    unreduced_suspension,
)

CORPUS_SEED = 20250811
CORPUS_COUNT = 50


@pytest.fixture
def gate(capsys):
    @contextmanager
    def _gate(name, budget):
        start = time.perf_counter()
        failed = False
        try:
            yield
        except BaseException:
            failed = True
            raise
        finally:
            elapsed = time.perf_counter() - start
            status = "FAIL" if failed or elapsed >= budget else "PASS"
            with capsys.disabled():
                print(f"\nACCEPTANCE {name}: {status} "
                      f"({elapsed:.1f}s / budget {budget}s)")
        assert elapsed < budget, f"{name} exceeded its {budget}s budget"
    return _gate


def _nonzero(groups: dict) -> dict:
    return {d: g for d, g in groups.items() if not g.is_trivial}


# -- 1: subset wedge law --------------------------------------------------------

def test_acceptance_subset_wedge_law(gate):
    with gate("subset-wedge-law", 60):
        for n in range(2, 7):
            for r in range(1, n):
                k = order_complex(subset_poset(range(n), max_card=r))
                sig = wedge_signature(k)
                assert sig is not None and not sig.is_contractible
                assert sig.sphere_dim == r - 1
                assert sig.count == math.comb(n - 1, r)
                # independent count: reduced Euler characteristic
                chi = euler_characteristic(k)
                assert sig.count == (-1) ** (r - 1) * (chi - 1)


# -- 2: dimension law -----------------------------------------------------------

def test_acceptance_dimension_law(gate):
    with gate("dimension-law", 5):
        for n in range(2, 8):
            for r in range(1, n):
                p = subset_poset(range(n), min_card=r + 1)
                assert poset_dimension(p) == n - r - 1


# -- 3: delooping bounds --------------------------------------------------------

def _check_bound(report, formula):
    # a trivial fiber certifies every count
    assert report.trivial_fiber or report.d_max == formula


def test_acceptance_deloop_bounds(gate):
    with gate("deloop-bounds", 120):
        for size in range(2, 6):
            for r in range(1, size + 1):
                _check_bound(analyze_inclusion(subset_model(size, r)),
                             subset_deloop_bound(size, r))
        for n in range(1, 4):
            for m in range(n, min(2 * n + 1, 4) + 1):
                report = analyze_inclusion(delta_model(n, m))
                _check_bound(report, 2 * n - m + 2)
                if m > n:
                    assert report.d_max == tot_truncation_bound(n, m)
        for n in range(2, 5):
            for r in range(2, n):
                _check_bound(analyze_inclusion(subspace_model(2, n, r)),
                             cover_suspension_bound(n, r))


# -- 4: subspace wedge law ------------------------------------------------------

def test_acceptance_subspace_wedge_law(gate):
    with gate("subspace-wedge-law", 120):
        for q in (2, 3):
            for n in range(2, 5):
                for r in range(2, n + 1):
                    k = order_complex(subspace_poset(q, n, r))
                    sig = wedge_signature(k)
                    assert sig is not None
                    if r == n:
                        # the whole space is a cone point
                        assert sig.is_contractible
                        continue
                    assert sig.sphere_dim == r - 1
                    chi = euler_characteristic(k)
                    assert sig.count == (-1) ** (r - 1) * (chi - 1)
                    if r == n - 1:
                        assert sig.count == q ** (n * (n - 1) // 2)


# -- 5: fiber identification ----------------------------------------------------

def test_acceptance_fiber_identification(gate):
    with gate("fiber-identification", 60):
        objects = corpus(seed=CORPUS_SEED, count=CORPUS_COUNT)
        assert len(objects) >= 50
        for obj in objects:
            x = obj.x
            assert x.truncation <= 5
            for level in x.levels:
                assert all(r <= 4 for r in level.ranks)
                assert level.lo >= -3
                assert level.lo + len(level.ranks) - 1 <= 3
            conorm = x.conormalization
            for m in range(1, x.truncation + 1):
                fib = _nonzero(
                    tower_fiber(x, m - 1, m).homology_all())
                piece = _nonzero(conorm.pieces[m].homology_all())
                assert fib == {d - m: g for d, g in piece.items()}


# -- 6: page-two identification and convergence ---------------------------------

def test_acceptance_spectral_identifications(gate):
    with gate("spectral-identification", 120):
        for obj in corpus(seed=CORPUS_SEED, count=CORPUS_COUNT):
            result = spectral_sequence(obj.x)
            assert dict(result.page(2).entries) == \
                e2_from_level_homology(obj.x)
            assert dict(result.e_infinity) == dict(result.graded_limit)


# -- 7: stable-shadow functoriality ----------------------------------------------

def test_acceptance_stable_shadow(gate):
    with gate("stable-shadow", 60):
        objects = corpus(seed=CORPUS_SEED, count=CORPUS_COUNT)
        for obj in objects[:8]:
            m = obj.x.truncation
            for j in (-3, -2, -1, 1, 2, 3):
                assert shift_check(obj.x, 0, m, j)
                if m >= 1:
                    assert shift_check(obj.x, m - 1, m, j)
        maps = quasi_iso_pairs(seed=20250812, count=10)
        assert len(maps) >= 10
        for f in maps:
            assert quasi_iso_invariance(f)
        checked = 0
        for obj in objects:
            if not obj.name.startswith("blocks") or obj.x.truncation < 2:
                continue
            m = obj.x.truncation
            for n, mm in ((0, m - 1), (1, m)):
                for fatten in (False, True):
                    other = test_cosimplicial._replace_outside_window(
                        obj, n, mm, fatten)
                    assert tower_fiber(obj.x, n, mm) == \
                        tower_fiber(other, n, mm)
                    checked += 1
            if checked >= 24:
                break
        assert checked >= 10


# -- 8: cover theorem shadow ----------------------------------------------------

def _rp2_facets():
    # minimal 6-vertex triangulation of the real projective plane
    return [
        [1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
        [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6],
    ]


def _two_cone_cover(base_facets):
    base = complex_from_facets(base_facets)
    susp = unreduced_suspension(base, north="N", south="S")
    bp = base.facets[0][0]
    space = complex_from_facets([list(f) for f in susp.facets],
                                basepoint=bp)
    north = [list(f) for f in susp.facets if "N" in f]
    south = [list(f) for f in susp.facets if "S" in f]
    return cover_from_subcomplexes(space, [north, south], bp)


def _cover_suite():
    """(tag, cover, r) triples; at least twenty, all basepointed."""
    suite = [
        ("suspension-2pt", test_cover.circle_cover(), 1),
        ("triple-cone", test_cover.octahedron_cover(), 2),
        ("star", test_cover.star_cover(), 1),
        ("star-r2", test_cover.star_cover(), 2),
    ]
    for m in (3, 4, 5, 6, 7, 8):
        suite.append((f"suspension-{m}pt",
                      _two_cone_cover([[i] for i in range(m)]), 1))
    for k in (3, 4, 5, 6, 7, 8):
        cycle = [[i, (i + 1) % k] for i in range(k)]
        suite.append((f"suspension-{k}cycle", _two_cone_cover(cycle), 1))
    suite.append(("suspension-rp2",
                  _two_cone_cover(_rp2_facets()), 1))
    suite.append(("suspension-arcs",
                  _two_cone_cover([[0, 1], [2, 3]]), 1))
    # covers that fail the acyclicity hypothesis; reconstruction must
    # still hold on them
    wedge = complex_from_facets([[0, 1], [1, 2], [0, 2],
                                 [0, 3], [3, 4], [0, 4]], basepoint=0)
    suite.append(("wedge-by-circles", cover_from_subcomplexes(
        wedge, [[[0, 1], [1, 2], [0, 2]], [[0, 3], [3, 4], [0, 4]]], 0), 1))
    circle = complex_from_facets([[0, 1], [1, 2], [0, 2]], basepoint=0)
    suite.append(("circle-by-arcs", cover_from_subcomplexes(
        circle, [[[0, 1], [1, 2]], [[0, 2]]], 0), 2))
    sphere = complex_from_facets(
        [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], basepoint=0)
    suite.append(("sphere-one-piece", cover_from_subcomplexes(
        sphere, [[[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]], 0), 1))
    return suite


def test_acceptance_cover_theorem(gate):
    with gate("cover-theorem", 120):
        suite = _cover_suite()
        assert len(suite) >= 20
        tags = {tag for tag, _, _ in suite}
        assert "suspension-2pt" in tags and "triple-cone" in tags
        saw_failed_hypothesis = False
        for tag, cov, r in suite:
            report = verify_cover_theorem(cov, r)
            assert report.hocolim_matches, tag
            if report.acyclic_ok:
                assert report.connectivity_ok, tag
            else:
                saw_failed_hypothesis = True
        assert saw_failed_hypothesis


# -- 9: structural suite --------------------------------------------------------

def _permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return IntMatrix.from_dict(n, n, {(i, perm[i]): 1 for i in range(n)})


def test_acceptance_structural_suite(gate):
    with gate("structural-suite", 60):
        # squared boundaries on every corpus level, stage, and fiber
        for obj in corpus(seed=CORPUS_SEED, count=20):
            complexes = list(obj.x.levels)
            complexes += [tot_n(obj.x, n)
                          for n in range(obj.x.truncation + 1)]
            complexes.append(tower_fiber(obj.x, 0, obj.x.truncation))
            for c in complexes:
                for k in c.degrees():
                    assert (c.boundary(k) @ c.boundary(k + 1)).is_zero

        # suspension shifts reduced homology up one degree, torsion too
        shapes = [
            [[0, 1], [1, 2], [0, 2]],
            [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
            _rp2_facets(),
        ]
        for facets in shapes:
            k = complex_from_facets(facets)
            before = _nonzero(reduced_homology(k))
            after = _nonzero(reduced_homology(unreduced_suspension(k)))
            assert after == {d + 1: g for d, g in before.items()}
            # barycentric subdivision leaves homology alone
            sub = _nonzero(reduced_homology(barycentric_subdivision(k)))
            assert sub == before

        # Smith invariants blind to row/column permutation
        rng = random.Random(20250813)
        for _ in range(25):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            mat = IntMatrix.from_rows(
                [[rng.randint(-4, 4) for _ in range(nc)]
                 for _ in range(nr)])
            shuffled = _permutation(rng, nr) @ mat @ _permutation(rng, nc)
            assert snf_invariants(shuffled) == snf_invariants(mat)

        # the validators catch every axiom-breaking single-entry mutant
        broken = 0
        for x in test_mutation._bases():
            data = test_mutation.cosimplicial_to_data(x)
            for _, mutant in test_mutation.mutants_of(data, limit=160):
                valid = test_mutation.axioms_hold(mutant)
                assert test_mutation.library_rejects(mutant) != valid
                broken += 0 if valid else 1
        assert broken >= 100


# -- 10: the paper's theorem on the chain shadow --------------------------------

def test_acceptance_paper_theorem(gate):
    # 0.3-0.5 s on a shared 2-vCPU VM; the budget leaves room for a loaded
    # machine, not for a slower algorithm
    with gate("paper-theorem", 10):
        assert test_shadow.check_paper_theorem(
            test_shadow.shadow_objects()) >= 204
