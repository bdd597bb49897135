"""Reported homology against the p-local Smith forms of the boundaries.

``torsion_reference`` shares no code with ``intlinalg``, so a fault in
the package's shared elimination, which every second route would see
alike, shows here as a disagreement.
"""

import random

from hypothesis import given, strategies as st

from corpus_reference import corpus, random_complex
from simplicial_reference import chain_complex
from test_cosimplicial import stripe_sign_objects
from test_simplicial import RP2
from torsion_reference import (
    EXPONENT,
    LARGE_PRIME,
    PRIMES,
    local_smith_valuations,
    valuation,
)
from tottower import intlinalg
from tottower.abelian import HomologyGroup, format_group
from tottower.chains import ChainComplexInt
from tottower.constructions import cech_object, constant_object
from tottower.cosimplicial import tot_n
from tottower.intlinalg import IntMatrix
from tottower.simplicial import barycentric_subdivision
from tottower.spectral import spectral_sequence

# p^8 stays below 2^63 for every prime below this bound, so the local
# Smith form at such a prime still does no big-integer work
PRIME_BOUND = 100
SMALL_PRIMES = [p for p in range(2, PRIME_BOUND)
                if all(p % q for q in range(2, p))]


def test_local_smith_hand_values():
    diagonal = IntMatrix.from_rows([[2, 0, 0], [0, 4, 0], [0, 0, 3]])
    assert local_smith_valuations(diagonal, 2, EXPONENT) == [0, 1, 2]
    assert local_smith_valuations(diagonal, 3, EXPONENT) == [0, 0, 1]
    # invariant factors 2 and 4 (the entries' gcd, and det -8 over it)
    square = IntMatrix.from_rows([[2, 4], [6, 8]])
    assert local_smith_valuations(square, 2, EXPONENT) == [1, 2]
    assert local_smith_valuations(square, LARGE_PRIME, 1) == [0, 0]
    # a p-part of p^e or more reads as zero
    assert local_smith_valuations(IntMatrix.from_rows([[256]]), 2, 8) == []
    assert local_smith_valuations(
        IntMatrix.from_rows([[1, 2], [2, 4]]), LARGE_PRIME, 1) == [0]


def checked_primes(groups) -> list:
    """PRIMES and every prime below PRIME_BOUND that divides a torsion
    order of the groups, in increasing order."""
    orders = [o for g in groups for o in g.torsion]
    return sorted(set(PRIMES).union(
        p for p in SMALL_PRIMES for o in orders if o % p == 0))


def disagreements(c) -> list:
    """The degrees at which c.homology_all() disagrees with the local
    Smith forms: free ranks by the large prime, the p-parts of the
    torsion by each prime of checked_primes.

    So a prime factor of PRIME_BOUND or more of a reported order is not
    checked, and neither is a torsion summand the report leaves out
    whose order has no prime in PRIMES or in another reported order."""
    groups = c.homology_all()
    primes = checked_primes(groups.values())
    ranks = {k: len(local_smith_valuations(c.boundary(k), LARGE_PRIME, 1))
             for k in range(c.lo, c.hi + 2)}
    bad = []
    for k in c.degrees():
        group = groups[k]
        if group.rank != c.rank(k) - ranks[k] - ranks[k + 1]:
            bad.append(k)
            continue
        for p in primes:
            local = [v for v in local_smith_valuations(
                c.boundary(k + 1), p, EXPONENT) if v]
            reported = sorted(valuation(o, p) for o in group.torsion
                              if o % p == 0)
            if local != reported:
                bad.append(k)
                break
    return bad


def oracle_complexes() -> list:
    """Every level and every Tot_n of the seeded corpus, the stripe-sign
    objects and two Cech objects."""
    objects = [obj.x for obj in corpus(seed=20250811, count=30)] + [
        obj.x for obj in stripe_sign_objects()] + [
        cech_object(3, 3), cech_object(4, 4)]
    return [c for x in objects for c in x.levels + tuple(
        tot_n(x, n) for n in range(x.truncation + 1))]


def test_reported_homology_matches_the_local_smith_forms():
    complexes = oracle_complexes()
    torsion = 0
    for n, c in enumerate(complexes):
        assert disagreements(c) == [], n
        torsion += sum(bool(g.torsion) for g in c.homology_all().values())
    # torsion of orders 2 and 5 is present, so the check is not vacuous
    assert len(complexes) >= 250 and torsion >= 30


def test_checked_primes_add_the_small_factors_of_the_reported_orders():
    groups = [HomologyGroup(1, (2, 22)), HomologyGroup(0, (143,)),
              HomologyGroup(0, (4 * 101,))]
    assert checked_primes(groups) == [2, 3, 5, 7, 11, 13]
    assert checked_primes([HomologyGroup(2)]) == list(PRIMES)


def test_simplicial_torsion_matches_the_local_smith_forms():
    """RP^2 and its barycentric subdivision, with reduced and unreduced
    chains, through the unit reduction and the rank-only Smith form that
    simplicial homology takes."""
    for space in (RP2, barycentric_subdivision(RP2)):
        for reduced in (False, True):
            c = chain_complex(space, reduced=reduced)
            assert disagreements(c) == [], (space, reduced)
            assert format_group(c.homology(1)) == "Z/2"


@given(st.integers(0, 2 ** 32), st.integers(-2, 2), st.integers(1, 5),
       st.integers(0, 6))
def test_random_complexes_match_the_local_smith_forms(seed, lo, length,
                                                      max_rank):
    c = random_complex(random.Random(seed), lo, length, max_rank)
    assert disagreements(c) == []


def test_the_oracle_catches_a_fault_in_the_shared_elimination(monkeypatch):
    """A Smith form that leaves its pivots' signs alone: a pivot -2 then
    fails the d > 1 test of the homology, and a Z/2 goes missing on every
    path through intlinalg alike.  The local Smith form still sees it."""
    monkeypatch.setattr(intlinalg._Smith, "_row_negate", lambda self, i: None)
    assert sum(bool(disagreements(c)) for c in oracle_complexes()) >= 20


# The first boundary of a seeded search (random.Random(20250811), shapes
# 2..3 by 2..3, cells 0 or 2..12 in absolute value) whose Smith form needs
# a second sweep of fix_divisibility: one sweep leaves its invariants out
# of divisibility order.
TWO_SWEEP_BOUNDARY = [[10, 0, 2], [6, -12, 0], [-4, 9, -2]]


def test_a_smith_form_that_needs_a_second_divisibility_sweep():
    """Every stage of the tower and every page of the spectral sequence
    of the constant object on that boundary is Z/6 + Z/42, on the
    rank-only route (stage homology) and the route with transforms
    (subquotients) alike."""
    c = ChainComplexInt(0, (3, 3),
                        (IntMatrix.from_rows(TWO_SWEEP_BOUNDARY),))
    x = constant_object(c, 2)
    expected = "Z/6 + Z/42"
    for stage in map(tot_n, [x] * 3, range(3)):
        assert disagreements(stage) == []
        assert format_group(stage.homology(0)) == expected
    result = spectral_sequence(x)
    for page in result.pages:
        assert {k: format_group(g) for k, g in page.entries} == \
            {(0, 0): expected}
    assert [(k, format_group(g)) for k, g in result.e_infinity] == \
        [((0, 0), expected)]
