"""Reported homology against the p-local Smith forms of the boundaries.

``torsion_reference`` shares no code with ``intlinalg``, so a fault in
the package's shared elimination, which every second route would see
alike, shows here as a disagreement.
"""

from test_cosimplicial import stripe_sign_objects
from torsion_reference import (
    EXPONENT,
    LARGE_PRIME,
    PRIMES,
    local_smith_valuations,
    valuation,
)
from tottower import intlinalg
from tottower.constructions import cech_object, corpus
from tottower.cosimplicial import tower
from tottower.intlinalg import IntMatrix


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


def disagreements(c) -> list:
    """The degrees at which c.homology_all() disagrees with the local
    Smith forms: free ranks by the large prime, the p-parts of the
    torsion by each small prime."""
    groups = c.homology_all()
    ranks = {k: len(local_smith_valuations(c.boundary(k), LARGE_PRIME, 1))
             for k in range(c.lo, c.hi + 2)}
    bad = []
    for k in c.degrees():
        group = groups[k]
        if group.rank != c.rank(k) - ranks[k] - ranks[k + 1]:
            bad.append(k)
            continue
        for p in PRIMES:
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
    return [c for x in objects for c in x.levels + tower(x).stages]


def test_reported_homology_matches_the_local_smith_forms():
    complexes = oracle_complexes()
    torsion = 0
    for n, c in enumerate(complexes):
        assert disagreements(c) == [], n
        torsion += sum(bool(g.torsion) for g in c.homology_all().values())
    # torsion of orders 2 and 5 is present, so the check is not vacuous
    assert len(complexes) >= 250 and torsion >= 30


def test_the_oracle_catches_a_fault_in_the_shared_elimination(monkeypatch):
    """A Smith form that leaves its pivots' signs alone: a pivot -2 then
    fails the d > 1 test of the homology, and a Z/2 goes missing on every
    path through intlinalg alike.  The local Smith form still sees it."""
    monkeypatch.setattr(intlinalg._Smith, "_row_negate", lambda self, i: None)
    assert sum(bool(disagreements(c)) for c in oracle_complexes()) >= 20
