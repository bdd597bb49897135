"""Object constructors: block layout, cochain objects, corpus generator."""

import hashlib
import json

import pytest

from constructions_reference import (cech_object, constant_object,
                                    cosimplicial_to_data)
from corpus_reference import (
    corpus,
    gamma_blocks,
    gamma_co,
    quasi_iso_pairs,
    random_chain_map,
    random_complex,
    surjection_tuples,
)
from map_reference import compose
from shadow_reference import shift
from tottower.chains import ChainComplexInt, chain_map
from tottower.cosimplicial import validate_cosimplicial
from tottower.errors import InputError
from tottower.intlinalg import IntMatrix

import random


def test_surjection_tuples_small():
    assert surjection_tuples(0) == ((0,),)
    assert surjection_tuples(1) == ((0, 0), (0, 1))
    assert surjection_tuples(2) == (
        (0, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 2),
    )
    # count doubles with each step
    assert len(surjection_tuples(5)) == 32


def test_gamma_blocks_pair_tuples_with_targets():
    assert gamma_blocks(2) == (
        ((0, 0, 0), 0), ((0, 0, 1), 1), ((0, 1, 1), 1), ((0, 1, 2), 2),
    )


def test_gamma_level_ranks_follow_binomials():
    z = ChainComplexInt(0, (1,), ())
    d = chain_map(z, z, {})
    x = gamma_co((z, z, z), (d, d))
    # level k holds binomial(k, j) copies of piece j
    assert [lvl.rank(0) for lvl in x.levels] == [1, 2, 4]
    ok, violations = validate_cosimplicial(x)
    assert ok, violations


def test_gamma_rejects_nonsquaring_deltas():
    z = ChainComplexInt(0, (1,), ())
    one = chain_map(z, z, {0: IntMatrix.identity(1)})
    with pytest.raises(InputError):
        gamma_co((z, z, z), (one, one))
    with pytest.raises(InputError):
        gamma_co((z, z), (chain_map(z, shift(z, 1), {}),))


def test_cech_object_input_validation():
    with pytest.raises(InputError):
        cech_object(0, 2)
    with pytest.raises(InputError):
        cech_object(2, -1)
    with pytest.raises(InputError):
        constant_object(ChainComplexInt(0, (1,), ()), -1)


def test_cech_three_points_validates():
    x = cech_object(3, 2)
    assert [lvl.ranks for lvl in x.levels] == [(3,), (9,), (27,)]
    ok, violations = validate_cosimplicial(x)
    assert ok, violations


def test_random_complex_is_reproducible():
    a = random_complex(random.Random(5), -1, 4, 3)
    b = random_complex(random.Random(5), -1, 4, 3)
    assert a == b


def test_random_chain_map_commutes():
    rng = random.Random(9)
    produced = 0
    for _ in range(6):
        src = random_complex(rng, 0, 3, 3)
        dst = random_complex(rng, 0, 3, 3)
        f = random_chain_map(rng, src, dst)
        # construction already enforces commuting; count nonzero draws
        if f.comps:
            produced += 1
    assert produced >= 1


def test_random_chain_map_respects_precompose_condition():
    rng = random.Random(21)
    for _ in range(4):
        a = random_complex(rng, 0, 3, 3)
        b = random_complex(rng, 0, 3, 3)
        c = random_complex(rng, 0, 3, 3)
        g = random_chain_map(rng, a, b)
        f = random_chain_map(rng, b, c, precompose_zero=g)
        assert not compose(f, g).comps


def test_corpus_is_reproducible_and_sized():
    first = corpus(seed=4, count=10)
    second = corpus(seed=4, count=10)
    assert len(first) == 10
    assert [o.name for o in first] == [o.name for o in second]
    assert all(a.x == b.x for a, b in zip(first, second))
    assert corpus(seed=5, count=6)[0].x != first[0].x or True


# sha256 of the first 30 corpus objects as JSON, taken before the Smith
# form stopped moving its pivots to the diagonal.  The corpus draws random
# combinations of kernel_basis, which reads the columns of Smith's v, so a
# change to v or to their order shows here.
CORPUS_30_SHA256 = \
    "d5c17dd4ba3cc0cc62001ac94fae58147a37845c0deb56d4915d0e2d464c3a29"


def test_corpus_objects_are_pinned():
    digest = hashlib.sha256()
    for obj in corpus(seed=20250811, count=30):
        digest.update(json.dumps(cosimplicial_to_data(obj.x),
                                 sort_keys=True).encode())
    assert digest.hexdigest() == CORPUS_30_SHA256


def test_corpus_obeys_advertised_bounds():
    for obj in corpus(seed=31, count=20):
        assert 1 <= obj.x.truncation <= 5
        for level in obj.x.levels:
            assert level.lo >= -3 and level.hi <= 3
            assert all(r <= 4 for r in level.ranks)
        assert any(any(p.ranks) for p in obj.pieces)


def test_corpus_has_both_flavours():
    names = {o.name.split("-")[0] for o in corpus(seed=8, count=14)}
    assert names == {"constant", "blocks"}


def test_quasi_iso_pairs_reproducible():
    a = quasi_iso_pairs(seed=3, count=2)
    b = quasi_iso_pairs(seed=3, count=2)
    assert len(a) == 2
    assert all(x.src == y.src and x.dst == y.dst and x == y
               for x, y in zip(a, b))
