"""Two stock cosimplicial objects, for examples and scripts.

* constant objects, where every structure map is the identity;
* cochain objects of the covering of a point by n points, whose level k
  holds functions on (k+1)-tuples and whose structure maps are the
  transposes of tuple deletion and duplication.

The seeded corpus that the tests run on, built from the surjection-block
functor, is in ``tests/corpus_reference.py``.
"""

from __future__ import annotations

import itertools

from .chains import ChainComplexInt, chain_map, identity_chain_map
from .cosimplicial import CosimplicialChain
from .errors import InputError
from .intlinalg import IntMatrix

__all__ = ["constant_object", "cech_object"]


def constant_object(c: ChainComplexInt, truncation: int) -> CosimplicialChain:
    """Every level is c, every structure map the identity."""
    if truncation < 0:
        raise InputError("truncation must be nonnegative")
    ident = identity_chain_map(c)
    return CosimplicialChain(
        levels=(c,) * (truncation + 1),
        cofaces=tuple(
            (ident,) * (k + 2) for k in range(truncation)
        ),
        codegeneracies=tuple(
            (ident,) * (k + 1) for k in range(truncation)
        ),
    )


# -- point covered by n points ------------------------------------------------

def _tuple_index(n: int, u: tuple) -> int:
    idx = 0
    for v in u:
        idx = idx * n + v
    return idx


def cech_object(n_points: int, truncation: int) -> CosimplicialChain:
    """Cochains on the tuple object of an n-point set.

    Level k is the free module on (k+1)-tuples, concentrated in chain
    degree 0.  d^i deletes tuple coordinate i upstairs, so downstairs it
    is the transpose 0/1 matrix; s^i likewise duplicates coordinate i.
    """
    if n_points < 1:
        raise InputError("need at least one point")
    if truncation < 0:
        raise InputError("truncation must be nonnegative")
    n = n_points
    levels = tuple(
        ChainComplexInt(0, (n ** (k + 1),), ())
        for k in range(truncation + 1)
    )
    cofaces = []
    codegeneracies = []
    for k in range(truncation):
        d_row = []
        for i in range(k + 2):
            data = {}
            for u in itertools.product(range(n), repeat=k + 2):
                w = u[:i] + u[i + 1:]
                data[(_tuple_index(n, u), _tuple_index(n, w))] = 1
            d_row.append(chain_map(
                levels[k], levels[k + 1],
                {0: IntMatrix.from_dict(n ** (k + 2), n ** (k + 1), data)},
            ))
        s_row = []
        for i in range(k + 1):
            data = {}
            for w in itertools.product(range(n), repeat=k + 1):
                u = w[:i + 1] + (w[i],) + w[i + 1:]
                data[(_tuple_index(n, w), _tuple_index(n, u))] = 1
            s_row.append(chain_map(
                levels[k + 1], levels[k],
                {0: IntMatrix.from_dict(n ** (k + 1), n ** (k + 2), data)},
            ))
        cofaces.append(tuple(d_row))
        codegeneracies.append(tuple(s_row))
    return CosimplicialChain(levels, tuple(cofaces), tuple(codegeneracies))
