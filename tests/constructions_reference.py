"""Two stock cosimplicial objects and the JSON writers of cosimplicial
objects, for the tests and the scripts.

* constant objects, where every structure map is the identity;
* cochain objects of the covering of a point by n points, whose level k
  holds functions on (k+1)-tuples and whose structure maps are the
  transposes of tuple deletion and duplication.

``cosimplicial_to_data`` writes an object in the schema that
``cosimplicial.cosimplicial_from_data`` reads, so the tests and scripts
hand objects to the commands as files; ``to_rows`` writes a matrix as
dense rows, and ``level_from_data`` reads one level through that reader.  The seeded corpus, built from the
surjection-block functor, is in ``corpus_reference.py``.  No module of the
package uses these.
"""

from __future__ import annotations

import itertools

from tottower.chains import ChainComplexInt, ChainMap, chain_map
from tottower.cosimplicial import CosimplicialChain, cosimplicial_from_data
from tottower.errors import InputError
from tottower.intlinalg import IntMatrix


def identity_chain_map(c: ChainComplexInt) -> ChainMap:
    mats = {
        k: IntMatrix.identity(c.rank(k))
        for k in c.degrees() if c.rank(k)
    }
    return chain_map(c, c, mats)


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


# -- writers -------------------------------------------------------------------

def to_rows(m: IntMatrix) -> list:
    out = [[0] * m.ncols for _ in range(m.nrows)]
    for i, j, v in m.entries:
        out[i][j] = v
    return out


def chain_complex_to_data(c: ChainComplexInt) -> dict:
    return {
        "lo": c.lo,
        "ranks": list(c.ranks),
        "boundaries": [to_rows(b) for b in c.boundaries],
    }


def _map_to_data(f: ChainMap) -> dict:
    return {str(k): to_rows(mat) for k, mat in f.comps}


def cosimplicial_to_data(x: CosimplicialChain) -> dict:
    return {
        "truncation": x.truncation,
        "levels": [chain_complex_to_data(level) for level in x.levels],
        "cofaces": [
            [_map_to_data(d) for d in row] for row in x.cofaces
        ],
        "codegeneracies": [
            [_map_to_data(s) for s in row] for row in x.codegeneracies
        ],
    }


def level_from_data(data) -> ChainComplexInt:
    """The level data reads as, through cosimplicial_from_data: the one
    level of a truncation-0 object.  A level that does not square to
    zero is named as level 0."""
    return cosimplicial_from_data({"truncation": 0, "levels": [data],
                                   "cofaces": [], "codegeneracies": []}
                                  ).levels[0]
