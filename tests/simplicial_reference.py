"""Simplicial chain complexes as boundary matrices, the route homology
took before ``simplicial.reduced_homology`` fed the coded faces to the
unit reduction directly, and the constructions and writer of complexes
that only the tests use.

``chain_complex(k, reduced)`` builds one ``IntMatrix`` per boundary from
the sorted coded simplices.  The tests take homology through it and
compare the face route with ``chain_complex(k, True).homology_all()``:
same groups, same unit pairs and the same residual invariants.  Kept
verbatim.

``skeleton`` and ``barycentric_subdivision`` build new complexes through
``complex_from_facets``; the subdivision's vertices are simplices of the
original complex, sorted by ``label_key``.  ``complex_to_data`` writes a
complex in the schema ``simplicial.complex_from_data`` reads.  No module
of the package uses these.
"""

import itertools

from tottower.chains import ChainComplexInt
from tottower.errors import InputError
from tottower.intlinalg import IntMatrix
from tottower.simplicial import (SimplicialComplex, complex_from_facets,
                                 label_key)


def chain_complex(k: SimplicialComplex, reduced: bool = False) \
        -> ChainComplexInt:
    top = k.dimension
    if top < 0:
        if reduced:
            return ChainComplexInt(-1, (1, 0), (IntMatrix.zeros(1, 0),))
        return ChainComplexInt(0, (0,), ())
    by_dim = k._coded[1]
    ranks = tuple(len(by_dim[d]) for d in range(top + 1))
    bnds = []
    for d in range(1, top + 1):
        row_of = {s: i for i, s in enumerate(by_dim[d - 1])}
        # combinations(s, d) drops s[d], s[d-1], ..., s[0] in turn, and
        # the face without s[i] has sign (-1)^i
        signs = [(-1) ** (d - t) for t in range(d + 1)]
        # columns are visited in order, so each row fills up sorted
        rows = [[] for _ in range(ranks[d - 1])]
        for j, s in enumerate(by_dim[d]):
            for face, sign in zip(itertools.combinations(s, d), signs):
                i = row_of[face]
                rows[i].append((i, j, sign))
        bnds.append(IntMatrix(ranks[d - 1], ranks[d],
                              tuple(itertools.chain.from_iterable(rows))))
    if not reduced:
        return ChainComplexInt(0, ranks, tuple(bnds))
    aug = IntMatrix(1, ranks[0], tuple((0, j, 1) for j in range(ranks[0])))
    return ChainComplexInt(-1, (1,) + ranks, (aug,) + tuple(bnds))


def skeleton(k: SimplicialComplex, r: int) -> SimplicialComplex:
    if r < 0:
        raise InputError("skeleton dimension must be nonnegative")
    if r >= k.dimension:
        return k
    facets = []
    for f in k.facets:
        if len(f) <= r + 1:
            facets.append(f)
        else:
            facets.extend(itertools.combinations(f, r + 1))
    return complex_from_facets(facets, k.basepoint)


def barycentric_subdivision(k: SimplicialComplex) -> SimplicialComplex:
    """Vertices are simplices of k; facets are maximal inclusion chains."""
    facets = []
    for f in k.facets:
        for perm in itertools.permutations(f):
            chain = []
            for i in range(len(perm)):
                chain.append(tuple(sorted(perm[:i + 1], key=label_key)))
            facets.append(chain)
    base = (k.basepoint,) if k.basepoint is not None else None
    return complex_from_facets(facets, base)


def _label_to_data(v):
    if isinstance(v, tuple):
        return [_label_to_data(x) for x in v]
    return v


def complex_to_data(k: SimplicialComplex):
    out = {"facets": [[_label_to_data(v) for v in f] for f in k.facets]}
    if k.basepoint is not None:
        out["basepoint"] = _label_to_data(k.basepoint)
    return out
