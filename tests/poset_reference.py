"""Reference posets the tests compare the package's closure against.

``posets`` builds every relation mask with one topological closure over
the pairs or covers it is given.  The builders here take the slow, plain
routes instead: one comparison per ordered pair of elements, with no
closure at all, and a Warshall closure of a pair list over a boolean
matrix.  ``maximal_chains`` lists the facets of an order complex along
the cover relation, the route ``posets.order_complex`` took before it
listed every chain in one walk over the relation masks.  No module of
the package uses these.
"""

from __future__ import annotations

from tottower.posets import FinPoset
from tottower.simplicial import label_key


def pairwise_poset(elements, leq) -> FinPoset:
    """The poset whose mask for b holds every a with leq(a, b), found by
    comparing each ordered pair; leq must already be a partial order."""
    elems = sorted(elements, key=label_key)
    return FinPoset(tuple(elems), tuple(
        sum(1 << j for j, a in enumerate(elems) if leq(a, b))
        for b in elems
    ))


def _rowspace_leq(v, w, q: int) -> bool:
    # every row of v must reduce to zero against the echelon basis w
    piv = [next(i for i, x in enumerate(row) if x) for row in w]
    for row in v:
        r = list(row)
        for wr, p in zip(w, piv):
            c = r[p]
            if c:
                r = [(a - c * b) % q for a, b in zip(r, wr)]
        if any(r):
            return False
    return True


def subspace_inclusion(elements, q: int) -> set:
    """Every pair (v, w) of echelon bases over F_q with v inside w."""
    return {(v, w) for v in elements for w in elements
            if _rowspace_leq(v, w, q)}


def warshall_poset(elements, pairs) -> FinPoset | None:
    """The reflexive transitive closure of pairs (a, b), each saying
    a <= b, by Warshall's algorithm; None when it puts two distinct
    elements below each other."""
    elems = sorted(elements, key=label_key)
    pos = {e: i for i, e in enumerate(elems)}
    n = len(elems)
    rel = [[i == j for j in range(n)] for i in range(n)]
    for a, b in pairs:
        rel[pos[a]][pos[b]] = True
    for k in range(n):
        for i in range(n):
            if rel[i][k]:
                for j in range(n):
                    if rel[k][j]:
                        rel[i][j] = True
    if any(rel[i][j] and rel[j][i] for i in range(n) for j in range(i)):
        return None
    return FinPoset(tuple(elems), tuple(
        sum(1 << i for i in range(n) if rel[i][j]) for j in range(n)
    ))


def maximal_chains(p: FinPoset) -> tuple:
    """All maximal chains, each as an ascending tuple of elements."""
    n = len(p.elements)
    succ = p._succ
    minimal = [
        i for i in range(n) if p.down[i] == (1 << i)
    ]
    chains = []
    stack = [(i, [i]) for i in reversed(minimal)]
    while stack:
        i, path = stack.pop()
        if not succ[i]:
            chains.append(tuple(p.elements[t] for t in path))
            continue
        for nxt in reversed(succ[i]):
            stack.append((nxt, path + [nxt]))
    return tuple(chains)
