"""Unit-pivot cancellation as the package had it before a lone unit
entry was paired at once and the indexes were built without throwaway
defaults.

``chains._unit_reduce`` is checked against this on the corpus, the
stripe-sign objects, the wedge and deloop order complexes and
hypothesis complexes: both must give the same pairs and the same
residual matrices.  Kept verbatim but for its name.
"""

from collections import deque

from tottower.intlinalg import IntMatrix


def unit_reduce(boundaries: tuple) -> tuple:
    """Cancel every +-1 pivot of the boundaries; return (pairs, residuals).

    Boundaries are taken from the bottom up.  In boundaries[t] each column
    b, in index order, with a unit entry is paired with the unit row a
    that has the fewest nonzeros (ties to the lower index).  Column
    operations clear row a, then row a and column b are deleted.  In the
    new basis row b of boundaries[t+1] and column a of boundaries[t-1]
    are zero, because the boundary squares to zero, so they are dropped
    unchanged: row b at once, since boundaries[t+1] is still to be
    reduced, and column a when the residuals are read off.  Columns that
    the clearing touched are visited again, and boundaries[t] only loses
    rows and columns afterwards, so no unit entry is left when the pass
    ends.  Bottom up is about three times faster than top down on order
    complexes.

    pairs[t] counts the pivots removed from boundaries[t] and
    residuals[t] is what is left of it, so that, invariant factors being
    unique, snf_invariants(boundaries[t]) equals
    (1,) * pairs[t] + snf_invariants(residuals[t]).
    """
    # cols[t][j] maps row -> value of column j; rows[t][i] holds the
    # columns where row i is nonzero
    cols = [{} for _ in boundaries]
    rows = [{} for _ in boundaries]
    for t, bnd in enumerate(boundaries):
        for i, j, v in bnd.entries:
            cols[t].setdefault(j, {})[i] = v
            rows[t].setdefault(i, set()).add(j)
    gone = [set() for _ in range(len(boundaries) + 1)]
    pairs = [0] * len(boundaries)
    for t in range(len(boundaries)):
        ct, rt = cols[t], rows[t]
        queue = deque(sorted(ct))
        queued = set(queue)
        while queue:
            b = queue.popleft()
            queued.discard(b)
            col_b = ct[b]
            units = [i for i, v in col_b.items() if v in (1, -1)]
            if not units:
                continue
            a = min(units, key=lambda i: (len(rt[i]), i))
            del ct[b]
            v = col_b.pop(a)
            for i in col_b:
                rt[i].discard(b)
            row_a = rt.pop(a)
            row_a.discard(b)
            for j in row_a:
                col_j = ct[j]
                c = col_j.pop(a) * v
                for i, w in col_b.items():
                    nv = col_j.get(i, 0) - c * w
                    if nv:
                        if i not in col_j:
                            rt[i].add(j)
                        col_j[i] = nv
                    elif i in col_j:
                        del col_j[i]
                        rt[i].discard(j)
                if j not in queued:
                    queue.append(j)
                    queued.add(j)
            if t + 1 < len(boundaries):
                for j in rows[t + 1].pop(b, ()):
                    del cols[t + 1][j][b]
            gone[t].add(a)
            gone[t + 1].add(b)
            pairs[t] += 1
    residuals = []
    for t, bnd in enumerate(boundaries):
        keep_r = [i for i in range(bnd.nrows) if i not in gone[t]]
        keep_c = [j for j in range(bnd.ncols) if j not in gone[t + 1]]
        new_r = {i: p for p, i in enumerate(keep_r)}
        data = {
            (new_r[i], q): v
            for q, j in enumerate(keep_c)
            for i, v in cols[t].get(j, {}).items()
        }
        residuals.append(IntMatrix.from_dict(len(keep_r), len(keep_c), data))
    return pairs, residuals
