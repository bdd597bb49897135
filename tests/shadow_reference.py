"""Connective covers of cosimplicial chain objects: the chain shadow of
the source paper's theorem, as a test reference.

Over simplicial abelian groups (Dold-Kan), the k-fold loop space
Omega^k X is levelwise tau_{>=0}(X[-k]): the connective cover
tau_{>=k} X shifted down k degrees.  ``connective_cover`` builds
tau_{>=k} level by level.  Degrees above k are kept, degree k becomes
the cycles Z_k (in their Hermite basis), and lower degrees go.  Every
structure map restricts, because a chain map sends cycles to cycles;
its degree-k component is found in the cycle coordinates by
substitution.  A homotopy limit of connective objects is tau_{>=0} of
the unbounded one, so the homology of a connective tower fiber is the
window fiber's homology in degrees >= 0.
"""

from __future__ import annotations

from tottower.chains import ChainComplexInt, chain_map
from tottower.cosimplicial import CosimplicialChain
from tottower.intlinalg import IntMatrix, hermite_solve, kernel_lattice


def _cover(c: ChainComplexInt, k: int):
    """tau_{>=k} c, and the basis of its degree-k group in the
    coordinates of c."""
    if k <= c.lo:
        return c, IntMatrix.identity(c.rank(k))
    if k > c.hi:
        return ChainComplexInt(k, (0,), ()), IntMatrix.zeros(0, 0)
    cycles = kernel_lattice(c.boundary(k))
    t = k - c.lo
    into_cycles = ((hermite_solve(cycles, c.boundary(k + 1)),)
                   if k < c.hi else ())
    return ChainComplexInt(k, (cycles.ncols,) + c.ranks[t + 1:],
                           into_cycles + c.boundaries[t + 1:]), cycles


def connective_cover(x: CosimplicialChain, k: int) -> CosimplicialChain:
    """The levelwise connective cover tau_{>=k} x."""
    covers = [_cover(level, k) for level in x.levels]

    def restrict(f, s: int, t: int):
        (src, src_cycles), (dst, dst_cycles) = covers[s], covers[t]
        mats = {d: f.component(d) for d in f.src.degrees() if d > k}
        mats[k] = hermite_solve(dst_cycles, f.component(k) @ src_cycles)
        return chain_map(src, dst, mats)

    return CosimplicialChain(
        levels=tuple(c for c, _ in covers),
        cofaces=tuple(
            tuple(restrict(d, s, s + 1) for d in row)
            for s, row in enumerate(x.cofaces)
        ),
        codegeneracies=tuple(
            tuple(restrict(g, s + 1, s) for g in row)
            for s, row in enumerate(x.codegeneracies)
        ),
    )
