"""Composites, sums and negatives of chain maps, composites of group
homomorphisms and the stage projections of the tower, each built as a
whole map.

The library compares composites cell by cell, sums cofaces in one pass
and slices the filtration out of the total differential, so it builds
none of these; the tests use them as the plain references those paths
are checked against.  Each is the library method it replaced, but for
its name and, in ``add`` and the stripe maps, the matrix operations.
"""

from tottower.abelian import GroupHom, _zero_modulo
from tottower.chains import ChainMap, chain_map
from tottower.cosimplicial import CosimplicialChain, StripeWindow, tot_n
from tottower.errors import InputError
from tottower.intlinalg import IntMatrix


def compose(f: ChainMap, g: ChainMap) -> ChainMap:
    """The chain map f∘g."""
    if g.dst != f.src:
        raise InputError("composition through different complexes")
    degs = {k for k, _ in f.comps} & {k for k, _ in g.comps}
    mats = {k: f.component(k) @ g.component(k) for k in degs}
    return chain_map(g.src, f.dst, mats)


def add(f: ChainMap, g: ChainMap) -> ChainMap:
    """The chain map f + g."""
    if (g.src, g.dst) != (f.src, f.dst):
        raise InputError("sum of maps between different complexes")
    degs = {k for k, _ in f.comps} | {k for k, _ in g.comps}
    # [f_k g_k] @ [1; 1] is f_k + g_k
    mats = {k: IntMatrix.hstack([f.component(k), g.component(k)])
            @ IntMatrix.vstack([IntMatrix.identity(f.src.rank(k))] * 2)
            for k in degs}
    return chain_map(f.src, f.dst, mats)


def negate(f: ChainMap) -> ChainMap:
    """The chain map -f."""
    return ChainMap(f.src, f.dst, tuple((k, -m) for k, m in f.comps))


def compose_homs(f: GroupHom, g: GroupHom) -> GroupHom:
    """The homomorphism f∘g."""
    if g.dst_orders != f.src_orders:
        raise InputError("composition through mismatched groups")
    return GroupHom(g.src_orders, f.dst_orders, f.mat @ g.mat)


def is_zero_hom(f: GroupHom) -> bool:
    return _zero_modulo(f.dst_orders,
                        ((i, v) for i, _, v in f.mat.entries))


def stripe_head(win: StripeWindow, s: int, k: int) -> IntMatrix:
    """Coordinate projection onto the stripes < s at tot degree k."""
    return IntMatrix.identity(win.rank(k)).take_rows(range(win.start(s, k)))


def stripe_tail(win: StripeWindow, s: int, k: int) -> IntMatrix:
    """Coordinate inclusion of the stripes >= s at tot degree k."""
    n = win.rank(k)
    return IntMatrix.identity(n).take_columns(range(win.start(s, k), n))


def stage_projection(x: CosimplicialChain, n: int) -> ChainMap:
    """Tot_n -> Tot_{n-1}, forgetting the s = n stripe, for n >= 1."""
    win = StripeWindow(x.conormalization, -1, n)
    return chain_map(tot_n(x, n), tot_n(x, n - 1),
                     {k: stripe_head(win, n, k) for k in win.blocks})
