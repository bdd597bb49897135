"""Composites, sums and negatives of chain maps, and composites of group
homomorphisms, each built as a whole map.

The library compares composites cell by cell and sums cofaces in one
pass, so it builds none of these; the tests use them as the plain
references those paths are checked against.  Each is the library method
it replaced, kept verbatim but for its name.
"""

from tottower.abelian import GroupHom
from tottower.chains import ChainMap, chain_map
from tottower.errors import InputError


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
    mats = {k: f.component(k) + g.component(k) for k in degs}
    return chain_map(f.src, f.dst, mats)


def negate(f: ChainMap) -> ChainMap:
    """The chain map -f."""
    return ChainMap(f.src, f.dst, tuple((k, -m) for k, m in f.comps))


def compose_homs(f: GroupHom, g: GroupHom) -> GroupHom:
    """The homomorphism f∘g."""
    if g.dst_orders != f.src_orders:
        raise InputError("composition through mismatched groups")
    return GroupHom(g.src_orders, f.dst_orders, f.mat @ g.mat)
