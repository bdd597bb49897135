"""Composites, sums and negatives of chain maps, composites of group
homomorphisms, picks of rows and columns, stripe windows and the stage
projections of the tower, each built as a whole.

The library compares composites cell by cell, sums cofaces in one pass,
cuts only contiguous blocks out of a matrix and slices every window and
filtration block out of one total differential, so it builds none of
these; the tests use them as the plain references those paths are
checked against.  Each is the library code it replaced, but for its
name and, in ``add`` and the stripe maps, the matrix operations.
"""

from tottower.abelian import GroupHom, _zero_modulo
from tottower.chains import ChainComplexInt, ChainMap, chain_map
from tottower.cosimplicial import Conormalization, CosimplicialChain, tot_n
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


def take_rows(mat: IntMatrix, indices) -> IntMatrix:
    """The rows of mat at the given indices, in their order, repeats
    allowed."""
    idx = list(indices)
    pos: dict = {}
    for p, i in enumerate(idx):
        if not (0 <= i < mat.nrows):
            raise InputError(f"row index {i} out of range")
        pos.setdefault(i, []).append(p)
    data = {}
    for i, j, v in mat.entries:
        for p in pos.get(i, ()):
            data[(p, j)] = v
    return IntMatrix.from_dict(len(idx), mat.ncols, data)


def take_columns(mat: IntMatrix, indices) -> IntMatrix:
    """The columns of mat at the given indices, in their order, repeats
    allowed."""
    idx = list(indices)
    pos: dict = {}
    for p, j in enumerate(idx):
        if not (0 <= j < mat.ncols):
            raise InputError(f"column index {j} out of range")
        pos.setdefault(j, []).append(p)
    data = {}
    for i, j, v in mat.entries:
        for p in pos.get(j, ()):
            data[(i, p)] = v
    return IntMatrix.from_dict(mat.nrows, len(idx), data)


class ReferenceWindow:
    """Stripe layout of the window a < s <= b of a conormalization, with
    a differential of its own, assembled entry by entry.

    ``blocks`` maps each tot degree k to [(s, rank of (N^s)_{k+s})] in
    ascending stripe order, covering every stripe at every degree of the
    union window (with zero ranks where a stripe is out of range).
    Stripes sit in ascending coordinate blocks, so the stripes >= s form
    a contiguous tail of the coordinates at every degree.
    """

    def __init__(self, conorm: Conormalization, a: int, b: int):
        self.conorm = conorm
        self.b = b
        stripes = range(a + 1, b + 1)
        self.blocks = {}
        if stripes:
            lo = min(conorm.pieces[s].lo - s for s in stripes)
            hi = max(conorm.pieces[s].hi - s for s in stripes)
            self.blocks = {
                k: [(s, conorm.pieces[s].rank(k + s)) for s in stripes]
                for k in range(lo, hi + 1)
            }
        self._boundaries = {}

    def rank(self, k: int) -> int:
        return sum(r for _, r in self.blocks.get(k, ()))

    def start(self, s: int, k: int) -> int:
        """First coordinate of the stripes >= s at tot degree k."""
        return sum(r for st, r in self.blocks.get(k, ()) if st < s)

    def boundary(self, k: int) -> IntMatrix:
        """Differential from tot degree k to k-1 (zero off the window).

        Applies the stripe boundary with sign (-1)^s and the unsigned
        coface sum into the next stripe when that stripe is inside."""
        if k in self._boundaries:
            return self._boundaries[k]
        entries = {}
        for s, r in self.blocks.get(k, ()):
            if not r:
                continue
            col0 = self.start(s, k)
            t = k + s
            block = self.conorm.pieces[s].boundary(t)
            row0 = self.start(s, k - 1)
            sign = -1 if s % 2 else 1
            for (i, j, v) in block.entries:
                entries[(row0 + i, col0 + j)] = sign * v
            if s + 1 <= self.b:
                block = self.conorm.deltas[s].component(t)
                row0 = self.start(s + 1, k - 1)
                for (i, j, v) in block.entries:
                    entries[(row0 + i, col0 + j)] = v
        mat = IntMatrix.from_dict(self.rank(k - 1), self.rank(k), entries)
        self._boundaries[k] = mat
        return mat

    def complex(self) -> ChainComplexInt:
        """Total complex of the window, zero-rank end degrees dropped.
        An empty window gives the zero complex."""
        live = [k for k in self.blocks if self.rank(k)]
        if not live:
            return ChainComplexInt(0, (0,), ())
        degs = range(live[0], live[-1] + 1)
        return ChainComplexInt(
            degs[0],
            tuple(self.rank(k) for k in degs),
            tuple(self.boundary(k) for k in degs[1:]),
        )


def stripe_head(win: ReferenceWindow, s: int, k: int) -> IntMatrix:
    """Coordinate projection onto the stripes < s at tot degree k."""
    return take_rows(IntMatrix.identity(win.rank(k)), range(win.start(s, k)))


def stripe_tail(win: ReferenceWindow, s: int, k: int) -> IntMatrix:
    """Coordinate inclusion of the stripes >= s at tot degree k."""
    n = win.rank(k)
    return take_columns(IntMatrix.identity(n), range(win.start(s, k), n))


def stage_projection(x: CosimplicialChain, n: int) -> ChainMap:
    """Tot_n -> Tot_{n-1}, forgetting the s = n stripe, for n >= 1."""
    win = ReferenceWindow(x.conormalization, -1, n)
    return chain_map(tot_n(x, n), tot_n(x, n - 1),
                     {k: stripe_head(win, n, k) for k in win.blocks})
