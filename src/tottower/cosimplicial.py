"""Truncated cosimplicial objects in integer chain complexes.

A ``CosimplicialChain`` holds levels X^0..X^M together with coface and
codegeneracy chain maps subject to the cosimplicial identities.  From it
we extract:

* the conormalization N^s = intersection of ker(s^i), a canonical
  sublattice per degree (Hermite basis, so the same subgroup always gets
  the same matrix) with the alternating coface sum as differential,
  whose ``embeddings`` into the levels the tests compare with the
  matching-object kernels of ``tests/matching_reference.py``, a second
  route through the tuple constraints;
* partial totalizations Tot_n and tower fibers, each the window of the
  stripes a < s <= b of one ``StripeWindow`` per conormalization: tot
  degree k takes (N^s)_{k+s}, the internal boundary is weighted by
  (-1)^s, the conormalized coface sum crosses stripes unsigned.  Stage n
  is the window -1 < s <= n, the fiber of Tot_m -> Tot_n the window
  n < s <= m, each sliced out of the one total differential; the
  spectral filtration cuts its blocks from it too.

A window's blocks hold only its own pieces and the coface sums between
them, which is what makes the fiber of Tot_m -> Tot_n depend only on
cosimplicial degrees n+1..m, entry for entry.
"""

from __future__ import annotations

import json
import re
from functools import cached_property
from json.decoder import WHITESPACE, JSONArray, JSONObject
from json.scanner import make_scanner

from ._record import record
from .chains import ChainComplexInt, ChainMap, chain_map
from .errors import InputError, InvariantError
from .intlinalg import IntMatrix, hermite_solve, kernel_lattice
from .schema import checked, degree_key, field, is_int, list_of

__all__ = [
    "CosimplicialChain",
    "validate_cosimplicial",
    "Conormalization",
    "conormalize",
    "coface_sum",
    "StripeWindow",
    "tot_n",
    "tower_fiber",
    "cosimplicial_from_data",
    "CosimplicialDecoder",
    "MAX_RANK",
    "MAX_TRUNCATION",
    "MAX_TOT_SPAN",
]

# The largest rank a level may declare in one degree, the largest sum of
# level ranks at one totalization degree, and the largest sum of all the
# ranks declared.  The last bounds the degrees above a zero-rank degree,
# whose boundary rows cost 3 bytes of file each.  A level's ranks cost a few
# bytes each to write, and an identity or a Smith form of that size is
# built from them: a 96-byte file declaring rank 10^8 ran out of memory.
# On a 2-vCPU Xeon VM with Python 3.11, a top level of rank 16384 under
# two empty levels takes 2.4 s and 69 MiB through ss, and rank 65536 takes
# 11.7 s and 227 MiB.  The largest rank in the Cech inputs, 3125 (5 points,
# truncation 4), is a fifth of the cap, and their ranks total 3905.
MAX_RANK = 16_384

# The largest truncation M, and the most totalization degrees the levels
# may span (max - min + 1 of t - s over the degrees t of every level s).
# A few bytes of file reach either.  The number of cosimplicial identities
# is cubic in M, each checked only in the degrees where its maps are
# nonzero, and every stripe window, page and oracle walks each degree of
# the span: 81 empty levels (30 KB) took 11 s through tot and ss, and an
# empty level 0 under a rank-1 level at degree 1000 (167 bytes) took 15 s
# through ss.  At both caps, on a 2-vCPU Xeon VM with Python 3.11, 9
# levels of 32 empty degrees take 0.18 s through tot and 0.23 s through
# ss, and a constant object on 24 degrees of rank 2 takes 0.30 s through
# tot and 0.38 s through ss.  The corpus and the tests reach truncation 5
# and span 11, the Cech inputs of the benchmark truncation 4 and span 5.
MAX_TRUNCATION = 8
MAX_TOT_SPAN = 32


@record
class CosimplicialChain:
    """Levels X^0..X^M with cofaces and codegeneracies.

    cofaces[k] lists d^0..d^{k+1}: X^k -> X^{k+1};
    codegeneracies[k] lists s^0..s^k: X^{k+1} -> X^k.

    Entries are ChainMaps; commuting with the boundaries is checked as
    a map is read from JSON, the cosimplicial identities separately by
    validate_cosimplicial.
    """

    levels: tuple
    cofaces: tuple
    codegeneracies: tuple

    def __post_init__(self):
        m = len(self.levels) - 1
        if m < 0:
            raise InputError("need at least one level")
        if len(self.cofaces) != m or len(self.codegeneracies) != m:
            raise InputError("map tables must cover levels 0..M-1")
        for k in range(m):
            if len(self.cofaces[k]) != k + 2:
                raise InputError(f"level {k} needs {k + 2} cofaces")
            if len(self.codegeneracies[k]) != k + 1:
                raise InputError(f"level {k + 1} needs {k + 1} codegeneracies")
            for i, d in enumerate(self.cofaces[k]):
                if d.src != self.levels[k] or d.dst != self.levels[k + 1]:
                    raise InputError(
                        f"coface {i} at level {k} connects wrong levels"
                    )
            for i, s in enumerate(self.codegeneracies[k]):
                if s.src != self.levels[k + 1] or s.dst != self.levels[k]:
                    raise InputError(
                        f"codegeneracy {i} at level {k + 1} connects "
                        f"wrong levels"
                    )

    @property
    def truncation(self) -> int:
        return len(self.levels) - 1

    def coface(self, k: int, i: int) -> ChainMap:
        """d^i out of level k (so 0 <= k <= M-1, 0 <= i <= k+1)."""
        return self.cofaces[k][i]

    def codegeneracy(self, k: int, i: int) -> ChainMap:
        """s^i out of level k (so 1 <= k <= M, 0 <= i <= k-1)."""
        return self.codegeneracies[k - 1][i]

    @cached_property
    def conormalization(self) -> Conormalization:
        """conormalize(self), computed once for every reader."""
        return conormalize(self)


def validate_cosimplicial(x: CosimplicialChain):
    """Check every cosimplicial identity.

    Both composites of an identity are compared cell by cell in each
    degree where either can be nonzero, and neither is built.  Returns
    (ok, violations); each violation names the identity and the level it
    fails at.  Chain-map commuting is checked as a map is read from JSON,
    so only the simplicial relations are at stake.
    """
    violations = []
    m = x.truncation
    for k in range(m - 1):
        for i in range(k + 2):
            for j in range(i + 1, k + 3):
                if not x.coface(k + 1, j).compose_equals(
                        x.coface(k, i), x.coface(k + 1, i),
                        x.coface(k, j - 1)):
                    violations.append(
                        f"d^{j} d^{i} != d^{i} d^{j - 1} out of level {k}"
                    )
    for k in range(2, m + 1):
        for i in range(k - 1):
            for j in range(i, k - 1):
                if not x.codegeneracy(k - 1, j).compose_equals(
                        x.codegeneracy(k, i), x.codegeneracy(k - 1, i),
                        x.codegeneracy(k, j + 1)):
                    violations.append(
                        f"s^{j} s^{i} != s^{i} s^{j + 1} out of level {k}"
                    )
    for k in range(m):
        for i in range(k + 2):
            for j in range(k + 1):
                s_j, d_i = x.codegeneracy(k + 1, j), x.coface(k, i)
                if i == j or i == j + 1:
                    ok = s_j.compose_is_identity(d_i)
                    label = f"s^{j} d^{i} != id at level {k}"
                elif i < j:
                    ok = s_j.compose_equals(d_i, x.coface(k - 1, i),
                                            x.codegeneracy(k, j - 1))
                    label = f"s^{j} d^{i} != d^{i} s^{j - 1} at level {k}"
                else:
                    ok = s_j.compose_equals(d_i, x.coface(k - 1, i - 1),
                                            x.codegeneracy(k, j))
                    label = f"s^{j} d^{i} != d^{i - 1} s^{j} at level {k}"
                if not ok:
                    violations.append(label)
    return (not violations), tuple(violations)


# -- conormalization ---------------------------------------------------------

def coface_sum(x: CosimplicialChain, s: int) -> ChainMap:
    """Alternating coface sum X^s -> X^{s+1}.

    The s + 2 cofaces are summed cell by cell into one dict per degree,
    and each degree's sum is sorted once."""
    cells = {}
    for i, d in enumerate(x.cofaces[s]):
        sign = -1 if i % 2 else 1
        for t, mat in d.comps:
            acc = cells.setdefault(t, {})
            get = acc.get
            n = mat.ncols
            for a, b, v in mat.entries:
                key = a * n + b
                acc[key] = get(key, 0) + sign * v
    src, dst = x.levels[s], x.levels[s + 1]
    return chain_map(src, dst, {
        t: IntMatrix.from_cells(dst.rank(t), src.rank(t), acc)
        for t, acc in cells.items()
    })


def _kernel_of_stack(mats, width: int) -> IntMatrix:
    """Canonical basis of the common kernel of the given matrices."""
    mats = list(mats)
    if not mats:
        return IntMatrix.identity(width)
    return kernel_lattice(IntMatrix.vstack(mats))


@record
class Conormalization:
    """Pieces N^s with embeddings into X^s and the coface-sum
    differential between consecutive pieces."""

    pieces: tuple        # ChainComplexInt per s
    embeddings: tuple    # ChainMap N^s -> X^s
    deltas: tuple        # ChainMap N^s -> N^{s+1}

    @property
    def truncation(self) -> int:
        return len(self.pieces) - 1

    @cached_property
    def total(self) -> StripeWindow:
        """The stripe layout of every piece, built once: every Tot stage,
        tower fiber and filtration block is cut from its differential."""
        return StripeWindow(self.pieces, self.deltas)


def conormalize(x: CosimplicialChain) -> Conormalization:
    """Compute N^s = ker of all codegeneracies out of X^s, with the
    restricted boundary and the restricted alternating coface sum.

    Bases are Hermite-canonical per degree, so equal kernel lattices get
    equal coordinates and equal restricted matrices.  Both the kernels
    and the coordinates come from echelon arithmetic (kernel_lattice,
    hermite_solve); no Smith form is taken."""
    pieces = []
    embeddings = []
    bases = []
    for s, level in enumerate(x.levels):
        # level 0 has no codegeneracies: its basis is the identity
        basis = {
            t: _kernel_of_stack(
                (x.codegeneracy(s, i).component(t) for i in range(s)),
                level.rank(t),
            )
            for t in level.degrees()
        }
        ranks = tuple(basis[t].ncols for t in level.degrees())
        boundaries = tuple(
            hermite_solve(basis[t - 1], level.boundary(t) @ basis[t])
            for t in level.degrees() if t > level.lo
        )
        piece = ChainComplexInt(level.lo, ranks, boundaries)
        pieces.append(piece)
        embeddings.append(chain_map(piece, level, basis))
        bases.append(basis)
    deltas = []
    for s in range(x.truncation):
        delta = coface_sum(x, s)
        above = x.levels[s + 1]
        comps = {}
        for t in x.levels[s].degrees():
            restricted = delta.component(t) @ bases[s][t]
            if t not in above.degrees():
                if not restricted.is_zero:
                    raise InvariantError(
                        "coface sum leaves the target degree window"
                    )
                continue
            comps[t] = hermite_solve(bases[s + 1][t], restricted)
        deltas.append(chain_map(pieces[s], pieces[s + 1], comps))
    for s in range(len(deltas) - 1):
        if not deltas[s + 1].compose_is_zero(deltas[s]):
            raise InvariantError(
                f"conormalized coface sum fails to square to zero "
                f"at piece {s}"
            )
    return Conormalization(
        pieces=tuple(pieces),
        embeddings=tuple(embeddings),
        deltas=tuple(deltas),
    )


# -- totalization ------------------------------------------------------------

class StripeWindow:
    """Stripe layout of the total complex of a conormalization.

    ``blocks`` maps each tot degree k of any stripe to [(s, rank of
    (N^s)_{k+s})] over every stripe s, ascending (zero ranks where a
    stripe is out of range).  Stripes sit in ascending coordinate blocks,
    so the stripes a < s <= b are a contiguous run of the coordinates at
    every degree, and a window's differential is a block of the total
    one.  It holds the pieces and coface sums, not the conormalization
    that caches it, so it makes no reference cycle.
    """

    def __init__(self, pieces: tuple, deltas: tuple):
        self.pieces = pieces
        self.deltas = deltas
        lo = min(p.lo - s for s, p in enumerate(pieces))
        hi = max(p.hi - s for s, p in enumerate(pieces))
        self.blocks = {
            k: [(s, p.rank(k + s)) for s, p in enumerate(pieces)]
            for k in range(lo, hi + 1)
        }
        self._boundaries = {}

    def rank(self, k: int) -> int:
        return sum(r for _, r in self.blocks.get(k, ()))

    def start(self, s: int, k: int) -> int:
        """First coordinate of the stripes >= s at tot degree k."""
        return sum(r for st, r in self.blocks.get(k, ()) if st < s)

    def boundary(self, k: int) -> IntMatrix:
        """Differential from tot degree k to k-1, built once per degree.

        Block (s, s) is the boundary of stripe s with sign (-1)^s, block
        (s + 1, s) the unsigned coface sum into the next stripe."""
        if k not in self._boundaries:
            grid = {}
            for s, piece in enumerate(self.pieces):
                bnd = piece.boundary(k + s)
                grid[(s, s)] = -bnd if s % 2 else bnd
            for s, delta in enumerate(self.deltas):
                grid[(s + 1, s)] = delta.component(k + s)
            sizes = [[p.rank(j + s) for s, p in enumerate(self.pieces)]
                     for j in (k - 1, k)]
            self._boundaries[k] = IntMatrix.from_blocks(*sizes, grid)
        return self._boundaries[k]

    def window(self, a: int, b: int) -> ChainComplexInt:
        """Total complex of the stripes a < s <= b, zero-rank end degrees
        dropped, its differential sliced out of the total one.

        The square of the differential vanishes because the coface sum
        is itself a chain map and squares to zero.  An empty window
        gives the zero complex."""
        def run(k):
            return range(self.start(a + 1, k), self.start(b + 1, k))
        live = [k for k in self.blocks if run(k)]
        if not live:
            return ChainComplexInt(0, (0,), ())
        degs = range(live[0], live[-1] + 1)
        return ChainComplexInt(
            degs[0],
            tuple(len(run(k)) for k in degs),
            tuple(self.boundary(k).block(run(k - 1), run(k))
                  for k in degs[1:]),
        )


def tot_n(x: CosimplicialChain, n: int) -> ChainComplexInt:
    """Stage-n totalization: stripes 0..n of the conormalization.

    Stage 0 is the level X^0 itself, on the nose."""
    if not 0 <= n <= x.truncation:
        raise InputError("need 0 <= n <= truncation")
    return x.conormalization.total.window(-1, n)


def tower_fiber(x: CosimplicialChain, n: int, m: int) -> ChainComplexInt:
    """Kernel of the projection Tot_m -> Tot_n: stripes n < s <= m.

    Reads only conormalized pieces n+1..m, so the result is unchanged,
    entry for entry, under any modification of the object that leaves
    those pieces alone.  The fiber over equal stages is the zero
    complex."""
    if not 0 <= n <= m <= x.truncation:
        raise InputError("need 0 <= n <= m <= truncation")
    return x.conormalization.total.window(n, m)


# -- serialization -----------------------------------------------------------

def _degree_table(pairs) -> dict:
    """The object of the given pairs, with each value of a degree table
    read as an IntMatrix.

    A degree table is an object whose every key passes degree_key.  A
    value _dense_rows did not read goes through IntMatrix.from_rows, which
    checks every cell and takes the column count from the first row;
    _map_from_data checks that count against the source level.  A value
    from_rows refuses stays as parsed, and every value of an object with
    another key is as parsed, so _map_from_data reports it exactly as it
    would from the plain parse."""
    table = dict(pairs)
    try:
        for key in table:
            degree_key(key)
    except InputError:
        for key, value in table.items():
            if type(value) is IntMatrix:
                table[key] = value.to_rows()
        return table
    for key, rows in table.items():
        if type(rows) is not IntMatrix:
            try:
                table[key] = IntMatrix.from_rows(rows)
            except InputError:
                pass
    return table


# Every digit but 0 becomes "-", so a nonzero cell starts at a "-" of the
# marked text and a zero cell has none.
_MARK_NONZERO = str.maketrans("123456789", "-" * 9)
# A nonzero cell in the form json.dumps writes an int, matched where it
# starts.  Eighteen digits at most, so int() never refuses it; a longer one
# is left to the C scanner.
_NONZERO_CELL = re.compile(r"-?[1-9][0-9]{0,17}").match


def _dense_rows(s: str, idx: int):
    """(IntMatrix, end) for the rows of integers at s[idx:], written as
    json.dumps writes them with either separator, or None.

    The separator and the width come from the first row, and a row wider
    than MAX_RANK gives None before any template is built.  The template
    is the all-zero text of a row period, its cells and the break to the
    next row.  The reading steps from one nonzero cell to the next and
    compares the text in between with the template at the offset it has
    reached, so no object is made for a zero cell, a row of another
    length fails the comparison, and the offset of a cell gives its row
    and column.  The next nonzero cell is guessed as the nearer "1" or
    "-": the search for "1" stops two row periods past the cursor, the
    one for "-" at the "1", and both are kept until the reading passes
    them.  Where the text in front of a guess does not check, either the
    rows end there, or a cell of first digit 2..9 comes first: the text
    up to the guess is then marked by _MARK_NONZERO and read from the
    marks.  Rows in any other spelling, ragged rows and empty rows give
    None, and the caller parses the value as JSON.  Only slices are
    taken, so nothing here raises, and past the first row no search ends
    more than two row periods beyond the cursor."""
    comma = s.find(",", idx, s.find("]", idx) + 2)
    sep = ", " if s.startswith(", ", comma) else ","
    end = s.find("]", idx + 1)
    if end < 0 or not s.startswith("[", idx + 1):
        return None
    ncols = s.count(sep, idx + 2, end) + 1
    if ncols > MAX_RANK:
        return None
    stride = len(sep) + 1
    period = ncols * stride + 2
    span = 2 * period
    # three periods: an offset into one, and the span a search may run
    zeros = (("0" + sep) * (ncols - 1) + "0]" + sep + "[") * 3
    entries = []
    # The template lies over the text from base on, each nonzero cell read
    # counted as the one character of a zero cell.
    base = pos = idx + 2
    # the next "1", or where its search stopped, and the nearer of it and
    # the next "-"
    one = guess = -1
    mend = -1  # the marks cover the text from mbase up to mend
    while True:
        if pos < mend:
            a = marks.find("-", pos - mbase)
            a = mend if a < 0 else a + mbase
        else:
            if guess <= pos:
                if one <= pos:
                    one = s.find("1", pos, pos + span)
                    if one < 0:
                        one = pos + span
                guess = s.find("-", pos, one)
                if guess < 0:
                    guess = one
            a = guess
        if not zeros.startswith(s[pos:a], (pos - base) % period):
            # The rows end in front of a, or a nonzero digit comes first.
            # The end is looked for from pos - 1: a search bound set before
            # a long cell moved the template can stop between its brackets.
            e = s.find("]]", pos - 1, a)
            if e >= 0 and zeros.startswith(
                    s[pos:e + 1], (pos - base) % period) and zeros[
                    (e - base) % period] == "]":
                return (IntMatrix((e - base) // period + 1, ncols,
                                  tuple(entries)), e + 2)
            if pos < mend:
                return None
            mbase, mend = pos, a
            marks = s[pos:a].translate(_MARK_NONZERO)
            continue
        # zero cells and row breaks up to a
        if s.startswith("1", a) and s.startswith((",", "]"), a + 1):
            b, v = a + 1, 1
        elif s.startswith("-1", a) and s.startswith((",", "]"), a + 2):
            b, v = a + 2, -1
        else:
            cell = _NONZERO_CELL(s, a)
            if cell is None:  # a search stopped at a
                if a >= len(s) or s.startswith("-", a):
                    return None
                pos = a
                continue
            b, v = cell.end(), int(cell.group())
        i, off = divmod(a - base, period)
        if zeros[off] != "0":
            return None
        entries.append((i, off // stride, v))
        base += b - a - 1
        pos = b


# How deep the decoder walks in Python.  A degree table is the fourth
# container down: the document, a map table such as "cofaces", one row of
# that table, the degree table.
_WALK_DEPTH = 4


class CosimplicialDecoder(json.JSONDecoder):
    """The JSON decoder of cosimplicial objects: it reads each value of a
    degree table as an IntMatrix while the document is parsed, so a
    table's rows are never built as lists.

    It gives what json.loads gives, except that each degree-table value
    from_rows accepts is that IntMatrix.  Objects, and arrays whose first
    item is an array or an object, are walked in Python down to
    _WALK_DEPTH; every other value, and everything deeper, goes to the
    stdlib's C scanner, which calls _degree_table on each object it
    reads.  An object value that opens with two brackets is tried by
    _dense_rows first, and parsed by the C scanner if that refuses it.
    It raises what json.loads raises on the same text, and never
    InputError: a value from_rows refuses is left as parsed."""

    def __init__(self):
        super().__init__(object_pairs_hook=_degree_table)
        c_scan = make_scanner(self)
        scan = c_scan
        for _ in range(_WALK_DEPTH):
            scan = self._walker(scan, c_scan)
        self.scan_once = scan

    def _walker(self, inner, c_scan):
        """A scan_once that walks a container in Python and reads what it
        holds with inner."""
        strict, memo = self.strict, self.memo

        def value(s, idx):
            if s.startswith("[[", idx) and not s.startswith(
                    ("[[[", "[[{"), idx):
                return _dense_rows(s, idx) or c_scan(s, idx)
            return inner(s, idx)

        def scan(s, idx):
            if s.startswith("{", idx):
                return JSONObject((s, idx + 1), strict, value, None,
                                  _degree_table, memo)
            if s.startswith("[", idx) and s.startswith(
                    ("[", "{"), WHITESPACE.match(s, idx + 1).end()):
                return JSONArray((s, idx + 1), inner)
            return c_scan(s, idx)
        return scan


def _map_from_data(src, dst, data) -> ChainMap:
    checked(data, dict, "chain map data must be a degree table")
    mats = {}
    for key, rows in data.items():
        k = degree_key(key)
        if k not in src.degrees() or k not in dst.degrees():
            raise InputError(
                f"degree key {key!r} is outside the source level "
                f"(degrees {src.lo}..{src.hi}) or the target level "
                f"(degrees {dst.lo}..{dst.hi})"
            )
        ncols = src.rank(k)
        if type(rows) is not IntMatrix:
            mats[k] = IntMatrix.from_rows(rows, ncols=ncols)
        elif rows.ncols == ncols:
            mats[k] = rows  # read by CosimplicialDecoder
        else:  # what from_rows says of rows of the wrong length
            raise InputError(f"matrix row 0 is not {ncols} integers")
        shape = (dst.rank(k), ncols)
        if mats[k].shape != shape:  # chain_map drops zero maps unchecked
            raise InputError(f"component in degree {k} has shape "
                             f"{mats[k].shape}, expected {shape}")
    f = chain_map(src, dst, mats)
    f.check_commutes()
    return f


def _level_from_data(data) -> ChainComplexInt:
    """A level, refused before any of its matrices is built when it
    declares a rank above MAX_RANK, or more degrees than MAX_TOT_SPAN."""
    ranks = field(data, "ranks", "chain complex")
    if type(ranks) is list:
        big = max(filter(is_int, ranks), default=0)
        if big > MAX_RANK:
            raise InputError(
                f"a level declares rank {big}; at most {MAX_RANK} is read"
            )
        if len(ranks) > MAX_TOT_SPAN:
            raise InputError(f"a level declares {len(ranks)} degrees; "
                             f"at most {MAX_TOT_SPAN} is read")
    return ChainComplexInt.from_data(data)


def _check_tot_ranks(levels) -> None:
    """Refuse more than MAX_TRUNCATION + 1 levels, levels spread over
    more than MAX_TOT_SPAN totalization degrees, and levels whose ranks sum
    past MAX_RANK at a totalization degree k, which takes degree k + s of
    level s, or in all."""
    if len(levels) - 1 > MAX_TRUNCATION:
        raise InputError(
            f"the truncation is {len(levels) - 1}; "
            f"at most {MAX_TRUNCATION} is read"
        )
    sums = {}
    for s, level in enumerate(levels):
        for t in level.degrees():
            sums[t - s] = sums.get(t - s, 0) + level.rank(t)
    span = max(sums, default=0) - min(sums, default=0) + 1
    if span > MAX_TOT_SPAN:
        raise InputError(
            f"the levels span {span} totalization degrees; "
            f"at most {MAX_TOT_SPAN} is read"
        )
    k, total = max(sums.items(), key=lambda kv: kv[1], default=(0, 0))
    if total > MAX_RANK:
        raise InputError(
            f"the levels sum to rank {total} at totalization degree {k}; "
            f"at most {MAX_RANK} is read"
        )
    total = sum(sums.values())
    if total > MAX_RANK:
        raise InputError(
            f"the levels declare rank {total} in all; "
            f"at most {MAX_RANK} is read"
        )


def _located(where: str, read, *args):
    """read(*args), with where the object sits put before the message of
    any InvariantError it raises."""
    try:
        return read(*args)
    except InvariantError as exc:
        raise InvariantError(f"{where}: {exc}") from None


def cosimplicial_from_data(data) -> CosimplicialChain:
    """Read a cosimplicial object from JSON data.  A degree-table value may
    already be an IntMatrix read by CosimplicialDecoder.  A level that does
    not square to zero, or a map that does not commute, is named."""
    raw_levels, truncation, raw_cofaces, raw_codegens = (
        field(data, key, "cosimplicial")
        for key in ("levels", "truncation", "cofaces", "codegeneracies")
    )
    levels = tuple(
        _located(f"level {s}", _level_from_data, level)
        for s, level in enumerate(checked(
            raw_levels, list, "'levels' must be a list of chain complexes"
        )))
    checked(truncation, int, "'truncation' must be an integer")
    if truncation != len(levels) - 1:
        raise InputError("truncation does not match level count")
    _check_tot_ranks(levels)
    for name, table in (("cofaces", raw_cofaces),
                        ("codegeneracies", raw_codegens)):
        list_of(table, list, f"'{name}' must be a list of lists of maps")
        if len(table) != truncation:
            raise InputError("map tables must cover levels 0..M-1")
    cofaces = tuple(
        tuple(_located(f"coface {i} out of level {k}",
                       _map_from_data, levels[k], levels[k + 1], d)
              for i, d in enumerate(row))
        for k, row in enumerate(raw_cofaces))
    codegeneracies = tuple(
        tuple(_located(f"codegeneracy {i} out of level {k + 1}",
                       _map_from_data, levels[k + 1], levels[k], d)
              for i, d in enumerate(row))
        for k, row in enumerate(raw_codegens))
    return CosimplicialChain(levels, cofaces, codegeneracies)
