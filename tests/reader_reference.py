"""The readers of dense degree-table rows that came before the one in
``cosimplicial``, kept as its differential references, and the reference
parse of cosimplicial JSON.

Both readers read a ``str``, where ``cosimplicial._dense_rows`` reads
bytes: ``reference_dense_rows`` marks every row whole, and
``previous_dense_rows`` is the reader that stepped from one nonzero cell
to the next through the decoded text, before the degree tables were read
straight from the bytes.  ``parse_as_reference`` checks
``parse_cosimplicial`` against ``json.loads``.
"""

from __future__ import annotations

import json
import re

from tottower.cosimplicial import MAX_RANK, parse_cosimplicial
from tottower.errors import InputError
from tottower.intlinalg import IntMatrix

# Every digit but 0 becomes "-", so a nonzero cell starts at a "-" of the
# marked text and a zero cell has none.
_MARK_NONZERO = str.maketrans("123456789", "-" * 9)
# the zeros of a row of MAX_RANK cells
_ZERO_CELLS = {sep: ("0" + sep) * MAX_RANK for sep in (", ", ",")}
# A nonzero cell in the form json.dumps writes an int: whole, and matched
# where it starts.  Eighteen digits at most, so int() never refuses it.
_NONZERO_CELL = re.compile(r"-?[1-9][0-9]{0,17}").fullmatch
_NONZERO_CELL_AT = re.compile(r"-?[1-9][0-9]{0,17}").match


# the reader as it was before it searched for "1" and "-": it marks every
# row whole

def reference_dense_rows(s: str, idx: int):
    """(IntMatrix, end) for the rows of integers at s[idx:], written as
    json.dumps writes them with either separator, or None.

    Row by row, string operations find the row's end and each nonzero
    cell, and the zeros between nonzero cells are compared with a slice
    of _ZERO_CELLS, so no object is made for a zero cell.  Rows in any
    other spelling, ragged rows and empty rows give None, and the caller
    parses the value as JSON.  Only slices are taken, so nothing here
    raises, and no search runs past the end of the row it reads."""
    comma = s.find(",", idx, s.find("]", idx) + 2)
    sep = ", " if s.startswith(", ", comma) else ","
    zeros = _ZERO_CELLS[sep]
    width = len(sep)
    stride = width + 1
    entries = []
    ncols = None
    i = 0
    p = idx + 1  # the opening bracket of row i
    while s.startswith("[", p):
        end = s.find("]", p)
        if end < 0:
            return None
        row = s[p + 1:end]
        marks = row.translate(_MARK_NONZERO)
        stop = len(row)
        pos = j = 0
        while True:
            a = marks.find("-", pos)
            if a < 0:  # zero cells up to the end of the row
                n = stop - pos
                if not n or (n + width) % stride or not zeros.startswith(
                        row[pos:]):
                    return None
                j += (n + width) // stride
                break
            n = a - pos
            if n % stride or not zeros.startswith(row[pos:a]):
                return None
            j += n // stride
            b = row.find(",", a)
            if b < 0:
                b = stop
            cell = row[a:b]
            if not _NONZERO_CELL(cell):
                return None
            entries.append((i, j, int(cell)))
            j += 1
            if b == stop:
                break
            if not row.startswith(sep, b):
                return None
            pos = b + width
        if ncols is None:
            ncols = j
        elif j != ncols:
            return None
        i += 1
        if s.startswith("]", end + 1):
            return IntMatrix(i, ncols, tuple(entries)), end + 2
        if not s.startswith(sep, end + 1):
            return None
        p = end + 1 + width
    return None


# the reader as it was before it read bytes: it stepped from one nonzero
# cell to the next in the decoded text

def previous_dense_rows(s: str, idx: int):
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
            cell = _NONZERO_CELL_AT(s, a)
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


# -- the parse ----------------------------------------------------------------

def reference_loads(text):
    """json.loads, then from_rows on each value of the objects four
    containers down; a value from_rows refuses stays as parsed.  This is
    what the JSON decoder gave before the skeleton reader."""
    def read(value, depth):
        if depth == 4 and type(value) is dict:
            for key, rows in value.items():
                try:
                    value[key] = IntMatrix.from_rows(rows)
                except InputError:
                    pass
        elif depth < 4 and type(value) in (dict, list):
            for v in (value.values() if type(value) is dict else value):
                read(v, depth + 1)
    data = json.loads(text)
    read(data, 1)
    return data


def typed(value):
    """value with the JSON type of every scalar spelled out, so that 1,
    1.0 and true differ, and a matrix by its shape and entries."""
    if type(value) is IntMatrix:
        return ("matrix", value.shape,
                [(i, j, type(v), v) for i, j, v in value.entries])
    if type(value) is list:
        return [typed(v) for v in value]
    if type(value) is dict:
        return [(k, typed(v)) for k, v in value.items()]
    return (type(value), repr(value))


def parse_as_reference(buf):
    """parse_cosimplicial(buf), checked against json.loads on the UTF-8
    text of buf: the document reference_loads gives, or the one json.loads
    gives where the parse fell back to it, or the same exception with the
    same message.  Returns the document, or None after an exception."""
    try:
        text = str(buf, "utf-8")
        expected = [typed(reference_loads(text)), typed(json.loads(text))]
    except (ValueError, RecursionError) as exc:
        expected = exc
    try:
        got = parse_cosimplicial(buf)
    except (ValueError, RecursionError) as exc:
        assert type(exc) is type(expected), (exc, expected)
        assert str(exc) == str(expected)
        return None
    assert type(expected) is list, (got, expected)
    assert typed(got) in expected
    return got
