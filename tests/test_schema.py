"""Mutation testing of the JSON boundary, over all four input schemas.

Each mutant changes one position of a small valid document: it replaces
the value there by another JSON value, drops it, or nests it one list
deeper.  Whatever the mutant, the command ends with exit 0, 2, 3 or 4 and
at most one line on stderr, never with an exception.  Two rules are
stronger:

* A mutant that changes the JSON type at an integer, list or object
  position exits 2.  Label positions are exempt: an int, a string and a
  list are all labels.
* A cosimplicial mutant exits 2 exactly when an oracle written here from
  the README's schema text, with no library import, finds it ill formed:
  wrong types, shapes that disagree with the ranks, degree keys that are
  not canonical integers or lie outside either level.  So an all-zero map
  of the wrong shape, which the library could drop as a zero map before
  checking its shape, is caught as well.

The text of each cosimplicial mutant is also parsed from its bytes as
``json.loads`` parses it (``reader_reference.parse_as_reference``).
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from constructions_reference import cech_object, cosimplicial_to_data
from reader_reference import parse_as_reference
from tottower.cli import main
from tottower.errors import InputError
from tottower.schema import degree_key, int_rows

COMPLEX = {"facets": [[0, 1], [1, "b"], [0, "b"], [["c", 2]]], "basepoint": 0}
POSET = {"elements": ["a", "b", 3, ["d", 1]],
         "leq": [["a", "b"], ["b", 3], ["a", ["d", 1]]]}
COVER = {
    "complex": {"facets": [[0, 1], [1, 2], [0, 2]], "basepoint": 0},
    "pieces": [[0, 1], [1, 2]],
    "basepoint": 1,
}
COSIMPLICIAL = cosimplicial_to_data(cech_object(2, 1))

DOCS = {
    "complex": (COMPLEX, ["homology"]),
    "poset": (POSET, ["poset", "dim"]),
    "cover": (COVER, ["cover", "--r", "1"]),
    "cosimplicial": (COSIMPLICIAL, ["tot"]),
}

REQUIRED = {
    "complex": {("facets",)},
    "poset": {("elements",)},
    "cover": {("complex",), ("complex", "facets"), ("pieces",)},
    "cosimplicial": {("truncation",), ("levels",), ("cofaces",),
                     ("codegeneracies",)},
}

# one value of every JSON type, and the falsy ones that read as 0 in a
# boolean test
VALUES = [None, True, False, 0, 1, 2, -1, 0.0, 1.0, "", "0", [], [0],
          [[0]], {}, {"0": []}]


# -- position kinds, from the README's schema text ----------------------------

def _complex_kind(path):
    if not path:
        return "object"
    if path[0] == "facets":
        return "list" if len(path) < 3 else "label"
    return "label"  # basepoint


def _kind(name, path):
    """int, list, object or label: what the schema wants at path."""
    if name == "complex":
        return _complex_kind(path)
    if not path:
        return "object"
    head, rest = path[0], path[1:]
    if name == "poset":
        if head == "elements":
            return "label" if rest else "list"
        return "list" if len(rest) < 2 else "label"  # leq
    if name == "cover":
        if head == "complex":
            return _complex_kind(rest)
        if head == "pieces":
            return "int" if len(rest) == 2 else "list"
        return "label"  # basepoint
    if head == "truncation":
        return "int"
    if head == "levels":
        if len(rest) < 2:
            return ("list", "object")[len(rest)]
        field, inner = rest[1], rest[2:]
        if field == "lo":
            return "int"
        if field == "ranks":
            return "int" if inner else "list"
        return "int" if len(inner) == 3 else "list"  # boundaries
    # cofaces, codegeneracies: table, row, map, matrix, matrix row, cell
    return ("list", "list", "object", "list", "list", "int")[len(rest)]


def _paths(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _paths(v, path + (key,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, path + (i,))


# -- an independent oracle for the cosimplicial schema ------------------------

def _matrix_ok(rows, nrows, ncols):
    return type(rows) is list and len(rows) == nrows and all(
        type(row) is list and len(row) == ncols
        and all(type(v) is int for v in row)
        for row in rows
    )


def _level_ok(level):
    if type(level) is not dict or \
            not {"lo", "ranks", "boundaries"} <= level.keys():
        return False
    lo, ranks, bnds = level["lo"], level["ranks"], level["boundaries"]
    if type(lo) is not int or type(ranks) is not list or not ranks or \
            not all(type(n) is int and n >= 0 for n in ranks):
        return False
    return type(bnds) is list and len(bnds) == len(ranks) - 1 and all(
        _matrix_ok(b, ranks[t], ranks[t + 1]) for t, b in enumerate(bnds)
    )


def _rank(level, degree):
    i = degree - level["lo"]
    return level["ranks"][i] if 0 <= i < len(level["ranks"]) else 0


def _map_ok(table, src, dst):
    if type(table) is not dict:
        return False
    for key, rows in table.items():
        if not re.fullmatch(r"0|-?[1-9][0-9]*", key):
            return False
        g = int(key)
        if not all(lv["lo"] <= g < lv["lo"] + len(lv["ranks"])
                   for lv in (src, dst)):
            return False
        if not _matrix_ok(rows, _rank(dst, g), _rank(src, g)):
            return False
    return True


def cosimplicial_well_formed(doc) -> bool:
    keys = {"truncation", "levels", "cofaces", "codegeneracies"}
    if type(doc) is not dict or not keys <= doc.keys():
        return False
    m, levels = doc["truncation"], doc["levels"]
    if type(m) is not int or type(levels) is not list or \
            len(levels) != m + 1 or not all(map(_level_ok, levels)):
        return False
    for name, extra in (("cofaces", 2), ("codegeneracies", 1)):
        table = doc[name]
        if type(table) is not list or len(table) != m:
            return False
        for k, row in enumerate(table):
            src, dst = levels[k], levels[k + 1]
            if name == "codegeneracies":
                src, dst = dst, src
            if type(row) is not list or len(row) != k + extra or \
                    not all(_map_ok(f, src, dst) for f in row):
                return False
    return True


# -- mutants ------------------------------------------------------------------

def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def mutate(doc, path, how, value):
    """The mutant, and whether it changes the JSON type at path."""
    mutant = copy.deepcopy(doc)
    old = _parent(mutant, path)[path[-1]] if path else mutant
    new = {"replace": value, "nest": [old]}.get(how)
    if how == "drop":
        del _parent(mutant, path)[path[-1]]
        return mutant, False
    if path:
        _parent(mutant, path)[path[-1]] = new
    else:
        mutant = new
    return mutant, type(new) is not type(old)


@st.composite
def mutants(draw):
    name = draw(st.sampled_from(sorted(DOCS)))
    doc = DOCS[name][0]
    path = draw(st.sampled_from(list(_paths(doc))))
    how = draw(st.sampled_from(("replace", "nest", "drop") if path
                               else ("replace", "nest")))
    return name, path, how, draw(st.sampled_from(VALUES))


def run_mutant(tmp_path_factory, name, mutant):
    path = tmp_path_factory.getbasetemp() / f"mutant_{name}.json"
    path.write_text(json.dumps(mutant))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(DOCS[name][1] + [str(path)])
    return code, err.getvalue()


@pytest.mark.parametrize("name", sorted(DOCS))
def test_originals_are_read(tmp_path_factory, name):
    code, err = run_mutant(tmp_path_factory, name, DOCS[name][0])
    assert (code, err) == (0, "")


def test_cosimplicial_original_is_well_formed():
    assert cosimplicial_well_formed(COSIMPLICIAL)


# one mutant of each kind that was once read as another input
@example(("cosimplicial", ("cofaces", 0, 0, "0", 0, 1), "replace", False))
@example(("cosimplicial", ("codegeneracies", 0, 0, "0"), "replace", []))
@example(("cosimplicial", ("levels", 0, "boundaries"), "replace", {}))
@example(("cosimplicial", ("truncation",), "replace", 1.0))
@settings(max_examples=300, derandomize=True, deadline=None)
@given(mutants())
def test_mutants_of_all_four_schemas(tmp_path_factory, case):
    name, path, how, value = case
    mutant, retyped = mutate(DOCS[name][0], path, how, value)
    code, err = run_mutant(tmp_path_factory, name, mutant)
    label = f"{name} {how} {path} -> {value!r}: exit {code}, {err!r}"
    assert code in (0, 2, 3, 4), label
    assert err.count("\n") <= 1 and "Traceback" not in err, label
    if retyped and _kind(name, path) != "label":
        assert code == 2, label
    if how == "drop" and path in REQUIRED[name]:
        assert code == 2, label
    if name == "cosimplicial":
        assert (code == 2) == (not cosimplicial_well_formed(mutant)), label
        parse_as_reference(json.dumps(mutant).encode())


# -- the checks themselves ----------------------------------------------------

@pytest.mark.parametrize("cell", [False, True, None, 0.0, 1.0, "", "1",
                                  [], [1], {}])
def test_int_rows_refuses_every_non_integer_cell(cell):
    with pytest.raises(InputError):
        int_rows([[0, 1], [cell, 0]], 2)
    assert int_rows([[0, 1], [-3, 0]], 2) == 2


@pytest.mark.parametrize("key", ["+0", "00", " 0", "0 ", "-0", "1_0", "x"])
def test_degree_key_is_one_integer_written_one_way(key):
    with pytest.raises(InputError, match=re.escape(repr(key))):
        degree_key(key)
    assert degree_key("-10") == -10
