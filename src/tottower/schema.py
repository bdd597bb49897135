"""The JSON boundary: the one module that decides whether a JSON value of
any of the four input schemas is well formed.  JSON decodes to exactly
int, float, bool, str, list, dict and None, so a kind is tested with
``type(v) is kind``: ``true`` and ``1.0`` are not read as the integer 1."""

from operator import countOf

from .errors import InputError

__all__ = ["is_int", "checked", "list_of", "field", "int_rows", "degree_key"]


def is_int(v) -> bool:
    """A JSON integer: an int that is not a bool."""
    return type(v) is int


def checked(v, kind: type, message: str):
    """v if its JSON type is kind, else InputError(message)."""
    if type(v) is not kind:
        raise InputError(message)
    return v


def list_of(v, kind: type, message: str) -> list:
    """v if it is a list of values of JSON type kind, else InputError."""
    if type(v) is not list or countOf(map(type, v), kind) != len(v):
        raise InputError(message)
    return v


def field(data, key: str, what: str):
    """data[key] if data is a JSON object with that key, else InputError."""
    if type(data) is not dict or key not in data:
        raise InputError(f"{what} data has no '{key}' field")
    return data[key]


def int_rows(rows, ncols=None) -> int:
    """Check dense matrix rows of ncols integers each (None: as many as the
    first row has) and return ncols.  Zero cells are checked too: false,
    null and 0.0 are falsy, and must not be read as 0."""
    list_of(rows, list, "matrix rows must be a list of lists")
    if ncols is None:
        if not rows:
            raise InputError("cannot infer column count from zero rows")
        ncols = len(rows[0])
    for i, row in enumerate(rows):
        if len(row) != ncols or countOf(map(type, row), int) != ncols:
            raise InputError(f"matrix row {i} is not {ncols} integers")
    return ncols


def degree_key(key) -> int:
    """A degree-table key: one integer, written as str(int(key))."""
    try:
        k = int(key)
    except (TypeError, ValueError):
        raise InputError(f"bad degree key {key!r}")
    if str(k) != key:
        # "+0", "00" and " 0" would all land on degree 0
        raise InputError(f"bad degree key {key!r}, write it as '{k}'")
    return k
