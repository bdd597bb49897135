"""The record decorator behaves as ``@dataclass(frozen=True)`` does on
what the package relies on: construction, equality, hashing, repr and
frozen fields."""

import dataclasses

import pytest

from tottower._record import record
from tottower.intlinalg import IntMatrix
from tottower.simplicial import SimplicialComplex


@record
class Point:
    x: int
    y: int
    label: str = "p"


@dataclasses.dataclass(frozen=True)
class DataPoint:
    x: int
    y: int
    label: str = "p"


@record
class Checked:
    n: int
    tags: tuple = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("negative")


def test_equality_and_hash_are_those_of_the_field_tuple():
    p = Point(1, 2)
    assert p == Point(1, 2, "p") == Point(x=1, y=2)
    assert p != Point(1, 3) and p != Point(1, 2, "q")
    assert hash(p) == hash((1, 2, "p"))
    # the same hash and repr as a frozen dataclass with these fields, so
    # memo keys and set and dict order do not move
    for args in ((1, 2), (0, -7, "q"), ((1, 2), "s", None)):
        assert hash(Point(*args)) == hash(DataPoint(*args))
        assert repr(Point(*args)) == repr(DataPoint(*args)).replace(
            "DataPoint", "Point")
    assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2


def test_other_classes_are_not_equal():
    p = Point(1, 2)
    assert p.__eq__((1, 2, "p")) is NotImplemented
    assert p.__eq__(DataPoint(1, 2)) is NotImplemented
    assert p != (1, 2, "p") and p != DataPoint(1, 2)


def test_fields_cannot_be_set_or_deleted():
    p = Point(1, 2)
    with pytest.raises(AttributeError):
        p.x = 5
    with pytest.raises(AttributeError):
        p.other = 5
    with pytest.raises(AttributeError):
        del p.y
    assert (p.x, p.y) == (1, 2)


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}),
    ((), {"y": 2}),
    ((1, 2, "p", 4), {}),
    ((1, 2), {"z": 3}),
    ((1, 2), {"x": 1}),
], ids=["missing", "missing-first", "too-many", "unknown", "repeated"])
def test_bad_arguments_are_type_errors(args, kwargs):
    with pytest.raises(TypeError):
        Point(*args, **kwargs)


def test_defaults_and_keywords():
    assert Point(1, 2).label == "p"
    assert Point(y=2, x=1, label="q") == Point(1, 2, "q")
    assert Checked(3).tags == ()
    assert IntMatrix(nrows=2, ncols=2, entries=()) == IntMatrix.zeros(2, 2)


def test_post_init_runs_and_is_looked_up_at_call_time(monkeypatch):
    with pytest.raises(ValueError, match="negative"):
        Checked(-1)
    seen = []
    monkeypatch.setattr(Checked, "__post_init__",
                        lambda self: seen.append(self.n))
    Checked(-1)
    assert seen == [-1]


def test_repr_is_the_qualified_name_and_fields_unless_the_class_has_one():
    assert repr(Point(1, 2)) == "Point(x=1, y=2, label='p')"
    assert repr(Checked(1)) == "Checked(n=1, tags=())"
    assert repr(SimplicialComplex(((0, 1),))) == \
        "SimplicialComplex(facets=((0, 1),), basepoint=None)"
    # IntMatrix writes its own
    assert "entries=" not in repr(IntMatrix.identity(2))

