"""Frozen value records, built without the dataclasses module.

``@record`` reads the fields of a class from its own annotations, in
order, and gives it what ``@dataclass(frozen=True)`` gives: an
``__init__`` over the fields (positional or keyword, class-level values
as defaults) that then calls ``self.__post_init__()`` if the class has
one, equality and a hash on the tuple of fields, the repr
``QualName(field=value, ...)`` unless the class writes its own, and
attributes that cannot be set or deleted.  The methods are closures, not
generated source, so importing a module of records loads neither
``dataclasses`` nor ``inspect``.  No ``__slots__``: ``cached_property``
still stores into the instance dict.
"""

from operator import attrgetter

__all__ = ["record"]

_set = object.__setattr__


def _getter(names: tuple):
    """The tuple of an object's fields; one C call for two or more."""
    if len(names) > 1:
        return attrgetter(*names)
    return lambda obj: tuple(getattr(obj, n) for n in names)


def _bind(cls, names: tuple, defaults: dict, args: tuple, kwargs: dict):
    """The field values of a call that is not one positional per field."""
    what = cls.__qualname__ + "()"
    if len(args) > len(names):
        raise TypeError(f"{what} takes {len(names)} arguments, "
                        f"{len(args)} given")
    values = {**defaults, **dict(zip(names, args))}
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{what} got an unexpected argument {name!r}")
        if name in names[:len(args)]:
            raise TypeError(f"{what} got multiple values for {name!r}")
        values[name] = value
    missing = [n for n in names if n not in values]
    if missing:
        raise TypeError(f"{what} is missing {', '.join(missing)}")
    return [values[n] for n in names]


def _frozen(self, name, *value):
    raise AttributeError(f"cannot set or delete {name!r}: "
                         f"{type(self).__qualname__} is frozen")


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields."""
    names = tuple(cls.__annotations__)
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    count, post_init = len(names), hasattr(cls, "__post_init__")
    fields = _getter(names)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = _bind(cls, names, defaults, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if post_init:
            self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            f"{n}={v!r}" for n, v in zip(names, fields(self))))

    cls.__init__, cls.__eq__, cls.__hash__ = __init__, __eq__, __hash__
    cls.__setattr__ = cls.__delattr__ = _frozen
    if "__repr__" not in cls.__dict__:
        cls.__repr__ = __repr__
    return cls
