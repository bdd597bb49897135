"""Every name a module lists in ``__all__`` exists in that module.

Tools that walk the public surface (star imports, the benchmark tracer)
skip or fail on a stale entry, so a deleted function must leave
``__all__`` with it.
"""

import importlib
import pkgutil

import pytest

import tottower

MODULES = ["tottower"] + [
    f"tottower.{info.name}"
    for info in pkgutil.iter_modules(tottower.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists missing names {missing}"
    assert len(set(exported)) == len(exported)
