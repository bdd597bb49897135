"""Every name a module lists in ``__all__`` exists in that module, and
no module reaches into another module's private names.

Tools that walk the public surface (star imports, the benchmark tracer)
skip or fail on a stale entry, so a deleted function must leave
``__all__`` with it.  A private name is free to change shape, so one
module importing another's underscore name ties the two together.
"""

import ast
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


def _is_private(name):
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


@pytest.mark.parametrize("name", MODULES)
def test_no_private_imports_between_modules(name):
    path = importlib.import_module(name).__file__
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [
        f"{node.module or '.'}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("tottower"))
        for alias in node.names
        if _is_private(alias.name)
    ]
    assert not private, f"{name} imports private names {private}"
