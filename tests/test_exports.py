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
from pathlib import Path

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


# -- exported names that nothing in src calls --------------------------------

# Every __all__ name that no module of the package references, apart from
# its own definition, with the phrase of the README library section that
# names it as library API.  A name that loses its last caller in src (as
# intlinalg.solve_matrix once did) fails the test below until it is either
# deleted or added here with the README naming it.
LIBRARY_ONLY = {
    "constructions.cech_object": "cech_object",
    "constructions.constant_object": "`constant_object`",
    "cosimplicial.cosimplicial_to_data": "`cosimplicial_to_data`",
    "cosimplicial.matching_kernel_agrees": "`matching_kernel_agrees`",
    "deloop.cover_suspension_bound": "closed-form bounds",
    "deloop.subset_deloop_bound": "closed-form bounds",
    "simplicial.barycentric_subdivision": "barycentric subdivision",
    "simplicial.complex_to_data": "`complex_to_data`",
    "simplicial.skeleton": "skeleta",
}


def _referenced_names() -> set:
    """Every identifier that some module of the package loads, by name or
    as an attribute.  Definitions, assignments and the strings of
    __all__ are not references."""
    used = set()
    for name in MODULES:
        with open(importlib.import_module(name).__file__,
                  encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_uncalled_export_is_named_library_api():
    used = _referenced_names()
    uncalled = {
        f"{name.removeprefix('tottower.')}.{export}"
        for name in MODULES
        for export in getattr(importlib.import_module(name), "__all__", ())
        if export not in used
    }
    lost = sorted(uncalled - LIBRARY_ONLY.keys())
    assert not lost, f"exported but called nowhere in src: {lost}"
    stale = sorted(LIBRARY_ONLY.keys() - uncalled)
    assert not stale, f"called in src, drop from LIBRARY_ONLY: {stale}"
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    unnamed = sorted(n for n, phrase in LIBRARY_ONLY.items()
                     if phrase not in text)
    assert not unnamed, f"the README library section does not name {unnamed}"
