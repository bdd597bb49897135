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
from collections import Counter
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


# -- exported names and methods that nothing in src calls --------------------

# Every name that uncalled_names reports, with the phrase of the README
# library section that names it as library API.  A name or method that
# loses its last caller in src (as intlinalg.solve_matrix once did) fails
# the test below until it is either deleted or added here with the README
# naming it.
LIBRARY_ONLY = {
    "constructions.cech_object": "cech_object",
    "constructions.constant_object": "`constant_object`",
    "cosimplicial.cosimplicial_to_data": "`cosimplicial_to_data`",
    "cosimplicial.matching_kernel_agrees": "`matching_kernel_agrees`",
    "deloop.cover_suspension_bound": "closed-form bounds",
    "deloop.subset_deloop_bound": "closed-form bounds",
    "posets.FinPoset.leq": "`FinPoset.leq`",
    "simplicial.barycentric_subdivision": "barycentric subdivision",
    "simplicial.complex_to_data": "`complex_to_data`",
    "simplicial.skeleton": "skeleta",
}


def uncalled_names(sources: dict) -> set:
    """What nothing calls: module.name for each __all__ name that no module
    loads, by name or as an attribute, and module.Class.method for each
    public method of an exported class that no module names as an
    attribute outside that method's body.  ``sources`` maps module names
    to source text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    nodes = [node for tree in trees.values() for node in ast.walk(tree)]
    loaded = {node.id for node in nodes
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    attrs = Counter(node.attr for node in nodes
                    if isinstance(node, ast.Attribute))
    out = set()
    for name, tree in trees.items():
        exported = next((ast.literal_eval(node.value) for node in tree.body
                         if isinstance(node, ast.Assign)
                         and ast.unparse(node.targets[0]) == "__all__"), ())
        out |= {f"{name}.{e}" for e in exported
                if e not in loaded and not attrs[e]}
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and cls.name in exported):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("_")
                        and attrs[fn.name] == sum(
                            isinstance(node, ast.Attribute)
                            and node.attr == fn.name
                            for node in ast.walk(fn))):
                    out.add(f"{name}.{cls.name}.{fn.name}")
    return out


def test_every_uncalled_export_is_named_library_api():
    uncalled = uncalled_names({
        name.removeprefix("tottower."): Path(
            importlib.import_module(name).__file__).read_text("utf-8")
        for name in MODULES})
    lost = sorted(uncalled - LIBRARY_ONLY.keys())
    assert not lost, f"public but called nowhere in src: {lost}"
    stale = sorted(LIBRARY_ONLY.keys() - uncalled)
    assert not stale, f"called in src, drop from LIBRARY_ONLY: {stale}"
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = " ".join(readme.read_text(encoding="utf-8").split())
    unnamed = sorted(n for n, phrase in LIBRARY_ONLY.items()
                     if phrase not in text)
    assert not unnamed, f"the README library section does not name {unnamed}"


LIVE = """
__all__ = ["Box"]
class Box:
    def used(self): return self
    def lost(self): return self
    def recursive(self, n): return self.recursive(n - 1) if n else self
def run(): return Box().used()
"""


def test_the_guard_reports_a_method_without_callers():
    """A method whose last caller went, and one whose only use is inside
    its own body, are both reported; the called one is not."""
    assert uncalled_names({"m": LIVE}) == {"m.Box.lost", "m.Box.recursive"}
    called = LIVE + "def more(b):\n    return b.lost(), b.recursive(1)\n"
    assert uncalled_names({"m": called}) == set()
    assert uncalled_names({"n": "__all__ = ['gone']"}) == {"n.gone"}
