"""Every name a module lists in ``__all__`` exists in that module, no
module reaches into another module's private names, and a command enters
every public function and method.

Tools that walk the public surface (star imports, the benchmark tracer)
skip or fail on a stale entry, so a deleted function must leave
``__all__`` with it.  A private name is free to change shape, so one
module importing another's underscore name ties the two together.  Code
that no command runs is shipped for nobody: what only the tests use lives
in the ``tests/*_reference.py`` modules.
"""

import ast
import importlib
import json
import pkgutil
import sys
import types
from functools import cached_property

import pytest

import tottower
from constructions_reference import (cech_object, constant_object,
                                     cosimplicial_to_data)
from test_spectral import zigzag_two_step
from tottower import abelian, cli
from tottower.chains import ChainComplexInt
from tottower.intlinalg import IntMatrix

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


# -- reachability census ------------------------------------------------------

def _function_of(member):
    """The function a class attribute runs when called or read, or None."""
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    elif isinstance(member, property):
        member = member.fget
    elif isinstance(member, cached_property):
        member = member.func
    return member if isinstance(member, types.FunctionType) else None


def public_functions(modules) -> dict:
    """Code object -> dotted name, for every function a module lists in
    __all__ and every method and property getter written in the body of
    a class it lists, private names aside.  What a decorator adds, such
    as the dunders of ``_record.record``, is written elsewhere and is not
    listed."""
    out = {}
    for mod in modules:
        short = mod.__name__.removeprefix("tottower.")
        for name in getattr(mod, "__all__", ()):
            obj = getattr(mod, name)
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, types.FunctionType):
                out[obj.__code__] = f"{short}.{name}"
            elif isinstance(obj, type):
                for attr, member in vars(obj).items():
                    fn = _function_of(member)
                    if (fn is not None and not _is_private(attr)
                            and fn.__qualname__.startswith(
                                obj.__qualname__ + ".")):
                        out[fn.__code__] = f"{short}.{name}.{attr}"
    return out


def unentered(modules, run) -> set:
    """The names of public_functions(modules) whose code no call entered
    while run() ran."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {name for code, name in public_functions(modules).items()
            if code not in entered}


def _cech_with_d0(table):
    """The data of cech_object(2, 1), with table(d^0) for its coface d^0
    out of level 0."""
    data = cosimplicial_to_data(cech_object(2, 1))
    data["cofaces"][0][0] = table(data["cofaces"][0][0])
    return data


# The inputs the rows name by key: each is written to a file in JSON, but
# "not_json", which is written as it stands.
CENSUS_INPUTS = {
    "complex": {"facets": [[0, 1], [1, 2], [0, 2]], "basepoint": 0},
    "poset": {"elements": ["a", "b", "c", "d"],
              "leq": [["a", "c"], ["b", "c"], ["c", "d"]]},
    "cover": {
        "complex": {"facets": [[a, b, c] for a, b in
                               [[0, 1], [1, 2], [2, 3], [0, 3]]
                               for c in (4, 5)], "basepoint": 0},
        "pieces": [[0, 2, 4, 6], [1, 3, 5, 7]],
        "basepoint": 0,
    },
    "cech": cosimplicial_to_data(cech_object(2, 2)),
    # a level with boundary rows, whose Smith form needs the divisibility
    # fix: pivots 2 and 3 become 1 and 6
    "torsion": cosimplicial_to_data(constant_object(ChainComplexInt(
        0, (2, 2), (IntMatrix.from_rows([[2, 0], [0, 3]]),)), 1)),
    # a diagonal second-page entry above fringe 0 that a page-2
    # differential kills
    "zigzag": cosimplicial_to_data(zigzag_two_step()),
    # d^0 is zero, so s^0 d^0 = id fails
    "broken": _cech_with_d0(lambda d0: {}),
    # a degree table with a key that is no degree: the parse keeps the
    # matrix it read, and the map reader refuses the key
    "stray_key": _cech_with_d0(lambda d0: {**d0, "x": 1}),
    "not_json": "{",
}

# (argv, exit): one row per subcommand and per option, and malformed
# input on each failure path.  "{name}" stands for the file of input
# name, "{out}" for a report file.
CENSUS_ROWS = [
    (["--version"], 0),
    (["--help"], 0),
    (["no-such-command"], 2),
    (["homology", "{complex}"], 0),
    (["homology", "--output", "{out}", "{complex}"], 0),
    (["homology", "{not_json}"], 2),
    (["poset", "--subset-size", "4", "--max-card", "2", "wedge-check"], 0),
    (["poset", "--subset-size", "5", "--min-card", "3", "dim"], 0),
    (["poset", "--subspace", "q=2", "n=3", "--max-dim", "2", "homology"],
     0),
    (["poset", "wedge-check", "{poset}"], 0),
    (["poset", "--subspace", "q=2", "n=3", "--max-card", "1", "dim"], 2),
    (["deloop", "--tot", "2", "3"], 0),
    (["deloop", "--tot", "0", "1"], 4),
    (["deloop", "--subset", "4", "2"], 0),
    (["deloop", "--subspace", "2", "3", "2"], 0),
    (["deloop", "--delta", "1", "2"], 0),
    (["cover", "--r", "1", "{cover}"], 0),
    (["tot", "{cech}"], 0),
    (["tot", "--stage", "1", "{cech}"], 0),
    (["tot", "--stage", "7", "{cech}"], 2),
    (["tot", "--fiber", "0", "2", "{cech}"], 0),
    (["tot", "{torsion}"], 0),
    (["tot", "{broken}"], 3),
    (["tot", "{stray_key}"], 2),
    (["ss", "{cech}"], 0),
    (["ss", "--pages", "2", "{cech}"], 0),
    (["ss", "--fringe", "0", "{zigzag}"], 0),
]

# Public names that no row enters, each with the reason.
UNREACHED = {
    "_record.record": "runs as each module is imported, before any "
                      "command",
    "intlinalg.IntMatrix.__repr__": "for tracebacks and test reports; no "
                                    "report prints a matrix",
}


def test_every_public_name_is_entered_by_a_command(tmp_path, capsys):
    """Every public function, method and property getter of the package
    is entered while the command-line rows run, or is named in
    UNREACHED; whatever only the tests call belongs in a reference
    module.  Each row also exits as its table says."""
    paths = {"out": str(tmp_path / "report.json")}
    for name, data in CENSUS_INPUTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(data if name == "not_json" else json.dumps(data))
        paths[name] = str(path)
    exits = []
    # a memo hit from an earlier test would enter no presentation code
    abelian._subquotient_memo.cache_clear()

    def run():
        for argv, _ in CENSUS_ROWS:
            exits.append(cli.main([a.format(**paths) for a in argv]))

    missed = unentered(
        [importlib.import_module(name) for name in MODULES], run)
    capsys.readouterr()
    assert exits == [code for _, code in CENSUS_ROWS]
    lost = sorted(missed - UNREACHED.keys())
    assert not lost, f"public but entered by no command: {lost}"
    stale = sorted(UNREACHED.keys() - missed)
    assert not stale, f"entered by a command, drop from UNREACHED: {stale}"


LIVE = """
__all__ = ["Box", "run", "gone"]
class Box:
    def used(self): return self
    def lost(self): return self
    def recursive(self, n): return self.recursive(n - 1) if n else self
    @property
    def size(self): return 1
    def _private(self): return self
def run(): return Box().used()
def gone(): return run()
"""


def test_the_census_reports_a_method_without_callers():
    """A method whose last caller went, a property never read and a
    function never called are reported; what ran is not, nor a private
    method."""
    module = types.ModuleType("m")
    exec(compile(LIVE, "<census self-test>", "exec"), vars(module))
    assert unentered([module], module.run) == {
        "m.Box.lost", "m.Box.recursive", "m.Box.size", "m.gone"}

    def more():
        box = module.gone()
        return box.lost(), box.recursive(1), box.size
    assert unentered([module], more) == set()
