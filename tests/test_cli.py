"""End-to-end checks of the command-line reports and exit codes."""

import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from constructions_reference import (cech_object, constant_object,
                                    cosimplicial_to_data)
from corpus_reference import corpus
from map_reference import take_columns
from test_cosimplicial import SIGNED
from test_torsion import TWO_SWEEP_BOUNDARY
from tottower import (abelian, chains, cli, cosimplicial, deloop, intlinalg,
                      posets, simplicial, spectral)
from tottower.chains import ChainComplexInt
from tottower.cli import main
from tottower.errors import InvariantError, PreconditionError
from tottower.intlinalg import IntMatrix
from tottower.posets import PosetInclusion, full_subposet, poset_from_relation

SRC = Path(__file__).resolve().parent.parent / "src"
CYCLE = [[0, 1], [1, 2], [2, 3], [0, 3]]
SUSPENSION_FACETS = (
    [[a, b, 4] for a, b in CYCLE] + [[a, b, 5] for a, b in CYCLE]
)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_report(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return json.loads(out)


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def suspension_cover(tmp_path):
    return write_json(tmp_path, "cover.json", {
        "complex": {"facets": SUSPENSION_FACETS, "basepoint": 0},
        "pieces": [[0, 1, 2, 3], [4, 5, 6, 7]],
        "basepoint": 0,
    })


def cech_file(tmp_path, n_points=2, truncation=2):
    x = cech_object(n_points, truncation)
    return write_json(tmp_path, "cech.json", cosimplicial_to_data(x))


def constant_file(tmp_path, truncation=2):
    x = constant_object(ChainComplexInt(0, (1,), ()), truncation)
    return write_json(tmp_path, "constant.json", cosimplicial_to_data(x))


# -- global flags -------------------------------------------------------------

def test_version(capsys):
    code, out, _ = run(["--version"], capsys)
    assert code == 0
    assert out.strip() == "tottower 0.1.0"


def test_usage_error_is_input_error(capsys):
    code, _, _ = run(["no-such-command"], capsys)
    assert code == 2


def test_missing_subcommand(capsys):
    assert run([], capsys)[0] == 2


LOADED = """
import json, sys
from tottower.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("tottower")
                               or m in ("mmap", "dataclasses", "inspect"))]))
"""


def loaded_modules(argv):
    """The exit code and the package modules a fresh process has loaded
    once main(argv) returns, with "mmap", "dataclasses" and "inspect"
    among them if they are loaded."""
    done = subprocess.run(
        [sys.executable, "-c", LOADED, json.dumps(argv)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    code, names = json.loads(done.stdout.splitlines()[-1])
    return code, {n.removeprefix("tottower.") for n in names}


def test_each_subcommand_loads_only_its_layers(tmp_path):
    # the cosimplicial JSON decoder is imported with its layer, in the
    # tot and ss commands, and mmap with the first file read, never at
    # start-up; records are built without dataclasses, so no command
    # loads it or inspect
    assert not hasattr(cli, "CosimplicialDecoder")
    bare = {"tottower", "cli", "errors", "schema"}
    for argv in (["--version"], ["--help"], ["no-such-command"], ["tot"],
                 ["tot", "--help"], ["ss", "--help"]):
        assert loaded_modules(argv)[1] == bare
    space = write_json(tmp_path, "complex.json", {"facets": CYCLE})
    cech = cech_file(tmp_path)
    cosimplicial_layers = {"cosimplicial", "spectral"}
    simplicial_layers = {"simplicial", "posets", "deloop", "cover"}
    runs = [
        (["homology", space], "simplicial", cosimplicial_layers),
        (["poset", "--subset-size", "3", "wedge-check"], "posets",
         cosimplicial_layers | {"deloop"}),
        (["deloop", "--subset", "3", "2"], "deloop", cosimplicial_layers),
        (["cover", "--r", "1", suspension_cover(tmp_path)], "cover",
         cosimplicial_layers),
        (["tot", cech], "cosimplicial", simplicial_layers),
        (["ss", cech], "spectral", simplicial_layers),
    ]
    for argv, used, absent in runs:
        code, names = loaded_modules(argv)
        assert code == 0 and used in names, argv
        assert not names & (absent | {"constructions", "dataclasses",
                                      "inspect"}), argv


# -- homology -----------------------------------------------------------------

def test_homology_of_suspension(tmp_path, capsys):
    path = write_json(tmp_path, "complex.json",
                      {"facets": SUSPENSION_FACETS})
    report = run_report(["homology", path], capsys)
    assert report["homology"] == {"0": "Z", "2": "Z"}
    assert report["reduced"] == {"2": "Z"}
    assert report["euler"] == 2
    assert report["weakenings"] == []


def test_homology_rejects_wrong_shape(tmp_path, capsys):
    path = write_json(tmp_path, "complex.json", {"cells": []})
    assert run(["homology", path], capsys)[0] == 2


def test_malformed_json_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    assert run(["homology", str(path)], capsys)[0] == 2


def test_missing_file_is_input_error(capsys):
    assert run(["homology", "/nonexistent/x.json"], capsys)[0] == 2


def test_input_that_is_not_utf8_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"facets": [["\xff"]]}')
    for command in ("homology", "tot"):
        err = assert_one_line_input_error([command, str(path)], capsys)
        assert "not UTF-8" in err


@pytest.mark.parametrize("content, message", [
    (b"", "not valid JSON"),
    (b" \r\n", "not valid JSON"),
    (b'{"facets": [["\xff"]]}', "not UTF-8"),
], ids=["empty", "blank", "latin1"])
def test_unreadable_input_is_named_from_a_file_and_a_pipe(
        tmp_path, capsys, content, message):
    """A file is mapped and a pipe is read, unless the file is empty:
    both give the message of the text they hold."""
    path = tmp_path / "in.json"
    path.write_bytes(content)
    for command in ("homology", "tot"):
        read, write = os.pipe()
        os.write(write, content)
        os.close(write)
        try:
            for where in (str(path), f"/dev/fd/{read}"):
                err = assert_one_line_input_error([command, where], capsys)
                assert message in err, (command, where)
        finally:
            os.close(read)


def test_tot_report_is_the_same_through_a_pipe_and_with_crlf(tmp_path,
                                                              capsys):
    """tot on /dev/stdin fed through a pipe, and on the object written
    with indent=1 and CRLF line ends, gives the report bytes of the
    default file."""
    data = cosimplicial_to_data(cech_object(3, 3))
    path = write_json(tmp_path, "cech.json", data)
    code, expected, err = run(["tot", path], capsys)
    assert code == 0, err
    crlf = tmp_path / "crlf.json"
    crlf.write_bytes(
        json.dumps(data, indent=1).replace("\n", "\r\n").encode())
    assert b"\r\n" in crlf.read_bytes()
    assert run(["tot", str(crlf)], capsys) == (0, expected, "")
    done = subprocess.run(
        [sys.executable, "-m", "tottower", "tot", "/dev/stdin"],
        input=Path(path).read_bytes(), capture_output=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected.encode()


@pytest.mark.parametrize("enabled", [True, False])
def test_main_pauses_the_collector_and_restores_it(tmp_path, capsys,
                                                   monkeypatch, enabled):
    """The cyclic collector is off while a subcommand runs, and main
    gives it back as it found it on every exit code and on an exception
    that is no error of the program's own kinds."""
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    during = []
    deloop = cli.cmd_deloop

    def recording(args):
        during.append(gc.isenabled())
        return deloop(args)

    def raising(exc):
        def command(args):
            during.append(gc.isenabled())
            raise exc
        return command

    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        monkeypatch.setattr(cli, "cmd_deloop", recording)
        assert run(["deloop", "--tot", "2", "3"], capsys)[0] == 0
        assert gc.isenabled() is enabled
        assert run(["homology", str(bad)], capsys)[0] == 2
        assert gc.isenabled() is enabled
        for exc, code in ((InvariantError("x"), 3),
                          (PreconditionError("x"), 4)):
            monkeypatch.setattr(cli, "cmd_deloop", raising(exc))
            assert run(["deloop", "--tot", "2", "3"], capsys)[0] == code
            assert gc.isenabled() is enabled
        monkeypatch.setattr(cli, "cmd_deloop", raising(RuntimeError("x")))
        with pytest.raises(RuntimeError):
            main(["deloop", "--tot", "2", "3"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == [False] * 4


def cyclic_garbage_after(argv, capsys) -> int:
    """The objects the cyclic collector frees after one in-process run,
    with the collector off before and during it."""
    gc.collect()
    code, _, err = run(argv, capsys)
    assert code == 0, err
    return gc.collect()


def suspension_of_a_cycle(tmp_path, n):
    """A cover file: the suspension of an n-gon, covered by its two
    cones."""
    cycle = [sorted((i, (i + 1) % n)) for i in range(n)]
    facets = [[a, b, n] for a, b in cycle] + [[a, b, n + 1] for a, b in cycle]
    return write_json(tmp_path, f"cover_{n}.json", {
        "complex": {"facets": facets, "basepoint": 0},
        "pieces": [list(range(n)), list(range(n, 2 * n))],
    })


def test_reports_leave_no_cyclic_garbage(tmp_path, capsys):
    """No report builds reference cycles, which is why main pauses the
    cyclic collector for the whole report.  After each subcommand, on a
    small input and on a larger one, the collector finds what --version
    leaves (the argument parser) plus a constant: the encoder json.dumps
    builds for an indented report from closures that refer to one
    another.  A cycle built per matrix, group or record would grow with
    the input."""
    triangle = {"facets": [[0, 1, 2]]}
    sphere = {"facets": list(itertools.combinations(range(7), 6))}
    sizes = {
        "homology": (
            ["homology", write_json(tmp_path, "triangle.json", triangle)],
            ["homology", write_json(tmp_path, "sphere.json", sphere)]),
        "wedge-check": (
            ["poset", "wedge-check", "--subset-size", "3"],
            ["poset", "wedge-check", "--subset-size", "5"]),
        "deloop --subset": (
            ["deloop", "--subset", "4", "2"],
            ["deloop", "--subset", "5", "3"]),
        "deloop --tot": (
            ["deloop", "--tot", "1", "2"],
            ["deloop", "--tot", "4", "6"]),
        "cover": (
            ["cover", "--r", "1", suspension_of_a_cycle(tmp_path, 4)],
            ["cover", "--r", "1", suspension_of_a_cycle(tmp_path, 12)]),
        "tot": (
            ["tot", cech_file(tmp_path, 2, 2)],
            ["tot", write_json(tmp_path, "cech_3_3.json",
                               cosimplicial_to_data(cech_object(3, 3)))]),
    }
    sizes["ss"] = tuple(["ss", argv[1]] for argv in sizes["tot"])
    was = gc.isenabled()
    gc.disable()
    try:
        # a first run of each command imports its layers and fills memos
        for small, _ in sizes.values():
            run(small, capsys)
        parser = cyclic_garbage_after(["--version"], capsys)
        for name, (small, large) in sizes.items():
            counts = [cyclic_garbage_after(small, capsys),
                      cyclic_garbage_after(large, capsys)]
            assert counts[0] == counts[1] <= parser + 40, (name, counts)
    finally:
        if was:
            gc.enable()


def test_subquotient_generators_are_built_only_when_read(tmp_path, capsys,
                                                        monkeypatch):
    """ss on cech_object(4, 4) takes 17 Smith forms with transforms, one
    per distinct subquotient, but reads the generators of only the 7
    subquotients that a map leaves: each of those, and no other, takes
    one right inverse."""
    path = write_json(tmp_path, "cech_4_4.json",
                      cosimplicial_to_data(cech_object(4, 4)))
    inverses, smith_forms, sources = [], [], set()
    real_inverse, real_smith = abelian.right_inverse, \
        abelian.smith_normal_form
    real_hom = spectral.induced_hom

    def inverse(rows):
        inverses.append(rows)
        return real_inverse(rows)

    def smith(mat, *args):
        smith_forms.append(mat)
        return real_smith(mat, *args)

    def hom(src, dst, ambient_map):
        sources.add(id(src))
        return real_hom(src, dst, ambient_map)
    monkeypatch.setattr(abelian, "right_inverse", inverse)
    monkeypatch.setattr(abelian, "smith_normal_form", smith)
    monkeypatch.setattr(spectral, "induced_hom", hom)
    abelian._subquotient_memo.cache_clear()
    code, _, err = run(["ss", path], capsys)
    assert code == 0, err
    assert (len(inverses), len(sources), len(smith_forms)) == (7, 7, 17)
    # a fresh subquotient has no generators until they are read, and then
    # keeps them
    inverses.clear()
    abelian._subquotient_memo.cache_clear()
    sq = abelian.subquotient_presentation(
        IntMatrix.identity(2), IntMatrix.from_rows([[2], [0]]))
    assert "gens" not in sq.__dict__ and not inverses
    assert sq.gens is sq.gens
    assert len(inverses) == 1 and "gens" in sq.__dict__


def test_every_cut_of_a_cosimplicial_file_is_refused(tmp_path, capsys):
    """Each proper prefix of a small object, in the default and the
    compact spelling, is not JSON: tot refuses it with exit 2 and one
    line, whichever path the decoder was on where the text stops."""
    data = cosimplicial_to_data(cech_object(2, 1))
    path = tmp_path / "cut.json"
    for separators in ((", ", ": "), (",", ":")):
        text = json.dumps(data, separators=separators)
        for end in range(len(text)):
            path.write_text(text[:end])
            err = assert_one_line_input_error(["tot", str(path)], capsys)
            assert "not valid JSON" in err, text[:end]
        path.write_text(text)
        assert run(["tot", str(path)], capsys)[0] == 0


@pytest.mark.parametrize("nested", [
    '{"0": ' + "[" * 100_000 + "]" * 100_000 + "}",
    '{"0": [[' + "[" * 100_000 + "]" * 100_000 + "]]}",
    '{"0": [[0, ' + "[" * 100_000 + "]" * 100_000 + "]]}",
    '{"0": ' + '{"0": ' * 100_000 + "0" + "}" * 100_000 + "}",
], ids=["lists", "rows", "cell", "objects"])
def test_cosimplicial_file_nested_too_deeply_is_refused(
        tmp_path, capsys, nested):
    data = cosimplicial_to_data(cech_object(2, 1))
    table = json.dumps(data["codegeneracies"][0][0])
    text = json.dumps(data)
    assert table in text
    path = tmp_path / "deep.json"
    path.write_text(text.replace(table, nested))
    for command in ("tot", "ss"):
        err = assert_one_line_input_error([command, str(path)], capsys)
        assert "nested too deeply" in err


def test_number_too_long_to_read_is_an_input_error(tmp_path, capsys):
    text = json.dumps(cosimplicial_to_data(cech_object(2, 1)))
    assert "[[1, 0, 0, 0]" in text
    path = tmp_path / "long.json"
    path.write_text(text.replace("[[1, 0, 0, 0]", "[[" + "1" * 5000 + ", 0, 0, 0]"))
    for command in ("tot", "ss"):
        err = assert_one_line_input_error([command, str(path)], capsys)
        assert "number too long to read" in err
    space = write_json(tmp_path, "complex.json", {"facets": [[0, 1]]})
    Path(space).write_text('{"facets": [[0, ' + "1" * 5000 + "]]}")
    err = assert_one_line_input_error(["homology", space], capsys)
    assert "number too long to read" in err


# -- poset --------------------------------------------------------------------

def test_subset_wedge_report(capsys):
    report = run_report(
        ["poset", "--subset-size", "4", "--max-card", "2", "wedge-check"],
        capsys)
    assert report["degree"] == 1
    assert report["rank"] == 3
    assert report["free"] is True
    assert report["weakenings"]


def test_subspace_wedge_report(capsys):
    report = run_report(
        ["poset", "--subspace", "q=2", "n=3", "--max-dim", "2",
         "wedge-check"], capsys)
    assert report["degree"] == 1
    assert report["rank"] == 8
    assert report["free"] is True


def test_subset_dim_report(capsys):
    report = run_report(
        ["poset", "--subset-size", "5", "--min-card", "3", "dim"], capsys)
    assert report["dim"] == 2


@pytest.mark.parametrize("argv, flag", [
    (["--subspace", "q=2", "n=3", "--max-card", "1"], "--max-card"),
    (["--subspace", "q=2", "n=3", "--min-card", "1"], "--min-card"),
    (["--subset-size", "4", "--max-dim", "1"], "--max-dim"),
    (["FILE", "--min-card", "2"], "--min-card"),
    (["FILE", "--max-card", "2"], "--max-card"),
    (["FILE", "--max-dim", "1"], "--max-dim"),
], ids=["subspace-max-card", "subspace-min-card", "subset-max-dim",
        "file-min-card", "file-max-card", "file-max-dim"])
def test_poset_refuses_an_option_of_another_family(tmp_path, capsys, argv,
                                                   flag):
    """A card bound applies to --subset-size only, a dimension bound to
    --subspace only; given to another poset, it is refused, not
    ignored."""
    path = write_json(tmp_path, "chain.json", {
        "elements": ["a", "b", "c"],
        "leq": [["a", "b"], ["b", "c"]],
    })
    argv = [path if a == "FILE" else a for a in argv]
    err = assert_one_line_input_error(["poset", "dim"] + argv, capsys)
    assert flag in err


def test_poset_homology_action(capsys):
    report = run_report(
        ["poset", "--subset-size", "4", "--max-card", "2", "homology"],
        capsys)
    assert report["reduced"] == {"1": "Z^3"}


def test_poset_from_file(tmp_path, capsys):
    path = write_json(tmp_path, "chain.json", {
        "elements": ["a", "b", "c"],
        "leq": [["a", "b"], ["b", "c"]],
    })
    report = run_report(["poset", "dim", path], capsys)
    assert report["dim"] == 2
    report = run_report(["poset", "wedge-check", path], capsys)
    assert report["free"] is True and report["rank"] == 0


def test_non_free_wedge_check_builds_one_complex(tmp_path, capsys,
                                                monkeypatch):
    # a circle (two minima below two maxima) plus an isolated point:
    # reduced homology Z in degrees 0 and 1, so no wedge signature; the
    # report reads the table of its one reduction
    path = write_json(tmp_path, "circle.json", {
        "elements": ["a", "b", "c", "d", "e"],
        "leq": [["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"]],
    })
    calls = []
    reduce = chains._unit_reduce

    def counting(*args, **kwargs):
        calls.append(args)
        return reduce(*args, **kwargs)

    monkeypatch.setattr(chains, "_unit_reduce", counting)
    report = run_report(["poset", "wedge-check", path], capsys)
    assert report["free"] is False
    assert report["reduced"] == {"0": "Z", "1": "Z"}
    assert len(calls) == 1


def test_wedge_check_builds_no_boundary_matrix(capsys, monkeypatch):
    # the subsets of {0..6} of card 1..5 give an order complex of
    # dimension 4, so 5 boundaries in its augmented chains; they are read
    # from its coded faces, and only their residuals become matrices
    built = []
    post_init = IntMatrix.__post_init__

    def counting(mat):
        built.append(mat.shape)
        post_init(mat)

    monkeypatch.setattr(IntMatrix, "__post_init__", counting)
    report = run_report(["poset", "wedge-check", "--subset-size", "7",
                         "--max-card", "5"], capsys)
    assert (report["degree"], report["rank"]) == (4, 6)
    assert len(built) <= 5, built


@pytest.mark.parametrize("data", [
    {"elements": "abc"},
    {"elements": ["a", "b"], "leq": 5},
    {"elements": ["a", "b"], "leq": [["a"]]},
], ids=["string-elements", "int-leq", "short-pair"])
def test_poset_file_schema_errors(tmp_path, capsys, data):
    path = write_json(tmp_path, "poset.json", data)
    assert_one_line_input_error(["poset", "dim", path], capsys)


@pytest.mark.parametrize("data, message", [
    ({"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"],
                                           ["c", "a"]]},
     "input error: relation has a cycle\n"),
    ({"elements": ["a", "a"]}, "input error: duplicate poset elements\n"),
    ({"elements": ["a"], "leq": [["a", "b"]]},
     "input error: relation pair ('a', 'b') off the set\n"),
], ids=["cycle", "duplicate", "off-the-set"])
def test_poset_file_relation_errors(tmp_path, capsys, data, message):
    """A relation read from a file is proved a partial order where it is
    read, with the messages the poset constructor used to give."""
    path = write_json(tmp_path, "poset.json", data)
    assert assert_one_line_input_error(["poset", "dim", path],
                                       capsys) == message


def test_poset_needs_exactly_one_source(capsys):
    code, _, _ = run(
        ["poset", "--subset-size", "3", "--subspace", "q=2", "n=2",
         "wedge-check"], capsys)
    assert code == 2
    assert run(["poset", "dim"], capsys)[0] == 2


def test_poset_bad_assignment_tokens(capsys):
    code, _, _ = run(
        ["poset", "--subspace", "q=2", "k=3", "wedge-check"], capsys)
    assert code == 2
    code, _, _ = run(
        ["poset", "--subspace", "q=two", "n=3", "wedge-check"], capsys)
    assert code == 2


# -- deloop -------------------------------------------------------------------

def test_deloop_tot_in_range(capsys):
    report = run_report(["deloop", "--tot", "2", "3"], capsys)
    assert report["bound"] == 3
    assert report["valid"] is True


def test_deloop_tot_out_of_range(capsys):
    report = run_report(["deloop", "--tot", "1", "4"], capsys)
    assert report["valid"] is False
    assert "bound" not in report


def test_deloop_tot_precondition(capsys):
    assert run(["deloop", "--tot", "0", "3"], capsys)[0] == 4


def test_deloop_subset_report(capsys):
    report = run_report(["deloop", "--subset", "4", "2"], capsys)
    assert report["p"] == 2
    assert report["complement_dim"] == 1
    assert report["d_max"] == 1
    assert report["weakenings"]


def test_deloop_delta_report(capsys):
    report = run_report(["deloop", "--delta", "1", "2"], capsys)
    assert report["p"] == 2
    assert report["complement_dim"] == 0
    assert report["d_max"] == 2


def test_deloop_models_are_exclusive(capsys):
    code, _, _ = run(
        ["deloop", "--tot", "2", "3", "--subset", "4", "2"], capsys)
    assert code == 2


# -- cover --------------------------------------------------------------------

def test_cover_suspension_report(tmp_path, capsys):
    path = suspension_cover(tmp_path)
    report = run_report(["cover", "--r", "1", path], capsys)
    assert report["acyclic_ok"] is True
    assert report["connectivity_ok"] is True
    assert report["hocolim_matches"] is True
    assert report["weakenings"]


def test_cover_r_out_of_range(tmp_path, capsys):
    path = suspension_cover(tmp_path)
    assert run(["cover", "--r", "5", path], capsys)[0] == 4
    assert run(["cover", "--r", "0", path], capsys)[0] == 4


def test_cover_schema_errors(tmp_path, capsys):
    path = write_json(tmp_path, "c1.json",
                      {"complex": {"facets": [[0, 1]]}})
    assert run(["cover", "--r", "1", path], capsys)[0] == 2
    path = write_json(tmp_path, "c2.json", {
        "complex": {"facets": [[0, 1]], "basepoint": 0},
        "pieces": [[0, 9]],
    })
    assert run(["cover", "--r", "1", path], capsys)[0] == 2


def test_cover_without_a_basepoint_is_refused(tmp_path, capsys):
    # every piece must hold the basepoint, so a cover with none can never
    # be read
    path = write_json(tmp_path, "unpointed.json", {
        "complex": {"facets": [[0, 1], [1, 2]]},
        "pieces": [[0], [1]],
    })
    err = assert_one_line_input_error(["cover", "--r", "1", path], capsys)
    assert "a cover needs a basepoint, in the cover or in its complex" in err


def assert_one_line_input_error(argv, capsys):
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("input error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    return err


def test_facets_must_be_a_list_of_lists(tmp_path, capsys):
    # a string of facets must not be read as one point per character
    for facets in ("abc", [[0, 1], "ab"], 7):
        path = write_json(tmp_path, "f.json", {"facets": facets})
        assert_one_line_input_error(["homology", path], capsys)


def test_cover_names_the_piece_that_misses_the_basepoint(tmp_path, capsys):
    # the basepoint is a vertex of the complex but not of piece 2
    path = write_json(tmp_path, "p.json", {
        "complex": {"facets": [[0, 1], [1, 2], [2, 0]]},
        "pieces": [[0, 1], [2]],
        "basepoint": 1,
    })
    err = assert_one_line_input_error(["cover", "--r", "1", path], capsys)
    assert "basepoint 1 missing from piece 2" in err
    # a basepoint that is not a vertex of the complex at all
    path = write_json(tmp_path, "q.json", {
        "complex": {"facets": [[0, 1], [1, 2], [2, 0]]},
        "pieces": [[0, 1], [2]],
        "basepoint": 7,
    })
    err = assert_one_line_input_error(["cover", "--r", "1", path], capsys)
    assert err == "input error: basepoint is not a vertex\n"


def test_cover_facet_index_must_not_be_a_boolean(tmp_path, capsys):
    # read as index 1, this would be a valid cover of the triangle
    path = write_json(tmp_path, "p.json", {
        "complex": {"facets": [[0, 1], [1, 2], [0, 2]], "basepoint": 0},
        "pieces": [[True, 0], [2, 0]],
    })
    assert_one_line_input_error(["cover", "--r", "1", path], capsys)


def test_cover_pieces_must_be_a_list_of_lists(tmp_path, capsys):
    for pieces in (3, [[0, 1], 2], "ab"):
        path = write_json(tmp_path, "p.json", {
            "complex": {"facets": SUSPENSION_FACETS, "basepoint": 0},
            "pieces": pieces,
        })
        assert_one_line_input_error(["cover", "--r", "1", path], capsys)


# -- tot ----------------------------------------------------------------------

def test_tot_fiber_identification(tmp_path, capsys):
    path = cech_file(tmp_path)
    report = run_report(["tot", "--fiber", "1", "2", path], capsys)
    assert report["homology"] == {"-2": "Z^2"}
    assert report["matches_piece"] is True
    assert report["window"] == [1, 2]


def test_tot_full_tower(tmp_path, capsys):
    path = cech_file(tmp_path)
    report = run_report(["tot", path], capsys)
    assert report["stages"]["0"] == {"0": "Z^2"}
    assert report["stages"]["2"] == {"-2": "Z", "0": "Z"}
    assert all(
        fib["matches_piece"] for fib in report["fibers"].values()
    )
    assert report["weakenings"]


def test_tot_stage_flag(tmp_path, capsys):
    path = cech_file(tmp_path)
    report = run_report(["tot", "--stage", "1", path], capsys)
    assert report["homology"] == {"-1": "Z", "0": "Z"}
    assert run(["tot", "--stage", "7", path], capsys)[0] == 2


@pytest.mark.parametrize("x", [
    pytest.param(cech_object(4, 4), id="cech_4_4"),
    pytest.param(corpus(seed=20250811, count=9)[8].x, id="corpus_8"),
] + [pytest.param(obj.x, id=obj.name) for obj in SIGNED])
def test_tot_stage_tables_are_the_single_stages(x, tmp_path, capsys):
    path = write_json(tmp_path, "x.json", cosimplicial_to_data(x))
    stages = run_report(["tot", path], capsys)["stages"]
    assert list(stages) == [str(n) for n in range(x.truncation + 1)]
    for n, table in stages.items():
        assert run_report(["tot", "--stage", n, path],
                          capsys)["homology"] == table


def test_tot_stage_builds_only_that_stage(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tot --stage must not build this")

    path = cech_file(tmp_path)
    built = []
    tot_n = cosimplicial.tot_n
    monkeypatch.setattr(cosimplicial, "tot_n",
                        lambda x, n: built.append(n) or tot_n(x, n))
    report = run_report(["tot", "--stage", "1", path], capsys)
    assert report["homology"] == {"-1": "Z", "0": "Z"} and built == [1]
    # the range is checked before any conormalization
    monkeypatch.setattr(cosimplicial, "conormalize", refuse)
    assert_one_line_input_error(["tot", "--stage", "3", path], capsys)


def test_tot_fiber_and_stage_are_exclusive(tmp_path, capsys):
    path = cech_file(tmp_path)
    code, out, _ = run(
        ["tot", "--fiber", "0", "1", "--stage", "2", path], capsys)
    assert code == 2 and out == ""


def test_cosimplicial_schema_errors(tmp_path, capsys):
    # read as 1, a boolean truncation would match the two levels
    data = cosimplicial_to_data(cech_object(2, 1))
    data["truncation"] = True
    path = write_json(tmp_path, "bool.json", data)
    assert_one_line_input_error(["tot", path], capsys)
    data = cosimplicial_to_data(cech_object(2, 1))
    data["cofaces"][0][0] = {"0": 5}
    path = write_json(tmp_path, "int.json", data)
    assert_one_line_input_error(["tot", path], capsys)
    # a map-table row that is not a list of maps
    data = cosimplicial_to_data(cech_object(2, 1))
    data["cofaces"] = [5]
    path = write_json(tmp_path, "row.json", data)
    assert_one_line_input_error(["tot", path], capsys)
    data = cosimplicial_to_data(cech_object(2, 1))
    data["codegeneracies"] = 5
    path = write_json(tmp_path, "table.json", data)
    assert_one_line_input_error(["tot", path], capsys)
    # a map table one row short, and one row too long
    for name in ("cofaces", "codegeneracies"):
        for grow in (False, True):
            data = cosimplicial_to_data(cech_object(2, 2))
            table = data[name]
            if grow:
                table.append(table[-1])
            else:
                table.pop()
            path = write_json(tmp_path, "length.json", data)
            err = assert_one_line_input_error(["tot", path], capsys)
            assert "map tables must cover levels 0..M-1" in err
    # a degree key outside both levels is named, not read as ragged rows
    data = cosimplicial_to_data(cech_object(2, 1))
    data["cofaces"][0][0]["7"] = [[1]]
    path = write_json(tmp_path, "key.json", data)
    err = assert_one_line_input_error(["tot", path], capsys)
    assert "'7'" in err and "ragged" not in err
    # a degree key is one integer written one way; "+0" must not overwrite
    # "0" (or be overwritten by it) in either order
    right = cosimplicial_to_data(cech_object(2, 1))["cofaces"][0][0]["0"]
    wrong = [[0] * len(row) for row in right]
    for table in ({"0": wrong, "+0": right}, {"+0": right, "0": wrong},
                  {" 0": right}, {"00": right}):
        data = cosimplicial_to_data(cech_object(2, 1))
        data["cofaces"][0][0] = table
        path = write_json(tmp_path, "alias.json", data)
        err = assert_one_line_input_error(["tot", path], capsys)
        alias = next(k for k in table if k != "0")
        assert repr(alias) in err
    # a falsy cell that is not the integer 0 must not be read as 0
    for cell in (False, None, 0.0, "", [], {}):
        data = cosimplicial_to_data(cech_object(2, 1))
        row = data["cofaces"][0][0]["0"][0]
        row[row.index(0)] = cell
        path = write_json(tmp_path, "cell.json", data)
        err = assert_one_line_input_error(["tot", path], capsys)
        assert "matrix row 0 is not 2 integers" in err
    # an all-zero map of the wrong shape is not the zero map
    for table, slot, shape in (
        ("cofaces", {"0": []}, "(0, 2), expected (4, 2)"),
        ("cofaces", {"0": [[0, 0]]}, "(1, 2), expected (4, 2)"),
        ("codegeneracies", {"0": [[0] * 4] * 5}, "(5, 4), expected (2, 4)"),
    ):
        data = cosimplicial_to_data(cech_object(2, 1))
        data[table][0][0] = slot
        path = write_json(tmp_path, "shape.json", data)
        err = assert_one_line_input_error(["tot", path], capsys)
        assert f"component in degree 0 has shape {shape}" in err
    # level fields of the wrong type are named, not read as empty or as 1
    for field, value in (("boundaries", {}), ("boundaries", ""),
                         ("boundaries", 5), ("ranks", 5), ("levels", 5),
                         ("truncation", 1.0)):
        data = cosimplicial_to_data(cech_object(2, 1))
        if field in ("levels", "truncation"):
            data[field] = value
        else:
            data["levels"][0][field] = value
        path = write_json(tmp_path, "field.json", data)
        err = assert_one_line_input_error(["tot", path], capsys)
        assert f"'{field}' must be" in err


def nested_label_file(tmp_path, depth):
    label = "[" * depth + "1" + "]" * depth
    path = tmp_path / f"nested{depth}.json"
    path.write_text('{"facets": [[' + label + ']]}')
    return str(path)


def test_label_nested_600_deep_is_refused(tmp_path, capsys):
    path = nested_label_file(tmp_path, 600)
    err = assert_one_line_input_error(["homology", path], capsys)
    assert "vertex label nested more than" in err


def test_json_nested_1000_deep_is_refused(tmp_path, capsys):
    path = nested_label_file(tmp_path, 1000)
    err = assert_one_line_input_error(["homology", path], capsys)
    assert "nested too deeply" in err


def test_unsupported_label_is_named_by_type(tmp_path, capsys):
    label = '{"a": ' * 300 + "1" + "}" * 300
    path = tmp_path / "dict_label.json"
    path.write_text('{"facets": [[0, ' + label + ']]}')
    err = assert_one_line_input_error(["homology", str(path)], capsys)
    assert "unsupported vertex label of type dict" in err
    assert len(err) < 200


# sha256 of the report bytes, computed before the indexed Hermite form
# replaced the pairwise one; any change to a page or group string shows
REPORT_SHA256 = {
    ("ss", "cech_3_3"):
        "1d00688e5758dfd9857d8c2416b1ddd237e0f84f68251f96b7f49ea16a311f1a",
    ("tot", "cech_3_3"):
        "1fb889a4d6a21f175db89facabe4deaa762e34729f4fdf7154885b55839c811a",
    # corpus object 8 has torsion on its pages
    ("ss", "corpus_8"):
        "2a111874663e8f0cf51aa6a7c76c18cbc4539c8944f550f875606a1482f6fc45",
    # the ss_cech benchmark object
    ("ss", "cech_4_4"):
        "e28310eadd3c09f6c31ce08e6dc6451ee21f74f642162e044eb4ea37a1516b08",
    # the tot_load benchmark object, 54 MB of dense rows
    ("tot", "cech_5_4"):
        "4094226c26dea95e13cec7ee715f0c273925aeabc8b67c1286d5181b894c2f75",
    # dense 24 x 24 levels: a full-rank one, whose one torsion order is
    # past 2^64, and one of rank 20
    ("ss", "dense_full"):
        "b8792810bb673d534a76191023d23491421ab36cae1675696b6c75716a5ef4ab",
    ("tot", "dense_full"):
        "26dc35dfc27a84e8c0a9b8cf92973119fb94dafc53220b76b570853183405edb",
    ("ss", "dense_deficient"):
        "d98cd6def8bb87420cdeb86109798c14f7192405371b2529a5407f6dbc7006c5",
    ("tot", "dense_deficient"):
        "c30dd12d10aef72c6b9bf48c1769bca4a243a4b5cfed6cc83d6adb3a09d4c69f",
}
# ss --pages 8 on cech_3_3: pages 5..8 are copies of the stable page 4
PAGES_8_SHA256 = \
    "18bc168316791415e7779db5e71f7a2d9fd6899e5b2388754b75e6ba372370aa"


def dense_level(rows):
    """An object with one level, one boundary matrix, truncation 0 and no
    maps."""
    return {"truncation": 0,
            "levels": [{"lo": 0, "ranks": [len(rows), len(rows[0])],
                        "boundaries": [rows]}],
            "cofaces": [], "codegeneracies": []}


def dense_levels():
    """(full rank, rank deficient): seeded 24 x 24 levels, the first with
    cells in -9..9, the second a product of a 24 x 20 and a 20 x 24 matrix
    with such cells."""
    rng = random.Random(24)

    def cells(n, m):
        return IntMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(m)] for _ in range(n)])
    full = cells(24, 24)
    deficient = cells(24, 20) @ cells(20, 24)
    return dense_level(full.to_rows()), dense_level(deficient.to_rows())


def test_report_bytes_are_pinned(tmp_path, capsys):
    full, deficient = dense_levels()
    files = {
        "cech_3_3": write_json(tmp_path, "cech_3_3.json",
                               cosimplicial_to_data(cech_object(3, 3))),
        "corpus_8": write_json(
            tmp_path, "corpus_8.json",
            cosimplicial_to_data(corpus(seed=20250811, count=9)[8].x),
        ),
        "cech_4_4": write_json(tmp_path, "cech_4_4.json",
                               cosimplicial_to_data(cech_object(4, 4))),
        "cech_5_4": write_json(tmp_path, "cech_5_4.json",
                               cosimplicial_to_data(cech_object(5, 4))),
        "dense_full": write_json(tmp_path, "dense_full.json", full),
        "dense_deficient": write_json(tmp_path, "dense_deficient.json",
                                      deficient),
    }
    memo = abelian._subquotient_memo
    for (command, name), expected in REPORT_SHA256.items():
        # the first ss run starts from an empty memo, and the second finds
        # every subquotient in it; tot presents no subquotient
        for warm in (False, True):
            if not warm:
                memo.cache_clear()
            misses = memo.cache_info().misses
            code, out, err = run([command, files[name]], capsys)
            assert code == 0, err
            assert hashlib.sha256(out.encode()).hexdigest() == expected, \
                (command, name, warm)
            if command == "ss":
                assert (memo.cache_info().misses == misses) == warm
    # the compact spelling gives the bytes pinned for the default one
    for command, name, (n, top) in (("ss", "cech_4_4", (4, 4)),
                                    ("ss", "cech_3_3", (3, 3)),
                                    ("tot", "cech_3_3", (3, 3))):
        path = tmp_path / f"{name}_compact.json"
        path.write_text(json.dumps(cosimplicial_to_data(cech_object(n, top)),
                                   separators=(",", ":")))
        code, out, err = run([command, str(path)], capsys)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == \
            REPORT_SHA256[command, name], (command, name, "compact")
    assert "Z/" in run(["ss", files["corpus_8"]], capsys)[1]
    assert "Z/11625532016889206226710784579" in \
        run(["ss", files["dense_full"]], capsys)[1]
    code, out, err = run(["ss", "--pages", "8", files["cech_3_3"]], capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == PAGES_8_SHA256


def test_report_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    path = write_json(tmp_path, "cech_3_3.json",
                      cosimplicial_to_data(cech_object(3, 3)))
    outs = []
    for seed in ("0", "1"):
        done = subprocess.run(
            [sys.executable, "-m", "tottower", "ss", path],
            capture_output=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC),
                 "PYTHONHASHSEED": seed},
        )
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == \
        REPORT_SHA256[("ss", "cech_3_3")]


# sha256 of the simplicial reports, computed before vertices were coded
# as ints; a change to a simplex order that reaches a report shows here
SIMPLICIAL_REPORT_SHA256 = {
    "deloop_subset_6_4":
        "5717b55e69ae4f9b4f9aa67122f8e5347486722012a6ad7ffae89d06f729a1bd",
    "cover_r1":
        "792d122614b0efc598344d546c61eefc59aa361be799a1bab64a60589d065813",
    "cover_r2":
        "d863edd43ab83812e247a4cdfed2dfc838e94abca200a718e4b8959abbc51e93",
    "homology_mixed":
        "8a05f9bde2fda84bf67851ee0c614452c9f85a18a32335e2fc27e5b074f0d2c5",
}
# a real projective plane on int, string and nested-list labels, plus an
# edge apart from it
MIXED_LABELS = {1: 0, 2: "a", 3: [1, "b"], 4: "b", 5: [[2]], 6: [0, [1]]}
MIXED_FACETS = [
    [MIXED_LABELS[v] for v in f]
    for f in ([1, 2, 3], [1, 2, 4], [1, 3, 5], [1, 4, 6], [1, 5, 6],
              [2, 3, 6], [2, 4, 5], [2, 5, 6], [3, 4, 5], [3, 4, 6])
] + [[-3, "z"]]


def test_simplicial_report_bytes_are_pinned(tmp_path, capsys):
    cover = suspension_cover(tmp_path)
    mixed = write_json(tmp_path, "mixed.json",
                       {"facets": MIXED_FACETS, "basepoint": "a"})
    argvs = {
        "deloop_subset_6_4": ["deloop", "--subset", "6", "4"],
        "cover_r1": ["cover", "--r", "1", cover],
        "cover_r2": ["cover", "--r", "2", cover],
        "homology_mixed": ["homology", mixed],
    }
    for name, expected in SIMPLICIAL_REPORT_SHA256.items():
        code, out, err = run(argvs[name], capsys)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == expected, name
    report = run_report(argvs["homology_mixed"], capsys)
    assert report["homology"] == {"0": "Z^2", "1": "Z/2"}


def test_subspace_reports_are_pinned(capsys):
    # both took seconds while subspaces were related pair by pair
    report = run_report(["poset", "--subspace", "q=2", "n=6", "dim"], capsys)
    assert report == {"dim": 5, "weakenings": []}
    code, out, err = run(["deloop", "--subspace", "2", "5", "3"], capsys)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "152cc5822d2c751e0be8d718335c69afa9723bab13295523f57a83faf912af1b")


# -- caps on enumeration ------------------------------------------------------

# 10 layers of 10 incomparable elements, each below the whole next layer:
# 100 elements, 900 pairs and 10^10 maximal chains
LAYERED = {
    "elements": [[layer, i] for layer in range(10) for i in range(10)],
    "leq": [[[layer, i], [layer + 1, j]]
            for layer in range(9) for i in range(10) for j in range(10)],
}


def assert_quick_refusal(argv, capsys, what):
    start = time.perf_counter()
    err = assert_one_line_input_error(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert what in err


def test_too_many_chains_is_refused_quickly(tmp_path, capsys):
    path = write_json(tmp_path, "layered.json", LAYERED)
    for action in ("wedge-check", "homology"):
        assert_quick_refusal(["poset", action, path], capsys,
                             "10000000000 maximal chains")
    assert run_report(["poset", "dim", path], capsys)["dim"] == 9


def test_deloop_slice_with_too_many_chains_is_refused_quickly(
        monkeypatch, capsys):
    # the layered poset under one more element; its slice is the whole
    # layered poset, so the inclusion is refused before any order complex
    elements = [tuple(e) for e in LAYERED["elements"]]
    pairs = [(tuple(a), tuple(b)) for a, b in LAYERED["leq"]]
    ambient = poset_from_relation(
        elements + ["top"], pairs=pairs + [(e, "top") for e in elements])
    incl = PosetInclusion(full_subposet(ambient, elements), ambient)

    def refuse(*args, **kwargs):
        raise AssertionError("an order complex was built")

    monkeypatch.setattr("tottower.deloop.subset_model", lambda size, r: incl)
    monkeypatch.setattr("tottower.deloop.order_complex", refuse)
    assert_quick_refusal(["deloop", "--subset", "1", "1"], capsys,
                         "maximal chains")


def test_deloop_of_a_large_subset_model_is_refused_per_shape(
        monkeypatch, capsys):
    """In ambient order the slices under (0,), (0, 1), ..., (0, ..., 8)
    are nine shapes, and the ninth, the card <= 5 subsets of a 9-set,
    has 78825 chains.  The subset poset is built without relating pairs,
    each shape's caps are checked once, and no slice after the refused
    one is cut."""
    def refuse(*args, **kwargs):
        raise AssertionError("a relation was closed pair by pair")

    counted = []
    check = deloop.checked_chain_count
    built = []
    post_init = posets.FinPoset.__post_init__

    def counting(p):
        counted.append(p)
        return check(p)

    def building(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(posets, "poset_from_relation", refuse)
    monkeypatch.setattr(deloop, "checked_chain_count", counting)
    monkeypatch.setattr(posets.FinPoset, "__post_init__", building)
    err = assert_one_line_input_error(["deloop", "--subset", "11", "5"],
                                      capsys)
    assert err == ("input error: poset has 78825 chains; order complexes "
                   "are built with at most 65536 faces\n")
    assert [set().union(*p.elements) for p in counted] == [
        set(range(k)) for k in range(1, 10)]
    # the ambient, the subposet and one slice per shape
    assert len(built) == 2 + len(counted)


def test_too_many_poset_elements_is_refused_quickly(capsys):
    for argv in (
        ["poset", "--subset-size", "40", "--max-card", "20", "dim"],
        ["deloop", "--subset", "40", "20"],
        ["poset", "--subspace", "q=2", "n=40", "dim"],
        ["deloop", "--subspace", "2", "40", "3"],
        ["poset", "--subspace", "q=2", "n=1000000000", "dim"],
    ):
        assert_quick_refusal(argv, capsys,
                             f"more than {posets.MAX_POSET_ELEMENTS} elements")


def test_large_field_order_is_refused_quickly(capsys):
    # a prime near 10^18, far beyond trial division
    q = "1000000000000000003"
    for argv in (
        ["poset", "--subspace", f"q={q}", "n=1", "dim"],
        ["deloop", "--subspace", q, "1", "1"],
    ):
        assert_quick_refusal(
            argv, capsys, f"q must be a prime of at most "
                          f"{posets.MAX_FIELD_ORDER}")


def test_too_many_faces_is_refused_quickly(tmp_path, capsys):
    # a total order of 40 elements has one maximal chain and 2^40 - 1 chains
    line = write_json(tmp_path, "line.json", {
        "elements": list(range(40)),
        "leq": [[i, i + 1] for i in range(39)],
    })
    for action in ("wedge-check", "homology"):
        assert_quick_refusal(["poset", action, line], capsys,
                             f"poset has {2 ** 40 - 1} chains")
    assert run_report(["poset", "dim", line], capsys)["dim"] == 39
    simplex = write_json(tmp_path, "simplex.json",
                         {"facets": [list(range(40))]})
    assert_quick_refusal(["homology", simplex], capsys,
                         f"more than {simplicial.MAX_FACES} faces")


def test_many_facets_under_the_face_cap_are_refused_quickly(tmp_path, capsys):
    # each facet has 2^14 - 1 faces, under the cap; the five have 81915
    facets = [list(range(14 * i, 14 * i + 14)) for i in range(5)]
    path = write_json(tmp_path, "facets.json", {"facets": facets})
    assert_quick_refusal(["homology", path], capsys,
                         f"complex has more than {simplicial.MAX_FACES} faces")


def level_file(tmp_path, name, levels):
    """Levels of one degree each, given as (lowest degree, rank), with
    zero structure maps."""
    return write_json(tmp_path, name, {
        "truncation": len(levels) - 1,
        "levels": [{"lo": lo, "ranks": [r], "boundaries": []}
                   for lo, r in levels],
        "cofaces": [[{}] * (k + 2) for k in range(len(levels) - 1)],
        "codegeneracies": [[{}] * (k + 1) for k in range(len(levels) - 1)],
    })


def test_declared_rank_past_the_cap_is_refused_quickly(tmp_path, capsys):
    cap = cosimplicial.MAX_RANK
    path = level_file(tmp_path, "huge.json", [(0, 10 ** 8)])
    for command in ("tot", "ss"):
        assert_quick_refusal([command, path], capsys, "rank 100000000")
    path = level_file(tmp_path, "over.json", [(0, cap + 1)])
    assert_quick_refusal(["tot", path], capsys, f"rank {cap + 1}")
    path = level_file(tmp_path, "at.json", [(0, cap)])
    assert run_report(["tot", path], capsys)["stages"] == {"0": {"0": f"Z^{cap}"}}
    # level s at degree k + s lands in totalization degree k
    half = cap // 2 + 1
    path = level_file(tmp_path, "sum.json", [(0, half), (1, half)])
    assert_quick_refusal(["tot", path], capsys,
                         f"rank {2 * half} at totalization degree 0")


def test_truncation_past_the_cap_is_refused_quickly(tmp_path, capsys):
    # empty levels cost a few bytes each, and the number of identities to
    # check is cubic in the truncation, though each is skipped in the
    # degrees where its maps are zero
    cap = cosimplicial.MAX_TRUNCATION
    for m in (80, cap + 1):
        path = level_file(tmp_path, f"m{m}.json", [(0, 0)] * (m + 1))
        for command in ("tot", "ss"):
            assert_quick_refusal([command, path], capsys,
                                 f"the truncation is {m}")
    path = level_file(tmp_path, "at.json", [(0, 0)] * (cap + 1))
    for command in ("tot", "ss"):
        assert run_report([command, path], capsys)["truncation"] == cap


def test_totalization_span_past_the_cap_is_refused_quickly(tmp_path, capsys):
    # one level at degree lo spans lo totalization degrees with level 0
    cap = cosimplicial.MAX_TOT_SPAN
    for lo in (10 ** 5, cap + 1):
        path = level_file(tmp_path, f"lo{lo}.json", [(0, 0), (lo, 1)])
        for command in ("tot", "ss"):
            assert_quick_refusal([command, path], capsys,
                                 f"span {lo} totalization degrees")
    path = level_file(tmp_path, "at.json", [(0, 0), (cap, 1)])
    for command in ("tot", "ss"):
        assert run_report([command, path], capsys)["truncation"] == 1
    # a level's own degrees are refused before its boundaries are built
    n = 10 ** 5
    path = write_json(tmp_path, "degrees.json", {
        "truncation": 0,
        "levels": [{"lo": 0, "ranks": [0] * n, "boundaries": [[]] * (n - 1)}],
        "cofaces": [],
        "codegeneracies": [],
    })
    for command in ("tot", "ss"):
        assert_quick_refusal([command, path], capsys, f"declares {n} degrees")


def test_total_declared_rank_past_the_cap_is_refused_quickly(
        tmp_path, capsys):
    # every degree and every totalization degree is at the cap, but a
    # zero-rank degree between two full ones costs 3 bytes of file per
    # unit of rank, so the degrees add up cheaply
    cap = cosimplicial.MAX_RANK
    ranks = [cap, 0] * 5 + [cap]
    path = write_json(tmp_path, "stacked.json", {
        "truncation": 0,
        "levels": [{"lo": 0, "ranks": ranks, "boundaries": [
            [[]] * ranks[t] for t in range(len(ranks) - 1)
        ]}],
        "cofaces": [],
        "codegeneracies": [],
    })
    for command in ("tot", "ss"):
        assert_quick_refusal([command, path], capsys,
                             f"rank {6 * cap} in all")


def test_tot_fiber_window_validated(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a bad fiber window must not build this")

    path = cech_file(tmp_path)
    # the window is checked before any conormalization
    monkeypatch.setattr(cosimplicial, "conormalize", refuse)
    assert run(["tot", "--fiber", "2", "1", path], capsys)[0] == 2
    assert_one_line_input_error(["tot", "--fiber", "3", "1", path], capsys)


def test_broken_identities_are_invariant_violations(tmp_path, capsys):
    data = cosimplicial_to_data(cech_object(2, 2))
    data["cofaces"][0][0]["0"] = [[1, 0], [0, 1], [1, 1], [0, 1]]
    path = write_json(tmp_path, "broken.json", data)
    assert run(["tot", path], capsys)[0] == 3
    assert run(["ss", path], capsys)[0] == 3


def test_a_faulty_elimination_is_an_invariant_violation(
        tmp_path, capsys, monkeypatch):
    # cut to one divisibility sweep, Smith leaves the torsion of this
    # boundary out of divisibility order: the program is at fault, not
    # the input, so tot and ss exit 3
    c = ChainComplexInt(0, (3, 3),
                        (IntMatrix.from_rows(TWO_SWEEP_BOUNDARY),))
    path = write_json(tmp_path, "two_sweeps.json",
                      cosimplicial_to_data(constant_object(c, 2)))
    fix = intlinalg._Smith.fix_divisibility

    def one_sweep(self, order):
        for t in range(len(order) - 1):
            fix(self, order[t:t + 2])

    abelian._subquotient_memo.cache_clear()
    assert run(["ss", path], capsys)[0] == 0
    abelian._subquotient_memo.cache_clear()
    monkeypatch.setattr(intlinalg._Smith, "fix_divisibility", one_sweep)
    try:
        for command in ("tot", "ss"):
            code, _, err = run([command, path], capsys)
            assert code == 3 and "divisibility order" in err, (command, err)
    finally:
        abelian._subquotient_memo.cache_clear()


def test_a_non_echelon_kernel_basis_is_an_invariant_violation(
        tmp_path, capsys, monkeypatch):
    # the spectral filtration hands its kernels to the subquotients as
    # numerators; with their columns reversed the pivot rows decrease,
    # which is a fault of the program on a valid object, so ss exits 3
    path = write_json(tmp_path, "cech_3_3.json",
                      cosimplicial_to_data(cech_object(3, 3)))
    kernel = spectral.kernel_lattice

    def reversed_kernel(mat):
        ker = kernel(mat)
        return take_columns(ker, range(ker.ncols - 1, -1, -1))

    abelian._subquotient_memo.cache_clear()
    monkeypatch.setattr(spectral, "kernel_lattice", reversed_kernel)
    try:
        code, out, err = run(["ss", path], capsys)
    finally:
        abelian._subquotient_memo.cache_clear()
    assert (code, out) == (3, "")
    assert err == ("invariant violation: numerator pivot rows do not "
                   "strictly increase\n")


def test_law_failures_name_the_level_or_map(tmp_path, capsys):
    # a level must square to zero and a map commute with the boundaries;
    # each is checked as it is read, and the message says where it sits
    def constant(ranks, rows, truncation):
        level = ChainComplexInt.from_data(
            {"lo": 0, "ranks": ranks, "boundaries": rows})
        return cosimplicial_to_data(constant_object(level, truncation))

    cases = []
    data = constant([1, 1, 1], [[[0]], [[0]]], 2)
    data["levels"][1]["boundaries"] = [[[1]], [[1]]]
    cases.append((data, "level 1: boundary squared is nonzero at degree 2"))
    data = constant([1, 1], [[[1]]], 1)
    data["cofaces"][0][1] = {"0": [[1]]}
    cases.append((data, "coface 1 out of level 0: boundaries do not "
                        "commute with the map in degree 1"))
    data = constant([1, 1], [[[1]]], 1)
    data["codegeneracies"][0][0] = {"1": [[1]]}
    cases.append((data, "codegeneracy 0 out of level 1: boundaries do not "
                        "commute with the map in degree 1"))
    for data, message in cases:
        path = write_json(tmp_path, "law.json", data)
        for command in ("tot", "ss"):
            code, out, err = run([command, path], capsys)
            assert (code, out) == (3, "")
            assert err == f"invariant violation: {message}\n"


# -- ss -----------------------------------------------------------------------

def test_ss_fringe_is_checked_before_any_page(tmp_path, capsys,
                                              monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a bad fringe request must not build pages")

    path = cech_file(tmp_path, truncation=4)
    monkeypatch.setattr(spectral, "spectral_sequence", refuse)
    err = assert_one_line_input_error(["ss", "--fringe", "-1", path], capsys)
    assert "need bound >= 0" in err
    err = assert_one_line_input_error(
        ["ss", "--pages", "2", "--fringe", "0", path], capsys)
    assert "need pages through truncation + 1" in err


def test_ss_constant_collapses(tmp_path, capsys):
    path = constant_file(tmp_path)
    report = run_report(["ss", "--pages", "3", path], capsys)
    assert report["pages"]["2"] == {"(0,0)": "Z"}
    assert report["e_infinity"] == {"(0,0)": "Z"}
    assert report["e2_matches_level_homology"] is True


def test_ss_cech_pages(tmp_path, capsys):
    path = cech_file(tmp_path)
    report = run_report(["ss", path], capsys)
    assert report["pages"]["2"] == {"(0,0)": "Z", "(2,0)": "Z"}
    assert report["e2_matches_level_homology"] is True


def test_ss_fringe_section(tmp_path, capsys):
    path = cech_file(tmp_path)
    report = run_report(["ss", "--fringe", "0", path], capsys)
    assert report["fringe"]["vacuous"] is True
    assert report["fringe"]["all_accounted"] is True


def test_ss_page_one_skips_comparison(tmp_path, capsys):
    path = constant_file(tmp_path)
    report = run_report(["ss", "--pages", "1", path], capsys)
    assert "e2_matches_level_homology" not in report
    assert list(report["pages"]) == ["1"]


def test_ss_bad_page_count(tmp_path, capsys):
    path = constant_file(tmp_path)
    assert run(["ss", "--pages", "0", path], capsys)[0] == 2


def test_ss_page_count_past_the_cap_is_refused_quickly(tmp_path, capsys):
    path = cech_file(tmp_path, truncation=1)
    cap = spectral.MAX_PAGES
    for pages in (10 ** 8, cap + 1):
        assert_quick_refusal(["ss", "--pages", str(pages), path], capsys,
                             f"<= {cap}")
    report = run_report(["ss", "--pages", str(cap), path], capsys)
    assert len(report["pages"]) == cap


# -- output discipline --------------------------------------------------------

def test_reports_are_byte_identical(tmp_path, capsys):
    path = cech_file(tmp_path)
    _, first, _ = run(["ss", path], capsys)
    _, second, _ = run(["ss", path], capsys)
    assert first == second


def test_output_flag_writes_file(tmp_path, capsys):
    path = constant_file(tmp_path)
    out = tmp_path / "report.json"
    code, stdout, _ = run(
        ["ss", "--output", str(out), path], capsys)
    assert code == 0
    assert stdout == ""
    _, streamed, _ = run(["ss", path], capsys)
    assert out.read_text() == streamed


def test_unwritable_output_is_an_input_error(tmp_path, capsys):
    # a missing parent directory, and a directory in place of a file
    for target in (tmp_path / "missing" / "x.json", tmp_path):
        err = assert_one_line_input_error(
            ["deloop", "--tot", "2", "3", "--output", str(target)], capsys)
        assert f"cannot write {target}: " in err


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="no device that refuses every write")
def test_unwritable_stdout_is_an_input_error():
    # the report left buffered must not fail again when the interpreter
    # flushes stdout at exit ("Exception ignored ...", exit 120)
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "tottower", "deloop", "--tot", "2", "3"],
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
    assert done.returncode == 2
    assert done.stderr.startswith("input error: cannot write the report: ")
    assert done.stderr.count("\n") == 1


def test_reports_end_with_newline(capsys):
    _, out, _ = run(["deloop", "--tot", "2", "3"], capsys)
    assert out.endswith("}\n")
