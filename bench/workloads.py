"""The four benchmark workloads: their inputs, command lines and report checks.

Inputs are written by this file alone, never by the library under test,
so a change to the library cannot change what it is measured on.  Every
check compares a report with a closed form that does not come from the
code being measured.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# wedge_subset: the subsets of {0..6} with 1 <= card <= 5
WEDGE_N, WEDGE_LO, WEDGE_HI = 7, 1, 5
# Each run cycles through the same vertex orderings.  The fill-in of one
# ordering moves a report by up to 20% either way, so orderings drawn from
# the seed would bury a change in seed-to-seed scatter.  The seed shuffles
# the element list and the cover pairs, which the program canonicalises.
WEDGE_ORDERINGS = 4
# deloop_subset: card <= R subsets of {0..SIZE-1} inside all of them
DELOOP_SIZE, DELOOP_R = 6, 4
# Cech objects of N points truncated at level T
SS_POINTS, SS_TOP = 4, 4
TOT_POINTS, TOT_TOP = 5, 4


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # what the seed changes in the inputs; None when they are fixed
    seed_effect: str | None
    # (work directory, seed) -> the command lines one run cycles through
    make_inputs: Callable[[Path, int], list]
    # report -> None when it is right, else what is wrong
    check: Callable[[dict], str | None]


# -- closed forms --------------------------------------------------------------

def descent_class_size(n: int, descents) -> int:
    """Permutations of {1..n} whose descent set is exactly ``descents``.

    By Stanley's theorem on rank-selected Boolean lattices, the order
    complex of the subsets of an n-set with cardinality in S is a homology
    wedge of this many spheres of dimension |S| - 1.
    """
    want = set(descents)
    return sum(
        1 for w in itertools.permutations(range(n))
        if {i + 1 for i in range(n - 1) if w[i] > w[i + 1]} == want
    )


def free_group(rank: int) -> str:
    """A free abelian group as the CLI writes it."""
    return "Z" if rank == 1 else f"Z^{rank}"


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# -- wedge_subset ----------------------------------------------------------------

def wedge_poset(ordering: int, rng: random.Random) -> dict:
    """The wedge_subset poset with permuted integer labels.

    The labels, and so the vertex order, depend on ``ordering`` alone;
    ``rng`` shuffles the element list and the cover pairs.
    """
    subsets = [
        c for k in range(WEDGE_LO, WEDGE_HI + 1)
        for c in itertools.combinations(range(WEDGE_N), k)
    ]
    labels = random.Random(ordering).sample(range(len(subsets)), len(subsets))
    label = dict(zip(subsets, labels))
    pairs = [
        [label[b[:i] + b[i + 1:]], label[b]]
        for b in subsets if len(b) > WEDGE_LO
        for i in range(len(b))
    ]
    rng.shuffle(labels)
    rng.shuffle(pairs)
    return {"elements": labels, "leq": pairs}


def wedge_inputs(work: Path, seed: int) -> list:
    rng = random.Random(seed)
    argvs = []
    for k in range(WEDGE_ORDERINGS):
        path = work / f"wedge_subset_{k}.json"
        path.write_text(json.dumps(wedge_poset(k, rng)))
        argvs.append(["poset", "wedge-check", str(path)])
    return argvs


def wedge_check(report: dict) -> str | None:
    ranks = range(WEDGE_LO, WEDGE_HI + 1)
    want = {
        "degree": len(ranks) - 1,
        "rank": descent_class_size(WEDGE_N, ranks),
        "free": True,
    }
    return _mismatch("wedge", {k: report.get(k) for k in want}, want)


# -- deloop_subset ---------------------------------------------------------------

def deloop_inputs(work: Path, seed: int) -> list:
    return [["deloop", "--subset", str(DELOOP_SIZE), str(DELOOP_R)]]


def deloop_check(report: dict) -> str | None:
    size, r = DELOOP_SIZE, DELOOP_R
    # over a set of card <= r the slice is a cone; over a larger set d it
    # is rank-selected {1..r} of B_|d|, an (r-1)-sphere wedge, suspended once
    pointwise = {}
    for k in range(1, size + 1):
        for d in itertools.combinations(range(size), k):
            pointwise[str(d)] = (
                {"contractible": True} if k <= r else
                {"sphere_dim": r, "count": descent_class_size(k, range(1, r + 1))}
            )
    want = {
        "p": r,
        "complement_dim": size - r - 1,
        "d_max": 2 * r - size + 1,
        "trivial_fiber": False,
        "pointwise": pointwise,
    }
    return _mismatch("deloop", {k: report.get(k) for k in want}, want)


# -- Cech objects (ss_cech, tot_load) ------------------------------------------

def _one_hot_row(width: int, pos: int) -> str:
    return "[" + "0, " * pos + "1" + ", 0" * (width - 1 - pos) + "]"


def _digits(index: int, n: int, length: int) -> list:
    out = []
    for _ in range(length):
        index, d = divmod(index, n)
        out.append(d)
    return out[::-1]


def _index(digits, n: int) -> int:
    idx = 0
    for d in digits:
        idx = idx * n + d
    return idx


def _map_json(rows: list) -> str:
    return '{"0": [' + ", ".join(rows) + "]}"


def cech_json(n: int, top: int) -> str:
    """Dense-row JSON of the Cech object of n points covering a point.

    Level k is free on the (k+1)-tuples of points, in chain degree 0.  The
    coface d^i: level k -> k+1 is the 0/1 matrix with a 1 at (u, u minus
    coordinate i); the codegeneracy s^i: level k+1 -> k has a 1 at
    (w, w with coordinate i repeated).
    """
    levels = [
        {"lo": 0, "ranks": [n ** (k + 1)], "boundaries": []}
        for k in range(top + 1)
    ]
    cofaces, codegeneracies = [], []
    for k in range(top):
        lo, hi = n ** (k + 1), n ** (k + 2)
        tuples_hi = [_digits(r, n, k + 2) for r in range(hi)]
        tuples_lo = [_digits(r, n, k + 1) for r in range(lo)]
        cofaces.append("[" + ", ".join(
            _map_json([
                _one_hot_row(lo, _index(u[:i] + u[i + 1:], n))
                for u in tuples_hi
            ])
            for i in range(k + 2)
        ) + "]")
        codegeneracies.append("[" + ", ".join(
            _map_json([
                _one_hot_row(hi, _index(w[:i + 1] + w[i:], n))
                for w in tuples_lo
            ])
            for i in range(k + 1)
        ) + "]")
    return (
        f'{{"truncation": {top}, "levels": {json.dumps(levels)}, '
        f'"cofaces": [{", ".join(cofaces)}], '
        f'"codegeneracies": [{", ".join(codegeneracies)}]}}'
    )


def _cech_inputs(command: str, n: int, top: int):
    def make(work: Path, seed: int) -> list:
        path = work / f"cech_{n}_{top}.json"
        path.write_text(cech_json(n, top))
        return [[command, str(path)]]
    return make


def ss_check(report: dict) -> str | None:
    # Tot of the Cech object is a point; truncating at T leaves the
    # alternating sum of the normalized ranks n(n-1)^s, minus one, which is
    # (n-1)^(T+1), in total degree -T on the s = T column.
    want = {
        "e2_matches_level_homology": True,
        "e_infinity": {
            "(0,0)": "Z",
            f"({SS_TOP},0)": free_group((SS_POINTS - 1) ** (SS_TOP + 1)),
        },
    }
    return _mismatch("ss", {k: report.get(k) for k in want}, want)


def tot_check(report: dict) -> str | None:
    n, top = TOT_POINTS, TOT_TOP
    stages = {"0": {"0": free_group(n)}}
    for s in range(1, top + 1):
        stages[str(s)] = {str(-s): free_group((n - 1) ** (s + 1)), "0": "Z"}
    fibers = {
        f"{s - 1}->{s}": {
            "homology": {str(-s): free_group(n * (n - 1) ** s)},
            "matches_piece": True,
            "window": [s - 1, s],
        }
        for s in range(1, top + 1)
    }
    want = {"truncation": top, "stages": stages, "fibers": fibers}
    return _mismatch("tot", {k: report.get(k) for k in want}, want)


# -- the table -----------------------------------------------------------------

WORKLOADS = {
    w.name: w for w in (
        Workload(
            "wedge_subset",
            "a few huge rank-only Smith forms over four fixed vertex "
            "orderings, each with its own elimination fill-in",
            "shuffles the element list and the cover pairs",
            wedge_inputs, wedge_check,
        ),
        Workload(
            "deloop_subset",
            "247 medium homologies over 63 slices plus t_functor: the "
            "many-small-calls regime",
            None, deloop_inputs, deloop_check,
        ),
        Workload(
            "ss_cech",
            "Smith with transforms, lattice bases, solves, induced maps, "
            "pages and the E2 oracle",
            None, _cech_inputs("ss", SS_POINTS, SS_TOP), ss_check,
        ),
        Workload(
            "tot_load",
            "a 54 MB dense-row input: JSON load, from_data and validation "
            "dominate time and memory",
            None, _cech_inputs("tot", TOT_POINTS, TOT_TOP), tot_check,
        ),
    )
}
