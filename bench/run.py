#!/usr/bin/env python3
"""Benchmark of the tottower command line.

One run, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

generates the workload's inputs from the seed, then runs real `tottower`
child processes one at a time for S seconds and checks every report
against a closed form (workloads.py).  With --trace 0 it times the
program's set-up (`tottower --version`, median of several) and the
reports (median wall, CPU and peak RSS per child, from os.wait4).  Its
times are scaled to a nominal machine speed (NOMINAL_START_S).  With
--trace 1 it alternates untraced reports with reports run in-process
under the timing wrappers of tracer.py, and gives the per-layer metrics
averaged over the traced reports.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

Steadiness check, running the same code twice on disjoint seeds:

    python3 bench/run.py --compare [--runs 10] [--seconds S] [--workload NAME]...

classifies every end-to-end metric of every workload as within bounds,
worse or unresolved, against the bounds in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import metric_names
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
# `tottower --version` and the speed probe run this many times before each
# report: spread over the whole run, they see its fast and slow spells alike
SETUP_PER_REPORT = 3
# On a shared VM the whole machine slows down and speeds up by tens of
# percent for minutes at a time, and a bare interpreter start tracks those
# swings closely.  A run's time metrics are multiplied by this over the
# run's median `python3 -c pass` time, so runs from fast and slow spells
# compare.  It is about that time on a 2-vCPU Xeon VM at 2.1 GHz with
# Python 3.11.7.
NOMINAL_START_S = 0.05
# a child still running after this long is killed and counted as failed,
# so one run always ends within three minutes
CHILD_TIMEOUT_S = 120


@dataclass(frozen=True)
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int


def child_env(program: bool) -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    if program:
        env["PYTHONPATH"] = str(SRC)
    # fixed string hashing, so set iteration order is the same every run
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list, out: Path, work: Path, program: bool = True) -> Child:
    """Run one child to completion; wall time is spawn to exit."""
    with open(out, "wb") as fh_out, open(out.with_suffix(".err"), "wb") as fh_err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=fh_out, stderr=fh_err, env=child_env(program),
            cwd=work,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
        proc.returncode,
    )


def check_report(workload, child: Child, out: Path) -> str | None:
    if child.code != 0:
        err = out.with_suffix(".err").read_text(errors="replace").strip()
        return f"exit code {child.code}: {err[-300:]}"
    try:
        report = json.loads(out.read_text())
    except ValueError as exc:
        return f"report is not JSON: {exc}"
    return workload.check(report)


def repeat_until(deadline: float, step) -> None:
    """step(i) once, then again while one more step still fits."""
    i = 0
    while True:
        start = time.perf_counter()
        step(i)
        i += 1
        now = time.perf_counter()
        if now + (now - start) > deadline:
            return


def describe(values: list) -> str:
    return (f"median {statistics.median(values):.4g} of {len(values)} "
            f"(min {min(values):.4g}, max {max(values):.4g})")


class Run:
    """One benchmark run of one workload in its own work directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.work = work
        start = time.perf_counter()
        self.argvs = self.workload.make_inputs(work, seed)
        gen_s = time.perf_counter() - start
        size = sum(p.stat().st_size for p in work.iterdir())
        seed_note = (
            f"seed {seed} {self.workload.seed_effect}"
            if self.workload.seed_effect else f"seed {seed} ignored"
        )
        print(f"workload {name}: {self.workload.why}")
        print(
            f"inputs: {seed_note}; {len(list(work.iterdir()))} file(s), "
            f"{size / 1e6:.1f} MB, generated in {gen_s:.3f} s, "
            f"outside every timing"
        )
        self.failures = []

    def report(self, argv: list, traced: bool) -> Child:
        out = self.work / f"report_{'t' if traced else 'u'}.json"
        if traced:
            cmd = [sys.executable, str(BENCH / "tracer.py"),
                   str(out.with_suffix(".spans")), *argv]
        else:
            cmd = [sys.executable, "-m", "tottower", *argv]
        child = spawn(cmd, out, self.work)
        problem = check_report(self.workload, child, out)
        if problem:
            self.failures.append(problem)
            print(f"FAILED {' '.join(argv)}: {problem}", file=sys.stderr)
        return child

    def setup(self) -> Child:
        out = self.work / "version.txt"
        child = spawn([sys.executable, "-m", "tottower", "--version"],
                      out, self.work)
        if child.code != 0 or not out.read_text().startswith("tottower "):
            self.failures.append(f"--version exit code {child.code}")
        return child

    def probe(self) -> Child:
        """A bare interpreter start: the machine's speed, not the program's."""
        child = spawn([sys.executable, "-c", "pass"], self.work / "probe.txt",
                      self.work, program=False)
        if child.code != 0:
            self.failures.append(f"python3 -c pass exit code {child.code}")
        return child

    def end_to_end(self, seconds: float) -> tuple:
        deadline = time.perf_counter() + seconds
        warm_up = self.setup()  # writes the bytecode cache; untimed
        probes, setup, reps = [], [], []

        def cycle(_):
            # whole cycles over the inputs, so every run's median is taken
            # over the same mix of them
            for argv in self.argvs:
                for _ in range(SETUP_PER_REPORT):
                    probes.append(self.probe())
                    setup.append(self.setup())
                reps.append(self.report(argv, False))

        repeat_until(deadline, cycle)
        start_s = [c.wall for c in probes]
        scale = NOMINAL_START_S / statistics.median(start_s)
        print(f"machine: python3 -c pass {describe(start_s)} s; "
              f"times are scaled by {scale:.4f}")
        metrics = {}
        for name, values, unit, factor in (
            ("wall_s", [c.wall for c in reps], "s", scale),
            ("cpu_s", [c.cpu for c in reps], "s", scale),
            ("peak_rss_mb", [c.rss_mb for c in reps], "MiB", 1.0),
            ("setup_s", [c.wall for c in setup], "s", scale),
        ):
            value = statistics.median(values) * factor
            print(f"{name:12} {value:10.4f} {unit:3} raw {describe(values)}")
            metrics[name] = {"value": value, "unit": unit}
        return len([warm_up, *probes, *setup, *reps]), metrics

    def per_layer(self, seconds: float) -> tuple:
        deadline = time.perf_counter() + seconds
        untraced, traced, layers = [], [], []

        def pair(i: int):
            argv = self.argvs[i % len(self.argvs)]
            untraced.append(self.report(argv, False))
            traced.append(self.report(argv, True))
            spans = self.work / "report_t.spans"
            if traced[-1].code == 0:
                m = json.loads(spans.read_text())["metrics"]
                if m["trace.unattributed_s"] < -1e-6:
                    self.failures.append("spans overlap: negative unattributed time")
                layers.append(m)
            spans.unlink(missing_ok=True)

        repeat_until(deadline, pair)
        names = metric_names()
        metrics = {
            name: statistics.fmean(m[name] for m in layers) if layers else 0.0
            for name in names
        }
        metrics["trace.overhead_s"] = (
            statistics.median(c.wall for c in traced)
            - statistics.median(c.wall for c in untraced)
        )
        print(f"per-layer: mean of {len(layers)} traced report(s); "
              f"overhead against {len(untraced)} untraced")
        for name, value in metrics.items():
            print(f"{name:36} {value:14.6g}")
        return len(untraced) + len(traced), {
            name: {"value": value,
                   "unit": "s" if name.endswith("_s") else "count"}
            for name, value in metrics.items()
        }


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    try:
        r = Run(name, seed, work)
        measure = r.per_layer if trace else r.end_to_end
        attempted, metrics = measure(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    failed = len(r.failures)
    print(f"fail_ratio   {failed}/{attempted} = {failed / attempted:.4g}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


# -- compare mode --------------------------------------------------------------

def spread(values: list) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(first: list, second: list, bound: float, better: str) -> str:
    sign = 1 if better == "lower" else -1
    m1, m2 = statistics.median(first), statistics.median(second)
    if max(spread(first), spread(second)) > bound:
        if all(sign * (b - a) < 0 for b in second for a in first):
            return "within bounds"
        return "unresolved"
    return "worse" if sign * (m2 - m1) / m1 > bound else "within bounds"


def bench_child(name: str, seed: int, seconds: int) -> dict | None:
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )
    try:
        out, err = proc.communicate()
    except BaseException:
        # SIGTERM lets the run kill its own child and clean up
        proc.terminate()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(err, file=sys.stderr)
        return None
    return json.loads(lines[-1])


def compare(names: list, runs: int, seconds: int) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    rows, ok = [], True
    for name in names:
        sets = ([], [])
        for i in range(runs):
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                seed = 1 + i + side * runs
                result = bench_child(name, seed, seconds)
                if result is None or not result["correct"]:
                    print(f"{name} seed {seed}: run failed", file=sys.stderr)
                    ok = False
                    continue
                sets[side].append(result["metrics"])
                print(f"{name} set {side + 1} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                ), file=sys.stderr)
        for m in metrics:
            first = [r[m["name"]]["value"] for r in sets[0]]
            second = [r[m["name"]]["value"] for r in sets[1]]
            if len(first) < 2 or len(second) < 2:
                ok = False
                continue
            row = {
                "workload": name, "metric": m["name"], "bound": m["bound"],
                "median_1": statistics.median(first),
                "median_2": statistics.median(second),
                "spread_1": spread(first), "spread_2": spread(second),
                "verdict": verdict(first, second, m["bound"], m["better"]),
            }
            ok = ok and row["verdict"] == "within bounds"
            rows.append(row)
            print(
                f"{name:14} {m['name']:12} {row['median_1']:10.4f} "
                f"{row['median_2']:10.4f} spread {row['spread_1']:.3f}/"
                f"{row['spread_2']:.3f} bound {m['bound']:.2f}  {row['verdict']}"
                + ("" if max(row["spread_1"], row["spread_2"]) < m["bound"] / 3
                   else "  (spread above a third of the bound)")
            )
    print(json.dumps({"runs": runs, "seconds": seconds, "rows": rows}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", action="store_true",
                        help="run every end-to-end metric twice and compare")
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set in --compare")
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and reaped, and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "tottower" / "cli.py").is_file():
        print(f"no tottower sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.compare:
        return compare(args.workload or list(WORKLOADS), args.runs, args.seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    result = run(args.workload[0], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
