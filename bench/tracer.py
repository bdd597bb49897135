"""Run one tottower command in-process under timing wrappers.

    python3 bench/tracer.py OUT.json ARGV...

runs ``tottower.cli.main(ARGV)`` and writes its spans and per-layer
metrics to OUT.json.  The wrappers come from this file alone; no source
file of the program changes.  Every public function of each measured
module (the names in its ``__all__``) gets a span, and every module-level
name that refers to a wrapped function is rebound, because the modules
call each other through ``from .x import f``.  Methods are wrapped on
their classes.  Spans (name, start, end, parent) stay in memory and are
written when the command ends.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the module self times plus ``trace.unattributed_s``
add up to ``trace.wall_s``, the traced duration of ``main``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = (
    "intlinalg", "chains", "abelian", "simplicial", "posets", "deloop",
    "cosimplicial", "spectral", "cli",
)
# leaf helpers called hundreds of thousands of times: a span each would
# cost more than the work, so their time stays in the caller's self time
UNWRAPPED = {"intlinalg.xgcd", "simplicial.label_key"}
# private functions that bound a phase of their own
PRIVATE = {"cli": ("_load_json", "_emit")}
METHODS = {"chains": {"ChainComplexInt": ("homology_all", "homology")}}
SNF = "intlinalg.smith_normal_form"

# per-layer metric -> the spans whose self time (or count) it sums
SELF_TIMES = {
    "intlinalg.snf_s": (SNF,),
    "intlinalg.lattice_basis_s": ("intlinalg.lattice_basis",),
    "intlinalg.solve_s": ("intlinalg.solve_matrix",),
    "intlinalg.kernel_basis_s": ("intlinalg.kernel_basis",),
    "chains.homology_s": (
        "chains.ChainComplexInt.homology_all",
        "chains.ChainComplexInt.homology",
    ),
    "abelian.induced_hom_s": ("abelian.induced_hom",),
    "abelian.subquotient_s": ("abelian.subquotient_presentation",),
    "simplicial.chain_complex_s": ("simplicial.chain_complex",),
    "posets.order_complex_s": ("posets.order_complex",),
    "posets.t_functor_s": ("posets.t_functor",),
    "cosimplicial.from_data_s": ("cosimplicial.cosimplicial_from_data",),
    "cosimplicial.validate_s": ("cosimplicial.validate_cosimplicial",),
    "cosimplicial.conormalize_s": ("cosimplicial.conormalize",),
    "cosimplicial.tower_s": (
        "cosimplicial.tower", "cosimplicial.tot_n", "cosimplicial.tower_fiber",
    ),
    "cli.json_load_s": ("cli._load_json",),
    "cli.emit_s": ("cli._emit",),
}
CALLS = {
    "intlinalg.snf_calls": (SNF,),
    "intlinalg.lattice_basis_calls": ("intlinalg.lattice_basis",),
    "chains.homology_calls": ("chains.ChainComplexInt.homology_all",),
    "simplicial.reduced_homology_calls": ("simplicial.reduced_homology",),
}
# the oracle's whole cost, nested calls included, so it is counted apart
# from the primary path
TOTAL_TIMES = {"spectral.e2_oracle_s": ("spectral.e2_from_level_homology",)}


def metric_names() -> list:
    """Every per-layer metric, in the order the benchmark prints them."""
    names = []
    for mod in LAYERS:
        names += [f"{mod}.self_s", f"{mod}.calls"]
    names += list(SELF_TIMES) + list(CALLS) + list(TOTAL_TIMES)
    names += [
        "intlinalg.snf_rank_only_calls", "intlinalg.snf_in_nnz",
        "intlinalg.snf_max_cells", "intlinalg.matrices_built",
        "trace.wall_s", "trace.unattributed_s",
    ]
    return names


class Recorder:
    """Spans and counters of one traced command."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index or -1]
        self.stack = []
        self.snf_inputs = []  # [span index, transforms, nnz, rows * cols]
        self.matrices_built = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return wrapper

    def wrap_snf(self, fn):
        inner = self.wrap(SNF, fn)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            mat = next(iter(bound.arguments.values()))
            self.snf_inputs.append([
                len(self.spans), bound.arguments.get("transforms", True),
                len(mat.entries), mat.nrows * mat.ncols,
            ])
            return inner(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap the measured functions and rebind every reference to them."""
        mods = {m: importlib.import_module(f"tottower.{m}") for m in LAYERS}
        wrapped = {}
        for short, mod in mods.items():
            names = [
                n for n in getattr(mod, "__all__", ())
                if inspect.isfunction(getattr(mod, n, None))
                and getattr(mod, n).__module__ == mod.__name__
            ]
            names += [n for n in PRIVATE.get(short, ()) if hasattr(mod, n)]
            for n in names:
                key = f"{short}.{n}"
                if key in UNWRAPPED:
                    continue
                fn = getattr(mod, n)
                wrapped[fn] = (
                    self.wrap_snf(fn) if key == SNF else self.wrap(key, fn)
                )
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for m in methods:
                    setattr(cls, m, self.wrap(
                        f"{short}.{cls_name}.{m}", getattr(cls, m)
                    ))
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("tottower"):
                for attr, val in list(vars(mod).items()):
                    if inspect.isfunction(val) and val in wrapped:
                        setattr(mod, attr, wrapped[val])
        matrix = mods["intlinalg"].IntMatrix
        post_init = matrix.__post_init__

        def counted(obj):
            self.matrices_built += 1
            return post_init(obj)
        matrix.__post_init__ = counted

    def metrics(self, wall: float) -> dict:
        """Per-layer metrics of the recorded spans."""
        spans = self.spans
        enclosed = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                enclosed[parent] += end - start
        self_by, total_by, calls_by = {}, {}, {}
        for (name, start, end, _), inner in zip(spans, enclosed):
            self_by[name] = self_by.get(name, 0.0) + (end - start - inner)
            total_by[name] = total_by.get(name, 0.0) + (end - start)
            calls_by[name] = calls_by.get(name, 0) + 1
        out = {}
        for mod in LAYERS:
            names = [n for n in self_by if n.split(".", 1)[0] == mod]
            out[f"{mod}.self_s"] = sum((self_by[n] for n in names), 0.0)
            out[f"{mod}.calls"] = sum(calls_by[n] for n in names)
        for metric, names in SELF_TIMES.items():
            out[metric] = sum(self_by.get(n, 0.0) for n in names)
        for metric, names in CALLS.items():
            out[metric] = sum(calls_by.get(n, 0) for n in names)
        for metric, names in TOTAL_TIMES.items():
            out[metric] = sum(total_by.get(n, 0.0) for n in names)
        snf = self.snf_inputs
        out["intlinalg.snf_rank_only_calls"] = sum(1 for s in snf if not s[1])
        out["intlinalg.snf_in_nnz"] = sum(s[2] for s in snf)
        out["intlinalg.snf_max_cells"] = max((s[3] for s in snf), default=0)
        out["intlinalg.matrices_built"] = self.matrices_built
        out["trace.wall_s"] = wall
        out["trace.unattributed_s"] = wall - sum(
            out[f"{mod}.self_s"] for mod in LAYERS
        )
        return out


def main(out_path: str, argv: list) -> int:
    import tottower.cli

    rec = Recorder()
    rec.install()
    start = time.perf_counter()
    code = tottower.cli.main(argv)
    wall = time.perf_counter() - start
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "exit": code,
            "metrics": rec.metrics(wall),
            "spans": rec.spans,
            "snf_inputs": rec.snf_inputs,
        }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
