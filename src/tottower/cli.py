"""Command-line surface: every computation as a deterministic JSON report.

Subcommands map one-to-one onto the library layers: `homology` for a
single complex, `poset` for order-complex analysis, `deloop` for
suspension bounds, `cover` for the cover theorem checks, `tot` for the
totalization tower, `ss` for the filtration spectral sequence.

Reports are emitted with sorted keys and no timestamps, so identical
inputs give byte-identical output.  Every report carries a "weakenings"
list naming the homology-level proxies it relies on.  Exit codes: 0
success, 2 input error, 3 internal invariant violation, 4 mathematical
precondition failure.

Each subcommand imports the layers it uses in its own body, so a run
loads only those modules: `--version`, `--help` and usage errors load
none, and `tot` and `ss` never load the simplicial and poset layers.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import stat
import sys

from . import __version__
from .errors import InputError, InvariantError, PreconditionError
from .schema import checked, field, list_of

__all__ = ["build_parser", "main"]

STABLE_MODEL_DISCLAIMER = (
    "fiber identifications compare integral homology against the shifted "
    "stripe complex; no loop-space structure is modeled"
)


# -- plumbing -----------------------------------------------------------------

def _load_json(path: str, decoder=None):
    # A regular file is mapped and decoded in one step, so its bytes are
    # never copied into a bytes object; a pipe or an empty file, which
    # cannot be mapped, is read whole.  Line ends are not translated: JSON
    # reads "\r" as white space, so only error offsets can differ.
    # decoder is a json.JSONDecoder class; None is the plain one.
    import mmap

    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size:
                with mmap.mmap(fh.fileno(), 0,
                               access=mmap.ACCESS_READ) as mapped:
                    text = str(mapped, "utf-8")
            else:
                text = str(fh.read(), "utf-8")
        return json.loads(text, cls=decoder)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}")
    except ValueError as exc:  # an integer past sys.get_int_max_str_digits()
        raise InputError(f"{path} holds a number too long to read: {exc}")
    except RecursionError:
        raise InputError(f"{path} is nested too deeply to read")


def _emit(report: dict, output: str | None):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output is None:
        try:
            sys.stdout.write(text)
            sys.stdout.flush()
        except OSError as exc:
            # The report left in the buffer would fail again when the
            # interpreter flushes stdout at exit; send it to the null device.
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
            raise InputError(f"cannot write the report: {exc}")
        return
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {output}: {exc}")


def _group_table(groups: dict) -> dict:
    """Degree -> group string, nontrivial entries only, string keys."""
    from .abelian import format_group

    return {
        str(d): format_group(g)
        for d, g in sorted(groups.items())
        if not g.is_trivial
    }


# -- homology -----------------------------------------------------------------

def cmd_homology(args) -> dict:
    from .simplicial import (complex_from_data, euler_characteristic,
                             homology_from_reduced, reduced_homology)

    space = complex_from_data(_load_json(args.file))
    reduced = reduced_homology(space)
    return {
        "euler": euler_characteristic(space),
        "homology": _group_table(homology_from_reduced(reduced)),
        "reduced": _group_table(reduced),
        "weakenings": [],
    }


# -- poset --------------------------------------------------------------------

def _parse_assignments(tokens, keys) -> dict:
    out = {}
    for tok in tokens:
        name, eq, value = tok.partition("=")
        if not eq or name not in keys:
            raise InputError(
                f"expected {'/'.join(keys)} assignments, got {tok!r}"
            )
        try:
            out[name] = int(value)
        except ValueError:
            raise InputError(f"{name} must be an integer, got {value!r}")
    if set(out) != set(keys):
        raise InputError(f"need all of {', '.join(keys)}")
    return out


def _poset_from_args(args):
    from .posets import poset_from_relation, subset_poset, subspace_poset
    from .simplicial import label_from_data

    given = [
        args.subset_size is not None,
        args.subspace is not None,
        args.file is not None,
    ]
    if sum(given) != 1:
        raise InputError(
            "give exactly one of --subset-size, --subspace, or a file"
        )
    if args.subset_size is not None:
        return subset_poset(
            range(args.subset_size),
            min_card=args.min_card,
            max_card=args.max_card,
        )
    if args.subspace is not None:
        opts = _parse_assignments(args.subspace, ("q", "n"))
        max_dim = args.max_dim if args.max_dim is not None else opts["n"]
        return subspace_poset(opts["q"], opts["n"], max_dim)
    data = _load_json(args.file)
    raw_elements = checked(field(data, "elements", "poset"), list,
                           "'elements' must be a list of labels")
    bad_leq = "'leq' must be a list of [lower, upper] pairs"
    raw_leq = list_of(data.get("leq", []), list, bad_leq)
    if any(len(pair) != 2 for pair in raw_leq):
        raise InputError(bad_leq)
    elements = [label_from_data(e) for e in raw_elements]
    pairs = [(label_from_data(a), label_from_data(b)) for a, b in raw_leq]
    return poset_from_relation(elements, pairs=pairs)


def cmd_poset(args) -> dict:
    from .posets import order_complex, poset_dimension
    from .simplicial import (HOMOLOGY_ONLY_DISCLAIMER, euler_characteristic,
                             reduced_homology, wedge_signature_from_homology)

    p = _poset_from_args(args)
    if args.action == "dim":
        return {"dim": poset_dimension(p), "weakenings": []}
    k = order_complex(p)
    if args.action == "homology":
        return {
            "euler": euler_characteristic(k),
            "reduced": _group_table(reduced_homology(k)),
            "weakenings": [],
        }
    groups = reduced_homology(k)
    sig = wedge_signature_from_homology(groups)
    if sig is None:
        return {
            "free": False,
            "reduced": _group_table(groups),
            "weakenings": [HOMOLOGY_ONLY_DISCLAIMER],
        }
    return {
        "degree": sig.sphere_dim,
        "rank": sig.count,
        "free": True,
        "weakenings": [HOMOLOGY_ONLY_DISCLAIMER],
    }


# -- deloop -------------------------------------------------------------------

def cmd_deloop(args) -> dict:
    from .deloop import (analyze_inclusion, delta_model, subset_model,
                         subspace_model, tot_truncation_bound)

    if args.tot is not None:
        n, m = args.tot
        bound = tot_truncation_bound(n, m)
        report = {"n": n, "m": m, "valid": bound is not None,
                  "weakenings": []}
        if bound is not None:
            report["bound"] = bound
        return report
    if args.subset is not None:
        incl = subset_model(*args.subset)
    elif args.subspace is not None:
        incl = subspace_model(*args.subspace)
    else:
        incl = delta_model(*args.delta)
    return analyze_inclusion(incl).to_data()


# -- cover --------------------------------------------------------------------

def cmd_cover(args) -> dict:
    from .cover import cover_from_subcomplexes, verify_cover_theorem
    from .simplicial import (complex_from_facets, facets_from_data,
                             label_from_data)

    data = _load_json(args.file)
    # piece entries index the facet list as written in the file
    facets, basepoint = facets_from_data(field(data, "complex", "cover"))
    space = complex_from_facets(facets, basepoint)
    bad_pieces = "'pieces' must be a list of lists of facet indices"
    piece_facets = []
    for indices in checked(field(data, "pieces", "cover"), list, bad_pieces):
        for i in list_of(indices, int, bad_pieces):
            if not 0 <= i < len(facets):
                raise InputError(f"facet index {i} out of range")
        piece_facets.append([facets[i] for i in indices])
    if "basepoint" in data:
        basepoint = label_from_data(data["basepoint"])
    if basepoint is None:
        raise InputError("a cover needs a basepoint, in the cover or in "
                         "its complex")
    cov = cover_from_subcomplexes(space, piece_facets, basepoint)
    return verify_cover_theorem(cov, args.r).to_data()


# -- tot ----------------------------------------------------------------------

def _load_cosimplicial(path: str):
    from .cosimplicial import (CosimplicialDecoder, cosimplicial_from_data,
                               validate_cosimplicial)

    x = cosimplicial_from_data(_load_json(path, CosimplicialDecoder))
    ok, violations = validate_cosimplicial(x)
    if not ok:
        raise InvariantError(
            "cosimplicial identities fail: " + "; ".join(violations[:3])
        )
    return x


def _fiber_report(x, n: int, m: int) -> dict:
    from .cosimplicial import tower_fiber

    fib = tower_fiber(x, n, m)
    report = {
        "window": [n, m],
        "homology": _group_table(fib.homology_all()),
    }
    if m == n + 1:
        # single-stripe fiber: must be the level-m conormalized piece
        # pushed down by m degrees
        piece = _group_table(x.conormalization.pieces[m].homology_all())
        shifted = {str(int(d) - m): g for d, g in piece.items()}
        report["matches_piece"] = report["homology"] == shifted
    return report


def cmd_tot(args) -> dict:
    from .cosimplicial import tot_n

    x = _load_cosimplicial(args.file)
    if args.fiber is not None:
        n, m = args.fiber
        report = _fiber_report(x, n, m)
        report["weakenings"] = [STABLE_MODEL_DISCLAIMER]
        return report
    if args.stage is not None:
        if not 0 <= args.stage <= x.truncation:
            raise InputError("stage must lie in 0..truncation")
        return {
            "stage": args.stage,
            "homology": _group_table(tot_n(x, args.stage).homology_all()),
            "weakenings": [],
        }
    stages = {
        str(n): _group_table(tot_n(x, n).homology_all())
        for n in range(x.truncation + 1)
    }
    fibers = {
        f"{m - 1}->{m}": _fiber_report(x, m - 1, m)
        for m in range(1, x.truncation + 1)
    }
    return {
        "truncation": x.truncation,
        "stages": stages,
        "fibers": fibers,
        "weakenings": [STABLE_MODEL_DISCLAIMER],
    }


# -- ss -----------------------------------------------------------------------

def cmd_ss(args) -> dict:
    from .abelian import format_group
    from .spectral import (check_fringe_request, e2_from_level_homology,
                           fringe_filtration_check, spectral_sequence)

    x = _load_cosimplicial(args.file)
    if args.fringe is not None:
        check_fringe_request(x.truncation, args.pages, args.fringe)
    result = spectral_sequence(x, r_max=args.pages)
    data = result.to_data()
    report = {
        "truncation": data["truncation"],
        "r_max": data["r_max"],
        "pages": data["pages"],
        "e_infinity": data["e_infinity"],
        "weakenings": [],
    }
    if result.r_max >= 2:
        oracle = {
            f"({s},{t})": format_group(g)
            for (s, t), g in sorted(e2_from_level_homology(x).items())
        }
        report["e2_matches_level_homology"] = data["pages"]["2"] == oracle
    if args.fringe is not None:
        report["fringe"] = fringe_filtration_check(result, args.fringe)
    return report


# -- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tottower",
        description="exact homology reports for towers, covers, and posets",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, run):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--output", help="write the report here, not stdout")
        p.set_defaults(run=run)
        return p

    p = add("homology", "homology of a simplicial complex", cmd_homology)
    p.add_argument("file", help="complex JSON: {facets, basepoint?}")

    p = add("poset", "order-complex analysis of a poset", cmd_poset)
    p.add_argument("action", choices=("wedge-check", "dim", "homology"))
    p.add_argument("file", nargs="?",
                   help="poset JSON: {elements, leq}")
    p.add_argument("--subset-size", type=int, metavar="N",
                   help="subsets of an N-element set")
    p.add_argument("--min-card", type=int, default=1, metavar="K")
    p.add_argument("--max-card", type=int, metavar="K")
    p.add_argument("--subspace", nargs=2, metavar=("q=Q", "n=N"),
                   help="subspaces of F_q^n")
    p.add_argument("--max-dim", type=int, metavar="K")

    p = add("deloop", "suspension bounds for poset inclusions", cmd_deloop)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--tot", nargs=2, type=int, metavar=("N", "M"),
                     help="bound k = 2N - M + 2 on the fiber of "
                          "Tot_M -> Tot_N; no bound past M = 2N + 1")
    grp.add_argument("--subset", nargs=2, type=int, metavar=("SIZE", "R"),
                     help="subsets of a SIZE-set of cardinality <= R "
                          "inside all nonempty subsets")
    grp.add_argument("--subspace", nargs=3, type=int,
                     metavar=("Q", "N", "R"),
                     help="subspaces of F_Q^N of dimension <= R "
                          "inside all nonzero subspaces")
    grp.add_argument("--delta", nargs=2, type=int, metavar=("N", "M"),
                     help="truncated simplex category model")

    p = add("cover", "cover theorem checks", cmd_cover)
    p.add_argument("--r", type=int, required=True,
                   help="intersection depth to test for acyclicity")
    p.add_argument("file",
                   help="cover JSON: {complex, pieces, basepoint}; the "
                        "basepoint may sit in the complex instead")

    p = add("tot", "totalization tower of a cosimplicial object", cmd_tot)
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--fiber", nargs=2, type=int, metavar=("N", "M"),
                     help="homology of the fiber of stage M over stage N")
    grp.add_argument("--stage", type=int, metavar="N",
                     help="homology of a single stage")
    p.add_argument("file", help="cosimplicial JSON")

    p = add("ss", "filtration spectral sequence", cmd_ss)
    p.add_argument("--pages", type=int, metavar="R",
                   help="report pages 1..R (default: truncation + 2)")
    p.add_argument("--fringe", type=int, metavar="N",
                   help="audit fringe classes above this filtration")
    p.add_argument("file", help="cosimplicial JSON")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 for --version/--help
        return 2 if exc.code else 0
    # No report builds reference cycles: decoded JSON, matrices, groups
    # and records are freed by their reference counts alone.  The cyclic
    # collector would only walk every live object again and again as the
    # report grows, so it is paused for the whole report and comes back
    # in its previous state however the report ends.
    collecting = gc.isenabled()
    gc.disable()
    try:
        report = args.run(args)
        _emit(report, args.output)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return 4
    finally:
        if collecting:
            gc.enable()
    return 0
