"""Walk one cosimplicial object through the whole pipeline.

Builds the requested object, prints the homology of every tower stage,
checks each adjacent fiber against the conormalized piece it must equal,
and prints every page of the filtration spectral sequence next to the
levelwise-homology description of its second page.
"""

import argparse
import sys

sys.path.insert(0, "src")
# the two stock objects are built by the test references
sys.path.insert(0, "tests")

from constructions_reference import cech_object, constant_object  # noqa: E402
from tottower.abelian import format_group  # noqa: E402
from tottower.chains import ChainComplexInt  # noqa: E402
from tottower.cosimplicial import tot_n, tower_fiber  # noqa: E402
from tottower.spectral import (  # noqa: E402
    e2_from_level_homology,
    spectral_sequence,
)


def table(groups) -> str:
    live = {d: g for d, g in sorted(groups.items()) if not g.is_trivial}
    if not live:
        return "0"
    return ", ".join(f"H_{d} = {format_group(g)}" for d, g in live.items())


def build(args):
    if args.object == "cech":
        return cech_object(args.points, args.truncation)
    return constant_object(ChainComplexInt(0, (1,), ()), args.truncation)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--object", choices=("cech", "constant"),
                        default="cech")
    parser.add_argument("--points", type=int, default=2,
                        help="point count for the cech object")
    parser.add_argument("--truncation", type=int, default=2)
    args = parser.parse_args(argv)

    x = build(args)
    m = x.truncation
    print(f"object: {args.object}, truncation {m}, "
          f"level ranks {[sum(lv.ranks) for lv in x.levels]}")

    print("\ntower stages:")
    for n in range(m + 1):
        print(f"  stage {n}: {table(tot_n(x, n).homology_all())}")

    print("\nadjacent fibers against conormalized pieces:")
    for n in range(1, m + 1):
        fib = tower_fiber(x, n - 1, n)
        fib_h = {d: g for d, g in fib.homology_all().items()
                 if not g.is_trivial}
        piece = x.conormalization.pieces[n]
        piece_h = {d - n: g for d, g in piece.homology_all().items()
                   if not g.is_trivial}
        verdict = "agrees" if fib_h == piece_h else "DISAGREES"
        print(f"  fiber {n - 1} <- {n}: {table(fib.homology_all())}"
              f"  [{verdict}]")

    result = spectral_sequence(x)
    print("\nspectral sequence pages (spots as (s, t)):")
    for r in range(1, result.r_max + 1):
        page = result.page(r)
        spots = ", ".join(f"({s},{t}) = {format_group(g)}"
                          for (s, t), g in page.entries) or "empty"
        print(f"  page {r}: {spots}")
    oracle = e2_from_level_homology(x)
    agrees = dict(result.page(2).entries) == oracle
    print(f"\npage 2 vs levelwise homology: "
          f"{'agrees' if agrees else 'DISAGREES'}")
    limit = ", ".join(f"({s},{t}) = {format_group(g)}"
                      for (s, t), g in result.e_infinity) or "empty"
    print(f"stable page = associated graded of the limit: {limit}")
    return 0 if agrees else 1


if __name__ == "__main__":
    sys.exit(main())
