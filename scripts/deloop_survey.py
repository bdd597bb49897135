"""Survey the delooping analysis across the three model families.

For each inclusion model the survey prints the uniform sphere dimension,
the complement dimension, the certified bound, and the closed-form
prediction, flagging any disagreement.  Families and the prediction per
family:

    subset    subsets of card <= r in all nonempty subsets   2r - size + 1
    delta     truncation windows of the simplex category      2n - m + 2
    subspace  dim <= r in nonzero subspaces of F_q^n          2r - n + 1
"""

import argparse
import sys

sys.path.insert(0, "src")

from tottower.deloop import (  # noqa: E402
    analyze_inclusion,
    delta_model,
    subset_model,
    subspace_model,
)

HEADER = f"{'model':<22} {'p':>4} {'cdim':>5} {'d_max':>6} {'formula':>8}"


def survey_row(label, incl, formula):
    report = analyze_inclusion(incl)
    if report.trivial_fiber:
        print(f"{label:<22} {'-':>4} {'-':>5} {'(any)':>6} {formula:>8}")
        return True
    agree = report.d_max == formula
    flag = "" if agree else "   <- disagrees"
    print(f"{label:<22} {report.uniform_sphere_dim:>4} "
          f"{report.complement_dim:>5} {report.d_max:>6} {formula:>8}{flag}")
    return agree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-size", type=int, default=5,
                        help="largest base set for the subset family")
    parser.add_argument("--max-n", type=int, default=4,
                        help="largest ambient dimension for subspaces")
    parser.add_argument("--q", type=int, default=2,
                        help="field order for the subspace family")
    args = parser.parse_args(argv)

    ok = True
    print(HEADER)
    print("-" * len(HEADER))
    for size in range(2, args.max_size + 1):
        for r in range(1, size + 1):
            ok &= survey_row(f"subset {size} {r}", subset_model(size, r),
                             2 * r - size + 1)
    for n in range(1, 4):
        for m in range(n, min(2 * n + 1, 4) + 1):
            ok &= survey_row(f"delta {n} {m}", delta_model(n, m),
                             2 * n - m + 2)
    for n in range(2, args.max_n + 1):
        for r in range(2, n):
            ok &= survey_row(f"subspace q={args.q} {n} {r}",
                             subspace_model(args.q, n, r),
                             2 * r - n + 1)
    print("-" * len(HEADER))
    print("all certified bounds match" if ok else "DISAGREEMENT FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
