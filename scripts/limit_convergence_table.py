#!/usr/bin/env python3
"""Print (or save) the alpha -> 1 convergence table of D(alpha, g(alpha))
toward the relative entropy for one pair and a chosen curve family.

Useful for eyeballing the linear error decay rate that the certification
suites assert in aggregate. Its slope is ~ V/2 only because every named
curve has g(1) = 1: the slope at alpha = 1 of a curve with g(1) != 1, such
as z = 2, differs from V/2 for a generic non-commuting pair.
"""

import argparse
import sys

from alphaz.analysis import NAMED_CURVES, TraceFunctional, verify_curve_limits
from alphaz.cli import _write_out
from alphaz.matrixio import SpecError
from alphaz.states import example1_pair, random_density, random_reference


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--curve", default="sandwiched", choices=sorted(NAMED_CURVES))
    parser.add_argument("--example1-p", type=float,
                        help="use the closed-form pair instead of a seeded one")
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default="-", help="CSV path, - for stdout")
    args = parser.parse_args()

    if args.example1_p is not None:
        rho, sigma = example1_pair(args.example1_p)
    else:
        rho = random_density(args.dim, args.seed)
        sigma = random_reference(args.dim, args.seed + 1)
    tf = TraceFunctional(rho, sigma)
    report = verify_curve_limits(tf, [NAMED_CURVES[args.curve]])[0]

    lines = ["alpha,z,divergence,error"]
    for row in sorted(report.rows, key=lambda r: r["alpha"]):
        lines.append(f"{row['alpha']!r},{row['z']!r},"
                     f"{row['divergence']!r},{row['error']!r}")
    try:
        _write_out(args.out, "\n".join(lines) + "\n")
    except SpecError as exc:  # an unwritable path, as the CLI reports it
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"# {report.name}: passed={report.passed} "
          f"residual_at_1e-5={report.max_residual:.3e}  ({report.notes})",
          file=sys.stderr)
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
