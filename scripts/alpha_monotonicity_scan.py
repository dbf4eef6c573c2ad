#!/usr/bin/env python3
"""Exploratory scan of divergence monotonicity in alpha at fixed z.

Monotonicity in alpha is conjectured but unproven, so this script only
counts and reports violations across seeded pairs; it never asserts.
"""

import argparse
import sys

import numpy as np

from alphaz.analysis import SweepSpec, alpha_monotonicity_violations, sweep
from alphaz.suites import seeded_pairs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=20)
    parser.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    parser.add_argument("--base-seed", type=int, default=424242)
    parser.add_argument("--alpha-points", type=int, default=40)
    parser.add_argument("--alpha-max", type=float, default=4.0)
    parser.add_argument("--zs", type=float, nargs="+",
                        default=[0.5, 1.0, 2.0, 4.0])
    parser.add_argument("--slack", type=float, default=1e-10)
    args = parser.parse_args()

    try:
        if args.pairs < 1:
            raise ValueError(f"--pairs must be >= 1, got {args.pairs}")
        if args.alpha_points < 2:
            raise ValueError(f"--alpha-points must be >= 2, got {args.alpha_points}")
        alphas = tuple(np.linspace(0.05, args.alpha_max, args.alpha_points))
        total_violations = 0
        total_steps = 0
        pairs = seeded_pairs(args.pairs, args.base_seed, tuple(args.dims))
        for k, (rho, sigma, _) in enumerate(pairs):
            dim = rho.shape[0]
            grid, zs, values, _ = sweep(rho, sigma, SweepSpec(alphas=alphas, zs=tuple(args.zs)))
            violations = alpha_monotonicity_violations(grid, zs, values, slack=args.slack)
            total_violations += violations
            total_steps += (len(alphas) - 1) * len(args.zs)
            flag = "" if violations == 0 else f"  <-- {violations} violations"
            print(f"pair {k:3d} (dim {dim}): {violations} decreasing steps{flag}")
        print(f"\n{total_violations} violations out of {total_steps} alpha-steps "
              f"across {args.pairs} pairs (slack {args.slack:g})")
        print("reported only; monotonicity in alpha stays a conjecture")
    except ValueError as exc:  # a bad count, dim, grid or z: malformed input, as in the CLI
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
