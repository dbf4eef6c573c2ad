"""Command-line front end: single-point evaluation, grid sweeps to CSV,
matrix dumps, and the certification suites.

Exit codes: 0 success (all checks passed for `verify`), 1 verification
failure, 2 malformed input (matrix entries, or a reference operator's
eigenvalues, beyond double range included) or I/O error, 3 domain error
(z = 0, a non-finite alpha or z, alpha or z beyond double range: spectral
powers or a trace sum that overflow, or a trace sum that underflows to 0,
p out of range, unsupported support configuration), 4 internal numerical
error (a dual-route mismatch, a collapsed trace, an eigensolver that did
not converge).

A pair is either --example1 P or both --rho and --sigma; giving --example1
with either of the others is malformed input. A negative value such as
-1e-3, -inf or -1.5:3:10 may follow its option as usual (`--alpha-grid
-1.5:3:10`, also after an abbreviated option such as `--alpha-g`) or be
joined to it (`--alpha-grid=-1.5:3:10`).
`sweep` writes its CSV lines straight from `analysis.sweep`'s arrays.
It evaluates at most 100,000 points (alpha points times z points, or the
alpha points of a curve): the kernel pass holds every point's row and
values at once, and the G of up to 4,096 points, 4 KB a point at d = 16. A
larger grid is malformed input, rejected before any grid is built.
`verify` takes at most 10,000 seeds: every seeded pair, and every row of the
run's one kernel pass, is built before the first report, and a run costs
about 1.6-2 ms of CPU, 0.06 MB of memory and 3 KB of JSON per seed
(measured from 10 to 10,000 seeds, one BLAS thread), so the limit keeps a
run to about 20 s and 0.7 GB. A larger count is malformed input, rejected before any
pair is built.
`main` builds the argparse parser on its first call and reuses it, so
in-process callers pay for it once.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import divergences as dv
from .analysis import NAMED_CURVES, CurveSpec, SweepSpec, sweep
from .linalg import DomainError, NotPSDError
from .matrixio import SpecError, matrix_to_json, resolve_state_spec
from .suites import SUITE_NAMES, run_suites

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_INTERNAL = 4

# the most (alpha, z) points one `sweep` evaluates: the kernel pass holds
# every point's row and values at once
_SWEEP_MAX_POINTS = 100_000

# the most seeds one `verify` takes: every seeded pair and kernel row is built
# before the first report, at about 0.06 MB a seed
_VERIFY_MAX_SEEDS = 10_000


def _fmt(x: float) -> str:
    """12 significant digits, lowercase inf/nan, no locale."""
    return format(float(x), ".12g")


def _fmt_divergence(x: float) -> str:
    """Divergence values below the pipeline noise floor print as 0."""
    return "0" if abs(x) <= 1e-12 else _fmt(x)


def _parse_grid(text: str) -> tuple[float, float, int]:
    """lo, hi and the point count n >= 1 of a lo:hi:n grid."""
    parts = text.split(":")
    if len(parts) != 3:
        raise SpecError(f"grid must be lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise SpecError(f"bad grid {text!r}: {exc}") from exc
    if n < 1:
        raise SpecError(f"grid needs at least one point, got {n}")
    return lo, hi, n


def _grid_points(grid: tuple[float, float, int]) -> tuple[float, ...]:
    return tuple(float(v) for v in np.linspace(*grid))


def _parse_curve(text: str) -> CurveSpec:
    parts = text.split(":")
    name = parts[0]
    if name in NAMED_CURVES and len(parts) == 1:
        return NAMED_CURVES[name]
    try:
        if name == "constant" and len(parts) == 2:
            return CurveSpec.constant(float(parts[1]))
        if name == "affine" and len(parts) == 3:
            return CurveSpec.affine(float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise SpecError(f"bad curve parameters in {text!r}: {exc}") from exc
    known = sorted(NAMED_CURVES) + ["constant:Z0", "affine:A:B"]
    raise SpecError(f"unknown curve {text!r}; known: {', '.join(known)}")


def _write_out(path: str, text: str) -> None:
    """Write text to the file at path, or to stdout for "-"."""
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc}") from exc


def _load_pair(args) -> tuple[np.ndarray, np.ndarray]:
    if args.example1 is not None:
        if args.rho is not None or args.sigma is not None:
            raise SpecError("--example1 cannot be combined with --rho or --sigma")
        raw = args.example1
        p = float(raw[2:] if raw.startswith("p=") else raw)
        from .states import example1_pair

        return example1_pair(p)
    if args.rho is None or args.sigma is None:
        raise SpecError("either --example1 or both --rho and --sigma are required")
    return (resolve_state_spec(args.rho, "rho"),
            resolve_state_spec(args.sigma, "sigma"))


def cmd_compute(args) -> int:
    if args.z is not None and args.family != "alphaz":
        raise SpecError("--z applies only to --family alphaz")
    rho, sigma = _load_pair(args)
    alpha = args.alpha
    if args.family == "alphaz":
        if args.z is None:
            raise SpecError("--z is required for the alphaz family")
        value = dv.alpha_z_divergence(rho, sigma, alpha, args.z)
    elif args.family == "petz":
        value = dv.petz_divergence(rho, sigma, alpha)
    elif args.family == "sandwiched":
        value = dv.sandwiched_divergence(rho, sigma, alpha)
    else:
        value = dv.mosonyi_ogawa_divergence(rho, sigma, alpha)
    if not value.is_finite:
        print(f"inf {value.infinity_reason}")
    else:
        print(_fmt_divergence(value.in_bits() if args.bits else value.value))
    return EXIT_OK


def cmd_sweep(args) -> int:
    rho, sigma = _load_pair(args)
    alpha_grid = _parse_grid(args.alpha_grid)
    if args.z_grid.startswith("curve:"):
        curve, z_grid = _parse_curve(args.z_grid[len("curve:"):]), None
        points = alpha_grid[2]
    else:
        curve, z_grid = None, _parse_grid(args.z_grid)
        points = alpha_grid[2] * z_grid[2]
    if points > _SWEEP_MAX_POINTS:  # before any grid is built
        raise SpecError(f"sweep of {points} points exceeds the limit of "
                        f"{_SWEEP_MAX_POINTS} points")
    spec = SweepSpec(alphas=_grid_points(alpha_grid), curve=curve,
                     zs=None if z_grid is None else _grid_points(z_grid))
    lines = ["alpha,z,divergence_nats,trace_functional,finite"]
    for a, z, d, t in zip(*(x.tolist() for x in sweep(rho, sigma, spec))):
        finite = math.isfinite(d)
        lines.append(f"{_fmt(a)},{_fmt(z)},{_fmt_divergence(d) if finite else 'inf'},"
                     f"{_fmt(t)},{'true' if finite else 'false'}")
    _write_out(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_dump(args) -> int:
    matrix = resolve_state_spec(args.state, args.role)
    _write_out(args.out, json.dumps(matrix_to_json(matrix)) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.json == "-":
        raise SpecError("--json needs a file path, not -: stdout carries the report")
    if args.seeds > _VERIFY_MAX_SEEDS:  # before any pair is built
        raise SpecError(f"{args.seeds} seeds exceed the limit of {_VERIFY_MAX_SEEDS} seeds")
    bias = 0.01 if args.self_test_perturb else 0.0
    reports = run_suites([args.suite], n_seeds=args.seeds, bias=bias)
    width = max(len(r.name) for r in reports)
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status}  {rep.name:<{width}}  residual={rep.max_residual:.3e}")
    failures = [r for r in reports if not r.passed]
    print(f"{len(reports) - len(failures)}/{len(reports)} checks passed "
          f"(suite={args.suite}, seeds={args.seeds})")
    if args.json is not None:
        doc = {
            "suite": args.suite,
            "seeds": args.seeds,
            "passed": not failures,
            "checks": [r.to_dict() for r in reports],
        }
        # one write: json.dump would make thousands of small ones
        _write_out(args.json, json.dumps(doc, indent=2, default=float) + "\n")
    if failures:
        first = failures[0]
        print(f"first failure: {first.name} residual={first.max_residual:.6e}",
              file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


_NEGATIVE_VALUE = re.compile(r"-(?:[0-9.]|inf|nan)", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads a token such as -1e-3, -inf or -1.5:3:10
    as a value: argparse itself reads every token that starts with "-" and
    is not a plain negative number such as -0.5 as an option. This parser has
    no option that starts with "-" and a digit, a point or inf/nan. Its
    subparsers are of its class."""

    def _parse_optional(self, arg_string):
        if _NEGATIVE_VALUE.match(arg_string):
            return None  # a positional token, which an option may take as its value
        return super()._parse_optional(arg_string)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="alphaz",
        description="alpha-z quantum Renyi divergence numerics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    spec_help = ("state spec: a matrix JSON path, or inline JSON like "
                 '\'{"generator": "density", "seed": 7, "dim": 4}\' or '
                 '\'{"example1": {"p": 0.25}}\'')

    p_compute = sub.add_parser("compute", help="evaluate one divergence value")
    p_compute.add_argument("--rho", help=spec_help)
    p_compute.add_argument("--sigma", help=spec_help)
    p_compute.add_argument("--example1", metavar="P",
                           help="use the rank-1-vs-diagonal pair with this p "
                                "(accepts 0.25 or p=0.25)")
    p_compute.add_argument("--alpha", type=float, required=True)
    p_compute.add_argument("--z", type=float,
                           help="required for --family alphaz, rejected otherwise")
    p_compute.add_argument("--family", default="alphaz",
                           choices=["alphaz", "petz", "sandwiched", "mo"])
    p_compute.add_argument("--bits", action="store_true",
                           help="report in bits instead of nats")
    p_compute.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="write a divergence grid as CSV")
    p_sweep.add_argument("--rho", help=spec_help)
    p_sweep.add_argument("--sigma", help=spec_help)
    p_sweep.add_argument("--example1", metavar="P", help="pair shortcut as in compute")
    p_sweep.add_argument("--alpha-grid", required=True, metavar="LO:HI:N")
    p_sweep.add_argument("--z-grid", required=True, metavar="LO:HI:N|curve:NAME",
                         help="fixed z grid, or curve:sandwiched / curve:petz / "
                              "curve:exponential / curve:constant:Z0 / curve:affine:A:B")
    p_sweep.add_argument("--out", required=True, help="output CSV path, - for stdout")
    p_sweep.set_defaults(func=cmd_sweep)

    p_dump = sub.add_parser("dump", help="write a state-spec matrix as JSON")
    p_dump.add_argument("--state", required=True, help=spec_help)
    p_dump.add_argument("--role", default="rho", choices=["rho", "sigma"])
    p_dump.add_argument("--out", required=True, help="output JSON path, - for stdout")
    p_dump.set_defaults(func=cmd_dump)

    p_verify = sub.add_parser("verify", help="run the certification suites")
    p_verify.add_argument("--suite", default="all", choices=list(SUITE_NAMES))
    p_verify.add_argument("--seeds", type=int, default=10,
                          help="number of seeded test pairs per check")
    p_verify.add_argument("--json", help="also write a machine-readable summary here")
    p_verify.add_argument("--self-test-perturb", action="store_true",
                          help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parsing does not change it, so
    in-process callers of `main` share one."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, NotPSDError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    # before ValueError, which LinAlgError subclasses
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (SpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
