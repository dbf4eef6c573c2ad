#!/usr/bin/env python3
"""Print one SHA-256 per CLI command over everything the command emits.

Runs a fixed list of `alphaz` commands in-process through `alphaz.cli.main`
and hashes, per command, its exit code, stdout, stderr, the warnings it
raised (by category and message, without the file path of the code that
raised them) and every file it wrote. Each output line is the digest and
the command. Two checkouts give the same outputs, byte for byte, iff their
listings are equal:

    PYTHONPATH=src python scripts/output_digest.py > digests.txt
    diff other-digests.txt digests.txt

The list covers `verify` for every suite and `all` at 1, 3 and 10 seeds
with `--json`, `sweep` grids and curves on full-rank, example1 and
rank-deficient pairs (exit-3 cases included), `compute` for the four
families with and without `--bits`, `dump`, and matrix files with a
valid and a mistyped "dim". Appended after those: the negative sweeps again
with each value after its option as usual (not joined by "="), `compute` at
a negative alpha and z in scientific notation, `--example1` beside an
explicit pair, two sweeps of a closed point whose trace leaves double
range, all-integer-z sweeps (the product route) of a d = 16 pair and of a
dominating rank-deficient pair, integer-z `compute` points whose spectral
powers or trace sum overflow (exit 3), `dump` to stdout, `verify --json`
to an unwritable path and to `-` (exit 2), and two sweeps of a dominating
rank-deficient pair whose grid has an undefined point and an underflowing
one, in both orders (exit 3, the undefined point named), a sweep of 10^11
points (exit 2, beyond the point limit), and `compute` on seeded pair 4 at
(alpha, z) = (3, 0.05) and (3, -0.5), where the SVD route's G is graded with
its small rows or columns first. Last come `compute` points of a
near-orthogonal pair, whose cosines between the supports square to 8e-13,
below the cutoff, while rho's weight on supp sigma exceeds rho's zero
threshold: alpha-z (z = 1), Petz and piecewise at alpha = 0.5 and 2. In a
command, {in} is a directory of input matrix files the script writes first,
and {out} a fresh empty directory.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

from alphaz import cli
from alphaz.matrixio import matrix_to_json
from alphaz.suites import SUITE_NAMES


def _near_orthogonal() -> tuple[np.ndarray, np.ndarray]:
    """rho, the even mixture of (d, 0, c, 0) and (0, d, 0, c) with
    d^2 = 8e-13 and c^2 = 1 - d^2, and sigma = diag(1/2, 1/2, 0, 0)."""
    d, c = np.sqrt(0.8e-12), np.sqrt(1.0 - 0.8e-12)
    v = np.array([[d, 0.0, c, 0.0], [0.0, d, 0.0, c]])
    return v.T @ v / 2.0, np.diag([0.5, 0.5, 0.0, 0.0])


# matrix files written into {in}: a valid 1 x 1 density and three mistyped dims
INPUTS = {
    "one.json": '{"dim": 1, "entries": [[[1, 0]]]}',
    "dim-true.json": '{"dim": true, "entries": [[[1, 0]]]}',
    "dim-fraction.json": '{"dim": 1.9, "entries": [[[1, 0]]]}',
    "dim-string.json": '{"dim": "1", "entries": [[[1, 0]]]}',
}
# the near-orthogonal pair's two operators, also written into {in}
NEAR_ORTHOGONAL = {f"near-orthogonal-{role}.json": json.dumps(matrix_to_json(a))
                   for role, a in zip(("rho", "sigma"), _near_orthogonal())}

D4 = ("--rho '{\"generator\": \"density\", \"seed\": 3, \"dim\": 4}' "
      "--sigma '{\"generator\": \"reference\", \"seed\": 4, \"dim\": 4}'")
D16 = ("--rho '{\"generator\": \"density\", \"seed\": 11, \"dim\": 16}' "
       "--sigma '{\"generator\": \"reference\", \"seed\": 12, \"dim\": 16}'")


def _support_pair(branch: str) -> str:
    spec = '{"generator": "support_pair", "seed": 29, "dim": 5, "rank": 3, "branch": "%s"}'
    return f"--rho '{spec % branch}' --sigma '{spec % branch}'"


def commands() -> list[tuple[dict, str]]:
    """(environment overrides, command line) for every command, in order."""
    out = []
    for suite in SUITE_NAMES:
        for seeds in (1, 3, 10):
            out.append(({}, f"verify --suite {suite} --seeds {seeds} --json {{out}}/v.json"))
    out.append(({"RENYI_EPS": "1e-8"}, "verify --suite all --seeds 10 --json {out}/v.json"))
    out.append(({}, "verify --suite limits --seeds 3 --self-test-perturb"))

    grids = [
        f"{D16} --alpha-grid 0.2:3:15 --z-grid 0.5:4:8",
        f"{D4} --alpha-grid=-1.5:3:10 --z-grid=-2:3:12",
        "--example1 0.25 --alpha-grid 0.2:3:15 --z-grid 0.5:3:6",
        "--example1 0.25 --alpha-grid 0.2:3:15 --z-grid=-2:3:12",
        "--example1 0.25 --alpha-grid 0.2:3:15 --z-grid curve:sandwiched",
        "--example1 0.25 --alpha-grid 0.2:3:15 --z-grid curve:exponential",
        f"{D4} --alpha-grid 0.2:3:15 --z-grid curve:affine:2:-1",
        "--example1 0.25 --alpha-grid 2:1e308:2 --z-grid 1:2:2",
        "--example1 0.25 --alpha-grid 0.5:0.6:2 --z-grid 1e-300:1e-300:1",
    ]
    for branch in ("dominating", "violating", "orthogonal"):
        grids.append(f"{_support_pair(branch)} --alpha-grid 0.1:3:8 --z-grid 0.25:3:6")
        grids.append(f"{_support_pair(branch)} --alpha-grid=-1.5:-0.5:3 --z-grid=-2:-1:2")
    out += [({}, f"sweep {grid} --out {{out}}/s.csv") for grid in grids]

    for pair in ("--example1 0.25", D4):
        for family in ("alphaz", "petz", "sandwiched", "mo"):
            zs = ("1", "2", "-1") if family == "alphaz" else (None,)
            for alpha in ("-0.5", "0.5", "1", "1.0000000000001", "2"):
                for z in zs:
                    point = f"--alpha {alpha}" + ("" if z is None else f" --z {z}")
                    for bits in ("", " --bits"):
                        out.append(({}, f"compute {pair} --family {family} {point}{bits}"))

    out.append(({}, "dump --state '{\"generator\": \"reference\", \"seed\": 7, \"dim\": 4, "
                    "\"full_rank\": false, \"rank\": 2}' --role sigma --out {out}/m.json"))
    for name in INPUTS:
        out.append(({}, f"compute --rho {{in}}/{name} --sigma {{in}}/{name} --alpha 2 --z 1"))

    # negative values in the usual form, which argparse once read as
    # options: the twins of the "=" sweeps above, then two compute points
    for grid in grids:
        if "=" in grid:
            twin = grid.replace("--alpha-grid=", "--alpha-grid ").replace("--z-grid=", "--z-grid ")
            out.append(({}, f"sweep {twin} --out {{out}}/s.csv"))
    out.append(({}, f"compute {D4} --alpha -1e-3 --z 1"))
    out.append(({}, f"compute {D4} --alpha 2 --z -1e-1"))
    # --example1 with an explicit pair, which once ignored the pair
    out.append(({}, f"compute --example1 0.25 {D4} --alpha 2 --z 1"))
    # closed points whose trace leaves double range: alpha = 1, where the
    # sum underflows, and alpha > 1 without dominance, where rho's powers
    # overflow; the divergence needs no trace there, which prints as nan
    rho = '{"generator": "density", "seed": 5, "dim": 3}'
    for sigma, grid in (('{"generator": "density", "seed": 6, "dim": 3}',
                         "--alpha-grid 1:1:1 --z-grid 1e-300:1e-300:1"),
                        ('{"generator": "support_pair", "seed": 3, "dim": 3, "rank": 2, '
                         '"branch": "violating"}', "--alpha-grid 1e300:1e300:1 --z-grid -1:-1:1")):
        out.append(({}, f"sweep --rho '{rho}' --sigma '{sigma}' {grid} --out -"))
    # z = 1..16 on dominated pairs: the product route, and at the
    # extremes the SVD route's range decision
    for pair in (D16, _support_pair("dominating")):
        out.append(({}, f"sweep {pair} --alpha-grid 0.2:3:15 --z-grid 1:16:16 --out -"))
    for alpha, z in (("1e300", "2"), ("600", "1"), ("3000", "16")):
        out.append(({}, f"compute --example1 0.25 --alpha {alpha} --z {z}"))
    out.append(({}, "dump --state '{\"generator\": \"reference\", \"seed\": 7, \"dim\": 4, "
                    "\"full_rank\": false, \"rank\": 2}' --role sigma --out -"))
    # a fixed unwritable path, so that the message is the same on each run
    for path in ("/dev/null/v.json", "-"):
        out.append(({}, f"verify --suite example1 --seeds 1 --json {path}"))
    for grid in ("--z-grid=-1:1e-300:2", "--z-grid 1e-300:-1:2"):
        out.append(({}, f"sweep {_support_pair('dominating')} --alpha-grid 0.5:0.5:1 {grid} "
                        "--out {out}/s.csv"))
    # a sweep beyond the CLI's point limit, rejected before any grid is built
    out.append(({}, "sweep --example1 0.25 --alpha-grid 0.5:2:100000000000 --z-grid 1:1:1 "
                    "--out -"))
    # seeded pair 4 of the suites, where G's small rows (alpha > 1, z > 0) or
    # small columns (z < 0) come first in sigma's and rho's spectral order
    pair4 = ("--rho '{\"generator\": \"density\", \"seed\": 20240819, \"dim\": 6}' "
             "--sigma '{\"generator\": \"reference\", \"seed\": 20240820, \"dim\": 6}'")
    for z in ("0.05", "-0.5"):
        out.append(({}, f"compute {pair4} --alpha 3 --z {z}"))
    # a verify run beyond the CLI's seed limit, rejected before any pair is built
    out.append(({}, "verify --suite all --seeds 1000000000"))
    # supports whose cosines all fall below the cutoff are orthogonal, even
    # where rho's weight on supp sigma does not count as zero
    near = "--rho {in}/near-orthogonal-rho.json --sigma {in}/near-orthogonal-sigma.json"
    for family, z in (("alphaz", " --z 1"), ("petz", ""), ("mo", "")):
        for alpha in ("0.5", "2"):
            out.append(({}, f"compute {near} --family {family} --alpha {alpha}{z}"))
    return out


def digest(argv: list[str], out_dir: Path) -> str:
    """SHA-256 of one in-process run: exit code, stdout, stderr, warnings
    and the files left in out_dir."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
    record = {
        "exit": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "files": {p.name: p.read_bytes().hex() for p in sorted(out_dir.iterdir())},
    }
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        inputs = Path(tmp, "in")
        inputs.mkdir()
        for name, text in {**INPUTS, **NEAR_ORTHOGONAL}.items():
            (inputs / name).write_text(text + "\n")
        for i, (env, line) in enumerate(commands()):
            out_dir = Path(tmp, f"out{i}")
            out_dir.mkdir()
            argv = shlex.split(line.replace("{in}", str(inputs)).replace("{out}", str(out_dir)))
            with mock.patch.dict(os.environ, env):
                value = digest(argv, out_dir)
            prefix = "".join(f"{key}={val} " for key, val in env.items())
            print(f"{value}  {prefix}{line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
