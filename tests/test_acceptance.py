"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line per criterion (visible with pytest -s / on failure)."""

import inspect
import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from alphaz import analysis
from alphaz import divergences as dv
from alphaz import suites
from alphaz.states import random_density, random_reference


def _report_line(number, title, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {number} ({title}): {detail}")


@pytest.fixture(scope="module")
def limits_run():
    t0 = time.perf_counter()
    reports = suites.run_suites(["limits"], 10)
    return reports, time.perf_counter() - t0


@pytest.fixture(scope="module")
def derivative_reports():
    return suites.run_suites(["derivatives"], 10)


@pytest.fixture(scope="module")
def monotonicity_reports():
    return suites.run_suites(["monotonicity"], 10)


@pytest.fixture(scope="module")
def example1_reports():
    return suites.run_suites(["example1"], 10)


@pytest.fixture(scope="module")
def dpi_reports():
    return suites.run_suites(["dpi"], 10)


def test_criterion_1_limit_along_curves(limits_run):
    reports, elapsed = limits_run
    # the five curve families, ten full-rank pairs cycling dims 2..6
    assert [c.label for c in suites.LIMIT_CURVES] == [
        "z=1", "z=2", "z=alpha", "z=2*alpha-1", "z=exp(alpha-1)"]
    pairs = suites.seeded_pairs(10)
    assert len(pairs) == 10
    assert sorted({rho.shape[0] for rho, _, _ in pairs}) == [2, 3, 4, 5, 6]
    # tolerance 1e-3 at |alpha-1| = 1e-5 plus monotone decay, per report
    assert analysis.LIMIT_TOL == 1e-3 and analysis.LIMIT_FINAL_OFFSET == 1e-5
    ok = all(r.passed for r in reports) and len(reports) == 5 and elapsed < 10.0
    worst = max(r.max_residual for r in reports)
    _report_line(1, "limit along curves recovers relative entropy", ok,
                 f"worst residual {worst:.3e} <= 1e-3 at |alpha-1|=1e-5, "
                 f"runtime {elapsed:.1f}s < 10s")
    assert ok


def test_criterion_2_derivative_at_one(derivative_reports):
    rep = derivative_reports[0]
    assert rep.name.startswith("derivative at alpha=1")
    # central h=1e-4 scheme with 1e-3 relative and 1e-5 cross-family bounds;
    # the central stencil gives h^2 as the slope of x^3 at 0
    assert inspect.signature(analysis.fd_derivative).parameters["h"].default == 1e-4
    assert analysis.fd_derivative(lambda x: x**3, 0.0, 0.1) == \
        pytest.approx(0.01, rel=1e-12)
    assert analysis.DERIVATIVE_REL_TOL == 1e-3
    assert analysis.FAMILY_AGREEMENT_TOL == 1e-5
    ok = rep.passed
    _report_line(2, "derivative at alpha=1 equals half-variance", ok,
                 f"worst relative residual {rep.max_residual:.3e} <= 1e-3, "
                 f"families agree <= 1e-5")
    assert ok


def test_criterion_3_example1_second_derivatives(example1_reports):
    second = [r for r in example1_reports if r.name.startswith("second derivatives")]
    grid = [r for r in example1_reports if "closed form" in r.name]
    assert len(second) == 3 and suites.EXAMPLE1_PS == (0.1, 0.25, 0.4)
    assert len(grid) == 1 and suites.EXAMPLE1_GRID_TOL == 1e-10
    assert suites.EXAMPLE1_GRID_ALPHAS[0] == 0.2
    assert suites.EXAMPLE1_GRID_ALPHAS[-1] == 3.0
    ok = all(r.passed for r in second + grid)
    _report_line(3, "Example-1 curvature split", ok,
                 f"second-derivative residuals "
                 f"{max(r.max_residual for r in second):.3e} <= 1e-3, "
                 f"closed-form gap {grid[0].max_residual:.3e} <= 1e-10")
    assert ok


def test_criterion_4_z_monotonicity(monotonicity_reports):
    assert suites.MONOTONICITY_ALPHAS == (0.3, 0.6, 1.5, 2.0, 4.0)
    assert suites.MONOTONICITY_ZS == (0.5, 1.0, 2.0, 4.0, 8.0)
    assert analysis.Z_MONOTONICITY_SLACK == 1e-10
    ok = all(r.passed for r in monotonicity_reports) and len(monotonicity_reports) == 5
    worst = max(r.max_residual for r in monotonicity_reports)
    _report_line(4, "z-monotonicity", ok,
                 f"worst directional violation {worst:.3e} <= 1e-10 slack")
    assert ok


def test_criterion_5_dz_trace_vanishes(derivative_reports):
    dz = [r for r in derivative_reports if r.name.startswith("dT/dz")]
    assert len(dz) == 3 and suites.DZ_TRACE_Z0S == (0.5, 1.0, 2.0)
    assert analysis.DZ_TRACE_TOL == 1e-4
    assert analysis.DZ_TRACE_OFFSETS[-1] == 1e-4
    ok = all(r.passed for r in dz)
    worst = max(r.max_residual for r in dz)
    _report_line(5, "dT/dz vanishes toward alpha=1", ok,
                 f"worst |dT/dz| at |alpha-1|=1e-4 is {worst:.3e} <= 1e-4")
    assert ok


def test_criterion_6_classical_reduction():
    reports = suites.run_suites(["classical"], 10)
    assert suites.COMMUTING_DIMS == (2, 3, 4, 5, 6, 7, 8)
    assert suites.CLASSICAL_RENYI_TOL == 1e-10
    assert suites.CLASSICAL_KL_TOL == 1e-12
    renyi, kl = reports
    ok = renyi.passed and kl.passed
    _report_line(6, "classical reduction oracle", ok,
                 f"Renyi gap {renyi.max_residual:.3e} <= 1e-10, "
                 f"KL gap {kl.max_residual:.3e} <= 1e-12 over 20 commuting pairs")
    assert ok


def test_criterion_7_structural_invariants():
    reports = suites.run_suites(["invariants"], 10)
    by_name = {r.name.split()[0]: r for r in reports}
    assert suites.UNITARY_INVARIANCE_TOL == 1e-9
    assert suites.SCALING_TOL == 1e-10
    assert suites.SELF_DIVERGENCE_TOL == 1e-10
    ok = all(r.passed for r in reports) and len(reports) == 4
    _report_line(
        7, "structural invariants", ok,
        f"unitary {by_name['unitary'].max_residual:.3e} <= 1e-9, "
        f"scaling {by_name['reference'].max_residual:.3e} <= 1e-10, "
        f"self {by_name['self-divergence'].max_residual:.3e} <= 1e-10, "
        f"infinity tags {'exact' if by_name['infinity'].passed else 'WRONG'}")
    assert ok


def test_criterion_8_pinching_dpi(dpi_reports):
    assert suites.DPI_ALPHAS == (0.3, 0.7, 1.5, 2.0)
    assert suites.DPI_SLACK == 1e-9
    ok = all(r.passed for r in dpi_reports) and len(dpi_reports) == 4
    worst = max(r.max_residual for r in dpi_reports)
    _report_line(8, "pinching DPI", ok,
                 f"worst violation {worst:.3e} <= 1e-9 over 10 pairs")
    assert ok


def test_criterion_9_cli_verify_all():
    def run_verify(*extra):
        return subprocess.run(
            [sys.executable, "-m", "alphaz", "verify", "--suite", "all", *extra],
            capture_output=True, text=True,
        )

    t0 = time.perf_counter()
    first = run_verify()
    elapsed = time.perf_counter() - t0
    second = run_verify()
    deterministic = first.stdout == second.stdout
    perturbed = subprocess.run(
        [sys.executable, "-m", "alphaz", "verify", "--suite", "limits",
         "--seeds", "2", "--self-test-perturb"],
        capture_output=True, text=True,
    )
    ok = (first.returncode == 0 and elapsed < 60.0 and deterministic
          and perturbed.returncode == 1)
    _report_line(9, "cmd_verify --suite all", ok,
                 f"exit {first.returncode} in {elapsed:.1f}s < 60s, "
                 f"deterministic={deterministic}, perturbed exit "
                 f"{perturbed.returncode} == 1")
    assert ok
