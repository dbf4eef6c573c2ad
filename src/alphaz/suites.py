"""Seeded certification suites behind `alphaz verify` and the acceptance tests.

Every suite is deterministic: states come from the pinned-seed generators
in `states`, so a given (suite, seeds) always produces the same reports.
`run_suites` prepares the seeded pairs once per call and hands the same
`TraceFunctional`s to every suite that checks them (limits, derivatives,
monotonicity, dpi and invariants); those suites take them as their
argument. The limits, monotonicity and dT/dz checks make one kernel call
per pair for all of their items (curves, alphas, z0s) and regroup the
per-pair reports into one aggregate per item. Each pair family evaluates
in one call on the kernel's pair axis (`divergences.stacked_divergences`),
which takes pairs of any dimensions: invariants all seeded pairs, each with
its rotation, its rescaled reference and (rho, rho); classical its
commuting pairs, whose worst rows it then finds in pair order; example1
its three pairs on the alpha grid. A `verify --suite all --seeds 10` run
makes 86 `eigh` and 156 `svd` calls.
"""

from __future__ import annotations

import math

import numpy as np

from . import divergences as dv
from .analysis import (
    CheckReport,
    CurveSpec,
    TraceFunctional,
    verify_curve_limits,
    verify_derivative_at_one,
    verify_dz_trace_vanishes,
    verify_second_derivative_example1,
    verify_z_monotonicity,
    example1_closed_form,
)
from .states import commuting_pair, random_density, random_reference, random_support_pair

BASE_SEED = 20240811
PAIR_DIMS = (2, 3, 4, 5, 6)

LIMIT_CURVES = (
    CurveSpec.constant(1.0),
    CurveSpec.constant(2.0),
    CurveSpec.identity(),
    CurveSpec.affine(2.0, -1.0),
    CurveSpec.exponential(),
)

MONOTONICITY_ALPHAS = (0.3, 0.6, 1.5, 2.0, 4.0)
MONOTONICITY_ZS = (0.5, 1.0, 2.0, 4.0, 8.0)
DZ_TRACE_Z0S = (0.5, 1.0, 2.0)
DPI_ALPHAS = (0.3, 0.7, 1.5, 2.0)
CLASSICAL_ALPHAS = (0.3, 0.7, 1.5, 2.0, 3.0)
CLASSICAL_ZS = (-2.0, -0.5, 0.5, 1.0, 2.0, 10.0)  # plus z = alpha per point


def seeded_pairs(n: int, base_seed: int = BASE_SEED,
                 dims: tuple[int, ...] = PAIR_DIMS) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """n deterministic (rho, sigma) full-rank pairs cycling through dims."""
    pairs = []
    for k in range(n):
        dim = dims[k % len(dims)]
        rho = random_density(dim, base_seed + 2 * k)
        sigma = random_reference(dim, base_seed + 2 * k + 1)
        pairs.append((rho, sigma, f"pair{k}(dim={dim})"))
    return pairs


def _aggregate(name: str, reports: list[CheckReport], notes: str = "") -> CheckReport:
    worst = max(reports, key=lambda r: r.max_residual)
    return CheckReport(
        name=name,
        passed=all(r.passed for r in reports),
        max_residual=worst.max_residual,
        rows=[{"member": r.name, "passed": r.passed, "max_residual": r.max_residual}
              for r in reports],
        notes=notes or f"{len(reports)} members, worst: {worst.name}",
    )


# the seeded pairs as run_suites hands them to the suites
SeededPairs = list[tuple[TraceFunctional, str]]


def _seeded_functionals(n_seeds: int) -> SeededPairs:
    """The seeded pairs, each validated and decomposed once, with their labels."""
    return [(TraceFunctional(rho, sigma), label)
            for rho, sigma, label in seeded_pairs(n_seeds)]


def _over_pairs(tfs: SeededPairs, check) -> list[CheckReport]:
    """Run `check` once per pair and aggregate its reports item by item:
    `check(tf)` returns one report per item, the same items in the same order
    for every pair, and each aggregate's members are tagged by pair."""
    aggregates = []
    for reports in zip(*(check(tf) for tf, _ in tfs)):
        name = reports[0].name
        for rep, (_, label) in zip(reports, tfs):
            rep.name = f"{name} [{label}]"
        aggregates.append(_aggregate(name, list(reports)))
    return aggregates


def suite_limits(tfs: SeededPairs, bias: float = 0.0) -> list[CheckReport]:
    """Limit of D(a, g(a)) at a -> 1 for five curves over the seeded pairs."""
    return _over_pairs(tfs, lambda tf: verify_curve_limits(tf, LIMIT_CURVES, bias=bias))


def suite_derivatives(tfs: SeededPairs) -> list[CheckReport]:
    """Slope-at-1 checks for both families plus the dT/dz -> 0 checks."""
    return (_over_pairs(tfs, lambda tf: [verify_derivative_at_one(tf)])
            + _over_pairs(tfs, lambda tf: verify_dz_trace_vanishes(tf, DZ_TRACE_Z0S)))


def suite_monotonicity(tfs: SeededPairs) -> list[CheckReport]:
    """z-monotonicity of the divergence for each sampled alpha."""
    return _over_pairs(tfs, lambda tf: verify_z_monotonicity(tf, MONOTONICITY_ALPHAS,
                                                             MONOTONICITY_ZS))


EXAMPLE1_PS = (0.1, 0.25, 0.4)
EXAMPLE1_GRID_ALPHAS = tuple(round(0.2 + 0.2 * k, 10) for k in range(15))  # 0.2 .. 3.0
EXAMPLE1_GRID_TOL = 1e-10


def suite_example1() -> list[CheckReport]:
    """Second-derivative split at a = 1 plus closed-form/pipeline agreement
    for the rank-1-vs-diagonal pair family, whose three pairs are evaluated
    on the alpha grid in one kernel call."""
    from .states import example1_pair

    reports = [verify_second_derivative_example1(p) for p in EXAMPLE1_PS]
    rows = []
    worst = 0.0
    points = [(alpha, z) for alpha in EXAMPLE1_GRID_ALPHAS for z in (0.5, 1.0, alpha, 2.0, 5.0)]
    grid = dv.stacked_divergences([dv.prepare(*example1_pair(p)) for p in EXAMPLE1_PS],
                                  *zip(*points))
    for p, values in zip(EXAMPLE1_PS, grid.tolist()):
        for (alpha, z), value in zip(points, values):
            gap = abs(value - example1_closed_form(p, alpha, z))
            worst = max(worst, gap)
            rows.append({"p": p, "alpha": alpha, "z": z, "gap": gap})
    reports.append(CheckReport(
        name="closed form vs matrix pipeline on the alpha grid",
        passed=worst <= EXAMPLE1_GRID_TOL,
        max_residual=worst,
        rows=[r for r in rows if r["gap"] == worst][:1],
        notes=f"{len(rows)} grid points, tolerance {EXAMPLE1_GRID_TOL:g}",
    ))
    return reports


DPI_SLACK = 1e-9


def suite_dpi(tfs: SeededPairs) -> list[CheckReport]:
    """Sampled data-processing check for the piecewise divergence under
    pinching in the reference operator's eigenbasis; each pinched image is
    prepared once for all alphas, from the pair's own spectrum of sigma."""
    pairs = [(tf.pair,
              dv.prepare(tf.pair.sigma.pinch(tf.rho), tf.pair.sigma.pinch(tf.sigma)),
              label)
             for tf, label in tfs]
    reports = []
    for alpha in DPI_ALPHAS:
        worst = -math.inf
        rows = []
        for pair, pinched, label in pairs:
            before = pair.mosonyi_ogawa(alpha).value
            after = pinched.mosonyi_ogawa(alpha).value
            violation = after - before  # > 0 would break data processing
            worst = max(worst, violation)
            rows.append({"pair": label, "before": before, "after": after,
                         "violation": violation})
        reports.append(CheckReport(
            name=f"pinching DPI at alpha={alpha:g}",
            passed=worst <= DPI_SLACK,
            max_residual=max(worst, 0.0),
            rows=rows,
        ))
    return reports


CLASSICAL_RENYI_TOL = 1e-10
CLASSICAL_KL_TOL = 1e-12
COMMUTING_DIMS = (2, 3, 4, 5, 6, 7, 8)


def suite_classical(n_pairs: int = 20) -> list[CheckReport]:
    """Commuting pairs must reduce to the classical Renyi sum (z-independent)
    and the classical KL divergence. The pairs of every dimension are
    evaluated in one kernel call; the worst rows are then found in pair
    order."""
    worst_renyi = 0.0
    worst_kl = 0.0
    renyi_rows = []
    kl_rows = []
    points = [(alpha, z) for alpha in CLASSICAL_ALPHAS for z in CLASSICAL_ZS + (alpha,)]
    alphas, zs = zip(*points)
    dims = [COMMUTING_DIMS[k % len(COMMUTING_DIMS)] for k in range(n_pairs)]
    pairs, classicals = [], []
    for k, dim in enumerate(dims):
        rho, sigma, p, q = commuting_pair(dim, BASE_SEED + 1000 + k)
        pairs.append(dv.prepare(rho, sigma))
        classicals.append(dv.prepare_classical(p, q))
    values = dv.stacked_divergences(pairs, alphas, zs)
    for k, (pair, classical, dim, row) in enumerate(zip(pairs, classicals, dims, values)):
        targets = {alpha: classical.renyi(alpha).value for alpha in CLASSICAL_ALPHAS}
        gaps = np.abs(row - [targets[alpha] for alpha in alphas])
        i = int(np.argmax(gaps))  # the first worst point, in (alpha, z) order
        if gaps[i] > worst_renyi:
            worst_renyi = float(gaps[i])
            alpha, z = points[i]
            renyi_rows = [{"pair": k, "dim": dim, "alpha": alpha, "z": z,
                           "gap": worst_renyi}]
        kl_gap = abs(pair.relative_entropy().value - classical.kl().value)
        if kl_gap > worst_kl:
            worst_kl = kl_gap
            kl_rows = [{"pair": k, "dim": dim, "gap": kl_gap}]
    return [
        CheckReport(
            name="commuting reduction: alpha-z vs classical Renyi",
            passed=worst_renyi <= CLASSICAL_RENYI_TOL,
            max_residual=worst_renyi,
            rows=renyi_rows,
            notes=f"{n_pairs} pairs x {len(CLASSICAL_ALPHAS)} alphas x "
                  f"{len(CLASSICAL_ZS) + 1} zs, tolerance {CLASSICAL_RENYI_TOL:g}",
        ),
        CheckReport(
            name="commuting reduction: relative entropy vs classical KL",
            passed=worst_kl <= CLASSICAL_KL_TOL,
            max_residual=worst_kl,
            rows=kl_rows,
            notes=f"tolerance {CLASSICAL_KL_TOL:g}",
        ),
    ]


UNITARY_INVARIANCE_TOL = 1e-9
SCALING_TOL = 1e-10
SELF_DIVERGENCE_TOL = 1e-10
INVARIANT_ALPHAS = (0.3, 0.7, 1.5, 2.0, 3.0)
INVARIANT_ZS = (0.5, 1.0, 2.0)


def suite_invariants(tfs: SeededPairs) -> list[CheckReport]:
    """Structural invariants: unitary invariance, reference scaling,
    self-divergence, and the infinity reason tags."""
    from .states import random_unitary

    points = [(alpha, z) for alpha in INVARIANT_ALPHAS for z in INVARIANT_ZS + (alpha,)]
    alphas, zs = zip(*points)
    # per check: (worst residual, its row); the first pair always sets it
    worst = {"unitary": (-1.0, None), "scaling": (-1.0, None), "self": (-1.0, None)}
    scales = [0.25 + 1.5 * (k % 4) for k in range(len(tfs))]  # deterministic positive scales
    family = []
    for k, ((tf, _), c) in enumerate(zip(tfs, scales)):
        rho, sigma = tf.rho, tf.sigma
        u = random_unitary(rho.shape[0], BASE_SEED + 5000 + k)
        # the pair, its rotation, its rescaled reference and (rho, rho)
        family += [tf.pair, dv.prepare(u @ rho @ u.conj().T, u @ sigma @ u.conj().T),
                   dv.prepare(rho, c * sigma), dv.prepare(rho, rho)]
    values = dv.stacked_divergences(family, alphas, zs).reshape(len(tfs), 4, len(points))
    for (tf, label), c, (base, rotated, scaled, self_values) in zip(tfs, scales, values):
        dim = tf.rho.shape[0]
        residuals = {
            "unitary": np.abs(rotated - base),
            "scaling": np.abs(scaled - (base - math.log(c))),
            "self": np.abs(self_values),
        }
        for check, res in residuals.items():
            i = int(np.argmax(res))
            if res[i] > worst[check][0]:
                alpha, z = points[i]
                worst[check] = (float(res[i]), {"pair": label, "dim": dim, "alpha": alpha,
                                                "z": z, "residual": float(res[i])})

    def report(name: str, check: str, tol: float) -> CheckReport:
        value, row = worst[check]
        return CheckReport(name, value <= tol, value, rows=[row], notes=f"tolerance {tol:g}")

    reports = [
        report("unitary invariance", "unitary", UNITARY_INVARIANCE_TOL),
        report("reference scaling D(rho||c sigma) = D - ln c", "scaling", SCALING_TOL),
        report("self-divergence D(rho||rho) = 0", "self", SELF_DIVERGENCE_TOL),
    ]
    # infinity semantics on constructed support configurations
    rows = []
    ok = True
    for k in range(max(2, len(tfs) // 2)):
        dim = 3 + (k % 3)
        rho_v, sigma_v = random_support_pair(dim, BASE_SEED + 7000 + k,
                                             rank=dim - 1, branch="violating")
        val = dv.alpha_z_divergence(rho_v, sigma_v, 2.0, 1.0)
        good_v = (not val.is_finite
                  and val.infinity_reason == dv.INFINITY_SUPPORT)
        rho_o, sigma_o = random_support_pair(dim, BASE_SEED + 8000 + k,
                                             rank=dim - 2 if dim > 2 else 1,
                                             branch="orthogonal")
        pair_o = dv.prepare(rho_o, sigma_o)
        val_lo, val_hi = pair_o.divergence(0.5, 1.0), pair_o.divergence(2.0, 1.0)
        good_o = (not val_lo.is_finite
                  and val_lo.infinity_reason == dv.INFINITY_ORTHOGONAL
                  and not val_hi.is_finite
                  and val_hi.infinity_reason == dv.INFINITY_SUPPORT)
        ok &= good_v and good_o
        rows.append({"dim": dim, "violating_tag_ok": good_v,
                     "orthogonal_tags_ok": good_o})
    reports.append(CheckReport("infinity semantics and reason tags", ok,
                               0.0 if ok else 1.0, rows=rows))
    return reports


SUITE_NAMES = ("all", "limits", "derivatives", "monotonicity", "example1", "dpi",
               "classical", "invariants")
# the suites that check the seeded pairs
SEEDED_SUITES = ("limits", "derivatives", "monotonicity", "dpi", "invariants")


def run_suites(names, n_seeds: int = 10, bias: float = 0.0) -> list[CheckReport]:
    """Run the named suites (or all of them, in SUITE_NAMES order) on
    n_seeds >= 1 seeded pairs and return their reports. The seeded pairs are
    prepared once per call, and only when a requested suite checks them."""
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    # each runner reads tfs, prepared below once the names are checked
    runners = {
        "limits": lambda: suite_limits(tfs, bias=bias),
        "derivatives": lambda: suite_derivatives(tfs),
        "monotonicity": lambda: suite_monotonicity(tfs),
        "example1": lambda: suite_example1(),
        "dpi": lambda: suite_dpi(tfs),
        "classical": lambda: suite_classical(2 * n_seeds),
        "invariants": lambda: suite_invariants(tfs),
    }
    wanted = list(runners) if "all" in names else list(names)
    for name in wanted:
        if name not in runners:
            raise ValueError(f"unknown suite {name!r}")
    tfs = (_seeded_functionals(n_seeds) if any(n in SEEDED_SUITES for n in wanted)
           else None)
    return [report for name in wanted for report in runners[name]()]
