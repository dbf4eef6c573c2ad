"""Seeded certification suites behind `alphaz verify` and the acceptance tests.

Every suite is deterministic: states come from the pinned-seed generators
in `states`, so a given (suite, seeds) always produces the same reports.
`run_suites` prepares the seeded pairs once per call and hands the same
`TraceFunctional`s to every suite that checks them (limits, derivatives,
monotonicity, dpi and invariants); those suites take them as their
argument. Every other pair family is prepared by
`divergences._prepare_pairs`, which validates and decomposes the pairs of
each dimension as one stack with one `eigh`: classical's commuting pairs,
invariants' rotated, rescaled and (rho, rho) pairs, dpi's pinched images
and example1's pairs, once for the second derivatives and once for the
grid. Each pair family is one request of a kernel pass
(`divergences._Pass`): the limits, monotonicity and dT/dz checks one for
all seeded pairs and all of their items (curves, alphas, z0s), regrouped
into one aggregate per item, and the slopes at alpha = 1 one more; dpi the
seeded pairs and their pinched images at every alpha, with the self-checks
of every value (the Mosonyi-Ogawa request of
`divergences.stacked_mosonyi_ogawa`); invariants all seeded pairs, each
with its rotation, its rescaled reference and (rho, rho); classical its
commuting pairs; example1 its three pairs on the alpha grid, and its
second-derivative stencils of all three.

Each suite is its plan (`_plan_*`), which adds the suite's requests to a
pass and returns its report builder. `run_suites` calls the plan of every
suite it runs on one pass before it builds any report, so the first
builder's read runs the pass once for all of them: the pass lays out the
pairs of each dimension once, as one stack, with one `svd` per dimension,
and runs dpi's self-checks on the same stacks. A suite run alone is the
same plan on a pass of its own. A `verify --suite all --seeds 10` run
makes 39 `eigh` and 17 `svd` calls (7 for the pass and 10 for dpi's
self-checks) and 7 stack layouts.

Each check reduces its residuals, one (pair, point) array or one list, by
`analysis._worst`, as each aggregate reduces its members: the worst
residual and its row are the first largest in pair order, then point
order, and a NaN residual is the worst, so it fails the check and is the
row reported. classical lists no row where every residual is exactly 0.
"""

from __future__ import annotations

import math

import numpy as np

from . import divergences as dv
from .analysis import (
    CheckReport,
    _plan_curve_limits,
    _plan_derivative_at_one,
    _plan_dz_trace_vanishes,
    _plan_second_derivative_example1,
    _plan_z_monotonicity,
    _worst,
    CurveSpec,
    TraceFunctional,
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
    value, i = _worst([r.max_residual for r in reports])
    worst = reports[i]
    return CheckReport(
        name=name,
        passed=all(r.passed for r in reports),
        max_residual=value,
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


def _over_pairs(tfs: SeededPairs, per_pair: list[list[CheckReport]]) -> list[CheckReport]:
    """Aggregate one check's reports on all the pairs item by item:
    `per_pair` holds, per pair, one report per item, the same items in the
    same order for every pair, and each aggregate's members are tagged by
    pair."""
    aggregates = []
    for reports in zip(*per_pair):
        name = reports[0].name
        for rep, (_, label) in zip(reports, tfs):
            rep.name = f"{name} [{label}]"
        aggregates.append(_aggregate(name, list(reports)))
    return aggregates


def _plan_limits(kernel: dv._Pass, tfs: SeededPairs, bias: float):
    """Limit of D(a, g(a)) at a -> 1 for five curves over the seeded pairs,
    one request for all of them, one aggregate per curve."""
    reports = _plan_curve_limits(kernel, [tf for tf, _ in tfs], LIMIT_CURVES, bias)
    return lambda: _over_pairs(tfs, reports())


def _plan_derivatives(kernel: dv._Pass, tfs: SeededPairs):
    """Slope-at-1 checks for both families plus the dT/dz -> 0 checks at
    DZ_TRACE_Z0S over the seeded pairs, one request each: one aggregate
    for the slopes, then one per z0."""
    slopes = _plan_derivative_at_one(kernel, [tf for tf, _ in tfs])
    dz = _plan_dz_trace_vanishes(kernel, [tf for tf, _ in tfs], DZ_TRACE_Z0S)
    return lambda: (_over_pairs(tfs, [[rep] for rep in slopes()]) + _over_pairs(tfs, dz()))


def _plan_monotonicity(kernel: dv._Pass, tfs: SeededPairs):
    """z-monotonicity of the divergence over MONOTONICITY_ZS for each
    alpha of MONOTONICITY_ALPHAS over the seeded pairs, one request for all
    of them, one aggregate per alpha."""
    reports = _plan_z_monotonicity(kernel, [tf for tf, _ in tfs], MONOTONICITY_ALPHAS,
                                   MONOTONICITY_ZS)
    return lambda: _over_pairs(tfs, reports())


EXAMPLE1_PS = (0.1, 0.25, 0.4)
EXAMPLE1_GRID_ALPHAS = tuple(round(0.2 + 0.2 * k, 10) for k in range(15))  # 0.2 .. 3.0
EXAMPLE1_GRID_TOL = 1e-10


def _plan_example1(kernel: dv._Pass):
    """Second-derivative split at a = 1 plus closed-form/pipeline agreement
    (within EXAMPLE1_GRID_TOL) for the rank-1-vs-diagonal pair of each p of
    EXAMPLE1_PS: two kernel requests, one for the second-derivative
    stencils of the three pairs and one for the three pairs on the alpha
    grid."""
    from .states import example1_pair

    second = _plan_second_derivative_example1(kernel, EXAMPLE1_PS)
    points = [(alpha, z) for alpha in EXAMPLE1_GRID_ALPHAS for z in (0.5, 1.0, alpha, 2.0, 5.0)]
    grid = kernel.add(dv._prepare_pairs(example1_pair(p) for p in EXAMPLE1_PS), *zip(*points))

    def reports():
        reports = second()
        closed = [[example1_closed_form(p, alpha, z) for alpha, z in points]
                  for p in EXAMPLE1_PS]
        gaps = np.abs(grid.evaluate()[0] - closed)
        worst, i = _worst(gaps)
        k, n = divmod(i, len(points))
        alpha, z = points[n]
        reports.append(CheckReport(
            name="closed form vs matrix pipeline on the alpha grid",
            passed=worst <= EXAMPLE1_GRID_TOL,
            max_residual=worst,
            rows=[{"p": EXAMPLE1_PS[k], "alpha": alpha, "z": z, "gap": worst}],
            notes=f"{gaps.size} grid points, tolerance {EXAMPLE1_GRID_TOL:g}",
        ))
        return reports

    return reports


DPI_SLACK = 1e-9


def _plan_dpi(kernel: dv._Pass, tfs: SeededPairs):
    """Sampled data-processing check for the piecewise divergence under
    pinching in the reference operator's eigenbasis, within DPI_SLACK, one
    report per alpha of DPI_ALPHAS; each pinched image is made from the
    pair's own spectrum of sigma, and the images are prepared as one stack
    per dimension. The pairs and their images are evaluated at every alpha
    in one kernel request, with the Petz and sandwiched self-checks of
    every value (the Mosonyi-Ogawa request of
    `divergences.stacked_mosonyi_ogawa`)."""
    pinched = dv._prepare_pairs((tf.pair.sigma.pinch(tf.rho), tf.pair.sigma.pinch(tf.sigma))
                                for tf, _ in tfs)
    # no zs: the Mosonyi-Ogawa values, checked by a second route
    request = kernel.add([tf.pair for tf, _ in tfs] + pinched, DPI_ALPHAS)

    def reports():
        values = request.mosonyi_ogawa()
        befores, afters = values[:len(tfs)].T.tolist(), values[len(tfs):].T.tolist()
        reports = []
        for alpha, before_row, after_row in zip(DPI_ALPHAS, befores, afters):
            rows = [{"pair": label, "before": before, "after": after,
                     "violation": after - before}  # > 0 would break data processing
                    for (_, label), before, after in zip(tfs, before_row, after_row)]
            # a check without a violation reads 0
            worst, _ = _worst([0.0] + [r["violation"] for r in rows])
            reports.append(CheckReport(
                name=f"pinching DPI at alpha={alpha:g}",
                passed=worst <= DPI_SLACK,
                max_residual=worst,
                rows=rows,
            ))
        return reports

    return reports


CLASSICAL_RENYI_TOL = 1e-10
CLASSICAL_KL_TOL = 1e-12
COMMUTING_DIMS = (2, 3, 4, 5, 6, 7, 8)


def _plan_classical(kernel: dv._Pass, n_pairs: int):
    """n_pairs commuting pairs of COMMUTING_DIMS must reduce to the
    classical Renyi sum (z-independent, within CLASSICAL_RENYI_TOL) and the
    classical KL divergence (within CLASSICAL_KL_TOL). The pairs are
    prepared as one stack per dimension and evaluated in one kernel
    request. Each check reports its worst (pair, point) row, and no row
    where every gap is exactly 0."""
    points = [(alpha, z) for alpha in CLASSICAL_ALPHAS for z in CLASSICAL_ZS + (alpha,)]
    alphas, zs = zip(*points)
    dims = [COMMUTING_DIMS[k % len(COMMUTING_DIMS)] for k in range(n_pairs)]
    operators, classicals = [], []
    for k, dim in enumerate(dims):
        rho, sigma, p, q = commuting_pair(dim, BASE_SEED + 1000 + k)
        operators.append((rho, sigma))
        classicals.append(dv.prepare_classical(p, q))
    pairs = dv._prepare_pairs(operators)
    request = kernel.add(pairs, alphas, zs)

    def reports():
        targets = []  # each pair's classical Renyi value at every point
        for classical in classicals:
            renyi = {alpha: classical.renyi(alpha).value for alpha in CLASSICAL_ALPHAS}
            targets.append([renyi[alpha] for alpha in alphas])
        worst_renyi, i = _worst(np.abs(request.evaluate()[0] - targets))
        k, n = divmod(i, len(points))
        renyi_rows = [{"pair": k, "dim": dims[k], "alpha": alphas[n], "z": zs[n],
                       "gap": worst_renyi}] if worst_renyi != 0.0 else []
        worst_kl, k = _worst([abs(pair.relative_entropy().value - classical.kl().value)
                              for pair, classical in zip(pairs, classicals)])
        kl_rows = [{"pair": k, "dim": dims[k], "gap": worst_kl}] if worst_kl != 0.0 else []
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

    return reports


UNITARY_INVARIANCE_TOL = 1e-9
SCALING_TOL = 1e-10
SELF_DIVERGENCE_TOL = 1e-10
INVARIANT_ALPHAS = (0.3, 0.7, 1.5, 2.0, 3.0)
INVARIANT_ZS = (0.5, 1.0, 2.0)


def _plan_invariants(kernel: dv._Pass, tfs: SeededPairs):
    """Structural invariants of the seeded pairs: unitary invariance,
    reference scaling, self-divergence (within UNITARY_INVARIANCE_TOL,
    SCALING_TOL and SELF_DIVERGENCE_TOL), and the infinity reason tags.
    Each pair's rotation, rescaled reference and (rho, rho) are prepared as
    one stack per dimension and evaluated, with the pair, in one kernel
    request; the tag checks call the scalar API, one pair at a time."""
    from .states import random_unitary

    points = [(alpha, z) for alpha in INVARIANT_ALPHAS for z in INVARIANT_ZS + (alpha,)]
    alphas, zs = zip(*points)
    scales = [0.25 + 1.5 * (k % 4) for k in range(len(tfs))]  # deterministic positive scales
    variants = []
    for k, ((tf, _), c) in enumerate(zip(tfs, scales)):
        rho, sigma = tf.rho, tf.sigma
        u = random_unitary(rho.shape[0], BASE_SEED + 5000 + k)
        # the pair's rotation, its rescaled reference and (rho, rho)
        variants += [(u @ rho @ u.conj().T, u @ sigma @ u.conj().T), (rho, c * sigma),
                     (rho, rho)]
    variants = dv._prepare_pairs(variants)
    family = []  # each pair beside its three variants
    for k, (tf, _) in enumerate(tfs):
        family += [tf.pair] + variants[3 * k:3 * k + 3]
    request = kernel.add(family, alphas, zs)

    def reports():
        values = request.evaluate()[0].reshape(len(tfs), 4, len(points))
        base, rotated, scaled, self_values = values.swapaxes(0, 1)  # each (pair, point)
        shifts = np.array([[math.log(c)] for c in scales])  # math.log: np.log may round apart

        def report(name: str, residuals: np.ndarray, tol: float) -> CheckReport:
            value, i = _worst(residuals)
            k, n = divmod(i, len(points))
            tf, label = tfs[k]
            row = {"pair": label, "dim": tf.rho.shape[0], "alpha": alphas[n], "z": zs[n],
                   "residual": value}
            return CheckReport(name, value <= tol, value, rows=[row], notes=f"tolerance {tol:g}")

        reports = [
            report("unitary invariance", np.abs(rotated - base), UNITARY_INVARIANCE_TOL),
            report("reference scaling D(rho||c sigma) = D - ln c",
                   np.abs(scaled - (base - shifts)), SCALING_TOL),
            report("self-divergence D(rho||rho) = 0", np.abs(self_values), SELF_DIVERGENCE_TOL),
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

    return reports


SUITE_NAMES = ("all", "limits", "derivatives", "monotonicity", "example1", "dpi",
               "classical", "invariants")
# the suites that check the seeded pairs
SEEDED_SUITES = ("limits", "derivatives", "monotonicity", "dpi", "invariants")


def run_suites(names, n_seeds: int = 10, bias: float = 0.0) -> list[CheckReport]:
    """Run the named suites (or all of them, in SUITE_NAMES order) on
    n_seeds >= 1 seeded pairs and return their reports. The seeded pairs are
    prepared once per call, and only when a requested suite checks them.
    Every requested suite adds its kernel requests to one pass before any
    report is built, so the first report's read runs the pass once for
    all; a suite's reports are those it gives when run alone."""
    if n_seeds < 1:
        raise ValueError(f"need at least one seed, got {n_seeds}")
    # each plan reads tfs, prepared below once the names are checked
    plans = {
        "limits": lambda kernel: _plan_limits(kernel, tfs, bias),
        "derivatives": lambda kernel: _plan_derivatives(kernel, tfs),
        "monotonicity": lambda kernel: _plan_monotonicity(kernel, tfs),
        "example1": _plan_example1,
        "dpi": lambda kernel: _plan_dpi(kernel, tfs),
        "classical": lambda kernel: _plan_classical(kernel, 2 * n_seeds),
        "invariants": lambda kernel: _plan_invariants(kernel, tfs),
    }
    wanted = list(plans) if "all" in names else list(names)
    for name in wanted:
        if name not in plans:
            raise ValueError(f"unknown suite {name!r}")
    tfs = (_seeded_functionals(n_seeds) if any(n in SEEDED_SUITES for n in wanted)
           else None)
    kernel = dv._Pass()
    builds = [plans[name](kernel) for name in wanted]
    return [report for build in builds for report in build()]
