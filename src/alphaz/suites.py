"""Seeded certification suites behind `alphaz verify` and the acceptance tests.

Every suite is deterministic: states come from the pinned-seed generators
in `states`, so a given (suite, seeds) always produces the same reports.
Each family's states are drawn one stack per dimension (`_per_dim`), by the
stacked forms of the generators: each seed draws from its own generator,
and the `qr`, products and normalizations run once per dimension. So are
the images made from them: invariants' rotations u A u† and dpi's pinched
images (`linalg._pinches`, from the prepared spectra of sigma), and
classical's probability vectors are checked as one stack per dimension.
`run_suites` prepares the seeded pairs once per call and hands the same
`PreparedPair`s to every suite that checks them (limits, derivatives,
monotonicity, dpi and invariants); those suites take them as their
argument. Every pair family is prepared by `divergences._prepare_pairs`,
which validates and decomposes the pairs of each dimension as one stack
with one `eigh`: the seeded pairs, classical's commuting pairs,
invariants' rotated, rescaled and (rho, rho) pairs and the pairs of its
infinity tags, dpi's pinched images and example1's three pairs, once for
both of its requests. Each pair family is one request of a kernel pass
(`divergences._Pass`): the limits, monotonicity and dT/dz checks one for
all seeded pairs and all of their items (curves, alphas, z0s), and the
slopes at alpha = 1 one more; dpi the seeded pairs and their pinched
images at every alpha, with the self-checks of every value (the
Mosonyi-Ogawa request of `divergences.stacked_mosonyi_ogawa`); invariants
all seeded pairs, each with its rotation, its rescaled reference and
(rho, rho); classical its commuting pairs; example1 its three pairs on the
alpha grid, and its second-derivative stencils of all three.

Each suite is its plan (`_plan_*`), which adds the suite's requests to a
pass and returns its report builder. `run_suites` calls the plan of every
suite it runs on one pass before it builds any report, so the first
builder's read runs the pass once for all of them: the pass lays out the
pairs of each dimension once, as one stack, with one `svd` per dimension,
and runs dpi's self-checks on the same stacks. A suite run alone is the
same plan on a pass of its own. A `verify --suite all --seeds 10` run
makes 26 `eigh` and 17 `svd` calls (7 for the pass and 10 for dpi's
self-checks), 15 `qr` calls (one per dimension of classical's commuting
pairs, 7, of invariants' rotations, 5, and of its tag pairs, 3) and 7 stack
layouts.

The limits, monotonicity and derivatives checks are aggregates: one
report per item (curve, alpha, z0, or the slopes), whose members are the
seeded pairs. Each is judged on the arrays of its request for all pairs
at once (`analysis._Verdicts`), and an aggregate's rows are its members'
pass flags and residuals; no member's report or per-point row is built.
example1's curvature checks are its judge's reports, one per p. The
slopes, the dT/dz checks and example1's curvatures take central
differences of their request's samples (`analysis._central`,
`analysis._second_central`), so a NaN sample gives a NaN residual and
raises nothing. So the 28 checks of `all` follow one NaN rule: each
reduces its residuals, one (pair, point) array or one list, by
`analysis._worst`, as each aggregate reduces its members (the infinity tag
check has pass flags only): the worst residual and its row are the first
largest in pair order, then point order, and a NaN residual is the worst,
so it fails the check and is the row reported, and the run still builds
every report. classical lists no row where every residual is exactly 0.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import divergences as dv
from .analysis import (
    CheckReport,
    _plan_curve_limits,
    _plan_derivative_at_one,
    _plan_dz_trace_vanishes,
    _plan_second_derivative_example1,
    _plan_z_monotonicity,
    _Verdicts,
    _worst,
    CurveSpec,
    example1_closed_form,
)
from .linalg import _pinches
from .states import _commuting_pairs, _densities, _support_pairs, _unitaries

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


def _per_dim(dims: list[int], make) -> list:
    """Item k of a family whose member k has dimension dims[k], made one
    stack per dimension: make(dim, at) gives the items of the members `at`
    (their indices, in order) of one dimension, in that order."""
    groups: dict[int, list[int]] = {}
    for k, dim in enumerate(dims):
        groups.setdefault(dim, []).append(k)
    items = [None] * len(dims)
    for dim, at in groups.items():
        for k, item in zip(at, make(dim, at)):
            items[k] = item
    return items


def seeded_pairs(n: int, base_seed: int = BASE_SEED,
                 dims: tuple[int, ...] = PAIR_DIMS) -> list[tuple[np.ndarray, np.ndarray, str]]:
    """n deterministic (rho, sigma) full-rank pairs cycling through dims:
    pair k is (random_density(dim, base_seed + 2k), random_reference(dim,
    base_seed + 2k + 1)), the states of each dimension made as one stack
    (a full-rank reference is a Wishart density too)."""
    def make(dim, at):
        states = _densities(dim, [base_seed + 2 * k + side for k in at for side in (0, 1)])
        return zip(states[::2], states[1::2])

    dims = [dims[k % len(dims)] for k in range(n)]
    return [(rho, sigma, f"pair{k}(dim={dim})")
            for k, (dim, (rho, sigma)) in enumerate(zip(dims, _per_dim(dims, make)))]


class SeededPairs(NamedTuple):
    """The seeded pairs as run_suites hands them to the suites: their
    states (rho, sigma), their labels, and their prepared pairs, those of
    each dimension validated and decomposed as one stack."""

    states: list[tuple[np.ndarray, np.ndarray]]
    labels: list[str]
    pairs: list[dv.PreparedPair]


def _prepare_seeded(n_seeds: int) -> SeededPairs:
    """The first n_seeds seeded pairs, prepared by `divergences._prepare_pairs`."""
    seeded = seeded_pairs(n_seeds)
    states = [(rho, sigma) for rho, sigma, _ in seeded]
    return SeededPairs(states, [label for *_, label in seeded], dv._prepare_pairs(states))


def _over_pairs(labels: list[str], verdicts: _Verdicts) -> list[CheckReport]:
    """One aggregate per item of a check on all the seeded pairs, from its
    verdicts, without building any pair's report: each member row is one
    pair's pass flag and residual on that item, tagged by pair; the
    aggregate passes iff every member does, and its residual and worst
    member are `_worst`'s over the members."""
    aggregates = []
    for name, passed, residuals in zip(verdicts.names, verdicts.passed.T.tolist(),
                                       verdicts.residuals.T.tolist()):
        members = [f"{name} [{label}]" for label in labels]
        value, i = _worst(residuals)
        aggregates.append(CheckReport(
            name=name,
            passed=all(passed),
            max_residual=value,
            rows=[{"member": member, "passed": ok, "max_residual": residual}
                  for member, ok, residual in zip(members, passed, residuals)],
            notes=f"{len(members)} members, worst: {members[i]}",
        ))
    return aggregates


def _plan_limits(kernel: dv._Pass, seeded: SeededPairs, bias: float):
    """Limit of D(a, g(a)) at a -> 1 for five curves over the seeded pairs,
    one request for all of them, one aggregate per curve."""
    judge = _plan_curve_limits(kernel, seeded.pairs, LIMIT_CURVES, bias)
    return lambda: _over_pairs(seeded.labels, judge())


def _plan_derivatives(kernel: dv._Pass, seeded: SeededPairs):
    """Slope-at-1 checks for both families plus the dT/dz -> 0 checks at
    DZ_TRACE_Z0S over the seeded pairs, one request each: one aggregate
    for the slopes, then one per z0."""
    slopes = _plan_derivative_at_one(kernel, seeded.pairs)
    dz = _plan_dz_trace_vanishes(kernel, seeded.pairs, DZ_TRACE_Z0S)
    return lambda: _over_pairs(seeded.labels, slopes()) + _over_pairs(seeded.labels, dz())


def _plan_monotonicity(kernel: dv._Pass, seeded: SeededPairs):
    """z-monotonicity of the divergence over MONOTONICITY_ZS for each
    alpha of MONOTONICITY_ALPHAS over the seeded pairs, one request for all
    of them, one aggregate per alpha."""
    judge = _plan_z_monotonicity(kernel, seeded.pairs, MONOTONICITY_ALPHAS, MONOTONICITY_ZS)
    return lambda: _over_pairs(seeded.labels, judge())


EXAMPLE1_PS = (0.1, 0.25, 0.4)
EXAMPLE1_GRID_ALPHAS = tuple(round(0.2 + 0.2 * k, 10) for k in range(15))  # 0.2 .. 3.0
EXAMPLE1_GRID_TOL = 1e-10


def _plan_example1(kernel: dv._Pass):
    """Second-derivative split at a = 1 plus closed-form/pipeline agreement
    (within EXAMPLE1_GRID_TOL) for the rank-1-vs-diagonal pair of each p of
    EXAMPLE1_PS: the three pairs are prepared once, as one stack, for two
    kernel requests, one for their second-derivative stencils and one for
    the alpha grid."""
    from .states import example1_pair

    pairs = dv._prepare_pairs(example1_pair(p) for p in EXAMPLE1_PS)
    second = _plan_second_derivative_example1(kernel, EXAMPLE1_PS, pairs)
    points = [(alpha, z) for alpha in EXAMPLE1_GRID_ALPHAS for z in (0.5, 1.0, alpha, 2.0, 5.0)]
    grid = kernel.add(pairs, *zip(*points))

    def reports():
        [reports] = second().reports()
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


def _plan_dpi(kernel: dv._Pass, seeded: SeededPairs):
    """Sampled data-processing check for the piecewise divergence under
    pinching in the reference operator's eigenbasis, within DPI_SLACK, one
    report per alpha of DPI_ALPHAS; each pinched image is made from the
    pair's own spectrum of sigma, and the images are prepared as one stack
    per dimension. The pairs and their images are evaluated at every alpha
    in one kernel request, with the Petz and sandwiched self-checks of
    every value (the Mosonyi-Ogawa request of
    `divergences.stacked_mosonyi_ogawa`)."""
    n = len(seeded.pairs)

    def pinch(_, at):
        spectra = [seeded.pairs[k].sigma for k in at]
        images = _pinches(spectra * 2, [seeded.states[k][side] for side in (0, 1) for k in at])
        return zip(images[:len(at)], images[len(at):])

    pinched = dv._prepare_pairs(_per_dim([rho.shape[0] for rho, _ in seeded.states], pinch))
    # no zs: the Mosonyi-Ogawa values, checked by a second route
    request = kernel.add(seeded.pairs + pinched, DPI_ALPHAS)

    def reports():
        values = request.mosonyi_ogawa()
        befores, afters = values[:n].T.tolist(), values[n:].T.tolist()
        reports = []
        for alpha, before_row, after_row in zip(DPI_ALPHAS, befores, afters):
            rows = [{"pair": label, "before": before, "after": after,
                     "violation": after - before}  # > 0 would break data processing
                    for label, before, after in zip(seeded.labels, before_row, after_row)]
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

    def commuting(dim, at):
        rhos, sigmas, ps, qs = _commuting_pairs(dim, [BASE_SEED + 1000 + k for k in at])
        return zip(rhos, sigmas, dv._probability_rows(ps), dv._probability_rows(qs))

    family = _per_dim(dims, commuting)
    pairs = dv._prepare_pairs((rho, sigma) for rho, sigma, _, _ in family)
    classicals = [dv.ClassicalPair(p, q) for _, _, p, q in family]
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


def _plan_invariants(kernel: dv._Pass, seeded: SeededPairs):
    """Structural invariants of the seeded pairs: unitary invariance,
    reference scaling, self-divergence (within UNITARY_INVARIANCE_TOL,
    SCALING_TOL and SELF_DIVERGENCE_TOL), and the infinity reason tags.
    Each pair's rotation, rescaled reference and (rho, rho) are prepared as
    one stack per dimension and evaluated, with the pair, in one kernel
    request. The pairs of the tag checks are prepared as one stack per
    dimension too, and each tag is read from the scalar `divergence` of
    its pair."""
    points = [(alpha, z) for alpha in INVARIANT_ALPHAS for z in INVARIANT_ZS + (alpha,)]
    alphas, zs = zip(*points)
    n = len(seeded.pairs)
    scales = [0.25 + 1.5 * (k % 4) for k in range(n)]  # deterministic positive scales

    def rotate(dim, at):
        u = _unitaries(dim, [BASE_SEED + 5000 + k for k in at])
        u = np.concatenate((u, u))
        states = np.array([seeded.states[k][side] for side in (0, 1) for k in at])
        rotated = u @ states @ u.conj().swapaxes(1, 2)
        return zip(rotated[:len(at)], rotated[len(at):])

    # each pair's rotation, its rescaled reference and (rho, rho)
    variants = dv._prepare_pairs(
        variant for rotated, (rho, sigma), c in zip(
            _per_dim([rho.shape[0] for rho, _ in seeded.states], rotate), seeded.states, scales)
        for variant in (rotated, (rho, c * sigma), (rho, rho)))
    family = []  # each pair beside its three variants
    for k, pair in enumerate(seeded.pairs):
        family += [pair] + variants[3 * k:3 * k + 3]
    request = kernel.add(family, alphas, zs)

    # infinity semantics on constructed support configurations: each
    # violating pair, then its orthogonal one, those of one dimension drawn
    # as one stack
    def tag_pairs(dim, at):
        violating, orthogonal = _support_pairs(dim, [
            (dim - 1, "violating", [BASE_SEED + 7000 + k for k in at]),
            (dim - 2 if dim > 2 else 1, "orthogonal", [BASE_SEED + 8000 + k for k in at])])
        return zip(zip(*violating), zip(*orthogonal))

    tag_dims = [3 + (k % 3) for k in range(max(2, n // 2))]
    tags = dv._prepare_pairs(pair for both in _per_dim(tag_dims, tag_pairs) for pair in both)

    def reports():
        values = request.evaluate()[0].reshape(n, 4, len(points))
        base, rotated, scaled, self_values = values.swapaxes(0, 1)  # each (pair, point)
        shifts = np.array([[math.log(c)] for c in scales])  # math.log: np.log may round apart

        def report(name: str, residuals: np.ndarray, tol: float) -> CheckReport:
            value, i = _worst(residuals)
            k, at = divmod(i, len(points))
            row = {"pair": seeded.labels[k], "dim": seeded.states[k][0].shape[0],
                   "alpha": alphas[at], "z": zs[at], "residual": value}
            return CheckReport(name, value <= tol, value, rows=[row], notes=f"tolerance {tol:g}")

        reports = [
            report("unitary invariance", np.abs(rotated - base), UNITARY_INVARIANCE_TOL),
            report("reference scaling D(rho||c sigma) = D - ln c",
                   np.abs(scaled - (base - shifts)), SCALING_TOL),
            report("self-divergence D(rho||rho) = 0", np.abs(self_values), SELF_DIVERGENCE_TOL),
        ]
        rows = []
        ok = True
        for pair_v, pair_o in zip(tags[::2], tags[1::2]):
            val = pair_v.divergence(2.0, 1.0)
            good_v = (not val.is_finite
                      and val.infinity_reason == dv.INFINITY_SUPPORT)
            val_lo, val_hi = pair_o.divergence(0.5, 1.0), pair_o.divergence(2.0, 1.0)
            good_o = (not val_lo.is_finite
                      and val_lo.infinity_reason == dv.INFINITY_ORTHOGONAL
                      and not val_hi.is_finite
                      and val_hi.infinity_reason == dv.INFINITY_SUPPORT)
            ok &= good_v and good_o
            rows.append({"dim": pair_v.rho.values.size, "violating_tag_ok": good_v,
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
    # each plan reads seeded, prepared below once the names are checked
    plans = {
        "limits": lambda kernel: _plan_limits(kernel, seeded, bias),
        "derivatives": lambda kernel: _plan_derivatives(kernel, seeded),
        "monotonicity": lambda kernel: _plan_monotonicity(kernel, seeded),
        "example1": _plan_example1,
        "dpi": lambda kernel: _plan_dpi(kernel, seeded),
        "classical": lambda kernel: _plan_classical(kernel, 2 * n_seeds),
        "invariants": lambda kernel: _plan_invariants(kernel, seeded),
    }
    wanted = list(plans) if "all" in names else list(names)
    for name in wanted:
        if name not in plans:
            raise ValueError(f"unknown suite {name!r}")
    seeded = (_prepare_seeded(n_seeds) if any(n in SEEDED_SUITES for n in wanted)
              else None)
    kernel = dv._Pass()
    builds = [plans[name](kernel) for name in wanted]
    return [report for build in builds for report in build()]
