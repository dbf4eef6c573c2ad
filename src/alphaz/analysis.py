"""Numerical certification of the alpha-z family's analytic properties.

Checks implemented here:
  * limits of D(a, g(a)) as a -> 1 along curves with g(1) != 0, converging
    to the relative entropy;
  * the first derivative of both the z=1 and z=a families at a=1, which
    equals half the relative entropy variance;
  * the second derivatives at a=1 for the rank-1-vs-diagonal pair family,
    where the two specializations disagree (0 versus -(ln p - ln(1-p))^2/4),
    so the piecewise family has no second derivative there;
  * monotonicity of z -> D(a, z) (decreasing for a > 1, increasing for a < 1);
  * the vanishing of dT/dz as a -> 1, T being the trace functional.

Each verification returns CheckReports with a pass flag, a headline
residual, and a row-per-point trend table that serializes to JSON. The
limit, slope-at-1, z-monotonicity and dT/dz checks take a sequence of
pairs (TraceFunctionals) and make one kernel request for all of them
(`divergences._Pass.add`); the limit, z-monotonicity and dT/dz checks also
take a sequence of items (curves, alphas, z0s) and return, per pair, one
report per item, in order, from that one request. The example1
second-derivative check takes a sequence of ps and makes one kernel
request for all of their pairs' stencils, one item per p. One pair or one
item is the one-element case, and a pair's reports do not depend on the
pairs beside it. Each check is its plan (`_plan_*`), which adds its
requests to a kernel pass and returns its judge; the judge's first read
runs the pass. A public `verify_*` calls its plan on a pass of its own; the
suites add the plans of a whole run to one pass. Each judge gives the
check's verdicts (`_Verdicts`), the residual and pass flag of every (pair,
item), computed on the arrays of its request, where each pass/fail rule is
written once. A public `verify_*` builds its reports, rows included, from
those arrays; the suites aggregate the verdicts of the seeded pairs and
build no pair's report. Their offset ladders and finite-difference steps
are module constants, not options: LIMIT_OFFSETS, DZ_TRACE_OFFSETS, and the
default step of fd_derivative (1e-4) or fd_second_derivative (1e-3).

The slope-at-1, dT/dz and example1 checks differentiate by stencils: the
plan lays out the points x0 + m h (`_stencil`) at the default step, and the
judge applies the central-difference formula (`_central`,
`_second_central`) to its request's samples at those points, the formula
that the public fd_derivative and fd_second_derivative apply to the samples
of their f. Only those public helpers raise on a non-finite sample; a check
takes a NaN sample as the NaN difference it gives.

Every check, here and in `suites`, all 28 of `alphaz verify --suite all`,
picks its worst residual and row by one rule, `_worst` (`_worst_along` on an
array's last axis): the largest residual, the first of them in row-major
(pair, point) order, with a NaN counting as the largest. So a NaN residual
fails its check and is the residual, and the row, it reports; a limit curve
whose ladder, or a dT/dz check whose stencil, holds a NaN anywhere fails
with that NaN.

`sweep` maps an (alpha, z) grid to the arrays of D and T that `alphaz
sweep` writes as CSV; the CLI and the alpha-monotonicity scan both call it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import divergences as dv
from .linalg import DomainError


def _worst(residuals) -> tuple[float, int]:
    """The largest of the residuals, an array or a nested sequence of
    floats, and the index of its first occurrence in their row-major
    (pair, point) order. A NaN counts as the largest, as in numpy's argmax,
    so a NaN residual is the one a check reports, and fails it. Every check
    picks its worst residual and row here."""
    residuals = np.asarray(residuals, dtype=float)
    i = int(np.argmax(residuals))
    return float(residuals.flat[i]), i


def _worst_along(residuals: np.ndarray) -> np.ndarray:
    """`_worst`'s value along the last axis of an array, for every index of
    the others: the first largest, a NaN counting as the largest."""
    i = np.argmax(residuals, axis=-1)[..., None]
    return np.take_along_axis(residuals, i, axis=-1)[..., 0]


def _stencil(x0, offsets: tuple[float, ...]) -> np.ndarray:
    """The points x0 + o for every offset o, one row per offset, each row
    shaped like x0."""
    x0 = np.asarray(x0, dtype=float)
    return x0 + np.reshape(offsets, (-1,) + (1,) * x0.ndim)


def _samples(f: Callable[[np.ndarray], np.ndarray], x0, h: float,
             multiples: tuple[float, ...]) -> np.ndarray:
    """f called once on the `_stencil` points of x0 at the offsets m h for
    the multiples m of the step h: an array with one row per offset, each
    row shaped like x0, and trailing axes if the samples carry them. Raises
    ValueError naming h unless it is positive and finite, and
    ArithmeticError naming the first non-finite sample."""
    if not 0.0 < h < math.inf:  # a NaN fails too
        raise ValueError(f"finite-difference step h must be positive and finite, got {h!r}")
    xs = _stencil(x0, tuple(m * h for m in multiples))
    ys = np.asarray(f(xs), dtype=float)
    finite = np.isfinite(ys)
    if not finite.all():
        k = tuple(np.argwhere(~finite)[0])
        raise ArithmeticError(f"non-finite sample f({float(xs[k[:xs.ndim]])!r}) = "
                              f"{float(ys[k])!r} on the stencil")
    return ys


def _central(samples, h: float) -> np.ndarray:
    """The first derivative by the central difference (f(x0 + h) -
    f(x0 - h)) / 2h, from the samples at x0 + h and x0 - h stacked on the
    first axis."""
    up, down = samples
    return (up - down) / (2.0 * h)


def _second_central(samples, h: float) -> np.ndarray:
    """The second derivative by the central difference (f(x0 + h) -
    2 f(x0) + f(x0 - h)) / h^2, from the samples at x0 + h, x0 and x0 - h
    stacked on the first axis."""
    up, mid, down = samples
    return (up - 2.0 * mid + down) / (h * h)


def _scalar(out):
    return float(out) if np.ndim(out) == 0 else out


# the default steps of fd_derivative and fd_second_derivative
_FD_STEP, _FD2_STEP = 1e-4, 1e-3


def fd_derivative(f: Callable[[np.ndarray], np.ndarray], x0, h: float = _FD_STEP):
    """First derivative at x0, a point or an array of them, by the central
    difference (f(x0 + h) - f(x0 - h)) / 2h. f maps the array of the two
    stencil points (x0 + h first, then x0 - h, each shaped like x0) to an
    array of samples of that leading shape; samples may carry trailing axes,
    one derivative each."""
    return _scalar(_central(_samples(f, x0, h, (1.0, -1.0)), h))


def fd_second_derivative(f: Callable[[np.ndarray], np.ndarray], x0, h: float = _FD2_STEP):
    """Second derivative at x0 by the central difference
    (f(x0 + h) - 2 f(x0) + f(x0 - h)) / h^2; f and x0 as in fd_derivative,
    with the three stencil points x0 + h, x0, x0 - h."""
    return _scalar(_second_central(_samples(f, x0, h, (1.0, 0.0, -1.0)), h))


@dataclass(frozen=True)
class CurveSpec:
    """A z = g(alpha) curve with g(1) != 0, enforced at construction, and
    the label its reports print. The classmethods build the known curves."""

    label: str
    g: Callable[[float], float]

    def __post_init__(self):
        if abs(self.g(1.0)) <= 1e-12:
            raise DomainError(f"curve {self.label} has g(1) = 0")

    @classmethod
    def constant(cls, z0: float) -> "CurveSpec":
        z0 = float(z0)
        return cls(f"z={z0:g}", lambda alpha: z0)

    @classmethod
    def identity(cls) -> "CurveSpec":
        return cls("z=alpha", lambda alpha: alpha)

    @classmethod
    def affine(cls, a: float, b: float) -> "CurveSpec":
        a, b = float(a), float(b)
        return cls(f"z={a:g}*alpha{b:+g}", lambda alpha: a * alpha + b)

    @classmethod
    def exponential(cls) -> "CurveSpec":
        return cls("z=exp(alpha-1)", lambda alpha: math.exp(alpha - 1.0))


# the curves known by name to `alphaz sweep --z-grid curve:NAME` and the scripts
NAMED_CURVES = {
    "sandwiched": CurveSpec.identity(),
    "petz": CurveSpec.constant(1.0),
    "exponential": CurveSpec.exponential(),
}


@dataclass(frozen=True)
class TraceFunctional:
    """The pair (rho, sigma) behind T(a, z) = Tr[F(a, z)^z], validated and
    decomposed once; requires dominance so all checked quantities are
    smooth near a = 1."""

    rho: np.ndarray
    sigma: np.ndarray
    pair: dv.PreparedPair = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pair = dv.prepare(self.rho, self.sigma)
        if not pair.dominated:
            raise DomainError("trace functional requires sigma to dominate rho")
        object.__setattr__(self, "pair", pair)

    def value(self, alpha: float, z: float) -> float:
        """T(alpha, z); equals 1 at alpha = 1 for every z."""
        return float(self.pair.traces(alpha, z))

    def divergence(self, alpha: float, z: float) -> float:
        """Finite alpha-z divergence value (dominance guarantees finiteness)."""
        return self.pair.divergence(alpha, z).value

    def relative_entropy(self) -> float:
        return self.pair.relative_entropy().value

    def variance(self) -> float:
        return self.pair.variance()


@dataclass
class CheckReport:
    """Outcome of one verification: pass flag, headline residual, and a
    per-point table for the trend."""

    name: str
    passed: bool
    max_residual: float
    rows: list[dict] = field(default_factory=list)
    notes: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "max_residual": float(self.max_residual),
            "rows": self.rows,
            "notes": self.notes,
        }


# dyadic refinement 1 +/- 0.1 * 2^-k closed by a final offset of 1e-5
LIMIT_LEVELS = 11
LIMIT_BASE_OFFSET = 0.1
LIMIT_FINAL_OFFSET = 1e-5
# the decreasing |alpha - 1| offsets of every limit ladder
LIMIT_OFFSETS = tuple(LIMIT_BASE_OFFSET * 2.0**-k
                      for k in range(LIMIT_LEVELS)) + (LIMIT_FINAL_OFFSET,)
LIMIT_TOL = 1e-3
_TREND_SLACK = 1e-12
# below this the residual is numerical noise and trend checks stop binding
_TREND_NOISE_FLOOR = 1e-9


@dataclass
class _Verdicts:
    """One check's verdicts on every pair and item, judged on the arrays of
    its kernel request: each item's report name, each (pair, item) residual
    and pass flag as (pairs, items) arrays, and `details`, which gives each
    (pair, item)'s rows and notes, per pair, from the same arrays. The
    suites aggregate the seeded pairs' verdicts without calling `details`."""

    names: list[str]
    residuals: np.ndarray
    passed: np.ndarray
    details: Callable[[], list[list[tuple[list[dict], str]]]]

    def reports(self) -> list[list[CheckReport]]:
        """Each pair's reports, one per item, in order."""
        return [[CheckReport(name, ok, residual, rows, notes)
                 for name, ok, residual, (rows, notes) in zip(self.names, oks, residuals, details)]
                for oks, residuals, details in zip(self.passed.tolist(),
                                                   self.residuals.tolist(), self.details())]


def verify_curve_limits(tfs: Sequence[TraceFunctional], curves: Sequence[CurveSpec],
                        bias: float = 0.0) -> list[list[CheckReport]]:
    """Check D(a, g(a)) -> relative entropy as a -> 1 along each curve: per
    pair, one report per curve, in order; every curve's ladder
    (LIMIT_OFFSETS on both sides of 1) is evaluated for every pair in one
    kernel request.

    A curve passes iff its error at the tightest offset is <= 1e-3 on both
    sides and the error decays monotonically over the last three dyadic
    refinements. `bias` shifts every measured divergence (self-test hook).
    """
    return _plan_curve_limits(dv._Pass(), [tf.pair for tf in tfs], curves, bias)().reports()


def _plan_curve_limits(kernel: dv._Pass, pairs: Sequence[dv.PreparedPair],
                       curves: Sequence[CurveSpec], bias: float):
    """Add the ladders of `verify_curve_limits` to the pass `kernel` as one
    request, and return the function that judges them."""
    alphas = [1.0 + side * off for side in (+1, -1) for off in LIMIT_OFFSETS]
    zs = [[curve.g(alpha) for alpha in alphas] for curve in curves]
    request = kernel.add(pairs, alphas, np.reshape(zs, (-1, len(alphas))))
    names = [f"limit along {curve.label}" for curve in curves]

    def judge() -> _Verdicts:
        n = len(LIMIT_OFFSETS)
        targets = [pair.relative_entropy().value for pair in pairs]
        values = request.evaluate()[0] + bias  # (pairs, curves, rungs)
        errors = np.abs(values - np.reshape(targets, (-1, 1, 1)))
        # the error at the tightest offsets; a NaN anywhere on the ladder wins
        final = np.where(np.isnan(errors).any(axis=2), math.nan,
                         _worst_along(errors[..., [n - 1, -1]]))
        # the last three dyadic refinement steps of each side
        tails = errors.reshape(errors.shape[:2] + (2, n))[..., -5:-1]
        trend_ok = (tails[..., 1:] <= np.maximum(tails[..., :-1] + _TREND_SLACK,
                                                 _TREND_NOISE_FLOOR)).all(axis=(2, 3))
        passed = (final <= LIMIT_TOL) & trend_ok

        def details():
            return [[([{"alpha": alpha, "z": z, "divergence": d, "error": e}
                       for alpha, z, d, e in zip(alphas, z_row, d_row, e_row)],
                      f"target D = {target:.12g}, trend_ok = {trend}")
                     for z_row, d_row, e_row, trend in zip(zs, d_rows, e_rows, trends)]
                    for target, d_rows, e_rows, trends in zip(
                        targets, values.tolist(), errors.tolist(), trend_ok.tolist())]

        return _Verdicts(names, final, passed, details)

    return judge


DERIVATIVE_REL_TOL = 1e-3
FAMILY_AGREEMENT_TOL = 1e-5
SLOPE_FLOOR = -1e-6

# z as a function of the stencil's alphas for each specialization
FAMILIES = {"z_equals_1": np.ones_like, "z_equals_alpha": lambda a: a}


def _family_zs(alphas: np.ndarray) -> np.ndarray:
    """z of each family at the alphas, one column per family."""
    return np.stack([fn(alphas) for fn in FAMILIES.values()], axis=1)


def verify_derivative_at_one(tfs: Sequence[TraceFunctional]) -> list[CheckReport]:
    """Check that the slope of both divergence families at a = 1 equals half
    the relative entropy variance, by fd_derivative's default step: one
    report per pair, from one kernel request for every pair's stencil.

    Passes iff each family's relative error is <= 1e-3, the two family
    estimates agree within 1e-5, and no slope dips below -1e-6 (the variance
    is non-negative).
    """
    return [rep for [rep] in _plan_derivative_at_one(dv._Pass(), [tf.pair for tf in tfs])()
            .reports()]


def _plan_derivative_at_one(kernel: dv._Pass, pairs: Sequence[dv.PreparedPair]):
    """Add the stencils of `verify_derivative_at_one` to the pass `kernel`
    as one request, and return the function that judges them: one item
    per pair."""
    a = _stencil(1.0, (_FD_STEP, -_FD_STEP))
    request = kernel.add(pairs, a[:, None], _family_zs(a))
    name = "derivative at alpha=1 vs half-variance"

    def judge() -> _Verdicts:
        # the samples at alpha = 1 + h, then 1 - h: (2, pairs, families)
        slopes = _central(np.moveaxis(request.evaluate()[0], 0, 1), _FD_STEP)
        targets = np.reshape([0.5 * pair.variance() for pair in pairs], (-1, 1))
        # relative residual against a meaningful target, absolute once the
        # target sits below the finite-difference noise scale (e.g. rho = sigma)
        rel = np.abs(slopes - targets) / np.where(np.abs(targets) >= 1e-6, np.abs(targets), 1.0)
        max_rel = _worst_along(rel)
        cross = np.abs(slopes[:, 0] - slopes[:, 1])
        passed = ((max_rel <= DERIVATIVE_REL_TOL) & (cross <= FAMILY_AGREEMENT_TOL)
                  & (slopes >= SLOPE_FLOOR).all(axis=1))

        def details():
            return [[([{"family": family, "slope": slope, "half_variance": target,
                        "rel_error": e} for family, slope, e in zip(FAMILIES, slope_row, rel_row)],
                      f"cross-family |diff| = {diff:.3e}")]
                    for [target], slope_row, rel_row, diff in zip(
                        targets.tolist(), slopes.tolist(), rel.tolist(), cross.tolist())]

        return _Verdicts([name], max_rel[:, None], passed[:, None], details)

    return judge

def example1_closed_form(p: float, alpha: float, z: float) -> float:
    """Closed-form divergence of the rank-1-vs-diagonal pair:
    z/(a-1) * ln((p^((1-a)/z) + (1-p)^((1-a)/z)) / 2), with the a -> 1
    limit -(ln p + ln(1-p))/2, which is the pair's relative entropy."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    z = float(z)
    if z == 0.0:
        raise DomainError("z = 0 is excluded")
    alpha = float(alpha)
    if abs(alpha - 1.0) <= dv.ALPHA_ONE_TOL:
        return -0.5 * (math.log(p) + math.log(1.0 - p))
    u = (1.0 - alpha) / z
    mean_pow = (p**u + (1.0 - p) ** u) / 2.0
    return z / (alpha - 1.0) * math.log(mean_pow)


SECOND_DERIV_ABS_TOL = 1e-3   # for the z=1 family, whose curvature is 0
SECOND_DERIV_REL_TOL = 1e-3   # for the z=alpha family
STENCIL_AGREEMENT_TOL = 1e-9


def verify_second_derivative_example1(ps: Sequence[float]) -> list[CheckReport]:
    """Second derivatives at a = 1 for the rank-1-vs-diagonal pair of each p,
    by fd_second_derivative's default step: one report per p, from one
    kernel request for every pair's stencil.

    The z=1 family must have curvature 0 (within 1e-3) and the z=alpha
    family curvature -(ln p - ln(1-p))^2 / 4 (within 1e-3 relative); each
    is computed through both the closed form and the matrix pipeline, which
    must agree within 1e-9 at every stencil point.
    """
    from .states import example1_pair

    ps = [float(p) for p in ps]
    pairs = dv._prepare_pairs(example1_pair(p) for p in ps)
    [reports] = _plan_second_derivative_example1(dv._Pass(), ps, pairs)().reports()
    return reports


def _plan_second_derivative_example1(kernel: dv._Pass, ps: Sequence[float],
                                     pairs: list[dv.PreparedPair]):
    """Add the stencils of `verify_second_derivative_example1` for the
    prepared example1 pairs of the ps to the pass `kernel` as one request,
    and return the function that judges them: one item per p."""
    a = _stencil(1.0, (_FD2_STEP, 0.0, -_FD2_STEP))
    zs = _family_zs(a)
    request = kernel.add(pairs, a[:, None], zs)
    names = [f"second derivatives at alpha=1, p={p:g}" for p in ps]

    def judge() -> _Verdicts:
        # the matrix pipeline and the closed form at alpha = 1 + h, 1 and
        # 1 - h: (3, ps, families)
        m = np.moveaxis(request.evaluate()[0], 0, 1)
        c = np.reshape([[[example1_closed_form(p, x, z) for z in row] for p in ps]
                        for x, row in zip(a.tolist(), zs.tolist())], m.shape)
        # (ps, families, [matrix, closed form]) and each family's worst gap
        d2 = _second_central(np.stack([m, c], axis=3), _FD2_STEP)
        gaps = _worst_along(np.moveaxis(np.abs(m - c), 0, 2))
        targets = [-0.25 * (math.log(p) - math.log(1.0 - p)) ** 2 for p in ps]
        z1 = _worst_along(np.abs(d2[:, 0]))  # the z=1 family's curvature is 0
        za = _worst_along(np.abs(d2[:, 1] - np.reshape(targets, (-1, 1)))) / np.abs(targets)
        stencil_gaps = _worst_along(gaps)
        residuals = _worst_along(np.stack([z1, za], axis=1))
        passed = ((z1 <= SECOND_DERIV_ABS_TOL) & (za <= SECOND_DERIV_REL_TOL)
                  & (stencil_gaps <= STENCIL_AGREEMENT_TOL))

        def details():
            return [[([{"family": family, "second_derivative_matrix": matrix,
                        "second_derivative_closed_form": closed, "max_stencil_gap": gap}
                       for family, (matrix, closed), gap in zip(FAMILIES, d2_row, gap_row)],
                      f"z=alpha curvature target {target:.12g}, "
                      f"stencil agreement {stencil_gap:.3e}")
                     for target, d2_row, gap_row, stencil_gap in zip(
                         targets, d2.tolist(), gaps.tolist(), stencil_gaps.tolist())]]

        return _Verdicts(names, residuals[None], passed[None], details)

    return judge


Z_MONOTONICITY_SLACK = 1e-10


def verify_z_monotonicity(tfs: Sequence[TraceFunctional], alphas: Sequence[float],
                          zs: Sequence[float]) -> list[list[CheckReport]]:
    """Check the sampled sequence z -> D(alpha, z) is non-increasing for
    alpha > 1 and non-decreasing for alpha < 1, with 1e-10 slack per step:
    per pair, one report per alpha, in order, from one kernel request for
    all pairs and alphas."""
    return _plan_z_monotonicity(dv._Pass(), [tf.pair for tf in tfs], alphas, zs)().reports()


def _plan_z_monotonicity(kernel: dv._Pass, pairs: Sequence[dv.PreparedPair],
                         alphas: Sequence[float], zs: Sequence[float]):
    """Check the alphas and zs of `verify_z_monotonicity`, add its z-rows to
    the pass `kernel` as one request, and return the function that judges
    them."""
    alphas = [float(alpha) for alpha in alphas]
    if any(abs(alpha - 1.0) <= dv.ALPHA_ONE_TOL for alpha in alphas):
        raise DomainError("alpha = 1 has no z dependence to check")
    zs = [float(z) for z in zs]
    if any(z <= 0.0 for z in zs) or list(zs) != sorted(zs):
        raise ValueError("zs must be positive and ascending")
    request = kernel.add(pairs, np.reshape(alphas, (-1, 1)), zs)
    names = [f"z-monotonicity at alpha={alpha:g} "
             f"({'non-increasing' if alpha > 1.0 else 'non-decreasing'})" for alpha in alphas]

    def judge() -> _Verdicts:
        values = request.evaluate()[0]  # (pairs, alphas, zs)
        steps = values[..., 1:] - values[..., :-1]
        # > 0 means the wrong direction
        signs = np.where(np.array(alphas) > 1.0, -1.0, 1.0)[:, None]
        violations = signs * (values[..., :-1] - values[..., 1:])
        # a check without a violation reads 0
        worst = _worst_along(np.concatenate([np.zeros(values.shape[:2] + (1,)), violations],
                                            axis=2))
        passed = worst <= Z_MONOTONICITY_SLACK

        def details():
            return [[([{"z_from": z0, "z_to": z1, "step": step, "violation": violation}
                       for z0, z1, step, violation in zip(zs, zs[1:], step_row, violation_row)],
                      "")
                     for step_row, violation_row in zip(step_rows, violation_rows)]
                    for step_rows, violation_rows in zip(steps.tolist(), violations.tolist())]

        return _Verdicts(names, worst, passed, details)

    return judge


DZ_TRACE_TOL = 1e-4
DZ_TRACE_OFFSETS = (1e-1, 1e-2, 1e-3, 1e-4)


def verify_dz_trace_vanishes(tfs: Sequence[TraceFunctional],
                             z0s: Sequence[float]) -> list[list[CheckReport]]:
    """Check dT/dz(alpha, z0) -> 0 as alpha -> 1: per pair, one report per
    z0, in order, from one kernel request for every stencil point of every z0
    and pair, by fd_derivative's default step at alpha = 1 +/-
    DZ_TRACE_OFFSETS and 1.

    A z0 passes iff |dT/dz| decays (within slack) along the offset ladder on
    both sides of 1, is <= 1e-4 at the tightest offset, and is <= 1e-8 at
    alpha = 1 exactly (where T is identically 1 in z).
    """
    return _plan_dz_trace_vanishes(dv._Pass(), [tf.pair for tf in tfs], z0s)().reports()


def _plan_dz_trace_vanishes(kernel: dv._Pass, pairs: Sequence[dv.PreparedPair],
                            z0s: Sequence[float]):
    """Add the stencils of `verify_dz_trace_vanishes` to the pass `kernel`
    as one request, and return the function that judges them."""
    z0s = [float(z0) for z0 in z0s]
    if 0.0 in z0s:
        raise DomainError("z = 0 is excluded")
    # every offset on both sides, then alpha = 1: one column each
    alphas = [1.0 + side * off for side in (+1, -1) for off in DZ_TRACE_OFFSETS] + [1.0]
    zs = _stencil(z0s, (_FD_STEP, -_FD_STEP))
    request = kernel.add(pairs, alphas, zs[..., None])
    names = [f"dT/dz -> 0 at z0={z0:g}" for z0 in z0s]

    def judge() -> _Verdicts:
        n = len(DZ_TRACE_OFFSETS)
        # the samples at z0 + h, then z0 - h: (2, pairs, z0s, alphas)
        slopes = _central(np.moveaxis(request.traces(), 0, 1), _FD_STEP)
        mags = np.abs(slopes)
        ladders, at_one = mags[..., :-1].reshape(mags.shape[:2] + (2, n)), mags[..., -1]
        passed = ((ladders[..., 1:] <= ladders[..., :-1] + Z_MONOTONICITY_SLACK).all(axis=(2, 3))
                  & (ladders[..., -1] <= DZ_TRACE_TOL).all(axis=2) & (at_one <= 1e-8))
        # the |dT/dz| at the tightest offsets; a NaN sample anywhere wins
        final = np.where(np.isnan(mags).any(axis=2), math.nan, _worst_along(ladders[..., -1]))

        def details():
            return [[([{"alpha": alpha, "dT_dz": d, "abs": m}
                       for alpha, d, m in zip(alphas[:-1], slope_row, mag_row)]
                      + [{"alpha": 1.0, "dT_dz": one, "abs": one}],
                      f"|dT/dz| at alpha=1 exactly: {one:.3e}")
                     for slope_row, mag_row, one in zip(slope_rows, mag_rows, ones)]
                    for slope_rows, mag_rows, ones in zip(slopes.tolist(), mags.tolist(),
                                                          at_one.tolist())]

        return _Verdicts(names, final, passed, details)

    return judge


@dataclass(frozen=True)
class SweepSpec:
    """Grid descriptor: alphas crossed with either fixed zs or z = g(alpha)."""

    alphas: tuple[float, ...]
    zs: tuple[float, ...] | None = None
    curve: CurveSpec | None = None

    def __post_init__(self):
        if (self.zs is None) == (self.curve is None):
            raise ValueError("exactly one of zs or curve must be given")
        if not self.alphas or (self.zs is not None and not self.zs):
            raise ValueError("grids must be non-empty")

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid's alphas and zs as two float arrays, alpha-major then z."""
        alphas = np.array(self.alphas, dtype=float)
        if self.curve is not None:
            return alphas, np.array([self.curve.g(a) for a in alphas.tolist()], dtype=float)
        zs = np.array(self.zs, dtype=float)
        return np.repeat(alphas, zs.size), np.tile(zs, alphas.size)


def sweep(rho: np.ndarray, sigma: np.ndarray, spec: SweepSpec
          ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The grid's alphas and zs, alpha-major then z, with the divergence D
    and the trace functional T at each point, as four float arrays. An
    infinite D keeps its restricted-support T, and a NaN T marks a cell
    whose formula is undefined or leaves double range."""
    alphas, zs = spec.points()
    values, traces = dv.prepare(rho, sigma).evaluate(alphas, zs)
    return alphas, zs, values, traces


def alpha_monotonicity_violations(alphas, zs, values, slack: float = 1e-10) -> int:
    """Count decreases of the divergence along alpha at fixed z over the
    finite cells of a sweep's arrays, each z's cells sorted by alpha first;
    exploratory only (monotonicity in alpha is conjectured, never asserted)."""
    alphas, zs, values = (np.asarray(x, dtype=float) for x in (alphas, zs, values))
    finite = np.isfinite(values)
    violations = 0
    for z in np.unique(zs[finite]):
        at_z = finite & (zs == z)
        row = values[at_z][np.argsort(alphas[at_z], kind="stable")]
        violations += int(np.count_nonzero(row[1:] < row[:-1] - slack))
    return violations
