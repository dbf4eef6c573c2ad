import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alphaz import analysis
from alphaz.analysis import (
    CheckReport,
    CurveSpec,
    SweepSpec,
    TraceFunctional,
    alpha_monotonicity_violations,
    example1_closed_form,
    fd_derivative,
    fd_second_derivative,
    sweep,
    verify_curve_limits,
    verify_derivative_at_one,
    verify_dz_trace_vanishes,
    verify_second_derivative_example1,
    verify_z_monotonicity,
)
from alphaz.divergences import alpha_z_divergence, prepare, relative_entropy
from alphaz.linalg import DomainError
from alphaz.states import commuting_pair, example1_pair, random_density, random_reference
from alphaz.suites import (
    DZ_TRACE_Z0S,
    LIMIT_CURVES,
    MONOTONICITY_ALPHAS,
    MONOTONICITY_ZS,
    seeded_pairs,
)

from conftest import max_abs

seeds = st.integers(0, 2**32 - 1)

EX1_REL_ENT = 0.8369882167858358
EX1_HALF_VARIANCE = 0.1508686201015727     # (ln 3)^2 / 8
EX1_AZ_2_1 = 0.9808292530117262            # ln(8/3)
EX1_AZ_2_2 = 0.9114927888166523            # 2 ln((2 + 2/sqrt(3))/2)
CURVATURES = {0.1: -1.2069489608125816,    # -(ln p - ln(1-p))^2 / 4
              0.25: -0.3017372402031454,
              0.4: -0.041100488473291334}


def example1_tf(p=0.25):
    return TraceFunctional(*example1_pair(p))


def seeded_tf(dim, seed):
    return TraceFunctional(random_density(dim, seed), random_reference(dim, seed + 1))


class TestFdScheme:
    def test_square_derivative(self):
        got = fd_derivative(lambda x: x * x, 3.0, 1e-4)
        assert got == pytest.approx(6.0, abs=1e-8)

    def test_log_derivative(self):
        got = fd_derivative(np.log, 1.0, 1e-4)
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_second_derivative_cubic(self):
        got = fd_second_derivative(lambda x: x**3, 2.0, 1e-3)
        assert got == pytest.approx(12.0, abs=1e-6)

    def test_non_finite_sample_names_point(self):
        with pytest.raises(ArithmeticError, match="f\\(1.0001"):
            fd_derivative(lambda x: np.full_like(x, math.inf), 1.0, 1e-4)
        # an array of points: the first non-finite sample's own point
        with pytest.raises(ArithmeticError, match="f\\(2.0001"):
            fd_derivative(lambda x: np.where(x > 2.0, math.inf, x), [1.0, 2.0], 1e-4)

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.inf, math.nan])
    def test_step_must_be_positive_and_finite(self, h):
        # h = 0 once returned nan with a RuntimeWarning, and h = inf raised
        # a misleading "non-finite sample" ArithmeticError
        for fd in (fd_derivative, fd_second_derivative):
            with pytest.raises(ValueError, match="step h must be positive and finite, got"):
                fd(lambda x: x * x, 1.0, h)

    def test_array_of_points_equals_each_point(self):
        h = 1e-3
        x0s = [0.3, 1.0, 2.5]
        f = lambda x: np.stack([np.exp(x), x**3], axis=-1)  # noqa: E731
        batched = fd_derivative(f, x0s, h)
        assert batched.shape == (3, 2)
        assert batched.tolist() == [fd_derivative(f, x0, h).tolist() for x0 in x0s]
        curvature = fd_second_derivative(f, x0s, h)
        assert curvature.tolist() == [fd_second_derivative(f, x0, h).tolist()
                                      for x0 in x0s]

    def test_order2_convergence(self):
        # halving h cuts the residual by >= 3x while above the noise floor
        tf = example1_tf()
        target = 0.5 * tf.variance()

        def residual(h):
            slope = fd_derivative(lambda a: tf.pair.divergences(a, 1.0), 1.0, h)
            return abs(slope - target)

        r_coarse, r_fine = residual(2e-2), residual(1e-2)
        assert r_fine > 1e-10  # above noise, so the ratio is meaningful
        assert r_coarse / r_fine >= 3.0


class TestCurveSpec:
    def test_kinds(self):
        assert CurveSpec.constant(2.0).g(1.3) == 2.0
        assert CurveSpec.identity().g(1.3) == 1.3
        assert CurveSpec.affine(2.0, -1.0).g(1.5) == 2.0
        assert CurveSpec.exponential().g(1.0) == 1.0
        assert [c.label for c in (CurveSpec.constant(2.0), CurveSpec.affine(0.5, 1.5))] == [
            "z=2", "z=0.5*alpha+1.5"]

    def test_rejects_vanishing_at_one(self):
        with pytest.raises(DomainError, match="g\\(1\\) = 0"):
            CurveSpec.affine(1.0, -1.0)
        with pytest.raises(DomainError):
            CurveSpec.constant(0.0)


class TestTraceFunctional:
    def test_requires_dominance(self):
        from alphaz.states import random_support_pair

        rho, sigma = random_support_pair(4, 3, rank=3, branch="violating")
        with pytest.raises(DomainError, match="dominate"):
            TraceFunctional(rho, sigma)

    def test_value_one_at_alpha_one(self):
        tf = seeded_tf(4, 5)
        for z in (0.5, 1.0, 2.0):
            assert tf.value(1.0, z) == pytest.approx(1.0, abs=1e-12)

    @given(seeds)
    def test_diagonal_classical_sum(self, seed):
        rng = np.random.default_rng(seed)
        p = rng.uniform(0.1, 1.0, 4)
        p /= p.sum()
        q = rng.uniform(0.1, 1.0, 4)
        q /= q.sum()
        tf = TraceFunctional(np.diag(p), np.diag(q))
        for alpha in (0.5, 2.0):
            target = float(np.sum(p**alpha * q ** (1 - alpha)))
            for z in (0.5, 1.0, 3.0):
                assert abs(tf.value(alpha, z) - target) <= 1e-12

    @given(seeds)
    def test_divergence_relation(self, seed):
        tf = seeded_tf(3, seed)
        for alpha, z in ((0.5, 1.0), (2.0, 2.0), (3.0, 0.5)):
            relation = math.log(tf.value(alpha, z)) / (alpha - 1.0)
            assert abs(tf.divergence(alpha, z) - relation) <= 1e-12


class TestCurveLimit:
    def test_constant_curve(self):
        [[rep]] = verify_curve_limits([seeded_tf(4, 11)], [CurveSpec.constant(1.0)])
        assert rep.passed
        assert rep.max_residual <= 1e-3

    def test_identity_curve_example1(self):
        [[rep]] = verify_curve_limits([example1_tf()], [CurveSpec.identity()])
        assert rep.passed
        # errors shrink toward the relative entropy target
        assert abs(rep.rows[0]["divergence"] - EX1_REL_ENT) > rep.max_residual

    def test_self_pair_flat(self):
        rho = random_density(3, 13)
        [[rep]] = verify_curve_limits([TraceFunctional(rho, rho)], [CurveSpec.identity()])
        assert rep.passed
        assert all(abs(row["divergence"]) <= 1e-10 for row in rep.rows)

    def test_bias_forces_failure(self):
        [[rep]] = verify_curve_limits([seeded_tf(3, 17)], [CurveSpec.constant(1.0)], bias=0.01)
        assert not rep.passed

    def test_default_offsets(self):
        offs = analysis.LIMIT_OFFSETS
        assert offs[0] == 0.1 and offs[-1] == 1e-5 and len(offs) == 12
        assert all(a > b for a, b in zip(offs[:-1], offs[1:]))


class TestDerivativeAtOne:
    def test_self_pair(self):
        rho = random_density(3, 19)
        [rep] = verify_derivative_at_one([TraceFunctional(rho, rho)])
        assert rep.passed
        assert all(abs(r["slope"]) <= 1e-6 for r in rep.rows)

    def test_example1_target(self):
        [rep] = verify_derivative_at_one([example1_tf()])
        assert rep.passed
        for row in rep.rows:
            assert row["half_variance"] == pytest.approx(EX1_HALF_VARIANCE, abs=1e-12)
            assert row["slope"] == pytest.approx(EX1_HALF_VARIANCE, rel=1e-3)

    def test_families_agree(self):
        [rep] = verify_derivative_at_one([seeded_tf(4, 23)])
        assert rep.passed
        slopes = [r["slope"] for r in rep.rows]
        assert abs(slopes[0] - slopes[1]) <= 1e-5

    def test_rescaled_self_pair(self):
        # V(rho || c rho) = 0 while D = -ln c = 115: the variance must not
        # come out negative, and the slope check passes as for (rho, rho)
        rho = random_density(4, 0)
        [rep] = verify_derivative_at_one([TraceFunctional(rho, 1e-50 * rho)])
        assert rep.passed
        assert all(0.0 <= r["half_variance"] <= 1e-20 for r in rep.rows)



class TestSecondDerivativeExample1:
    @pytest.mark.parametrize("p", [0.1, 0.25, 0.4])
    def test_split_curvatures(self, p):
        [rep] = verify_second_derivative_example1([p])
        assert rep.passed
        by_family = {r["family"]: r for r in rep.rows}
        assert by_family["z_equals_1"]["second_derivative_matrix"] == pytest.approx(
            0.0, abs=1e-3)
        assert by_family["z_equals_alpha"]["second_derivative_matrix"] == pytest.approx(
            CURVATURES[p], rel=1e-3)
        assert by_family["z_equals_alpha"]["second_derivative_closed_form"] == \
            pytest.approx(CURVATURES[p], rel=1e-3)

    def test_stencil_agreement(self):
        [rep] = verify_second_derivative_example1([0.25])
        assert all(r["max_stencil_gap"] <= 1e-9 for r in rep.rows)

    def test_one_call_equals_one_call_per_p(self):
        # the three pairs share one kernel request; each report is the one its
        # pair gives alone, in the order of ps
        ps = [0.4, 0.1, 0.25]
        together = verify_second_derivative_example1(ps)
        alone = [verify_second_derivative_example1([p])[0] for p in ps]
        assert [rep.to_dict() for rep in together] == [rep.to_dict() for rep in alone]


class TestZMonotonicity:
    def test_decreasing_above_one(self):
        [[rep]] = verify_z_monotonicity([seeded_tf(4, 31)], [2.0], [0.5, 1.0, 2.0, 4.0, 8.0])
        assert rep.passed
        assert all(r["step"] <= 1e-10 for r in rep.rows)

    def test_increasing_below_one(self):
        [[rep]] = verify_z_monotonicity([seeded_tf(4, 31)], [0.5], [0.5, 1.0, 2.0, 4.0, 8.0])
        assert rep.passed
        assert all(r["step"] >= -1e-10 for r in rep.rows)

    def test_commuting_constant(self):
        rho, sigma, _, _ = commuting_pair(4, 37)
        [[rep]] = verify_z_monotonicity([TraceFunctional(rho, sigma)], [2.0],
                                      [0.5, 1.0, 2.0, 4.0, 8.0])
        assert rep.passed
        assert all(abs(r["step"]) <= 1e-10 for r in rep.rows)

    def test_alpha_one_rejected(self):
        with pytest.raises(DomainError):
            verify_z_monotonicity([seeded_tf(3, 41)], [1.0], [1.0, 2.0])
        with pytest.raises(DomainError):
            verify_z_monotonicity([seeded_tf(3, 41)], [2.0, 1.0], [1.0, 2.0])

    def test_zs_validation(self):
        tf = seeded_tf(3, 41)
        with pytest.raises(ValueError, match="ascending"):
            verify_z_monotonicity([tf], [2.0], [2.0, 1.0])
        with pytest.raises(ValueError, match="positive"):
            verify_z_monotonicity([tf], [2.0], [-1.0, 1.0])


class TestDzTraceVanishes:
    def test_example1_ladder(self):
        [[rep]] = verify_dz_trace_vanishes([example1_tf()], [1.0])
        assert rep.passed
        mags = [r["abs"] for r in rep.rows if r["alpha"] > 1.0]
        assert mags == sorted(mags, reverse=True)

    def test_seeded_pair(self):
        [[rep]] = verify_dz_trace_vanishes([seeded_tf(3, 43)], [2.0])
        assert rep.passed
        assert rep.max_residual <= 1e-4

    def test_exactly_at_one(self):
        [[rep]] = verify_dz_trace_vanishes([seeded_tf(4, 47)], [0.5])
        at_one = [r for r in rep.rows if r["alpha"] == 1.0]
        assert len(at_one) == 1 and at_one[0]["abs"] <= 1e-8

    def test_z_zero_rejected(self):
        with pytest.raises(DomainError):
            verify_dz_trace_vanishes([seeded_tf(3, 43)], [0.0])
        with pytest.raises(DomainError):
            verify_dz_trace_vanishes([seeded_tf(3, 43)], [1.0, 0.0])


def _batch_pairs():
    """The seeded pairs of d = 2..6 the suites check, and the example1 pair."""
    return ([TraceFunctional(rho, sigma) for rho, sigma, _ in seeded_pairs(5)]
            + [example1_tf()])


class TestBatchedVerifications:
    """Each batched verification, over all pairs and all items in one call,
    equals its one-pair, one-item calls, report for report, down to the
    last bit of every float."""

    @staticmethod
    def dicts(reports):
        return [rep.to_dict() for rep in reports]

    @pytest.mark.parametrize("bias", [0.0, 0.01, -0.2])
    def test_curve_limits(self, bias):
        curves = LIMIT_CURVES + (CurveSpec.affine(-1.0, 2.5),)
        tfs = _batch_pairs()
        for tf, reports in zip(tfs, verify_curve_limits(tfs, curves, bias), strict=True):
            singles = [verify_curve_limits([tf], [curve], bias)[0][0] for curve in curves]
            assert self.dicts(reports) == self.dicts(singles)

    def test_derivative_at_one(self):
        tfs = _batch_pairs()
        singles = [verify_derivative_at_one([tf])[0] for tf in tfs]
        assert self.dicts(verify_derivative_at_one(tfs)) == self.dicts(singles)

    def test_z_monotonicity(self):
        alphas = MONOTONICITY_ALPHAS + (0.9, 3.0)
        tfs = _batch_pairs()
        for tf, reports in zip(tfs, verify_z_monotonicity(tfs, alphas, MONOTONICITY_ZS),
                               strict=True):
            singles = [verify_z_monotonicity([tf], [alpha], MONOTONICITY_ZS)[0][0]
                       for alpha in alphas]
            assert self.dicts(reports) == self.dicts(singles)

    def test_dz_trace_vanishes(self):
        z0s = DZ_TRACE_Z0S + (0.25, 3.5)
        tfs = _batch_pairs()
        for tf, reports in zip(tfs, verify_dz_trace_vanishes(tfs, z0s), strict=True):
            singles = [verify_dz_trace_vanishes([tf], [z0])[0][0] for z0 in z0s]
            assert self.dicts(reports) == self.dicts(singles)

    def test_no_items_no_reports(self):
        tfs = _batch_pairs()
        assert verify_curve_limits(tfs, []) == [[]] * len(tfs)
        assert verify_z_monotonicity(tfs, [], MONOTONICITY_ZS) == [[]] * len(tfs)
        assert verify_dz_trace_vanishes(tfs, []) == [[]] * len(tfs)

    def test_no_pairs_no_reports(self):
        assert verify_curve_limits([], LIMIT_CURVES) == []
        assert verify_derivative_at_one([]) == []
        assert verify_z_monotonicity([], MONOTONICITY_ALPHAS, MONOTONICITY_ZS) == []
        assert verify_dz_trace_vanishes([], DZ_TRACE_Z0S) == []

    def test_no_ps_no_reports(self):
        assert verify_second_derivative_example1([]) == []


class TestSweep:
    def test_single_cell(self):
        rho, sigma = example1_pair(0.25)
        alphas, zs, values, traces = sweep(rho, sigma, SweepSpec(alphas=(2.0,), zs=(1.0,)))
        assert alphas.tolist() == [2.0] and zs.tolist() == [1.0]
        assert values.shape == traces.shape == (1,)
        assert values[0] == pytest.approx(EX1_AZ_2_1, abs=1e-12)

    @pytest.mark.parametrize("branch", ["dominating", "violating"])
    def test_arrays_are_the_kernel_evaluation(self, branch):
        from alphaz.states import random_support_pair

        # infinite values and NaN traces included on the violating pair
        rho, sigma = random_support_pair(4, 59, rank=3, branch=branch)
        spec = SweepSpec(alphas=(0.5, 1.0, 2.0), zs=(0.5, 1.0, 2.0))
        got = sweep(rho, sigma, spec)
        points = spec.points()
        for a, b in zip(got, points + prepare(rho, sigma).evaluate(*points)):
            np.testing.assert_array_equal(a, b, strict=True)

    def test_alpha_one_row_is_relative_entropy(self):
        rho, sigma = example1_pair(0.25)
        alphas, _, values, traces = sweep(rho, sigma,
                                          SweepSpec(alphas=(0.5, 1.0, 2.0), zs=(1.0, 2.0)))
        target = relative_entropy(rho, sigma).value
        at_one = alphas == 1.0
        assert at_one.sum() == 2
        for d, t in zip(values[at_one].tolist(), traces[at_one].tolist()):
            assert d == pytest.approx(target, abs=1e-12)
            assert t == pytest.approx(1.0, abs=1e-12)

    def test_commuting_z_independence(self):
        rho, sigma, _, _ = commuting_pair(3, 53)
        alphas, _, values, _ = sweep(rho, sigma,
                                     SweepSpec(alphas=(0.5, 2.0), zs=(0.5, 1.0, 2.0)))
        for alpha in (0.5, 2.0):
            vals = values[alphas == alpha]
            assert vals.size == 3 and vals.max() - vals.min() <= 1e-10

    def test_alpha_major_ordering(self):
        rho, sigma = example1_pair(0.25)
        alphas, zs, _, _ = sweep(rho, sigma, SweepSpec(alphas=(0.5, 2.0), zs=(1.0, 2.0)))
        assert list(zip(alphas.tolist(), zs.tolist())) == [
            (0.5, 1.0), (0.5, 2.0), (2.0, 1.0), (2.0, 2.0)]

    def test_curve_grid(self):
        rho, sigma = example1_pair(0.25)
        _, zs, _, _ = sweep(rho, sigma,
                            SweepSpec(alphas=(0.5, 2.0), curve=CurveSpec.identity()))
        assert zs.tolist() == [0.5, 2.0]

    def test_infinite_cells(self):
        from alphaz.states import random_support_pair

        # violating pair at alpha > 1, z > 0: divergence inf and the
        # restricted trace hits the undefined-formula gate -> nan marker
        rho, sigma = random_support_pair(4, 59, rank=3, branch="violating")
        _, _, values, traces = sweep(rho, sigma, SweepSpec(alphas=(2.0,), zs=(1.0,)))
        assert values[0] == math.inf
        assert math.isnan(traces[0])
        # orthogonal pair below one: divergence inf, trace well defined (0)
        rho_o, sigma_o = random_support_pair(4, 61, rank=2, branch="orthogonal")
        _, _, values, traces = sweep(rho_o, sigma_o, SweepSpec(alphas=(0.5,), zs=(1.0,)))
        assert values[0] == math.inf
        assert traces[0] == pytest.approx(0.0, abs=1e-12)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(alphas=(1.0,))
        with pytest.raises(ValueError):
            SweepSpec(alphas=(1.0,), zs=(1.0,), curve=CurveSpec.identity())
        with pytest.raises(ValueError):
            SweepSpec(alphas=(), zs=(1.0,))

    def test_alpha_monotonicity_counter(self):
        rho, sigma = example1_pair(0.25)
        alphas, zs, values, _ = sweep(
            rho, sigma, SweepSpec(alphas=tuple(np.linspace(0.3, 2.5, 12)), zs=(1.0, 2.0)))
        assert alpha_monotonicity_violations(alphas, zs, values) == 0


class TestAlphaMonotonicityCounter:
    """The counter on constructed arrays, alpha-major as a sweep gives them."""

    def test_one_decrease_at_one_z(self):
        # z = 1 rises; z = 2 falls once, from 0.5 to 0.4
        alphas, zs = [0.5, 0.5, 1.0, 1.0, 2.0, 2.0], [1.0, 2.0] * 3
        values = [0.1, 0.5, 0.2, 0.4, 0.3, 0.6]
        assert alpha_monotonicity_violations(alphas, zs, values) == 1

    def test_decrease_within_slack(self):
        alphas, zs = [0.5, 1.0, 2.0], [1.0] * 3
        values = [0.1, 0.1 - 5e-11, 0.2]
        assert alpha_monotonicity_violations(alphas, zs, values) == 0
        assert alpha_monotonicity_violations(alphas, zs, values, slack=1e-11) == 1

    def test_compared_across_an_infinite_cell(self):
        alphas, zs = [0.5, 1.0, 2.0], [1.0] * 3
        assert alpha_monotonicity_violations(alphas, zs, [0.3, math.inf, 0.2]) == 1
        assert alpha_monotonicity_violations(alphas, zs, [0.2, math.inf, 0.3]) == 0

    def test_alphas_sorted_first(self):
        alphas, zs = [2.0, 0.5, 1.0], [1.0] * 3
        # ascending in alpha, though not in the order given
        assert alpha_monotonicity_violations(alphas, zs, [0.3, 0.1, 0.2]) == 0
        # descending in alpha: two decreases
        assert alpha_monotonicity_violations(alphas, zs, [0.1, 0.3, 0.2]) == 2


class TestExample1ClosedForm:
    def test_frozen_values(self):
        assert example1_closed_form(0.25, 2.0, 1.0) == pytest.approx(
            EX1_AZ_2_1, abs=1e-15)
        assert example1_closed_form(0.25, 2.0, 2.0) == pytest.approx(
            EX1_AZ_2_2, abs=1e-15)

    def test_alpha_one_limit_is_relative_entropy(self):
        for p in (0.1, 0.25, 0.4):
            rho, sigma = example1_pair(p)
            assert example1_closed_form(p, 1.0, 1.7) == pytest.approx(
                relative_entropy(rho, sigma).value, abs=1e-12)

    @given(st.floats(0.05, 0.45), st.sampled_from([0.3, 0.8, 1.5, 2.5]),
           st.sampled_from([0.5, 1.0, 2.0, 5.0]))
    def test_matches_matrix_pipeline(self, p, alpha, z):
        rho, sigma = example1_pair(p)
        got = alpha_z_divergence(rho, sigma, alpha, z).value
        assert abs(got - example1_closed_form(p, alpha, z)) <= 1e-10

    def test_validation(self):
        with pytest.raises(DomainError):
            example1_closed_form(1.5, 2.0, 1.0)
        with pytest.raises(DomainError):
            example1_closed_form(0.25, 2.0, 0.0)


class TestCheckReport:
    def test_json_serializable(self):
        [[rep]] = verify_curve_limits([example1_tf()], [CurveSpec.constant(1.0)])
        text = json.dumps(rep.to_dict())
        doc = json.loads(text)
        assert doc["passed"] is True
        assert doc["name"] == rep.name
        assert len(doc["rows"]) == len(rep.rows)


class TestPinnedTolerances:
    def test_analysis_constants(self):
        assert analysis.LIMIT_TOL == 1e-3
        assert analysis.LIMIT_FINAL_OFFSET == 1e-5
        assert analysis.DERIVATIVE_REL_TOL == 1e-3
        assert analysis.FAMILY_AGREEMENT_TOL == 1e-5
        assert analysis.SECOND_DERIV_ABS_TOL == 1e-3
        assert analysis.SECOND_DERIV_REL_TOL == 1e-3
        assert analysis.STENCIL_AGREEMENT_TOL == 1e-9
        assert analysis.Z_MONOTONICITY_SLACK == 1e-10
        assert analysis.DZ_TRACE_TOL == 1e-4
