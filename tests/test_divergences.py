import functools
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from alphaz import divergences as dv
from alphaz.divergences import (
    DivergenceValue,
    alpha_z_divergence,
    mosonyi_ogawa_divergence,
    petz_divergence,
    relative_entropy,
    sandwiched_divergence,
)
from alphaz.linalg import DomainError, NotPSDError, Spectrum, hermitian_part, support
from alphaz.states import (
    commuting_pair,
    example1_pair,
    random_density,
    random_reference,
    random_support_pair,
    random_unitary,
)

from conftest import max_abs, near_orthogonal_pair

# frozen oracle values (direct summation / hand-derived closed forms)
LN2 = 0.6931471805599453
LN_5_4 = 0.22314355131420976
EX1_REL_ENT = 0.8369882167858358          # -(ln(1/4) + ln(3/4))/2
EX1_VARIANCE = 0.3017372402031454         # (ln 3)^2 / 4
EX1_AZ_2_1 = 0.9808292530117262           # ln(8/3)
EX1_SANDWICHED_2 = 0.9114927888166523     # 2 ln((2 + 2/sqrt(3))/2)

seeds = st.integers(0, 2**32 - 1)


def classical_kl(p, q):
    return dv.prepare_classical(p, q).kl()


def classical_renyi(p, q, alpha):
    return dv.prepare_classical(p, q).renyi(alpha)


def random_probs(dim, seed, low=0.05):
    rng = np.random.default_rng(seed)
    p = rng.uniform(low, 1.0, size=dim)
    return p / p.sum()


class TestDivergenceValue:
    def test_finite(self):
        v = DivergenceValue.finite(1.5)
        assert v.is_finite and float(v) == 1.5 and v.infinity_reason is None

    def test_infinite_needs_reason(self):
        v = DivergenceValue.infinite(dv.INFINITY_SUPPORT)
        assert not v.is_finite
        with pytest.raises(ValueError):
            DivergenceValue(math.inf)
        with pytest.raises(ValueError):
            DivergenceValue(1.0, dv.INFINITY_SUPPORT)
        with pytest.raises(ValueError):
            DivergenceValue(math.nan)

    def test_bits_conversion(self):
        assert DivergenceValue.finite(LN2).in_bits() == pytest.approx(1.0, abs=1e-12)
        assert math.isinf(DivergenceValue.infinite(dv.INFINITY_SUPPORT).in_bits())


class TestClassicalKL:
    def test_equal_distributions(self):
        assert classical_kl([0.5, 0.5], [0.5, 0.5]).value == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_vs_uniform(self):
        assert classical_kl([1.0, 0.0], [0.5, 0.5]).value == pytest.approx(LN2, abs=1e-14)

    def test_support_violation(self):
        v = classical_kl([0.5, 0.5], [1.0, 0.0])
        assert not v.is_finite and v.infinity_reason == dv.INFINITY_SUPPORT

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            classical_kl([1.0], [0.5, 0.5])

    def test_rejects_non_probability(self):
        with pytest.raises(ValueError):
            classical_kl([0.7, 0.7], [0.5, 0.5])
        with pytest.raises(ValueError):
            classical_kl([1.5, -0.5], [0.5, 0.5])


class TestClassicalRenyi:
    def test_equal_distributions(self):
        p = random_probs(5, 3)
        for alpha in (0.3, 0.5, 2.0, 3.0):
            assert classical_renyi(p, p, alpha).value == pytest.approx(0.0, abs=1e-13)

    def test_alpha_two_frozen(self):
        got = classical_renyi([0.75, 0.25], [0.5, 0.5], 2.0)
        assert got.value == pytest.approx(LN_5_4, abs=1e-14)

    def test_alpha_one_rejected(self):
        with pytest.raises(DomainError, match=r"call ClassicalPair\.kl$"):
            classical_renyi([0.5, 0.5], [0.5, 0.5], 1.0)

    @given(seeds)
    def test_alpha_to_one_limit_matches_kl(self, seed):
        p = random_probs(4, seed)
        q = random_probs(4, seed + 1)
        kl = classical_kl(p, q).value
        h = 1e-4
        symmetric = 0.5 * (classical_renyi(p, q, 1 + h).value
                           + classical_renyi(p, q, 1 - h).value)
        assert abs(symmetric - kl) <= 1e-6

    def test_support_violation_above_one(self):
        v = classical_renyi([0.5, 0.5], [1.0, 0.0], 2.0)
        assert not v.is_finite and v.infinity_reason == dv.INFINITY_SUPPORT

    def test_restricted_support_below_one(self):
        # mass of p outside supp(q) silently drops for alpha < 1
        got = classical_renyi([0.5, 0.5], [1.0, 0.0], 0.5)
        assert got.value == pytest.approx(math.log(0.5**0.5) / (0.5 - 1.0), abs=1e-14)


class TestClassicalExtremeAlpha:
    """A non-finite alpha, or a finite one whose Renyi sum leaves double
    range, is a DomainError naming alpha from `ClassicalPair.renyi`, never
    an invariant error of DivergenceValue."""

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_non_finite(self, alpha):
        with pytest.raises(DomainError, match="alpha must be finite") as exc:
            classical_renyi([0.5, 0.5], [0.5, 0.5], alpha)
        assert str(exc.value).endswith(f"got {alpha!r}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning beside the error
    @pytest.mark.parametrize("p, q, alpha", [
        ([0.5, 0.5], [0.5, 0.5], 1e308),
        ([0.5, 0.5], [0.5, 0.5], -1e308),
        ([0.5, 0.5], [0.5, 0.5], 1100.0),
        ([0.5, 0.5], [0.5, 0.5], 1500.0),
        ([0.9, 0.1], [0.1, 0.9], 800.0),
    ])
    def test_sum_beyond_double_range(self, p, q, alpha):
        with pytest.raises(DomainError, match="alpha beyond double range") as exc:
            classical_renyi(p, q, alpha)
        assert str(exc.value).endswith(f"at alpha = {alpha!r}")

    def test_large_representable_alpha_is_finite(self):
        # 9^300 is about 1e286, inside double range
        assert classical_renyi([0.9, 0.1], [0.1, 0.9], 300.0).is_finite


def _numpy_scalar_kl(p, q):
    """`ClassicalPair.kl` as a loop over numpy scalars."""
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0.0:
            continue
        if qi <= 0.0:
            return dv.DivergenceValue.infinite(dv.INFINITY_SUPPORT)
        total += pi * math.log(pi / qi)
    return dv.DivergenceValue.finite(total)


def _numpy_scalar_renyi(p, q, alpha):
    """`ClassicalPair.renyi` as a loop over numpy scalars, whose powers
    overflow to inf."""
    total = 0.0
    with np.errstate(all="ignore"):
        for pi, qi in zip(p, q):
            if pi <= 0.0:
                if alpha <= 0.0:
                    raise DomainError("alpha <= 0 with zero p-entries is undefined")
                continue
            if qi <= 0.0:
                if alpha > 1.0:
                    return dv.DivergenceValue.infinite(dv.INFINITY_SUPPORT)
                continue
            total += pi**alpha * qi ** (1.0 - alpha)
    if not math.isfinite(total):
        raise DomainError(f"alpha beyond double range: the Renyi sum overflows "
                          f"at alpha = {alpha!r}")
    if total <= 0.0:
        return dv.DivergenceValue.infinite(dv.INFINITY_ORTHOGONAL)
    return dv.DivergenceValue.finite(math.log(total) / (alpha - 1.0))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DomainError as exc:
        return str(exc)


class TestClassicalPair:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_float_sums_equal_numpy_scalar_loop(self, dim):
        # the sums over Python floats round as those over numpy scalars did,
        # bit for bit, on the suites' commuting pairs and on vectors with
        # zero entries
        from alphaz.suites import BASE_SEED

        vectors = [commuting_pair(dim, BASE_SEED + 1000 + k)[2:] for k in range(6)]
        p, q = random_probs(dim, 7), random_probs(dim, 8)
        p[0], q[-1] = 0.0, 0.0
        vectors += [(p / p.sum(), q / q.sum())]
        for p, q in vectors:
            pair = dv.prepare_classical(p, q)
            assert pair.kl() == _numpy_scalar_kl(pair.p, pair.q)
            for alpha in (-2.0, 0.3, 0.5, 0.7, 0.999, 1.001, 1.5, 2.0, 3.0, 10.0, 250.0):
                assert (_outcome(pair.renyi, alpha)
                        == _outcome(_numpy_scalar_renyi, pair.p, pair.q, alpha))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p, q, alpha", [
        ([0.5, 0.5], [0.5, 0.5], 1100.0),     # every term overflows
        ([0.5, 0.5], [0.5, 0.5], -1100.0),
        ([1e-300, 1 - 1e-300], [0.5, 0.5], -2.0),  # the first p-power overflows
        ([0.5, 0.5], [1e-300, 1 - 1e-300], 3.0),   # the first q-power overflows
        # an overflow, then mass of p outside the support of q for alpha > 1
        ([0.5, 0.25, 0.25], [1e-300, 1 - 1e-300, 0.0], 3.0),
        # an overflow, then a zero p-entry for alpha <= 0
        ([1e-300, 1 - 1e-300, 0.0], [0.25, 0.25, 0.5], -2.0),
    ])
    def test_overflow_outcome_equals_numpy_scalar_loop(self, p, q, alpha):
        # float ** raises OverflowError where a numpy scalar gave inf: the
        # term counts as inf, so every outcome is the old one
        pair = dv.prepare_classical(p, q)
        assert (_outcome(pair.renyi, alpha)
                == _outcome(_numpy_scalar_renyi, pair.p, pair.q, alpha))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            dv.prepare_classical([1.0], [0.5, 0.5])

    def test_suite_validates_each_vector_once(self, monkeypatch):
        from alphaz.suites import run_suites

        # the suite checks its vectors as one stack of ps and one of qs per
        # dimension, through the stacked form of check_probability_vector
        rows = []
        original = dv._probability_rows
        monkeypatch.setattr(dv, "_probability_rows",
                            lambda stack: rows.extend(map(bytes, stack)) or original(stack))
        run_suites(["classical"], 10)
        assert len(rows) == 40  # 20 commuting pairs, p and q once each
        assert len(set(rows)) == 40


class TestRelativeEntropy:
    def test_self_is_zero(self):
        rho = random_density(4, 8)
        assert relative_entropy(rho, rho).value == pytest.approx(0.0, abs=1e-13)

    def test_example1_frozen(self, example1_quarter):
        rho, sigma = example1_quarter
        assert relative_entropy(rho, sigma).value == pytest.approx(EX1_REL_ENT, abs=1e-13)

    @given(seeds)
    def test_diagonal_matches_classical(self, seed):
        p = random_probs(5, seed)
        q = random_probs(5, seed + 1)
        got = relative_entropy(np.diag(p), np.diag(q)).value
        assert abs(got - classical_kl(p, q).value) <= 1e-12

    def test_support_violation(self):
        rho, sigma = random_support_pair(4, 17, rank=3, branch="violating")
        v = relative_entropy(rho, sigma)
        assert not v.is_finite and v.infinity_reason == dv.INFINITY_SUPPORT


class TestRelativeEntropyVariance:
    def test_self_is_zero(self):
        rho = random_density(3, 2)
        assert dv.prepare(rho, rho).variance() == pytest.approx(0.0, abs=1e-12)

    def test_example1_frozen(self, example1_quarter):
        rho, sigma = example1_quarter
        assert dv.prepare(rho, sigma).variance() == pytest.approx(EX1_VARIANCE, abs=1e-12)

    @pytest.mark.parametrize("c", [1e-5, 1e-50, 1e-150, 1e-300])
    def test_rescaled_self_pair_is_zero(self, c):
        # V(rho || c rho) = 0 while D = -ln c reaches 691. Taken as
        # Tr[rho d^2] - Tr[rho d]^2, two numbers of size (ln c)^2 cancel, and
        # the difference fell below -1e-12 on 26 of these 80 pairs
        for seed in range(20):
            rho = random_density(4, seed)
            v = dv.prepare(rho, c * rho).variance()
            assert 0.0 <= v <= 1e-20, (seed, v)

    @given(seeds)
    def test_diagonal_matches_classical(self, seed):
        p = random_probs(4, seed)
        q = random_probs(4, seed + 3)
        kl = classical_kl(p, q).value
        classical_var = sum(pi * math.log(pi / qi) ** 2 for pi, qi in zip(p, q)) - kl**2
        got = dv.prepare(np.diag(p), np.diag(q)).variance()
        assert abs(got - classical_var) <= 1e-12

    def test_support_violation_raises(self):
        rho, sigma = random_support_pair(4, 23, rank=3, branch="violating")
        with pytest.raises(DomainError, match="dominate"):
            dv.prepare(rho, sigma).variance()


class TestAlphaZDivergence:
    def test_example1_frozen(self, example1_quarter):
        rho, sigma = example1_quarter
        got = alpha_z_divergence(rho, sigma, 2.0, 1.0)
        assert got.value == pytest.approx(EX1_AZ_2_1, abs=1e-12)

    @given(seeds, st.sampled_from([(0.5, 1.0), (2.0, 1.0), (2.0, 2.0),
                                   (0.7, 0.5), (3.0, 2.0), (1.0, 1.0)]))
    def test_self_divergence_zero(self, seed, point):
        alpha, z = point
        rho = random_density(4, seed)
        assert abs(alpha_z_divergence(rho, rho, alpha, z).value) <= 1e-10

    def test_alpha_one_is_relative_entropy(self, example1_quarter):
        rho, sigma = example1_quarter
        for z in (0.5, 1.0, 2.0, -1.0):
            got = alpha_z_divergence(rho, sigma, 1.0, z).value
            assert got == pytest.approx(EX1_REL_ENT, abs=1e-13)

    def test_z_zero_rejected(self, example1_quarter):
        rho, sigma = example1_quarter
        with pytest.raises(DomainError, match="z = 0"):
            alpha_z_divergence(rho, sigma, 2.0, 0.0)

    @given(seeds)
    def test_diagonal_matches_classical_independent_of_z(self, seed):
        p = random_probs(4, seed, low=0.1)
        q = random_probs(4, seed + 5, low=0.1)
        rho, sigma = np.diag(p), np.diag(q)
        for alpha in (0.3, 0.7, 1.5, 2.0, 3.0):
            target = classical_renyi(p, q, alpha).value
            for z in (-2.0, -0.5, 0.5, 1.0, alpha, 2.0, 10.0):
                got = alpha_z_divergence(rho, sigma, alpha, z).value
                assert abs(got - target) <= 1e-10

    def test_restricted_support_below_one(self):
        # sigma rank-deficient but overlapping: finite for alpha < 1
        rho, sigma = random_support_pair(4, 31, rank=3, branch="violating")
        got = alpha_z_divergence(rho, sigma, 0.5, 1.0)
        assert got.is_finite

    def test_support_violation_above_one(self):
        rho, sigma = random_support_pair(4, 31, rank=3, branch="violating")
        v = alpha_z_divergence(rho, sigma, 2.0, 1.0)
        assert not v.is_finite and v.infinity_reason == dv.INFINITY_SUPPORT

    def test_orthogonal_all_alphas(self):
        rho, sigma = random_support_pair(4, 37, rank=2, branch="orthogonal")
        low = alpha_z_divergence(rho, sigma, 0.5, 1.0)
        assert not low.is_finite and low.infinity_reason == dv.INFINITY_ORTHOGONAL
        high = alpha_z_divergence(rho, sigma, 2.0, 1.0)
        assert not high.is_finite and high.infinity_reason == dv.INFINITY_SUPPORT

    def test_dominated_rank_deficient_sigma_is_finite(self):
        # the standard generalized-inverse case: alpha > 1 under dominance
        rho, sigma = random_support_pair(4, 41, rank=3, branch="dominating")
        got = alpha_z_divergence(rho, sigma, 2.0, 1.0)
        assert got.is_finite

    def test_undefined_negative_exponent_configurations(self):
        rho, sigma = random_support_pair(4, 43, rank=3, branch="dominating")
        # rank-deficient rho with negative rho-exponent (alpha < 0, z > 0)
        with pytest.raises(DomainError, match="support configuration"):
            alpha_z_divergence(rho, sigma, -1.0, 1.0)
        # rank-deficient sigma with negative sigma-exponent and no dominance
        rho_v, sigma_v = random_support_pair(4, 47, rank=3, branch="violating")
        with pytest.raises(DomainError, match="support configuration"):
            alpha_z_divergence(rho_v, sigma_v, 0.5, -1.0)

    def test_negative_z_full_rank(self):
        # full-rank inputs admit any z != 0; commuting case pins the value
        rho, sigma, p, q = commuting_pair(3, 53)
        got = alpha_z_divergence(rho, sigma, 2.0, -1.5).value
        assert abs(got - classical_renyi(p, q, 2.0).value) <= 1e-10

    @given(seeds)
    def test_unitary_invariance(self, seed):
        rho = random_density(3, seed)
        sigma = random_reference(3, seed + 1)
        u = random_unitary(3, seed + 2)
        for alpha, z in ((0.5, 1.0), (2.0, 0.5), (3.0, 3.0)):
            base = alpha_z_divergence(rho, sigma, alpha, z).value
            rot = alpha_z_divergence(u @ rho @ u.conj().T,
                                     u @ sigma @ u.conj().T, alpha, z).value
            assert abs(rot - base) <= 1e-9

    @given(seeds, st.floats(0.1, 10.0))
    def test_reference_scaling(self, seed, c):
        rho = random_density(3, seed)
        sigma = random_reference(3, seed + 1)
        for alpha, z in ((0.5, 1.0), (2.0, 2.0), (3.0, 1.0)):
            base = alpha_z_divergence(rho, sigma, alpha, z).value
            scaled = alpha_z_divergence(rho, c * sigma, alpha, z).value
            assert abs(scaled - (base - math.log(c))) <= 1e-10

    def test_invalid_density_rejected(self):
        with pytest.raises(DomainError, match="trace 1"):
            alpha_z_divergence(np.diag([0.7, 0.7]), np.eye(2), 2.0, 1.0)
        with pytest.raises(DomainError, match="nonzero"):
            alpha_z_divergence(np.diag([0.5, 0.5]), np.zeros((2, 2)), 2.0, 1.0)


class TestTraceFunctionalValues:
    def test_at_alpha_one(self):
        rho = random_density(4, 61)
        sigma = random_reference(4, 62)
        for z in (0.5, 1.0, 2.0, -1.0):
            assert float(dv.prepare(rho, sigma).traces(1.0, z)) == pytest.approx(1.0, abs=1e-12)

    @given(seeds)
    def test_diagonal_matches_classical_sum(self, seed):
        p = random_probs(4, seed, low=0.1)
        q = random_probs(4, seed + 5, low=0.1)
        for alpha in (0.5, 2.0):
            target = float(np.sum(p**alpha * q ** (1 - alpha)))
            for z in (0.5, 1.0, 2.0):
                got = float(dv.prepare(np.diag(p), np.diag(q)).traces(alpha, z))
                assert abs(got - target) <= 1e-12


class TestPetz:
    @given(seeds, st.sampled_from([2, 3, 4, 5, 6]),
           st.sampled_from([0.5, 2.0, 3.0]))
    def test_dual_path_agreement(self, seed, dim, alpha):
        # petz_divergence self-asserts its two routes; also pin it to the
        # generic alpha-z evaluation here
        rho = random_density(dim, seed)
        sigma = random_reference(dim, seed + 1)
        got = petz_divergence(rho, sigma, alpha).value
        assert abs(got - alpha_z_divergence(rho, sigma, alpha, 1.0).value) <= 1e-10

    def test_orthogonal_above_one(self):
        rho, sigma = random_support_pair(4, 71, rank=2, branch="orthogonal")
        v = petz_divergence(rho, sigma, 2.0)
        assert not v.is_finite and v.infinity_reason == dv.INFINITY_SUPPORT

    def test_orthogonal_below_one(self):
        rho, sigma = random_support_pair(4, 71, rank=2, branch="orthogonal")
        v = petz_divergence(rho, sigma, 0.5)
        assert not v.is_finite and v.infinity_reason == dv.INFINITY_ORTHOGONAL


class TestDualPathChecks:
    """petz and sandwiched check their kernel value against a second route;
    one route off by 1e-6 trips the check, and so does a NaN on either
    route."""

    @staticmethod
    def _skew(monkeypatch, name, factor=1.0 + 1e-6):
        """Scale the T that the route method `name` returns by `factor`
        (`_trace_sums` returns T with its fault codes)."""
        original = getattr(dv.PreparedPair, name)

        def skewed(*args, **kwargs):
            if name == "_power_sums":
                return original(*args, **kwargs) * factor
            t, fault = original(*args, **kwargs)
            return t * factor, fault

        monkeypatch.setattr(dv.PreparedPair, name,
                            staticmethod(skewed) if name == "_power_sums" else skewed)

    @pytest.mark.parametrize("cls, route, skewed", [
        # dominated: the kernel's product route against the SVD route
        ("full", "product", "_power_sums"),
        ("full", "product", "_trace_sums"),
        ("dominating", "product", "_trace_sums"),
        # not dominated: the kernel's SVD route against the overlap sum
        ("partial", "svd", "_trace_sums"),
    ])
    def test_petz_mismatch_raises(self, monkeypatch, cls, route, skewed):
        pair = dv.prepare(*_pair_of_class(cls))
        assert pair._divergence(0.5, 1.0)[1] == route
        self._skew(monkeypatch, skewed)
        with pytest.raises(ArithmeticError, match="Petz dual-path mismatch"):
            pair.petz(0.5)

    @pytest.mark.parametrize("cls, route, message", [
        # the Petz check's SVD route gives a NaN T
        ("full", "product", "Petz trace term collapsed to nan"),
        ("dominating", "product", "Petz trace term collapsed to nan"),
        # the kernel's SVD route gives a NaN value, which the overlap sum meets
        ("partial", "svd", "Petz dual-path mismatch: alpha-z route nan"),
    ])
    def test_petz_nan_raises(self, monkeypatch, cls, route, message):
        pair = dv.prepare(*_pair_of_class(cls))
        assert pair._divergence(0.5, 1.0)[1] == route
        self._skew(monkeypatch, "_trace_sums", math.nan)
        with pytest.raises(ArithmeticError, match=message):
            pair.petz(0.5)

    @pytest.mark.parametrize("cls", ["full", "dominating"])
    def test_sandwiched_nan_raises(self, monkeypatch, cls):
        # the kernel's SVD route at alpha = 1.5 gives a NaN value, which the
        # check's assembled factor meets; the check's own trace sum, the
        # second call of `_trace_sums`, is left as it is
        pair = dv.prepare(*_pair_of_class(cls))
        assert pair._divergence(1.5, 1.5)[1] == "svd"
        original, calls = dv.PreparedPair._trace_sums, []

        def nan_first(*args):
            t, fault = original(*args)
            calls.append(t)
            return (t * math.nan if len(calls) == 1 else t), fault

        monkeypatch.setattr(dv.PreparedPair, "_trace_sums", nan_first)
        with pytest.raises(ArithmeticError,
                           match="sandwiched dual-path mismatch: alpha-z route nan"):
            pair.sandwiched(1.5)

    @pytest.mark.parametrize("cls", ["full", "dominating", "violating", "leak"])
    @pytest.mark.parametrize("alpha", [0.3, 1.5, 2.5])
    def test_sandwiched_check_equals_kernel(self, monkeypatch, cls, alpha):
        # the scalar check takes G's powers at z = alpha; the kernel's
        # sandwiched rows (`dual_traces` for alpha > 1, where a row with
        # alpha < 1 is a Petz row) take their own, and both give one T
        pair = dv.prepare(*_pair_of_class(cls))
        checked = []
        monkeypatch.setattr(dv, "_assert_dual_path", lambda label, value, a, t: checked.append(t))
        pair.sandwiched(alpha)
        if pair._divergence(alpha, alpha)[1] == "closed":  # no self-check
            assert not checked
            return
        stack, pi, a = dv._Stack([pair]), np.zeros(1, dtype=int), np.array([alpha])
        singular = np.linalg.svd(dv._sandwiched_factors(stack, pi, a), compute_uv=False)
        [want] = stack._trace_sums(singular, a, pi)[0]
        if alpha > 1.0:
            [row] = stack.dual_traces(pi, a, a, np.ones(1, dtype=bool), np.zeros(1, dtype=bool),
                                      None)[0]
            assert np.float64(row).tobytes() == want.tobytes()
        [got] = checked
        assert np.float64(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("cls", ["full", "dominating"])
    def test_sandwiched_mismatch_raises_at_two(self, monkeypatch, cls):
        pair = dv.prepare(*_pair_of_class(cls))
        assert pair._divergence(2.0, 2.0)[1] == "product"
        self._skew(monkeypatch, "_power_sums")
        with pytest.raises(ArithmeticError, match="sandwiched dual-path mismatch"):
            pair.sandwiched(2.0)

    @pytest.mark.parametrize("skewed, label", [
        # the kernel's product route against the Petz check's SVD route
        ("_power_sums", "Petz"),
        ("_trace_sums", "Petz"),
        # the sandwiched check's assembled factors against the kernel
        ("_sandwiched_factors", "sandwiched"),
    ])
    def test_batched_dpi_mismatch_raises(self, monkeypatch, capsys, skewed, label):
        # the dpi suite checks every value of its one kernel pass at once
        from alphaz import cli
        from alphaz.suites import run_suites

        if skewed == "_sandwiched_factors":
            original = dv._sandwiched_factors
            monkeypatch.setattr(dv, skewed, lambda *args: original(*args) * (1.0 + 1e-6))
        else:
            self._skew(monkeypatch, skewed)
        with pytest.raises(ArithmeticError, match=f"{label} dual-path mismatch"):
            run_suites(["dpi"], 3)
        capsys.readouterr()
        assert cli.main(["verify", "--suite", "dpi", "--seeds", "3"]) == cli.EXIT_INTERNAL
        assert f"{label} dual-path mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("planted", ["_trace_sums", "dual_traces"])
    def test_batched_dpi_nan_raises(self, monkeypatch, capsys, planted):
        # a NaN kernel value (the SVD route's T) or a NaN check T fails the
        # batched checks at the first open point, a Petz value at alpha = 0.3
        from alphaz import cli
        from alphaz.suites import run_suites

        if planted == "dual_traces":
            original = dv._Stack.dual_traces

            def nan_traces(*args):
                t, fault = original(*args)
                return t * math.nan, fault

            monkeypatch.setattr(dv._Stack, planted, nan_traces)
        else:
            self._skew(monkeypatch, planted, math.nan)
        message = "Petz (dual-path mismatch|trace term collapsed)"
        with pytest.raises(ArithmeticError, match=message):
            run_suites(["dpi"], 3)
        capsys.readouterr()
        assert cli.main(["verify", "--suite", "dpi", "--seeds", "3"]) == cli.EXIT_INTERNAL
        assert "Petz" in capsys.readouterr().err

    def test_batched_checks_pass_unskewed(self):
        # every route and check of the batch on pairs of every support class:
        # Petz values from both routes, sandwiched values, closed points
        pairs = [dv.prepare(*_pair_of_class(cls))
                 for cls in ("full", "dominating", "violating", "orthogonal", "partial")]
        alphas = [0.3, 0.7, 1.0, 1.5, 2.0, 3.0]
        values = dv.stacked_mosonyi_ogawa(pairs, alphas)
        for pair, row in zip(pairs, values, strict=True):
            for alpha, value in zip(alphas, row.tolist()):
                expected = pair.mosonyi_ogawa(alpha).value
                assert value == expected
        with pytest.raises(DomainError, match="order must be positive, got -0.5"):
            dv.stacked_mosonyi_ogawa(pairs, [0.5, -0.5])


class TestSandwiched:
    def test_commuting_equals_petz(self):
        rho, sigma, _, _ = commuting_pair(4, 83)
        for alpha in (0.3, 0.7, 1.5, 2.0, 3.0):
            got = sandwiched_divergence(rho, sigma, alpha).value
            assert abs(got - petz_divergence(rho, sigma, alpha).value) <= 1e-10

    def test_example1_frozen(self, example1_quarter):
        rho, sigma = example1_quarter
        got = sandwiched_divergence(rho, sigma, 2.0)
        assert got.value == pytest.approx(EX1_SANDWICHED_2, abs=1e-12)

    def test_self_is_zero(self):
        rho = random_density(3, 89)
        assert abs(sandwiched_divergence(rho, rho, 2.0).value) <= 1e-10

    def test_alpha_zero_rejected(self):
        rho = random_density(2, 97)
        with pytest.raises(DomainError, match="z = 0"):
            sandwiched_divergence(rho, rho, 0.0)

    @given(seeds, st.sampled_from([0.3, 0.7, 1.5, 2.0, 3.0]))
    @example(seed=3350, alpha=0.3)
    def test_never_exceeds_petz(self, seed, alpha):
        # z-monotonicity consequence: the z=alpha member sits below z=1 for
        # alpha on both sides of 1
        rho = random_density(4, seed)
        sigma = random_reference(4, seed + 1)
        sand = sandwiched_divergence(rho, sigma, alpha).value
        petz = petz_divergence(rho, sigma, alpha).value
        assert sand <= petz + 1e-10

    @pytest.mark.parametrize("seed", [14, 201, 251, 600])
    def test_self_check_route_keeps_small_eigenvalues(self, seed):
        # pairs where an eigendecomposition of the assembled inner operator
        # missed the alpha-z route by more than the self-check tolerance at
        # alpha = 0.3; the value itself matches the 50-digit oracle
        rho, sigma = random_density(4, seed), random_reference(4, seed + 1)
        got = sandwiched_divergence(rho, sigma, 0.3).value
        ref = _oracle_divergence(rho, sigma, 0.3, 0.3)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(float(ref)))


class TestMosonyiOgawa:
    def test_dispatch(self):
        rho = random_density(4, 101)
        sigma = random_reference(4, 102)
        below = mosonyi_ogawa_divergence(rho, sigma, 0.7).value
        assert below == pytest.approx(petz_divergence(rho, sigma, 0.7).value, abs=1e-14)
        above = mosonyi_ogawa_divergence(rho, sigma, 1.3).value
        assert above == pytest.approx(
            sandwiched_divergence(rho, sigma, 1.3).value, abs=1e-14)
        at_one = mosonyi_ogawa_divergence(rho, sigma, 1.0).value
        assert at_one == pytest.approx(relative_entropy(rho, sigma).value, abs=1e-14)

    def test_rejects_nonpositive_order(self):
        rho = random_density(2, 103)
        with pytest.raises(DomainError, match="positive"):
            mosonyi_ogawa_divergence(rho, rho, -0.5)

    @given(seeds, st.sampled_from([0.3, 0.7, 1.5, 2.0]))
    def test_pinching_dpi(self, seed, alpha):
        rho = random_density(4, seed)
        sigma = random_reference(4, seed + 1)
        before = mosonyi_ogawa_divergence(rho, sigma, alpha).value
        basis = support(sigma)
        after = mosonyi_ogawa_divergence(basis.pinch(rho), basis.pinch(sigma), alpha).value
        assert after <= before + 1e-9


def _pair_of_class(cls, dim=4):
    """A full-rank, dominating, violating, orthogonal, partial-overlap or
    leaking (rho, sigma) pair, of dimension 4 unless `dim` says otherwise;
    the partial-overlap pair (dimension 4) has inner rank 1 and neither
    operator dominates, and the leaking rho puts weight 1e-10 on ker sigma,
    above the zero cutoff."""
    if cls == "full":
        return random_density(dim, 111), random_reference(dim, 112)
    if cls == "partial":
        p, q = np.array([0.3, 0.7, 0.0, 0.0]), np.array([0.0, 0.6, 0.4, 0.0])
        u = random_unitary(4, 5)
        return (u * p) @ u.conj().T, (u * q) @ u.conj().T
    rank = dim // 2
    if cls == "leak":
        u, leak = random_unitary(dim, 114), 1e-10
        inner = np.zeros((dim, dim), dtype=complex)
        inner[:rank, :rank] = (1.0 - leak) * random_density(rank, 115)
        inner[rank, rank] = leak
        q = np.pad(np.full(rank, 1.0 / rank), (0, dim - rank))
        return hermitian_part(u @ inner @ u.conj().T), hermitian_part((u * q) @ u.conj().T)
    return random_support_pair(dim, 113, rank=rank, branch=cls)


class TestPreparedPairFamilies:
    """petz, sandwiched and mosonyi_ogawa are PreparedPair methods; the
    module functions prepare once and call them."""

    CLASSES = ("full", "dominating", "violating", "orthogonal")

    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.5, 2.0])
    def test_methods_match_module_functions(self, cls, alpha):
        rho, sigma = _pair_of_class(cls)
        pair = dv.prepare(rho, sigma)
        assert pair.dominated == (cls in ("full", "dominating"))
        assert pair.orthogonal == (cls == "orthogonal")
        for method, function in ((pair.petz, petz_divergence),
                                 (pair.sandwiched, sandwiched_divergence),
                                 (pair.mosonyi_ogawa, mosonyi_ogawa_divergence)):
            got, expected = method(alpha), function(rho, sigma, alpha)
            assert got.value == expected.value
            assert got.infinity_reason == expected.infinity_reason
        assert pair.petz(alpha) == pair.divergence(alpha, 1.0)
        assert pair.sandwiched(alpha) == pair.divergence(alpha, alpha)
        side = pair.petz if alpha < 1.0 else pair.sandwiched
        assert pair.mosonyi_ogawa(alpha) == side(alpha)

    @pytest.mark.parametrize("cls", CLASSES)
    @pytest.mark.parametrize("offset", [-dv.ALPHA_ONE_TOL / 2, 0.0, dv.ALPHA_ONE_TOL / 2])
    def test_mosonyi_ogawa_near_one_is_relative_entropy(self, cls, offset):
        rho, sigma = _pair_of_class(cls)
        got = dv.prepare(rho, sigma).mosonyi_ogawa(1.0 + offset)
        assert got == relative_entropy(rho, sigma)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_nonpositive_order_rejected(self, alpha):
        pair = dv.prepare(*_pair_of_class("full"))
        with pytest.raises(DomainError, match="positive"):
            pair.mosonyi_ogawa(alpha)

    def test_sandwiched_alpha_zero_rejected(self):
        pair = dv.prepare(*_pair_of_class("full"))
        with pytest.raises(DomainError, match="z = 0"):
            pair.sandwiched(0.0)


class TestCommutingReduction:
    @given(seeds, st.sampled_from([2, 4, 6, 8]))
    def test_full_grid(self, seed, dim):
        rho, sigma, p, q = commuting_pair(dim, seed)
        assert max_abs(rho @ sigma - sigma @ rho) <= 1e-12
        for alpha in (0.3, 0.7, 1.5, 2.0, 3.0):
            target = classical_renyi(p, q, alpha).value
            for z in (-2.0, -0.5, 0.5, 1.0, alpha, 2.0, 10.0):
                got = alpha_z_divergence(rho, sigma, alpha, z).value
                assert abs(got - target) <= 1e-10
        assert abs(relative_entropy(rho, sigma).value
                   - classical_kl(p, q).value) <= 1e-12


class TestSupportRule:
    # rho puts weight 1e-10 on ker(sigma): far above the 1e-12 rank cutoff,
    # so sigma does not dominate rho
    SIGMA = np.diag([0.5, 0.5, 0.0])
    RHO = np.diag([0.5 - 5e-11, 0.5 - 5e-11, 1e-10])

    def test_leak_above_one_is_support_violation(self):
        for v in (alpha_z_divergence(self.RHO, self.SIGMA, 2.0, 1.0),
                  relative_entropy(self.RHO, self.SIGMA)):
            assert not v.is_finite and v.infinity_reason == dv.INFINITY_SUPPORT

    def test_leak_below_one_is_finite(self):
        v = alpha_z_divergence(self.RHO, self.SIGMA, 0.5, 1.0)
        assert v.is_finite and v.value >= 0.0

    def test_rank_and_dominance_agree(self):
        pair = dv.prepare(self.RHO, self.SIGMA)
        assert pair.rho.rank == 3 and pair.sigma.rank == 2
        assert not pair.dominated and not pair.orthogonal


class TestInnerRank:
    def test_partial_overlap_of_rank_deficient_pair(self):
        # supports span {e0, e1} and {e1, e2} in a random basis: they share
        # one direction, so every inner operator has rank 1, and round-off
        # singular values must not be raised to the small power 2z
        p, q = np.array([0.3, 0.7, 0.0]), np.array([0.0, 0.6, 0.4])
        u = random_unitary(3, 5)
        rho, sigma = (u * p) @ u.conj().T, (u * q) @ u.conj().T
        assert dv.prepare(rho, sigma).inner_rank == 1
        target = classical_renyi(p, q, 0.5).value
        for z in (0.25, 0.5, 2.0):
            assert abs(alpha_z_divergence(rho, sigma, 0.5, z).value - target) <= 1e-10


class TestNearOrthogonalSupports:
    # rho's weight on supp sigma, 8e-13, exceeds rho's zero threshold of
    # 5e-13, while each cosine between the supports squares to 8e-13, below
    # eps: the inner rank is 0, so the supports are orthogonal. Once the
    # weight alone decided orthogonality, and alpha < 1 reached the SVD
    # route with no singular value kept: "trace functional collapsed to 0.0"
    RHO, SIGMA = near_orthogonal_pair(0.8e-12)

    def test_inner_rank_zero_is_orthogonal(self):
        pair = dv.prepare(self.RHO, self.SIGMA)
        weight = float(pair.weights[:2, :2].sum(axis=0) @ pair.rho.values[:2])
        assert weight > pair.rho.threshold
        assert (pair.dominated, pair.orthogonal, pair.inner_rank) == (False, True, 0)

    @pytest.mark.parametrize("family", ["alphaz", "petz", "sandwiched", "mo"])
    def test_infinite_on_both_sides_of_one(self, family):
        pair = dv.prepare(self.RHO, self.SIGMA)
        method = {"alphaz": lambda a: pair.divergence(a, 1.0), "petz": pair.petz,
                  "sandwiched": pair.sandwiched, "mo": pair.mosonyi_ogawa}[family]
        assert method(0.5) == DivergenceValue.infinite(dv.INFINITY_ORTHOGONAL)
        assert method(2.0) == DivergenceValue.infinite(dv.INFINITY_SUPPORT)
        assert alpha_z_divergence(self.RHO, self.SIGMA, 0.5, 1.0) == method(0.5)

    def test_stacked_calls(self):
        pair = dv.prepare(self.RHO, self.SIGMA)
        assert pair.divergences([0.5, 2.0], 1.0).tolist() == [math.inf, math.inf]
        assert dv.stacked_mosonyi_ogawa([pair], [0.5, 2.0]).tolist() == [[math.inf, math.inf]]

    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.9])
    def test_cosines_on_both_sides_of_eps(self, alpha):
        # cosines squared 1.25e-12 and 0.25e-12: the inner rank is 1, and the
        # cosine below eps counts as zero in the kernel and in the Petz
        # self-check's overlap sum alike. Once the overlap sum kept it, and
        # petz raised "Petz dual-path mismatch" on this valid pair
        pair = dv.prepare(*near_orthogonal_pair(1.25e-12, 0.25e-12))
        assert (pair.dominated, pair.orthogonal, pair.inner_rank) == (False, False, 1)
        # sigma and rho are 1/2 on both support vectors, so T = 1.25e-12 / 2
        expected = math.log(0.5 * 1.25e-12) / (alpha - 1.0)
        for value in (pair.petz(alpha).value, pair.mosonyi_ogawa(alpha).value,
                      pair.divergence(alpha, 1.0).value,
                      float(dv.stacked_mosonyi_ogawa([pair], [alpha])[0, 0])):
            assert abs(value - expected) <= 1e-10 * abs(expected)


class TestBatchedKernel:
    """PreparedPair.traces/divergences against one-point `traces` calls and
    the scalar `divergence`, bit for bit."""

    ALPHAS = np.array([0.2, 0.5, 0.9, 0.999, 1.0, 1.001, 1.5, 2.0, 3.0])

    @staticmethod
    def _assert_agree(pair, alphas, zs):
        a, z = np.broadcast_arrays(np.asarray(alphas)[:, None], np.asarray(zs)[None, :])
        t = pair.traces(a, z)
        d = pair.divergences(a, z)
        assert t.shape == d.shape == a.shape
        for idx in np.ndindex(a.shape):
            assert t[idx] == float(pair.traces(a[idx], z[idx]))
            assert d[idx] == pair.divergence(a[idx], z[idx]).value

    def test_full_rank_with_negative_z(self):
        pair = dv.prepare(random_density(4, 1), random_reference(4, 2))
        self._assert_agree(pair, np.append(self.ALPHAS, -0.5),
                           [-2.0, -0.5, 0.25, 1.0, 3.0])

    def test_dominating_rank_deficient(self):
        pair = dv.prepare(*random_support_pair(5, 17, rank=3, branch="dominating"))
        assert pair.dominated and pair.rho.rank < 5 and pair.sigma.rank < 5
        self._assert_agree(pair, self.ALPHAS, [0.25, 0.5, 1.0, 4.0])
        # negative alpha and z: both exponents of rho stay positive
        self._assert_agree(pair, [-1.5, -0.5], [-2.0, -1.0])

    def test_partial_overlap_below_one(self):
        p, q = np.array([0.3, 0.7, 0.0]), np.array([0.0, 0.6, 0.4])
        u = random_unitary(3, 5)
        pair = dv.prepare((u * p) @ u.conj().T, (u * q) @ u.conj().T)
        assert not pair.dominated and not pair.orthogonal
        self._assert_agree(pair, [0.1, 0.3, 0.5, 0.8, 0.95], [0.25, 0.5, 1.0, 2.0])

    def test_scalar_points_broadcast(self):
        pair = dv.prepare(random_density(3, 4), random_reference(3, 5))
        assert pair.traces(2.0, 0.5).shape == ()
        assert pair.divergences([0.5, 2.0], 1.0).shape == (2,)

    @pytest.mark.parametrize("branch, rank, alpha, z", [
        ("dominating", 3, 0.5, -1.0),   # rho rank-deficient, negative exponent
        ("violating", 3, 2.0, 1.0),     # sigma rank-deficient, not dominating
    ])
    def test_undefined_point_raises_scalar_message(self, branch, rank, alpha, z):
        pair = dv.prepare(*random_support_pair(4, 23, rank=rank, branch=branch))
        with pytest.raises(DomainError) as scalar:
            pair.traces(alpha, z)
        with pytest.raises(DomainError) as batched:
            pair.traces([0.5, alpha, 0.7], [1.0, z, 2.0])
        assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("branch", ["dominating", "violating"])
    def test_scalar_divergence_raises_traces_message(self, branch):
        # alpha < 1 and z < 0: rho's exponent is negative, and so is sigma's,
        # which only dominance endorses; D needs T at this point
        pair = dv.prepare(*random_support_pair(4, 23, rank=3, branch=branch))
        with pytest.raises(DomainError) as scalar:
            pair.divergence(0.5, -1.0)
        with pytest.raises(DomainError) as one_point:
            pair.traces(0.5, -1.0)
        assert str(scalar.value) == str(one_point.value)
        assert ("rho" if branch == "dominating" else "sigma") in str(scalar.value)

    def test_z_zero_rejected(self):
        pair = dv.prepare(random_density(3, 4), random_reference(3, 5))
        with pytest.raises(DomainError, match="z = 0"):
            pair.divergences([0.5, 2.0], [1.0, 0.0])

    @pytest.mark.parametrize("cls", ["full", "violating"])
    def test_empty_batch(self, cls):
        pair = dv.prepare(*_pair_of_class(cls))
        assert pair.traces([], []).shape == pair.divergences([], []).shape == (0,)
        values, traces = pair.evaluate([], [])
        assert values.shape == traces.shape == (0,)

    def test_evaluate_at_one_point_gives_arrays(self):
        # 0-d arrays at a scalar point, not numpy scalars
        pair = dv.prepare(*_pair_of_class("full"))
        values, traces = pair.evaluate(0.5, 2.0)
        assert type(values) is type(traces) is np.ndarray
        assert values.shape == traces.shape == ()
        assert float(values) == pair.divergences(0.5, 2.0)

    @pytest.mark.parametrize("cls", ["full", "dominating", "violating", "orthogonal",
                                     "partial"])
    def test_evaluate_returns_floats(self, cls):
        # a grid of open, closed and undefined points (the points where D
        # needs an undefined T are left out: they raise); D is the
        # divergences row bit for bit, ln T / (a - 1) of the returned T by
        # the one quotient where D needs T, and the scalar divergence's +inf
        # or relative entropy where the supports decide it
        pair = dv.prepare(*_pair_of_class(cls))
        points = []
        for a, z in itertools.product(self.ALPHAS.tolist(), [-1.0, 0.5, 2.0]):
            try:
                points.append((a, z, pair.divergence(a, z).value))
            except DomainError:
                pass
        alphas, zs, refs = (np.array(x) for x in zip(*points))
        values, traces = pair.evaluate(alphas, zs)
        assert values.dtype == traces.dtype == np.float64
        assert values.shape == traces.shape == alphas.shape
        assert values.tobytes() == pair.divergences(alphas, zs).tobytes()
        routes = [pair._route(a, z) for a, z, _ in points]
        closed = np.array([bool(closed) for closed, *_ in routes])
        undefined = np.array([not defined for _, defined, *_ in routes])
        assert closed.any() and (cls == "orthogonal" or not closed.all())
        assert undefined.any() == (cls != "full")
        assert np.array_equal(np.isnan(traces), undefined)
        assert np.array_equal(values[closed], refs[closed])
        quotient = np.log(traces[~closed]) / (alphas[~closed] - 1.0)
        assert values[~closed].tobytes() == quotient.tobytes()
        assert values[~closed].tobytes() == refs[~closed].tobytes()

    @pytest.mark.parametrize("alphas, zs", [
        (0.5, 1.0), (2.0, 2.5), (1.0, 3.0),
        ([[0.5, 2.0]], [[1.0, 1.0]]),
        ([[0.3], [1.0], [2.0]], [1.0, 0.5, 2.0, 16.0]),
    ])
    def test_evaluate_takes_broadcast_points(self, alphas, zs):
        # D and T of the broadcast shape, D equal to `divergences` bit for bit
        pair = dv.prepare(*_pair_of_class("full"))
        values, traces = pair.evaluate(alphas, zs)
        expected = pair.divergences(alphas, zs)
        assert values.shape == traces.shape == expected.shape == np.broadcast(alphas, zs).shape
        assert values.tobytes() == expected.tobytes()
        assert traces.tobytes() == pair.traces(alphas, zs).tobytes()

    def test_evaluate_raises_first_collapsed_trace(self, monkeypatch):
        pair = dv.prepare(*_pair_of_class("full"))
        monkeypatch.setattr(dv._Stack, "rows", lambda *args, **kwargs: (
            np.zeros(3, dtype=bool), np.array([0.5, -0.0, -1.0]), np.zeros(3, dtype=int),
            np.full(3, math.nan), np.zeros(3, dtype=int)))
        with pytest.raises(ArithmeticError, match=r"trace functional collapsed to -0\.0$"):
            pair.evaluate([0.5, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_z_zero_reported_before_nan(self):
        pair = dv.prepare(random_density(3, 4), random_reference(3, 5))
        for alphas, zs in (([math.nan, 2.0], [1.0, 0.0]), ([0.5, 2.0], [math.nan, 0.0])):
            for call in (pair.traces, pair.divergences, pair.evaluate):
                with pytest.raises(DomainError, match="z = 0"):
                    call(alphas, zs)

    @pytest.mark.parametrize("cls", ["full", "violating"])
    def test_batch_with_and_without_closed_points(self, cls):
        # a closed point (alpha = 1, or alpha > 1 without dominance) takes the
        # masked path; the same open points alone take the unmasked one
        pair = dv.prepare(*_pair_of_class(cls))
        open_alphas = [0.2, 0.5, 0.8] if cls == "violating" else [0.5, 0.8, 1.5, 3.0]
        zs = [0.5, 1.0, 2.0, -1.0][:len(open_alphas)]
        alone = pair.divergences(open_alphas, zs)
        mixed = pair.divergences(open_alphas + [1.0, 2.0], zs + [1.0, 1.0])
        assert np.array_equal(mixed[:len(open_alphas)], alone)
        assert mixed[-2] == pair.relative_entropy().value
        assert mixed[-1] == pair.divergence(2.0, 1.0).value
        for alpha, z, value in zip(open_alphas, zs, alone):
            assert value == pair.divergence(alpha, z).value

    def test_rank_deficient_raises_first_undefined_point(self):
        pair = dv.prepare(*random_support_pair(4, 23, rank=3, branch="dominating"))
        alphas, zs = [0.5, 0.5, 0.7, 2.0], [1.0, -1.0, -2.0, -0.5]
        with pytest.raises(DomainError) as scalar:
            pair.traces(0.5, -1.0)
        full = dv.prepare(*_pair_of_class("full"))  # defined at every point
        for call in (pair.traces, pair.divergences, pair.evaluate,
                     lambda a, z: dv.stacked_divergences([full, pair], a, z)):
            with pytest.raises(DomainError) as batched:
                call(alphas, zs)
            assert str(batched.value) == str(scalar.value)

    @pytest.mark.parametrize("branch, rank, seed, alphas, nan_cells", [
        # NaN trace cells of the per-point evaluation this sweep replaced,
        # alpha-major over zs (-1, 0.5, 2)
        ("violating", 3, 59, (1.0, 1.5, 2.0),
         [False, False, False, False, True, True, False, True, True]),
        ("orthogonal", 2, 61, (0.5, 1.0, 2.0),
         [True, False, False, True, False, False, True, True, True]),
    ])
    def test_sweep_nan_cells(self, branch, rank, seed, alphas, nan_cells):
        from alphaz.analysis import SweepSpec, sweep

        rho, sigma = random_support_pair(4, seed, rank=rank, branch=branch)
        _, _, values, traces = sweep(rho, sigma, SweepSpec(alphas=alphas, zs=(-1.0, 0.5, 2.0)))
        assert [math.isnan(t) for t in traces.tolist()] == nan_cells
        assert not np.isfinite(values).any()

    def test_sweep_raises_where_divergence_needs_undefined_trace(self):
        from alphaz.analysis import SweepSpec, sweep

        rho, sigma = random_support_pair(4, 23, rank=3, branch="dominating")
        with pytest.raises(DomainError, match="rho is rank-deficient"):
            sweep(rho, sigma, SweepSpec(alphas=(0.5, 2.0), zs=(1.0, -1.0)))

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning beside the error
    @pytest.mark.parametrize("sigma, alpha, z", [
        # alpha = 1 under dominance: the trace sum underflows
        (random_density(3, 6), 1.0, 1e-300),
        # alpha > 1 without dominance: rho's powers overflow
        (random_support_pair(3, 3, rank=2, branch="violating")[1], 1e300, -1.0),
    ], ids=["underflow", "overflow"])
    def test_sweep_closed_point_out_of_range(self, sigma, alpha, z):
        # D needs no T at a closed point, so a T out of double range there
        # is NaN, not an error
        from alphaz.analysis import SweepSpec, sweep

        rho = random_density(3, 5)
        pair = dv.prepare(rho, sigma)
        with pytest.raises(DomainError, match="beyond double range"):
            pair.traces(alpha, z)
        expected = pair.divergence(alpha, z)
        values, traces = pair.evaluate([0.5, alpha], [1.0, z])
        assert values[1] == expected.value and math.isnan(traces[1])
        assert values[0] == pair.divergences(0.5, 1.0) and traces[0] == pair.traces(0.5, 1.0)
        _, _, values, traces = sweep(rho, sigma, SweepSpec(alphas=(alpha,), zs=(z,)))
        assert values.tolist() == [expected.value] and math.isnan(traces[0])


class TestStackedDivergences:
    """stacked_divergences against each pair's own divergences call."""

    @staticmethod
    def _stack():
        # full rank, dominated rank-deficient, violating (overlapping, not
        # dominated), orthogonal, and a partial overlap of inner rank 1
        return [dv.prepare(*_pair_of_class(cls))
                for cls in ("full", "dominating", "violating", "orthogonal", "partial")]

    def test_rows_equal_own_calls_bit_for_bit(self):
        pairs = self._stack()
        assert [pair.inner_rank for pair in pairs] == [4, 2, 2, 0, 1]
        # integer z up to Z_PRODUCT_MAX takes the product route on the
        # dominated pairs, the rest the SVD route
        alphas = np.array([[0.3], [0.7], [1.0], [1.5], [3.0]])
        zs = [0.5, 1.0, 2.0, 2.5, 3.0, 16.0, 17.0]
        rows = dv.stacked_divergences(pairs, alphas, zs)
        assert rows.shape == (5, 5, 7)
        for pair, row in zip(pairs, rows):
            assert np.array_equal(row, pair.divergences(alphas, zs))
        assert np.isinf(rows[2, 2:]).all() and np.isinf(rows[3]).all()
        assert np.isfinite(rows[[0, 1]]).all()

    def test_rows_in_chunks_bit_for_bit(self, monkeypatch):
        # a stack that evaluates its rows a few at a time gives the values
        # of one that takes them at once, for one dimension and for several
        pairs = self._stack() + [self._pair(3, "full", 70)]
        alphas = np.array([[0.3], [0.7], [1.0], [1.5], [3.0]])
        zs = [0.5, 1.0, 2.0, 2.5, 16.0]
        calls = {"divergences": lambda ps: dv.stacked_divergences(ps, alphas, zs),
                 "mosonyi_ogawa": lambda ps: dv.stacked_mosonyi_ogawa(ps, alphas[:, 0])}
        whole = {name: (call(pairs[:5]), call(pairs)) for name, call in calls.items()}
        sizes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda g, **kw: sizes.append(len(g)) or svd(g, **kw))
        monkeypatch.setattr(dv, "_STACK_ROWS", 3)
        for name, call in calls.items():
            for got, want in zip((call(pairs[:5]), call(pairs)), whole[name], strict=True):
                assert np.array_equal(got, want)
        assert sizes and max(sizes) <= 3

    def test_one_pair_is_divergences(self):
        pair = dv.prepare(*_pair_of_class("full"))
        alphas, zs = [0.5, 1.0, 2.0], [1.0, 1.0, -0.5]
        assert np.array_equal(dv.stacked_divergences([pair], alphas, zs),
                              pair.divergences(alphas, zs)[None])

    def test_first_undefined_point_by_pair_then_by_point(self):
        full, violating, dominated = (dv.prepare(*_pair_of_class(cls))
                                      for cls in ("full", "violating", "dominating"))
        # negative alpha is undefined on the dominated pair's rank-deficient
        # rho; negative z below alpha = 1 on the violating pair's sigma too
        alphas, zs = [-0.5, 0.5], [1.0, -1.0]
        for stack, first in (([full, violating, dominated], violating),
                             ([dominated, violating], dominated)):
            with pytest.raises(DomainError) as own:
                first.divergences(alphas, zs)
            with pytest.raises(DomainError) as stacked:
                dv.stacked_divergences(stack, alphas, zs)
            assert str(stacked.value) == str(own.value)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning beside the error
    def test_earlier_pair_out_of_range_beats_later_undefined_point(self):
        # the first pair whose own call fails raises its own error, although
        # a later pair has an undefined point
        full, dominated = (dv.prepare(*_pair_of_class(cls)) for cls in ("full", "dominating"))
        alphas, zs = [0.5, 2.0], [-1.0, 1e-300]
        with pytest.raises(DomainError, match="spectral powers overflow") as own:
            full.divergences(alphas, zs)
        with pytest.raises(DomainError) as stacked:
            dv.stacked_divergences([full, dominated], alphas, zs)
        assert str(stacked.value) == str(own.value)

    @staticmethod
    def _pair(dim, cls, seed):
        if cls == "full":
            return dv.prepare(random_density(dim, seed), random_reference(dim, seed + 1))
        return dv.prepare(*random_support_pair(dim, seed, rank=dim - 1, branch=cls))

    def test_interleaved_dimensions_equal_own_calls_bit_for_bit(self, monkeypatch):
        # pair i has dimension (2, 3, 4)[i % 3] and class i % 4: all twelve
        # combinations, no two neighbours of one dimension
        classes = ("full", "dominating", "violating", "orthogonal")
        pairs = [self._pair((2, 3, 4)[i % 3], classes[i % 4], 40 + 2 * i) for i in range(12)]
        alphas = np.array([[0.3], [0.7], [1.0], [1.5], [3.0]])
        zs = [0.5, 1.0, 2.0, 2.5, 3.0, 16.0, 17.0]
        sizes, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda g, **kw: sizes.append(g.shape[-1]) or svd(g, **kw))
        rows = dv.stacked_divergences(pairs, alphas, zs)
        # one svd per dimension, in the order the dimensions first appear
        assert sizes == [2, 3, 4]
        monkeypatch.undo()
        assert rows.shape == (12, 5, 7)
        for pair, row in zip(pairs, rows):
            assert np.array_equal(row, pair.divergences(alphas, zs))

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning beside the error
    def test_mixed_dimensions_first_failing_pair_raises_its_own_error(self):
        full3, violating2, dominated4 = (self._pair(3, "full", 50), self._pair(2, "violating", 52),
                                         self._pair(4, "dominating", 54))
        # undefined points: negative alpha on the dominated pair's rank-deficient
        # rho, negative z below alpha = 1 on the violating pair's sigma; the
        # full pair's powers overflow at z = 1e-300, which beats a later
        # pair's undefined point
        for (alphas, zs), stack, first in (
                (([-0.5, 0.5], [1.0, -1.0]), [full3, violating2, dominated4], violating2),
                (([-0.5, 0.5], [1.0, -1.0]), [full3, dominated4, violating2], dominated4),
                (([0.5, 2.0], [-1.0, 1e-300]), [full3, dominated4], full3)):
            with pytest.raises(DomainError) as own:
                first.divergences(alphas, zs)
            with pytest.raises(DomainError) as stacked:
                dv.stacked_divergences(stack, alphas, zs)
            assert str(stacked.value) == str(own.value)

    def test_one_dimension_mixed_inner_ranks_bit_for_bit(self):
        # d = 9 pairs of inner rank 9 (full), 5 (violating), 3 and 8
        # (dominating) in one stack: rows of 8 and 9 singular values sum in
        # numpy's unrolled order, so each must keep its own [:inner_rank]
        full9 = self._pair(9, "full", 60)
        violating5, dominated3, dominated8 = (
            dv.prepare(*random_support_pair(9, seed, rank=rank, branch=branch))
            for seed, rank, branch in ((62, 5, "violating"), (64, 3, "dominating"),
                                       (66, 8, "dominating")))
        stack = [full9, violating5, dominated3, dominated8]
        assert [pair.inner_rank for pair in stack] == [9, 5, 3, 8]
        alphas = np.array([[0.3], [0.7], [1.5], [3.0]])
        zs = [0.5, 1.0, 2.5, 3.0, 7.5]
        for pair, row in zip(stack, dv.stacked_divergences(stack, alphas, zs), strict=True):
            assert np.array_equal(row, pair.divergences(alphas, zs))
        # T and fault codes where the violating pair, in the middle, is
        # undefined at z < 0 below alpha = 1, and so are the rank-deficient
        # rhos of the dominating pairs
        a, z = np.array([0.3, 0.7, 1.5, 0.5, 3.0]), np.array([0.5, -1.0, 2.5, -2.5, 1.0])
        def rows(pairs):
            """T and the fault codes of the pass, one row per pair."""
            pi = np.repeat(np.arange(len(pairs)), a.size)
            _, t, faults, *_ = dv._Stack(pairs).rows(pi, np.tile(a, len(pairs)),
                                                     np.tile(z, len(pairs)),
                                                     np.zeros(pi.size, dtype=bool))
            return t.reshape(len(pairs), a.size), faults.reshape(len(pairs), a.size)

        t, faults = rows(stack)
        assert faults[1].any() and not faults[0].any()
        for pair, t_row, fault_row in zip(stack, t, faults):
            own_t, own_faults = rows([pair])
            assert np.array_equal(t_row, own_t[0], equal_nan=True)
            assert np.array_equal(fault_row, own_faults[0])
        # D needs T there: the first failing pair raises its own error,
        # sigma's, where the later dominating pairs' own error is rho's
        with pytest.raises(DomainError, match="sigma is rank-deficient") as own:
            violating5.divergences(a, z)
        with pytest.raises(DomainError, match="rho is rank-deficient"):
            dominated3.divergences(a, z)
        with pytest.raises(DomainError) as stacked:
            dv.stacked_divergences(stack, a, z)
        assert str(stacked.value) == str(own.value)

    def test_no_pairs(self):
        rows = dv.stacked_divergences([], [[0.5], [2.0]], [1.0, 2.0, 3.0])
        assert rows.shape == (0, 2, 3) and rows.dtype == float
        # the points are checked before any pair is needed
        with pytest.raises(DomainError, match="z = 0 is excluded"):
            dv.stacked_divergences([], [0.5], [0.0])


class TestKernelPass:
    """A `_Pass` runs when one of its requests is first read, and takes no
    request once it has run."""

    def test_first_read_runs_the_pass_once(self, monkeypatch):
        pairs = TestStackedDivergences._stack()
        alphas, zs = [[0.3], [1.0], [2.0]], [0.5, 1.0, 3.0]
        own = (dv.stacked_divergences(pairs, alphas, zs),
               dv.stacked_mosonyi_ogawa(pairs[:2], [0.5, 2.0]))
        calls, run = [], dv._Pass.run
        monkeypatch.setattr(dv._Pass, "run", lambda kernel: calls.append(1) or run(kernel))
        kernel = dv._Pass()
        requests = kernel.add(pairs, alphas, zs), kernel.add(pairs[:2], [0.5, 2.0])
        assert calls == []
        # no explicit run: each read equals its own call bit for bit
        assert np.array_equal(requests[0].evaluate()[0], own[0])
        assert np.array_equal(requests[1].mosonyi_ogawa(), own[1])
        assert calls == [1]

    @pytest.mark.parametrize("run", ["run", "read"])
    def test_no_request_after_the_pass_has_run(self, run):
        pair = dv.prepare(*_pair_of_class("full"))
        kernel = dv._Pass()
        request = kernel.add([pair], [2.0], [1.0])
        if run == "run":
            kernel.run()
        else:
            request.traces()
        with pytest.raises(RuntimeError, match="no request once it has run"):
            kernel.add([pair], [3.0], [1.0])
        assert np.array_equal(request.evaluate()[0], dv.stacked_divergences([pair], [2.0], [1.0]))


NON_FINITE_POINTS = [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 0.5),
                     (2.0, math.inf), (2.0, math.nan), (0.5, -math.inf)]


class TestNonFiniteInput:
    """A non-finite alpha or z is a DomainError on every path, never a
    value or an eigensolver failure."""

    @pytest.fixture
    def pair(self):
        return random_density(3, 4), random_reference(3, 5)

    @pytest.mark.parametrize("alpha, z", NON_FINITE_POINTS)
    def test_scalar_path(self, pair, alpha, z):
        prepared = dv.prepare(*pair)
        for call in (lambda: alpha_z_divergence(*pair, alpha, z),
                     lambda: prepared.traces(alpha, z),
                     lambda: prepared.divergence(alpha, z)):
            with pytest.raises(DomainError, match="finite"):
                call()

    @pytest.mark.parametrize("alpha, z", NON_FINITE_POINTS)
    def test_batched_path(self, pair, alpha, z):
        from alphaz.analysis import SweepSpec, sweep

        prepared = dv.prepare(*pair)
        alphas, zs = [0.5, alpha, 2.0], [1.0, z, 2.0]
        for call in (lambda: prepared.traces(alphas, zs),
                     lambda: prepared.divergences(alphas, zs),
                     lambda: prepared.evaluate(alphas, zs),
                     lambda: sweep(*pair, SweepSpec(alphas=(0.5, alpha), zs=(1.0, z)))):
            with pytest.raises(DomainError, match="finite"):
                call()

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_families(self, pair, alpha):
        for function in (petz_divergence, sandwiched_divergence,
                         mosonyi_ogawa_divergence):
            with pytest.raises(DomainError, match="finite"):
                function(*pair, alpha)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning beside the error
class TestExtremeFiniteInput:
    """A finite alpha or z whose spectral powers or trace sum leave double
    range is a DomainError naming the point, never an eigensolver failure
    or an untagged infinity."""

    @pytest.fixture
    def pair(self):
        return example1_pair(0.25)

    @pytest.mark.parametrize("alpha, z, what", [
        (1e308, 1.0, "spectral powers"),
        (2.0, 1e-308, "spectral powers"),
        (1e300, 1e300, "trace sum"),
        # integer z: the product route hands an overflowing T to the SVD route
        (1e300, 2.0, "spectral powers"),
        (600.0, 1.0, "trace sum"),
        (2000.0, 2.0, "trace sum"),
        (3000.0, 16.0, "trace sum"),
    ])
    def test_scalar_path(self, pair, alpha, z, what):
        prepared = dv.prepare(*pair)
        for call in (lambda: alpha_z_divergence(*pair, alpha, z),
                     lambda: prepared.traces(alpha, z),
                     lambda: prepared.divergence(alpha, z)):
            with pytest.raises(DomainError, match=f"beyond double range: the {what}") as exc:
                call()
            assert f"({alpha!r}, {z!r})" in str(exc.value)

    @pytest.mark.parametrize("alpha, z", [(1e308, 1.0), (2.0, 1e-308), (1e300, 1e300),
                                          (1e300, 2.0), (600.0, 1.0), (3000.0, 16.0)])
    def test_batched_path(self, pair, alpha, z):
        from alphaz.analysis import SweepSpec, sweep

        prepared = dv.prepare(*pair)
        other = dv.prepare(random_density(2, 1), random_reference(2, 2))
        alphas, zs = [0.5, alpha, 2.0], [1.0, z, 2.0]
        messages = set()
        for call in (lambda: prepared.traces(alphas, zs),
                     lambda: prepared.divergences(alphas, zs),
                     lambda: prepared.evaluate(alphas, zs),
                     lambda: dv.stacked_divergences([prepared, other], alphas, zs),
                     lambda: sweep(*pair, SweepSpec(alphas=(0.5, alpha), zs=(z,)))):
            with pytest.raises(DomainError, match="beyond double range") as exc:
                call()
            assert f"({alpha!r}, {z!r})" in str(exc.value)
            messages.add(str(exc.value))
        assert len(messages) == 1

    def test_rank_deficient_batch(self):
        # a pair with undefined points checks the same; sigma's eigenvalues
        # above 1 overflow at a large positive exponent
        rho, sigma = random_support_pair(4, 23, rank=3, branch="violating")
        pair = dv.prepare(rho, 100.0 * sigma)
        with pytest.raises(DomainError, match=r"beyond double range.*\(0\.5, 1e-300\)"):
            pair.divergences([0.3, 0.5], [1.0, 1e-300])

    @pytest.mark.parametrize("function", [petz_divergence, sandwiched_divergence,
                                          mosonyi_ogawa_divergence])
    def test_families(self, pair, function):
        with pytest.raises(DomainError, match="beyond double range"):
            function(*pair, 1e300)

    def test_stack_bound_overflow_without_a_bad_point(self):
        # the largest sigma power (first point, 4e249) times the largest rho
        # power (second point, 4e249) overflows; neither point's own does
        pair = dv.prepare(np.diag([0.5, 0.3, 0.2]), np.diag([10.0, 1.0, 0.1]))
        alphas, zs = [0.666, 1.0], [6.69e-4, -1.4e-3]
        traces = pair.traces(alphas, zs)
        for alpha, z, t in zip(alphas, zs, traces):
            assert t == pytest.approx(float(pair.traces(alpha, z)), rel=1e-12)

    def test_large_representable_point_is_finite(self, pair):
        # sigma^-49 reaches about 3e29, far from double range
        assert alpha_z_divergence(*pair, 50.0, 0.5).is_finite


class TestUnderflow:
    """A finite point whose trace sum underflows to 0 while the supports
    overlap is a DomainError naming the point, as in the overflow case, not
    a collapsed trace. example1 at alpha = 0.5 and a tiny z: sigma's
    eigenvalues below 1 raised to about 1e300 vanish."""

    @pytest.fixture
    def pair(self):
        return example1_pair(0.25)

    @pytest.mark.parametrize("z", [1e-308, 1e-300])
    def test_scalar_path(self, pair, z):
        prepared = dv.prepare(*pair)
        for call in (lambda: alpha_z_divergence(*pair, 0.5, z),
                     lambda: prepared.traces(0.5, z),
                     lambda: prepared.divergence(0.5, z)):
            with pytest.raises(DomainError, match="beyond double range: the trace sum "
                                                  "underflows") as exc:
                call()
            assert f"(0.5, {z!r})" in str(exc.value)

    def test_batched_path(self, pair):
        from alphaz.analysis import SweepSpec, sweep

        prepared = dv.prepare(*pair)
        other = dv.prepare(random_density(2, 1), random_reference(2, 2))
        alphas, zs = [0.3, 0.5, 2.0], [1.0, 1e-300, 2.0]
        for call in (lambda: prepared.traces(alphas, zs),
                     lambda: prepared.divergences(alphas, zs),
                     lambda: prepared.evaluate(alphas, zs),
                     lambda: dv.stacked_divergences([prepared, other], alphas, zs),
                     lambda: sweep(*pair, SweepSpec(alphas=(0.3, 0.5), zs=(1e-300,)))):
            with pytest.raises(DomainError, match="trace sum underflows") as exc:
                call()
            assert "(0.3, 1e-300)" in str(exc.value) or "(0.5, 1e-300)" in str(exc.value)

    def test_batch_names_first_underflowing_point(self, pair):
        with pytest.raises(DomainError, match=r"underflows at \(alpha, z\) = \(0\.5, 1e-300\)"):
            dv.prepare(*pair).traces([0.3, 0.5, 0.4], [1.0, 1e-300, 1e-300])

    @pytest.mark.parametrize("z", [1.0, 2.0, 16.0])
    def test_integer_z(self, z):
        # rho = I/2 and sigma = 4 I: T = 2^(3 - 3a), which underflows to 0 at
        # a = 600; the product route hands it to the SVD route, which raises
        prepared = dv.prepare(np.eye(2) / 2, 4.0 * np.eye(2))
        message = rf"trace sum underflows at \(alpha, z\) = \(600\.0, {z!r}\)"
        for call in (lambda: prepared.divergence(600.0, z),
                     lambda: prepared.traces([0.5, 600.0], z),
                     lambda: prepared.divergences([0.5, 600.0], z)):
            with pytest.raises(DomainError, match=message):
                call()

    @pytest.mark.parametrize("z", [1.0, 2.0, 16.0])
    def test_subnormal_trace_takes_svd_route(self, z):
        # T = 2^-1050 at a = 351 is below the smallest normal double: the SVD
        # route, not the product route, gives it, as it gave it before
        prepared = dv.prepare(np.eye(2) / 2, 4.0 * np.eye(2))
        value, route, g = prepared._divergence(351.0, z)
        [t], fault = prepared._trace_sums(np.linalg.svd(g, compute_uv=False)[None],
                                          np.array([z]))
        assert route == "svd" and fault == 0 and 0.0 < t < np.finfo(float).tiny
        assert value.value == np.log([t])[0] / 350.0
        assert prepared.divergences(351.0, z) == value.value

    def test_orthogonal_zero_trace_is_not_an_underflow(self):
        # inner rank 0: T = 0 is the value, not a lost one
        rho, sigma = random_support_pair(4, 31, rank=2, branch="orthogonal")
        prepared = dv.prepare(rho, sigma)
        assert prepared.inner_rank == 0
        assert prepared.traces(0.5, 1.0) == 0.0
        assert (prepared.traces([0.3, 0.5], [1.0, 2.0]) == 0.0).all()


def _nan_trace_sums(monkeypatch):
    """Let the SVD route give a NaN T at every point, with no fault code."""
    original = dv.PreparedPair._trace_sums

    def nan_sums(pair, singular, zs):
        t, _ = original(pair, singular, zs)
        return t * math.nan, 0

    monkeypatch.setattr(dv.PreparedPair, "_trace_sums", nan_sums)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning beside the error
class TestNanTraceWithoutFault:
    """A NaN T that carries no fault code fails the positivity test where D
    needs T, as an ArithmeticError: it once passed both tests (T <= 0 is
    false for a NaN), so the stacked calls returned a NaN D and the scalar
    one raised the ValueError of a NaN DivergenceValue."""

    def test_scalar(self, monkeypatch):
        pair = dv.prepare(random_density(3, 1), random_reference(3, 2))
        _nan_trace_sums(monkeypatch)
        with pytest.raises(ArithmeticError, match=r"trace functional collapsed to nan$"):
            pair.divergence(0.5, 0.5)

    def test_stacked(self, monkeypatch):
        pair = dv.prepare(random_density(3, 1), random_reference(3, 2))
        _nan_trace_sums(monkeypatch)
        for call in (lambda: dv.stacked_divergences([pair], [0.5, 2.0], [0.5, 0.5]),
                     lambda: pair.divergences([0.5, 2.0], [0.5, 0.5]),
                     lambda: pair.evaluate(0.5, 0.5)):
            with pytest.raises(ArithmeticError, match=r"trace functional collapsed to nan$"):
                call()
        # a closed point needs no T: D is the relative entropy there
        assert pair.divergences(1.0, 0.5) == pair.relative_entropy().value


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning beside the error
class TestFaultOrder:
    """Within one call, the lowest fault code wins over an earlier point:
    an undefined formula, then overflowing powers, an overflowing trace sum
    and an underflowing one."""

    def test_undefined_beats_earlier_underflow(self):
        from alphaz.analysis import SweepSpec, sweep

        rho, sigma = random_support_pair(4, 23, rank=3, branch="dominating")
        pair = dv.prepare(rho, sigma)
        alphas, zs = [0.5, 0.5], [1e-300, -1.0]
        with pytest.raises(DomainError, match="trace sum underflows"):
            pair.traces(0.5, 1e-300)
        for call in (lambda: pair.traces(alphas, zs),
                     lambda: pair.divergences(alphas, zs),
                     lambda: pair.evaluate(alphas, zs),
                     lambda: sweep(rho, sigma, SweepSpec(alphas=(0.5,), zs=(1e-300, -1.0)))):
            with pytest.raises(DomainError, match="rho is rank-deficient and its exponent "
                                                  "-0.5 is negative"):
                call()

    def test_undefined_point_warns_nothing(self):
        # sigma's eigenvalues above 1 would overflow at alpha = -1e300, where
        # rho's negative exponent leaves the formula undefined: no warning
        rho, sigma = random_support_pair(4, 23, rank=3, branch="dominating")
        pair = dv.prepare(rho, 100.0 * sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: pair.divergence(-1e300, 1.0),
                         lambda: pair.divergences([0.5, -1e300], [1.0, 1.0])):
                with pytest.raises(DomainError, match="rho is rank-deficient"):
                    call()

    def test_powers_overflow_beats_earlier_trace_sum(self):
        pair = dv.prepare(*example1_pair(0.25))
        with pytest.raises(DomainError, match="trace sum overflows"):
            pair.traces(1e300, 1e300)
        with pytest.raises(DomainError, match=r"the spectral powers overflow at \(alpha, z\) "
                                              r"= \(1e\+308, 1\.0\)"):
            pair.traces([1e300, 1e308], [1e300, 1.0])


def _same_spectrum(got, want):
    """Bitwise equality of two Spectrum objects (NaN-safe, -0.0-aware)."""
    assert got.values.tobytes() == want.values.tobytes()
    assert got.vectors.tobytes() == want.vectors.tobytes()
    assert np.float64(got.threshold).tobytes() == np.float64(want.threshold).tobytes()
    assert (got.eps, got.rank) == (want.eps, want.rank)


def _per_operator(rho, sigma):
    """prepare's documented per-operator order: rho's checks, sigma's, then
    the dimensions. The error as (type, message), or the two spectra."""
    try:
        r, s = dv._density(support(rho)), dv._reference(support(sigma))
    except ValueError as exc:
        return type(exc), str(exc)
    if r.values.shape != s.values.shape:
        return ValueError, f"dimension mismatch: {r.vectors.shape} vs {s.vectors.shape}"
    return r, s


BIG = 1e308 + 1e308j  # finite, but A + A† overflows


@pytest.mark.filterwarnings("error::RuntimeWarning")  # no numpy warning beside the error
class TestStackedPrepare:
    """`prepare` validates (rho, sigma) as one stack and decomposes it with
    one eigh: the spectra equal the per-operator ones bit for bit, and every
    error is the one the per-operator checks raise first."""

    @pytest.mark.parametrize("eps", [None, "1e-8", "1e-3"])
    @pytest.mark.parametrize("dim", [1, 2, 5, 16])
    @pytest.mark.parametrize("kind", ["full", "dominating", "violating", "orthogonal"])
    def test_spectra_bit_identical_to_support(self, monkeypatch, eps, dim, kind):
        if eps is None:
            monkeypatch.delenv("RENYI_EPS", raising=False)
        else:
            monkeypatch.setenv("RENYI_EPS", eps)
        if kind == "full" or dim == 1:
            rho, sigma = random_density(dim, 40 + dim), random_reference(dim, 50 + dim)
        else:
            rho, sigma = random_support_pair(dim, 60 + dim, rank=max(1, dim // 2), branch=kind)
        prepared = dv.prepare(rho, sigma)
        _same_spectrum(prepared.rho, support(rho))
        _same_spectrum(prepared.sigma, support(sigma))
        assert prepared.rho.eps == prepared.sigma.eps == float(eps or 1e-12)

    def test_reads_renyi_eps_once(self, monkeypatch):
        from alphaz import linalg

        reads = []
        original = linalg.zero_cutoff
        monkeypatch.setattr(linalg, "zero_cutoff", lambda: reads.append(1) or original())
        dv.prepare(random_density(3, 1), random_reference(3, 2))
        assert len(reads) == 1

    @pytest.mark.parametrize("rho, sigma, kind, message", [
        # both invalid: rho's error first
        (np.array([[0.5, 1.0], [0.0, 0.5]]), np.array([[np.nan, 0.0], [0.0, 1.0]]),
         ValueError, "matrix is not Hermitian: max defect 1.000e+00"),
        (np.diag([1.0, 0.5, 0.5]), np.diag([1.0, -0.5]),
         DomainError, "density operator must have trace 1, got 2.0"),
        # rho invalid and a shape mismatch: rho's error, not the mismatch
        (np.diag([1.0, 0.5, 0.5]), np.eye(2), DomainError,
         "density operator must have trace 1, got 2.0"),
        (np.ones((2, 3)), np.eye(2), ValueError, "expected a square matrix, got shape (2, 3)"),
        (np.eye(3) / 3, np.eye(2), ValueError, "dimension mismatch: (3, 3) vs (2, 2)"),
        # NaN or inf entries in either operator
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), np.eye(2),
         ValueError, "matrix has non-finite entries"),
        (np.diag([np.inf, 0.5]), np.eye(2), ValueError, "matrix has non-finite entries"),
        (np.eye(2) / 2, np.diag([1.0, np.nan]), ValueError, "matrix has non-finite entries"),
        (np.eye(2) / 2, np.diag([1.0, -np.inf]), ValueError, "matrix has non-finite entries"),
        # sigma's own checks
        (np.eye(2) / 2, np.diag([1.0, -0.5]),
         NotPSDError, "operator is not PSD: eigenvalue -5.000000e-01"),
        (np.eye(2) / 2, np.zeros((2, 2)), DomainError, "reference operator must be nonzero"),
        # entries within range whose largest eigenvalue is not: eigh gives
        # inf, so every eigenvalue counts as zero
        (np.eye(3) / 3, np.full((3, 3), 8e307),
         ValueError, "matrix has eigenvalues beyond double range"),
        # a finite entry beyond double range
        (np.diag([BIG, 0.5]), np.eye(2), ValueError, "matrix has entries beyond double range"),
        (np.eye(2) / 2, np.array([[0.5, BIG], [np.conj(BIG), 0.5]]),
         ValueError, "matrix has entries beyond double range"),
    ])
    def test_error_precedence(self, rho, sigma, kind, message):
        assert _per_operator(rho, sigma) == (kind, message)
        with pytest.raises(kind) as exc:
            dv.prepare(rho, sigma)
        assert type(exc.value) is kind and str(exc.value) == message

    def test_overflowing_modulus_rejected_as_per_operator(self):
        # A + A† overflows to inf, which once gave a NaN spectrum and a
        # silently wrong or internal-fault result; both paths reject it
        rho = np.array([[0.5, BIG], [np.conj(BIG), 0.5]])
        sigma = random_reference(2, 2)
        message = "matrix has entries beyond double range"
        assert _per_operator(rho, sigma) == (ValueError, message)
        for call in (lambda: dv.prepare(rho, sigma),
                     lambda: alpha_z_divergence(rho, np.eye(2) / 2, 2.0, 1.0),
                     lambda: alpha_z_divergence(rho, np.eye(2) / 2, 0.5, 1.0),
                     lambda: relative_entropy(rho, np.eye(2) / 2)):
            with pytest.raises(ValueError) as exc:
                call()
            assert type(exc.value) is ValueError and str(exc.value) == message

    def test_range_limit_is_half_the_largest_double(self):
        from alphaz.linalg import MAX_ENTRY_MODULUS, _hermitian_stack

        assert MAX_ENTRY_MODULUS == np.finfo(float).max / 2
        edge = np.array([[MAX_ENTRY_MODULUS, 1.0], [1.0, 0.0]])
        assert np.isfinite(_hermitian_stack(edge[None])).all()
        edge[0, 0] = np.nextafter(MAX_ENTRY_MODULUS, np.inf)
        with pytest.raises(ValueError, match="beyond double range"):
            _hermitian_stack(edge[None])

    def test_eigenvalues_beyond_range_in_a_stack(self):
        # the stacked preparation raises the pair's own error
        pairs = [(random_density(3, 1), random_reference(3, 2)),
                 (np.eye(3) / 3, np.full((3, 3), 8e307))]
        with pytest.raises(ValueError) as exc:
            dv._prepare_pairs(pairs)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "matrix has eigenvalues beyond double range"

    def test_nan_trace_is_not_unit(self):
        nan = Spectrum(np.array([math.nan, 0.5]), np.eye(2), 1e-12, math.nan, 0)
        with pytest.raises(DomainError, match="trace 1, got nan"):
            dv._density(nan)

    # `_prepare_pairs` prepares a family of pairs as one stack per dimension

    @staticmethod
    def _family():
        """Pairs of interleaved dimensions 1..16 in every support class, with
        a rank-deficient rho that sigma does not dominate (inner rank from
        the cosine SVD), generic and with an exact zero cosine."""
        pairs = []
        for k, dim in enumerate([1, 16, 2, 9, 3, 16, 4, 2, 5, 8, 6, 3, 7, 12, 10, 4]):
            rho, sigma = random_density(dim, 300 + k), random_reference(dim, 400 + k)
            pairs.append((rho, sigma))
            if dim == 1:
                continue
            rank = max(1, dim // 2)
            for branch in ("dominating", "violating", "orthogonal"):
                pairs.append(random_support_pair(dim, 500 + k, rank=rank, branch=branch))
            rho_deficient = random_support_pair(dim, 600 + k, rank=rank)[0]
            pairs.append((rho_deficient, random_support_pair(dim, 700 + k, rank=dim - 1)[1]))
            commuting = commuting_pair(dim, 800 + k)
            pairs += [commuting[:2], (rho, rho)]
        # supports meeting in e0 only: one cosine 1, one exactly 0
        pairs.append((np.diag([0.5, 0.5, 0.0]), np.diag([0.5, 0.0, 0.5])))
        return pairs

    @pytest.mark.parametrize("eps", [None, "1e-8"])
    def test_pairs_equal_prepare(self, monkeypatch, eps):
        if eps is None:
            monkeypatch.delenv("RENYI_EPS", raising=False)
        else:
            monkeypatch.setenv("RENYI_EPS", eps)
        pairs = self._family()
        got = dv._prepare_pairs(pairs)
        assert len(got) == len(pairs)
        classes = set()
        for (rho, sigma), pair in zip(pairs, got):
            want = dv.prepare(rho, sigma)
            _same_spectrum(pair.rho, want.rho)
            _same_spectrum(pair.sigma, want.sigma)
            for field in ("overlap", "weights", "dominated", "orthogonal", "inner_rank"):
                assert np.array_equal(getattr(pair, field), getattr(want, field)), field
            classes.add((pair.dominated, pair.orthogonal, pair.rho.rank < rho.shape[0]))
        # dominated, orthogonal, full-rank violating, and the cosine SVD
        assert {(True, False, False), (False, True, True), (False, False, False),
                (False, False, True)} <= classes
        assert dv._prepare_pairs(pairs[-1:])[0].inner_rank == 1

    def test_one_eigh_and_one_cutoff_read_per_dimension(self, monkeypatch):
        from alphaz import linalg

        calls = {"eigh": 0, "cutoff": 0}
        eigh, cutoff = np.linalg.eigh, linalg.zero_cutoff
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda a: calls.__setitem__("eigh", calls["eigh"] + 1) or eigh(a))
        monkeypatch.setattr(linalg, "zero_cutoff",
                            lambda: calls.__setitem__("cutoff", calls["cutoff"] + 1) or cutoff())
        pairs = self._family()
        dv._prepare_pairs(pairs)
        dims = {rho.shape[0] for rho, _ in pairs}
        assert calls == {"eigh": len(dims), "cutoff": len(dims)}

    def test_first_failing_pair_raises_its_own_error(self):
        not_psd = (np.diag([1.5, -0.5]), np.eye(2))
        trace_two = (np.diag([1.0, 0.5, 0.5]), np.eye(3))
        zero_sigma = (np.eye(2) / 2, np.zeros((2, 2)))
        good = (random_density(2, 1), random_reference(2, 2))
        failing = [not_psd, trace_two, zero_sigma]
        messages = ["operator is not PSD: eigenvalue -5.000000e-01",
                    "density operator must have trace 1, got 2.0",
                    "reference operator must be nonzero"]
        for k, (kind, message) in enumerate(zip([NotPSDError, DomainError, DomainError],
                                                messages)):
            with pytest.raises(kind) as exc:
                dv.prepare(*failing[k])
            assert str(exc.value) == message
            with pytest.raises(kind) as exc:
                dv._prepare_pairs([good] + failing[k:] + [good])
            assert type(exc.value) is kind and str(exc.value) == message

    def test_dimension_mismatch(self):
        pairs = [(random_density(2, 1), random_reference(2, 2)),
                 (np.eye(3) / 3, np.eye(2))]
        with pytest.raises(ValueError) as exc:
            dv._prepare_pairs(pairs)
        assert type(exc.value) is ValueError
        assert str(exc.value) == "dimension mismatch: (3, 3) vs (2, 2)"

    def test_no_pairs(self):
        assert dv._prepare_pairs([]) == []

    @pytest.mark.parametrize("dim", [2, 4, 8, 16])
    def test_scalar_call_classes_equal_prepare(self, dim):
        # the five classes of single scalar calls: full rank, dominating,
        # violating, orthogonal, and rho leaking 1e-10 onto ker sigma
        pairs = [_pair_of_class(cls, dim) for cls in ("full", "dominating", "violating",
                                                      "orthogonal", "leak")]
        for (rho, sigma), pair in zip(pairs, dv._prepare_pairs(pairs)):
            want = dv.prepare(rho, sigma)
            _same_spectrum(pair.rho, want.rho)
            _same_spectrum(pair.sigma, want.sigma)
            for field in ("overlap", "weights"):
                assert getattr(pair, field).tobytes() == getattr(want, field).tobytes(), field
            for field in ("dominated", "orthogonal", "inner_rank"):
                assert getattr(pair, field) == getattr(want, field), field


@functools.lru_cache(maxsize=None)
def _oracle_pair(rho: bytes, sigma: bytes, dim: int, dps: int):
    """The eigenvalues of rho and sigma, complex dim x dim matrices given as
    bytes, and the overlap W = V_sigma† U_rho of their eigenvectors, at
    `dps` digits. Eigenvalues at or below 1e-12 times the largest (the
    package's default cutoff) are exact zeros."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        spectra = []
        for entries in (rho, sigma):
            m = np.frombuffer(entries, dtype=complex).reshape(dim, dim)
            values, vectors = mp.eighe(mp.matrix(m.tolist()))
            values = [mp.re(v) for v in values]
            cut = mp.mpf("1e-12") * max(abs(v) for v in values)
            spectra.append(([v if v > cut else mp.mpf(0) for v in values], vectors))
        (r, u), (s, v) = spectra
        return r, s, v.H * u


def _oracle_divergence(rho, sigma, alpha, z, dps=50):
    """D(alpha, z) at `dps` digits from mpmath eigendecompositions of rho and
    sigma (one per pair and dps, cached), with generalized powers (0 on
    the kernel), in sigma's eigenbasis. T is the sum of the squared singular
    values of G = S^c W R^(b/2) on the supports raised to z, as in
    benchmark/oracle.py, or, at a positive integer z = k, Tr(P Q) for
    P = X^(k//2) and Q = X^(k - k//2) with the inner operator
    X = S^c W R^b W† S^c, which needs no decomposition. Here c = (1-a)/2z
    and b = a/z. Unlike eigenvalues of the assembled X, whose condition
    number can pass 10^dps where an exponent is large, the singular values
    of G keep their digits."""
    mp = pytest.importorskip("mpmath")
    dim = rho.shape[0]
    r, s, w = _oracle_pair(*(np.asarray(m, dtype=complex).tobytes() for m in (rho, sigma)),
                           dim, dps)
    cells = list(itertools.product(range(dim), repeat=2))
    with mp.workdps(dps):
        a, zz = mp.mpf(alpha), mp.mpf(z)

        def power(values, p):
            return [x ** p if x else mp.mpf(0) for x in values]

        c = power(s, (1 - a) / (2 * zz))
        if zz >= 1 and zz == int(zz):
            b = power(r, a / zz)
            wb = mp.matrix(dim, dim)
            for i, j in cells:
                wb[i, j] = w[i, j] * b[j]
            inner = wb * w.H
            for i, j in cells:
                inner[i, j] *= c[i] * c[j]
            k = int(zz)
            if k == 1:
                t = mp.fsum(mp.re(inner[i, i]) for i in range(dim))
            else:
                p = inner ** (k // 2)
                q = p * inner if k % 2 else p
                t = mp.re(mp.fsum(p[i, j] * q[j, i] for i, j in cells))
        else:
            half_b = power(r, a / (2 * zz))
            rows = [i for i in range(dim) if s[i]]
            cols = [j for j in range(dim) if r[j]]
            g = mp.matrix(len(rows), len(cols))
            for (m, i), (n, j) in itertools.product(enumerate(rows), enumerate(cols)):
                g[m, n] = c[i] * w[i, j] * half_b[j]
            singular = mp.svd_c(g, compute_uv=False)
            t = mp.fsum((x * x) ** zz for x in singular if x > 0)
        return mp.log(t) / (a - 1)


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("alpha, z", [(2.0, 0.5), (2.0, 0.25), (3.0, 0.3)])
    def test_small_z_full_rank(self, alpha, z):
        # full-rank pair: no inner eigenvalue may be dropped, however small
        rho = random_density(4, 1)
        sigma = random_reference(4, 2)
        ref = _oracle_divergence(rho, sigma, alpha, z)
        got = alpha_z_divergence(rho, sigma, alpha, z).value
        assert abs(got - ref) / abs(ref) <= 1e-12


class TestProductRouteOracle:
    """The product route at positive integer z against the 50-digit oracle,
    beside the SVD route on the same G (`_trace_sums` of its singular
    values) at the same points."""

    ALPHAS = (-0.5, 0.3, 0.7, 1.5, 3.0)
    ZS = (1.0, 2.0, 3.0, 4.0, 8.0, 16.0)

    def test_gate(self):
        mp = pytest.importorskip("mpmath")
        worst = {"product": math.inf, "svd": math.inf}
        for rho, sigma in ((random_density(16, 21), random_reference(16, 22)),
                           random_support_pair(6, 23, rank=3, branch="dominating")):
            pair = dv.prepare(rho, sigma)
            # negative alpha is undefined on the rank-deficient rho
            alphas = [a for a in self.ALPHAS if a > 0.0 or pair.rho.rank == 16]
            a, z = np.broadcast_arrays(np.array(alphas)[:, None], np.array(self.ZS)[None, :])
            closed, defined, product, e_sigma, e_rho = pair._route(a.ravel(), z.ravel())
            assert product.all() and not closed.any() and np.all(defined)
            g, over = _stack_factors(pair, e_sigma, e_rho)
            assert over is None
            t_svd, fault = pair._trace_sums(np.linalg.svd(g, compute_uv=False), z.ravel())
            assert not np.any(fault)
            routes = {"product": pair.divergences(a, z).ravel(),
                      "svd": np.log(t_svd) / (a.ravel() - 1.0)}
            for i, (alpha, zi) in enumerate(zip(a.ravel().tolist(), z.ravel().tolist())):
                ref = _oracle_divergence(rho, sigma, alpha, zi)
                for name, values in routes.items():
                    error = abs(mp.mpf(float(values[i])) - ref) / abs(ref)
                    digits = float(-mp.log10(error)) if error else math.inf
                    assert name == "svd" or digits >= 12.0, (alpha, zi, digits)
                    worst[name] = min(worst[name], digits)
        # both routes reduce one G, whose power round-off sets the error of
        # either (about 3e-14 here); their own round-off (about 1e-15 in T)
        # moves the worst point either way, so the product route's worst
        # error may exceed the SVD route's by at most a factor of 2
        assert worst["product"] >= worst["svd"] - math.log10(2.0), worst


def _stack_factors(pair, e_sigma, e_rho):
    """The stacked kernel's G of one pair at every point of the exponent
    rows, and its overflow rows (`_Stack._factors`)."""
    return dv._Stack([pair])._factors(np.zeros(e_sigma.size, dtype=np.intp), e_sigma, e_rho)


class TestFactorOrder:
    """`_factor` and the stacked kernel's `_Stack._factors` build G =
    diag(s^e_sigma) W diag(r^(e_rho/2)) in the SVD route's order, its rows
    reversed where e_sigma < 0 and its columns where e_rho < 0, for a stack
    and for one point alike, over all four sign combinations of the
    exponents, bit for bit: both take their powers by `_power`, as
    `Spectrum.powers` does."""

    ALPHAS = (-0.5, 0.5, 2.0)
    ZS = (-1.0, 0.5, 2.0)

    @staticmethod
    def _expected(pair, s_pow, r_pow, e_sigma, e_rho):
        g = s_pow[:, None] * pair.overlap * r_pow[None, :]
        return g[::-1 if e_sigma < 0.0 else 1, ::-1 if e_rho < 0.0 else 1]

    @pytest.mark.parametrize("pair", [
        (random_density(5, 31), random_reference(5, 32)),
        random_support_pair(5, 33, rank=3, branch="dominating"),
    ], ids=["full-rank", "rank-deficient"])
    def test_reversed_by_exponent_signs(self, pair):
        pair = dv.prepare(*pair)
        a, z = (x.ravel() for x in np.meshgrid(self.ALPHAS, self.ZS, indexing="ij"))
        _, defined, _, e_sigma, e_rho = pair._route(a, z)
        defined = np.broadcast_to(defined, a.shape)
        # the stack builds G at the defined points only
        stacked, over = _stack_factors(pair, e_sigma[defined], e_rho[defined])
        assert over is None and len(stacked) == np.count_nonzero(defined)
        signs = set()
        for row, i in enumerate(np.flatnonzero(defined)):
            es, er = float(e_sigma[i]), float(e_rho[i])
            expected = self._expected(pair, pair.sigma.powers(es), pair.rho.powers(er / 2.0),
                                      es, er)
            assert np.array_equal(stacked[row], expected), (a[i], z[i])
            one, fault, _ = pair._factor(es, er, True)
            assert not fault and np.array_equal(one, expected), (a[i], z[i])
            signs.add((es < 0.0, er < 0.0))
        # a negative exponent of the rank-deficient rho is undefined
        assert len(signs) == (4 if pair.rho.rank == 5 else 2)


class TestGradedSvdOracle:
    """The SVD route against the 50-digit oracle where G = diag(s^e_sigma) W
    diag(r^(e_rho/2)) is graded with its small rows first (e_sigma < 0:
    alpha > 1 at z > 0, alpha < 1 at z < 0) or its small columns first
    (e_rho < 0), by the stacked kernel and by `divergence`. Where max |exponent|
    <= 10 both give >= 13 digits. Beyond that no bound exists yet, and those
    points' digits are printed, not asserted: eigh's absolute error on the
    small eigenvalues, raised to the exponent, sets the program's error. The
    oracle takes the singular values of G itself at 50 digits, so the
    printed digits measure the program, not the oracle (at seeded pair 1,
    (1.5, 0.05), it agrees with benchmark/oracle.py to 25 digits)."""

    ALPHAS = (-0.5, 0.3, 0.7, 1.5, 2.0, 3.0, 5.0)
    ZS = (0.05, 0.25, 2.5, -0.5, -2.5)

    def test_gate(self):
        mp = pytest.importorskip("mpmath")
        from alphaz.suites import seeded_pairs

        # seeded pairs 0-4 (d = 2..6); the d = 16 pair of TestProductRouteOracle
        # where its rows are graded smallest first; a rank-deficient pair at
        # z > 0, where every exponent of rho is positive
        cases = [(rho, sigma, self.ALPHAS, self.ZS) for rho, sigma, _ in seeded_pairs(5)]
        cases.append((random_density(16, 21), random_reference(16, 22), (2.0, 3.0, 5.0), (-0.5,)))
        cases.append((*random_support_pair(6, 23, rank=3, branch="dominating"),
                      self.ALPHAS[1:], self.ZS[:3]))
        unbounded = []
        for rho, sigma, alphas, zs in cases:
            pair = dv.prepare(rho, sigma)
            a, z = np.meshgrid(alphas, zs, indexing="ij")
            stacked = pair.divergences(a, z).ravel().tolist()
            for alpha, zi, value in zip(a.ravel().tolist(), z.ravel().tolist(), stacked):
                ref = _oracle_divergence(rho, sigma, alpha, zi)
                bounded = max(abs((1.0 - alpha) / (2.0 * zi)), abs(alpha / zi)) <= 10.0
                errors = [abs(mp.mpf(got) - ref) / abs(ref)
                          for got in (value, pair.divergence(alpha, zi).value)]
                digits = float(-mp.log10(max(errors))) if max(errors) else math.inf
                assert digits >= 13.0 or not bounded, (rho.shape[0], alpha, zi, digits)
                if not bounded:
                    unbounded.append(f"d={rho.shape[0]} ({alpha:g}, {zi:g}): {digits:.1f}")
        print("digits where max |exponent| > 10:", "; ".join(unbounded))


class TestDecompositionCounts:
    @pytest.fixture
    def counts(self, monkeypatch):
        calls = {"eigh": 0, "svd": 0, "qr": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)

        def measure(fn, names=("eigh", "svd")):
            calls.update(eigh=0, svd=0, qr=0)
            fn()
            return tuple(calls[name] for name in names)

        return measure

    @pytest.fixture
    def pair(self):
        return random_density(4, 1), random_reference(4, 2)

    def test_scalar_calls(self, counts, pair):
        rho, sigma = pair
        eigh, svd = counts(lambda: alpha_z_divergence(rho, sigma, 2.0, 0.5))
        assert eigh <= 2 and svd <= 1
        for alpha in (0.5, 2.0):
            assert counts(lambda: petz_divergence(rho, sigma, alpha))[0] <= 2
            assert counts(lambda: sandwiched_divergence(rho, sigma, alpha))[0] <= 3
        assert counts(lambda: relative_entropy(rho, sigma))[0] == 1
        assert counts(lambda: dv.prepare(rho, sigma).variance())[0] == 1

    def test_trace_functional_decomposes_once(self, counts, pair):
        from alphaz.analysis import TraceFunctional

        tf = None

        def build():
            nonlocal tf
            tf = TraceFunctional(*pair)

        assert counts(build)[0] == 1
        assert counts(lambda: (tf.value(2.0, 0.5), tf.divergence(0.7, 2.0)))[0] == 0

    def test_sweep_decomposes_once(self, counts, pair):
        from alphaz.analysis import SweepSpec, sweep

        spec = SweepSpec(alphas=tuple(np.linspace(0.2, 3.0, 15)),
                         zs=tuple(np.linspace(0.5, 4.0, 8)))
        eigh, svd = counts(lambda: sweep(*pair, spec))
        assert eigh == 1 and svd == 1

    def test_integer_z_takes_no_svd(self, counts, pair):
        # every open point with integer z up to 16 on this full-rank pair
        # takes the product route; a grid with non-integer z takes one svd
        prepared = dv.prepare(*pair)
        alphas = np.array([0.3, 0.7, 1.5, 2.0, 3.0])[:, None]
        assert counts(lambda: prepared.evaluate(alphas, np.arange(1.0, 17.0))) == (0, 0)
        assert counts(lambda: prepared.evaluate(alphas, np.linspace(0.5, 4.0, 8))) == (0, 1)
        assert counts(lambda: prepared.divergence(2.0, 3.0)) == (0, 0)
        # alpha = 1 is closed, where traces takes the SVD route: T = 1
        assert counts(lambda: prepared.traces(1.0, 2.0)) == (0, 1)
        assert prepared.traces(1.0, 2.0) == pytest.approx(1.0, abs=1e-14)

    def test_failing_stack_takes_one_svd(self, counts):
        # the first failing pair's own error comes from the fault codes of
        # the one kernel pass, with no pair evaluated again
        full = dv.prepare(random_density(4, 1), random_reference(4, 2))
        other = dv.prepare(random_density(4, 3), random_reference(4, 4))

        def stack():
            with pytest.raises(DomainError, match=r"trace sum underflows at "
                                                  r"\(alpha, z\) = \(0\.5, 1e-300\)"):
                dv.stacked_divergences([full, other], [0.3, 0.5], [1.0, 1e-300])

        assert counts(stack) == (0, 1)

    def test_curve_limit_one_svd(self, counts, pair):
        from alphaz.analysis import CurveSpec, TraceFunctional, verify_curve_limits

        tf = TraceFunctional(*pair)
        curves = (CurveSpec.constant(2.0), CurveSpec.exponential())
        assert counts(lambda: verify_curve_limits([tf], curves)) == (0, 1)

    def test_certification_suites(self, counts):
        from alphaz.suites import run_suites

        # one eigh per dimension of each stacked family: the seeded pairs,
        # dpi's pinched images and invariants' variants have 5 each,
        # classical's commuting pairs 7, example1's pairs 1 and the pairs of
        # the infinity tags 3; one kernel pass for every family of the run:
        # one svd for each of the 7 dimensions, and 10 for dpi's self-checks
        # (two per dimension of its 5); one qr per dimension of each family
        # of random unitaries: classical's commuting pairs 7, invariants'
        # rotations 5 and the pairs of its infinity tags 3
        eigh, svd, qr = counts(lambda: run_suites(["all"], 10), ("eigh", "svd", "qr"))
        assert eigh == 26 and svd <= 17 and qr == 15

    @pytest.mark.parametrize("name, qr", [("classical", 7), ("invariants", 8), ("limits", 0),
                                          ("dpi", 0), ("example1", 0)])
    def test_one_qr_per_dimension_per_family(self, counts, name, qr):
        from alphaz.suites import run_suites

        # the unitaries of each family are drawn per seed and factored as
        # one stack per dimension: classical's commuting pairs have 7
        # dimensions, invariants' rotations 5 and its tag pairs 3 (each
        # dimension's violating and orthogonal pairs share one stack)
        assert counts(lambda: run_suites([name], 10), ("qr",)) == (qr,)

    @pytest.mark.parametrize("name, layouts", [("dpi", 5), ("all", 7)])
    def test_one_stack_layout_per_dimension(self, monkeypatch, name, layouts):
        from alphaz.suites import run_suites

        # the pass lays out one _Stack per dimension, shared by every family
        # and by dpi's self-checks: dpi's pairs and images have 5 dimensions,
        # and the whole run 7, those of classical's commuting pairs
        made, original = [], dv._Stack.__init__

        def counted(stack, pairs):
            made.append(len(pairs))
            original(stack, pairs)

        monkeypatch.setattr(dv._Stack, "__init__", counted)
        run_suites([name], 10)
        assert len(made) == layouts

    @pytest.mark.parametrize("name, builds", [("dpi", 5), ("all", 7)])
    def test_one_factor_build_per_stack(self, monkeypatch, name, builds):
        from alphaz.suites import run_suites

        # each stack builds its rows' G once, and dpi's Petz self-check of a
        # product-route value takes the SVD of that same G
        calls, original = [], dv._Stack._factors

        def counted(stack, *args):
            calls.append(1)
            return original(stack, *args)

        monkeypatch.setattr(dv._Stack, "_factors", counted)
        run_suites([name], 10)
        assert len(calls) == builds

    @pytest.mark.parametrize("name, svd", [("limits", 5), ("monotonicity", 5),
                                           ("derivatives", 5)])
    def test_batched_suites_one_kernel_call_per_pair(self, counts, name, svd):
        from alphaz.suites import run_suites

        # the seeded pairs are prepared with one eigh per dimension (they
        # have 5); each suite makes one kernel pass, for the slopes and dT/dz
        # together in derivatives, with one svd per dimension
        assert counts(lambda: run_suites([name], 10)) == (5, svd)

    @pytest.mark.parametrize("name, svd", [("invariants", 5), ("classical", 7),
                                           ("example1", 1)])
    def test_stacked_suites_one_kernel_call_per_family(self, counts, name, svd):
        from alphaz.suites import run_suites

        # one kernel pass per suite, with one svd per dimension in it:
        # invariants for the seeded pairs of 5 dimensions, each with its
        # rotation, its rescaled reference and (rho, rho); classical for its
        # commuting pairs of 7 dimensions; example1 for the second
        # derivatives and the grid of its three d = 2 pairs together
        assert counts(lambda: run_suites([name], 10))[1] == svd

    def test_dpi_suite_prepares_each_pair_once(self, counts):
        from alphaz.suites import run_suites

        # one eigh per dimension (5) for the seeded pairs, and one per
        # dimension for the pinched images, which are prepared as one stack
        # per dimension (pinching reuses the pair's spectrum of sigma); then, per
        # dimension, one kernel svd for the 20 pairs' SVD-route values, one
        # for the Petz self-check of the product-route values and one for
        # the sandwiched self-check's factors
        eigh, svd = counts(lambda: run_suites(["dpi"], 10))
        assert eigh <= 10 and svd <= 15

    @pytest.mark.parametrize("name, eigh", [("classical", 7), ("example1", 1)])
    def test_unseeded_suites_prepare_no_seeded_pair(self, counts, name, eigh):
        from alphaz.suites import run_suites

        # one eigh per dimension of each family: classical's commuting pairs
        # have 7; example1's three d = 2 pairs are prepared once, for the
        # second derivatives and the grid both
        assert counts(lambda: run_suites([name], 10))[0] == eigh

    def test_no_state_between_calls(self, counts):
        from alphaz.suites import run_suites

        first = counts(lambda: run_suites(["all"], 10))
        assert counts(lambda: run_suites(["all"], 10)) == first
