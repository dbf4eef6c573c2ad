import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from alphaz import linalg
from alphaz.linalg import (
    DomainError,
    NotPSDError,
    hermitian_part,
    support,
    zero_cutoff,
)
from alphaz.divergences import prepare
from alphaz.states import example1_pair, random_density, random_reference, random_unitary

from conftest import max_abs, rand_hermitian

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)

seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from([1, 2, 3, 4, 6, 8])


class TestEigensystem:
    """The decomposition `support` returns, on PSD input."""

    def test_identity(self):
        es = support(np.eye(2))
        assert np.allclose(es.values, [1.0, 1.0])

    def test_plus_projector(self, example1_quarter):
        rho, _ = example1_quarter
        es = support(rho)
        assert np.allclose(es.values, [1.0, 0.0], atol=1e-14)
        assert abs(abs(es.vectors[:, 0] @ PLUS) - 1.0) < 1e-12

    def test_sorted_descending(self):
        es = support(random_density(6, 11))
        assert np.all(np.diff(es.values) <= 0)

    @given(seeds, dims)
    def test_reconstruction(self, seed, dim):
        a = random_density(dim, seed)
        es = support(a)
        tol = 1e-10 * max(1.0, max_abs(a))
        reconstructed = (es.vectors * es.values) @ es.vectors.conj().T
        assert max_abs(reconstructed - a) <= tol

    @given(seeds, dims)
    def test_vectors_unitary(self, seed, dim):
        es = support(random_density(dim, seed))
        gram = es.vectors.conj().T @ es.vectors
        assert max_abs(gram - np.eye(dim)) <= 1e-12

    @given(seeds, dims)
    def test_unitary_covariance(self, seed, dim):
        a = random_density(dim, seed)
        u = random_unitary(dim, seed + 1)
        rotated = hermitian_part(u @ a @ u.conj().T)
        assert max_abs(support(rotated).values - support(a).values) <= 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="square"):
            support(np.ones((2, 3)))
        with pytest.raises(ValueError, match="Hermitian"):
            support(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            support(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSupport:
    def test_diagonal(self):
        info = support(np.diag([1.0, 0.0]))
        assert info.rank == 1
        assert max_abs(info.operator(info.powers(0.0)) - np.diag([1.0, 0.0])) < 1e-14

    def test_below_cutoff(self):
        info = support(np.diag([2.0, 1e-18]))
        assert info.rank == 1

    def test_plus_projector(self, example1_quarter):
        rho, _ = example1_quarter
        info = support(rho)
        assert info.rank == 1
        assert max_abs(info.operator(info.powers(0.0)) - np.outer(PLUS, PLUS)) < 1e-12

    def test_zero_operator(self):
        info = support(np.zeros((3, 3)))
        assert info.rank == 0
        assert max_abs(info.operator(info.powers(0.0))) == 0.0

    def test_not_psd(self):
        with pytest.raises(NotPSDError, match="-1"):
            support(np.diag([1.0, -1.0]))

    @given(seeds, st.sampled_from([2, 3, 5, 8]))
    def test_projector_invariants(self, seed, dim):
        sigma = random_reference(dim, seed, full_rank=False, rank=max(1, dim - 2))
        info = support(sigma)
        assert info.rank == max(1, dim - 2)
        proj = info.operator(info.powers(0.0))
        assert max_abs(proj @ proj - proj) <= 1e-10
        assert abs(np.trace(proj).real - info.rank) <= 1e-8


class TestSupportRelations:
    # the support relation `divergences._paired` decides, as a prepared pair records it
    def test_full_rank_dominates(self):
        rho = random_density(3, 5)
        assert prepare(rho, np.eye(3)).dominated

    def test_orthogonal_supports_do_not_dominate(self):
        assert not prepare(np.diag([0.0, 1.0]), np.diag([1.0, 0.0])).dominated

    def test_example1_dominates(self, example1_quarter):
        rho, sigma = example1_quarter
        pair = prepare(rho, sigma)
        assert pair.dominated
        assert not pair.orthogonal

    def test_orthogonal_predicate(self):
        assert prepare(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])).orthogonal
        rho = random_density(2, 9)
        assert not prepare(rho, rho).orthogonal


class TestMatrixPower:
    def test_sqrt(self):
        s = support(np.diag([4.0, 9.0]))
        assert max_abs(s.operator(s.powers(0.5)) - np.diag([2.0, 3.0])) < 1e-12

    def test_generalized_inverse(self):
        s = support(np.diag([2.0, 0.0]))
        assert max_abs(s.operator(s.powers(-1.0)) - np.diag([0.5, 0.0])) < 1e-14

    def test_power_zero_is_support_projector(self):
        rho, _ = example1_pair(0.25)
        s = support(rho)
        assert max_abs(s.operator(s.powers(0.0)) - np.outer(PLUS, PLUS)) < 1e-12

    @given(seeds, st.sampled_from([2, 3, 5]),
           st.floats(0.25, 2.0), st.floats(0.25, 2.0))
    def test_power_law(self, seed, dim, p, q):
        s = support(random_density(dim, seed))
        s_p = support(s.operator(s.powers(p)))
        left = s_p.operator(s_p.powers(q))
        right = s.operator(s.powers(p * q))
        assert max_abs(left - right) <= 1e-10

    @given(seeds, st.sampled_from([2, 4, 6]))
    def test_power_one_identity_map(self, seed, dim):
        a = random_density(dim, seed)
        s = support(a)
        assert max_abs(s.operator(s.powers(1.0)) - a) <= 1e-10

    @given(seeds, st.sampled_from([2, 3, 5]), st.floats(0.2, 1.8))
    def test_log_exp_consistency(self, seed, dim, t):
        s = support(random_density(dim, seed))
        log_a = s.operator(s.on_support(np.log))
        values, vectors = np.linalg.eigh(hermitian_part(t * log_a))
        exp_t_log = (vectors * np.exp(values)) @ vectors.conj().T
        assert max_abs(s.operator(s.powers(t)) - exp_t_log) <= 1e-10


class TestLogOnSupport:
    def test_identity(self):
        s = support(np.eye(3))
        assert max_abs(s.operator(s.on_support(np.log))) < 1e-14

    def test_diagonal(self):
        s = support(np.diag([np.e, 1.0, 0.0]))
        got = s.operator(s.on_support(np.log))
        assert max_abs(got - np.diag([1.0, 0.0, 0.0])) < 1e-14

    def test_projector(self, example1_quarter):
        rho, _ = example1_quarter
        s = support(rho)
        assert max_abs(s.operator(s.on_support(np.log))) < 1e-12

    def test_zero_operator(self):
        s = support(np.zeros((2, 2)))
        assert max_abs(s.operator(s.on_support(np.log))) == 0.0


class TestPinch:
    def test_identity_basis_is_noop(self):
        a = rand_hermitian(3, 21)
        assert max_abs(support(np.eye(3)).pinch(a) - a) <= 1e-12

    def test_kills_off_diagonals(self, example1_quarter):
        rho, sigma = example1_quarter
        assert max_abs(support(sigma).pinch(rho) - np.diag([0.5, 0.5])) < 1e-12

    @given(seeds)
    def test_trace_preserving(self, seed):
        a = random_density(4, seed)
        basis = random_reference(4, seed + 1)
        assert abs(np.trace(support(basis).pinch(a)).real - np.trace(a).real) <= 1e-12

    @given(seeds)
    def test_psd_preserving(self, seed):
        a = random_density(4, seed)
        basis = random_reference(4, seed + 7)
        values = support(support(basis).pinch(a)).values
        assert values.min() >= -1e-12


class TestSpectrumPinch:
    @given(seeds)
    def test_simple_spectrum_keeps_basis_diagonal(self, seed):
        # distinct eigenvalues: one block per eigenvector, so pinching keeps
        # the diagonal of A in that eigenbasis and nothing else
        a = random_density(4, seed)
        s = support(random_reference(4, seed + 1))
        assume(np.diff(s.values).max() < -1e-6 * s.values[0])
        in_basis = np.diag(s.vectors.conj().T @ a @ s.vectors).real
        assert max_abs(s.pinch(a) - s.operator(in_basis)) <= 1e-12

    def test_degenerate_block(self):
        # equal eigenvalues share one block, which pinching leaves whole
        a = rand_hermitian(3, 5)
        out = support(np.diag([0.5, 0.5, 1.0])).pinch(a)
        assert max_abs(out[:2, :2] - a[:2, :2]) <= 1e-15
        assert max_abs(out[:2, 2]) <= 1e-15

    def test_validation(self):
        spectrum = support(np.eye(3) / 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            spectrum.pinch(np.eye(2))
        with pytest.raises(ValueError, match="not Hermitian"):
            spectrum.pinch(np.triu(np.ones((3, 3))))


def _block_loop_pinch(spectrum, a):
    """The reference pinch: sum over the blocks of P A P, with P the block's
    projector and the blocks of `Spectrum.pinch`'s clustering rule."""
    tol = 1e-8 * max(float(np.abs(spectrum.values).max()), 1e-300)
    splits = np.nonzero(np.abs(np.diff(spectrum.values)) > tol)[0] + 1
    out = np.zeros_like(a, dtype=complex)
    for block in np.split(np.arange(spectrum.values.size), splits):
        u = spectrum.vectors[:, block]
        proj = u @ u.conj().T
        out += proj @ a @ proj
    return hermitian_part(out)


class TestPinchOneProduct:
    """`Spectrum.pinch` as one product V (M ∘ V†AV) V† equals the loop over
    the eigenvalue blocks."""

    @pytest.mark.parametrize("seed", [3, 17, 29])
    @pytest.mark.parametrize("repeated", [False, True])
    def test_equals_block_loop(self, seed, repeated):
        if repeated:
            # blocks of 3 and 2 repeated eigenvalues beside a simple one, in
            # a random basis, with round-off in the repeated eigenvalues
            u = random_unitary(6, seed)
            sigma = hermitian_part((u * [0.3, 0.3, 0.3, 0.1, 0.1, 0.2]) @ u.conj().T)
        else:
            sigma = random_reference(6, seed)
        spectrum = support(sigma)
        blocks = 1 + int(np.count_nonzero(
            np.abs(np.diff(spectrum.values)) > 1e-8 * spectrum.values[0]))
        assert blocks == (3 if repeated else 6)
        a = random_density(6, seed + 1)
        got = spectrum.pinch(a)
        assert max_abs(got - _block_loop_pinch(spectrum, a)) <= 1e-14
        assert max_abs(got - got.conj().T) == 0.0
        assert abs(np.trace(got) - np.trace(a)) <= 1e-14


def _one_product_pinch(spectrum, a):
    """`Spectrum.pinch` as it was computed before pinches were stacked: one
    operator, its own block mask."""
    scale = max(float(np.abs(spectrum.values).max()), 1e-300)
    blocks = np.concatenate(([0], np.cumsum(np.abs(np.diff(spectrum.values)) > 1e-8 * scale)))
    adjoint = spectrum.vectors.conj().T
    in_basis = adjoint @ a @ spectrum.vectors
    return hermitian_part(spectrum.vectors @ ((blocks[:, None] == blocks) * in_basis) @ adjoint)


class TestStackedPinch:
    """`linalg._pinches` pinches a stack of operators, each in the eigenbasis
    of its own Spectrum, with one product; `Spectrum.pinch` is its
    one-operator case. Every image equals the one-operator pinch bit for
    bit, clustered spectra included."""

    @staticmethod
    def _sigmas(dim):
        u = random_unitary(dim, dim)
        clustered = np.ones(dim)
        clustered[dim // 2:] = 2.0
        # generic spectra, I/d (one block), two blocks with round-off, and a
        # rank-deficient reference
        return ([random_reference(dim, seed) for seed in range(4)]
                + [np.eye(dim) / dim,
                   hermitian_part((u * (clustered / clustered.sum())) @ u.conj().T),
                   random_reference(dim, 9, full_rank=False, rank=max(1, dim // 2))])

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_equals_one_operator_pinch(self, dim):
        spectra = linalg.supports(np.array(self._sigmas(dim)))
        ops = [random_density(dim, 100 + k) for k in range(len(spectra))]
        ops += self._sigmas(dim)
        images = linalg._pinches(spectra + spectra, np.array(ops))
        assert images.shape == (2 * len(spectra), dim, dim)
        for spectrum, a, image in zip(spectra + spectra, ops, images):
            assert np.array_equal(image, spectrum.pinch(a))
            assert image.tobytes() == _one_product_pinch(spectrum, a).tobytes()

    def test_identity_over_d_is_one_block(self):
        # sigma = I/d has one block, so each image is the operator itself
        spectra = linalg.supports(np.array([np.eye(5) / 5] * 3))
        ops = np.array([random_density(5, k) for k in range(3)])
        assert max_abs(linalg._pinches(spectra, ops) - ops) <= 1e-15

    def test_validation(self):
        spectra = linalg.supports(np.array([np.eye(3) / 3] * 2))
        with pytest.raises(ValueError, match=r"dimension mismatch: \(2, 2\) vs \(3, 3\)"):
            linalg._pinches(spectra, np.array([np.eye(2)] * 2))
        with pytest.raises(ValueError, match="not Hermitian"):
            linalg._pinches(spectra, np.array([np.eye(3), np.triu(np.ones((3, 3)))]))


class TestCutoffOverride:
    def test_default(self):
        assert zero_cutoff() == 1e-12

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("RENYI_EPS", "1e-2")
        assert zero_cutoff() == 1e-2
        assert support(np.diag([1.0, 1e-3])).rank == 1

    def test_env_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("RENYI_EPS", "banana")
        with pytest.raises(DomainError):
            zero_cutoff()
        monkeypatch.setenv("RENYI_EPS", "2.0")
        with pytest.raises(DomainError):
            zero_cutoff()

    def test_module_default_constant(self):
        assert linalg.DEFAULT_EPS == 1e-12


class TestSupportsStack:
    """What `supports` hands to `eigh`, and the cutoffs it reads off eigh's
    sorted rows."""

    @staticmethod
    def _eigh_inputs(monkeypatch) -> list:
        seen, eigh = [], np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: seen.append(a) or eigh(a))
        return seen

    def test_exactly_hermitian_stack_is_decomposed_as_given(self, monkeypatch):
        seen = self._eigh_inputs(monkeypatch)
        stack = np.array([random_density(4, 1), random_reference(4, 2)], dtype=complex)
        linalg.supports(stack)
        assert np.shares_memory(seen[0], stack)

    def test_small_defect_is_still_symmetrized(self, monkeypatch):
        seen = self._eigh_inputs(monkeypatch)
        stack = np.array([random_density(4, 1), random_reference(4, 2)], dtype=complex)
        stack[1, 0, 2] += 1e-14
        linalg.supports(stack)
        assert not np.shares_memory(seen[0], stack)
        assert seen[0].tobytes() == hermitian_part(stack).tobytes()

    @pytest.mark.parametrize("rows", [
        [[0.0, 0.0, 0.0], [-0.0, 0.0, 0.0]],  # zero operators, one of largest magnitude -0.0
        [[-3e-17, 0.25, 0.75], [-1e-320, 1e-300, 2e-300]],  # negative round-off at the low end
        [[math.nan] * 3, [0.0, 0.5, 0.5]],  # eigh's NaN comes in a row of NaNs
        [[0.1, 0.2, math.inf], [-math.inf, 0.0, 1.0]],  # infinite eigenvalues
    ], ids=["zero", "round-off", "nan", "inf"])
    def test_thresholds_equal_numpys_maximum(self, monkeypatch, rows):
        values = np.array(rows)
        count, dim = values.shape
        vectors = np.broadcast_to(np.eye(dim, dtype=complex), (count, dim, dim)).copy()
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (values.copy(), vectors.copy()))
        spectra = linalg.supports(np.zeros((count, dim, dim)))
        want = zero_cutoff() * np.abs(values).max(axis=1)
        for spectrum, threshold, row in zip(spectra, want, rows):
            assert np.float64(spectrum.threshold).tobytes() == threshold.tobytes()
            if math.isnan(threshold):  # the NaN rule: a NaN eigenvalue leaves no support
                assert spectrum.rank == 0

    def test_largest_magnitude_at_the_negative_end_is_not_psd(self, monkeypatch):
        # eps < 1 puts the threshold below that magnitude
        values, vectors = np.array([[-2e-17, 0.0, 1e-17]]), np.eye(3, dtype=complex)[None]
        monkeypatch.setattr(np.linalg, "eigh", lambda a: (values, vectors))
        with pytest.raises(NotPSDError, match="-2.000000e-17"):
            linalg.supports(np.zeros((1, 3, 3)))

    @given(seeds, dims)
    def test_thresholds_of_seeded_stacks(self, seed, dim):
        stack = np.array([random_density(dim, seed), random_reference(dim, seed + 1),
                          random_reference(dim, seed + 2, full_rank=False, rank=1)])
        values = np.linalg.eigh(stack)[0]
        want = zero_cutoff() * np.abs(values).max(axis=1)
        got = [spectrum.threshold for spectrum in linalg.supports(stack)]
        assert np.array(got).tobytes() == want.tobytes()

    def test_spectrum_arrays_are_c_contiguous(self):
        for spectrum in linalg.supports(np.array([random_density(5, 3), random_reference(5, 4)])):
            assert spectrum.values.flags.c_contiguous and spectrum.vectors.flags.c_contiguous
            assert np.all(np.diff(spectrum.values) <= 0)
