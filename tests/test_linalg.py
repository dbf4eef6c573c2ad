import numpy as np
import pytest
from hypothesis import given, strategies as st

from alphaz import linalg
from alphaz.linalg import (
    DomainError,
    NotPSDError,
    eigensystem,
    hermitian_part,
    log_on_support,
    matrix_power,
    pinch,
    support,
    zero_cutoff,
)
from alphaz.divergences import prepare
from alphaz.states import example1_pair, random_density, random_reference

from conftest import max_abs, rand_hermitian

PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)

seeds = st.integers(0, 2**32 - 1)
dims = st.sampled_from([1, 2, 3, 4, 6, 8])


class TestEigensystem:
    def test_identity(self):
        es = eigensystem(np.eye(2))
        assert np.allclose(es.values, [1.0, 1.0])

    def test_already_diagonal(self):
        es = eigensystem(np.diag([3.0, -1.0]))
        assert np.allclose(es.values, [3.0, -1.0])
        assert max_abs(np.abs(es.vectors) - np.eye(2)) < 1e-14

    def test_plus_projector(self, example1_quarter):
        rho, _ = example1_quarter
        es = eigensystem(rho)
        assert np.allclose(es.values, [1.0, 0.0], atol=1e-14)
        assert abs(abs(es.vectors[:, 0] @ PLUS) - 1.0) < 1e-12

    def test_sorted_descending(self):
        es = eigensystem(rand_hermitian(6, 11))
        assert np.all(np.diff(es.values) <= 0)

    @given(seeds, dims)
    def test_reconstruction(self, seed, dim):
        a = rand_hermitian(dim, seed)
        es = eigensystem(a)
        tol = 1e-10 * max(1.0, max_abs(a))
        reconstructed = (es.vectors * es.values) @ es.vectors.conj().T
        assert max_abs(reconstructed - a) <= tol

    @given(seeds, dims)
    def test_vectors_unitary(self, seed, dim):
        es = eigensystem(rand_hermitian(dim, seed))
        gram = es.vectors.conj().T @ es.vectors
        assert max_abs(gram - np.eye(dim)) <= 1e-12

    @given(seeds, dims)
    def test_unitary_covariance(self, seed, dim):
        a = rand_hermitian(dim, seed)
        u = eigensystem(rand_hermitian(dim, seed + 1)).vectors
        rotated = hermitian_part(u @ a @ u.conj().T)
        assert max_abs(eigensystem(rotated).values - eigensystem(a).values) <= 1e-10

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="square"):
            eigensystem(np.ones((2, 3)))
        with pytest.raises(ValueError, match="Hermitian"):
            eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="finite"):
            eigensystem(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSupport:
    def test_diagonal(self):
        info = support(np.diag([1.0, 0.0]))
        assert info.rank == 1
        assert max_abs(info.projector - np.diag([1.0, 0.0])) < 1e-14

    def test_below_cutoff(self):
        info = support(np.diag([2.0, 1e-18]))
        assert info.rank == 1

    def test_plus_projector(self, example1_quarter):
        rho, _ = example1_quarter
        info = support(rho)
        assert info.rank == 1
        assert max_abs(info.projector - np.outer(PLUS, PLUS)) < 1e-12

    def test_zero_operator(self):
        info = support(np.zeros((3, 3)))
        assert info.rank == 0
        assert max_abs(info.projector) == 0.0

    def test_not_psd(self):
        with pytest.raises(NotPSDError, match="-1"):
            support(np.diag([1.0, -1.0]))

    @given(seeds, st.sampled_from([2, 3, 5, 8]))
    def test_projector_invariants(self, seed, dim):
        sigma = random_reference(dim, seed, full_rank=False, rank=max(1, dim - 2))
        info = support(sigma)
        assert info.rank == max(1, dim - 2)
        assert max_abs(info.projector @ info.projector - info.projector) <= 1e-10
        assert abs(np.trace(info.projector).real - info.rank) <= 1e-8


class TestSupportRelations:
    # the relation support_relation decides, as a prepared pair records it
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
        assert max_abs(matrix_power(np.diag([4.0, 9.0]), 0.5)
                       - np.diag([2.0, 3.0])) < 1e-12

    def test_generalized_inverse(self):
        assert max_abs(matrix_power(np.diag([2.0, 0.0]), -1.0)
                       - np.diag([0.5, 0.0])) < 1e-14

    def test_power_zero_is_support_projector(self):
        rho, _ = example1_pair(0.25)
        assert max_abs(matrix_power(rho, 0.0) - support(rho).projector) < 1e-12

    @given(seeds, st.sampled_from([2, 3, 5]),
           st.floats(0.25, 2.0), st.floats(0.25, 2.0))
    def test_power_law(self, seed, dim, p, q):
        a = random_density(dim, seed)
        left = matrix_power(matrix_power(a, p), q)
        right = matrix_power(a, p * q)
        assert max_abs(left - right) <= 1e-10

    @given(seeds, st.sampled_from([2, 4, 6]))
    def test_power_one_identity_map(self, seed, dim):
        a = random_density(dim, seed)
        assert max_abs(matrix_power(a, 1.0) - a) <= 1e-10

    @given(seeds, st.sampled_from([2, 3, 5]), st.floats(0.2, 1.8))
    def test_log_exp_consistency(self, seed, dim, t):
        a = random_density(dim, seed)
        log_a = log_on_support(a)
        es = eigensystem(hermitian_part(t * log_a))
        exp_t_log = (es.vectors * np.exp(es.values)) @ es.vectors.conj().T
        assert max_abs(matrix_power(a, t) - exp_t_log) <= 1e-10


class TestLogOnSupport:
    def test_identity(self):
        assert max_abs(log_on_support(np.eye(3))) < 1e-14

    def test_diagonal(self):
        got = log_on_support(np.diag([np.e, 1.0, 0.0]))
        assert max_abs(got - np.diag([1.0, 0.0, 0.0])) < 1e-14

    def test_projector(self, example1_quarter):
        rho, _ = example1_quarter
        assert max_abs(log_on_support(rho)) < 1e-12

    def test_zero_operator(self):
        assert max_abs(log_on_support(np.zeros((2, 2)))) == 0.0


class TestPinch:
    def test_identity_basis_is_noop(self):
        a = rand_hermitian(3, 21)
        assert max_abs(pinch(a, np.eye(3)) - a) <= 1e-12

    def test_kills_off_diagonals(self, example1_quarter):
        rho, sigma = example1_quarter
        assert max_abs(pinch(rho, sigma) - np.diag([0.5, 0.5])) < 1e-12

    @given(seeds)
    def test_trace_preserving(self, seed):
        a = random_density(4, seed)
        basis = random_reference(4, seed + 1)
        assert abs(np.trace(pinch(a, basis)).real - np.trace(a).real) <= 1e-12

    @given(seeds)
    def test_psd_preserving(self, seed):
        a = random_density(4, seed)
        basis = random_reference(4, seed + 7)
        values = eigensystem(pinch(a, basis)).values
        assert values.min() >= -1e-12


class TestSpectrumPinch:
    @given(seeds)
    def test_equals_pinch(self, seed):
        a = random_density(4, seed)
        basis = random_reference(4, seed + 1)
        assert np.array_equal(support(basis).pinch(a), pinch(a, basis))

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
