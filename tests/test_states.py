import numpy as np
import pytest
from hypothesis import given, strategies as st

from alphaz.divergences import alpha_z_divergence, prepare
from alphaz.linalg import DomainError, support
from alphaz.states import (
    MAX_DIM,
    commuting_pair,
    example1_pair,
    random_density,
    random_reference,
    random_support_pair,
    random_unitary,
)

from conftest import max_abs

seeds = st.integers(0, 2**32 - 1)


class TestRandomDensity:
    @given(seeds, st.sampled_from([1, 2, 4, 8, 16]))
    def test_valid_density(self, seed, dim):
        rho = random_density(dim, seed)
        assert abs(np.trace(rho).real - 1.0) <= 1e-12
        assert support(rho).values.min() >= -1e-14

    def test_deterministic(self):
        assert max_abs(random_density(4, 7) - random_density(4, 7)) == 0.0

    def test_seeds_differ(self):
        assert max_abs(random_density(4, 7) - random_density(4, 8)) > 1e-3

    def test_dim_cap(self):
        with pytest.raises(ValueError, match="1..16"):
            random_density(MAX_DIM + 1, 0)


class TestRandomReference:
    @given(seeds, st.sampled_from([2, 3, 6]))
    def test_full_rank(self, seed, dim):
        sigma = random_reference(dim, seed)
        assert support(sigma).values.min() > 0.0

    def test_rank_deficient(self):
        sigma = random_reference(5, 11, full_rank=False, rank=3)
        values = support(sigma).values
        assert np.sum(values > 1e-10) == 3

    def test_inconsistent_flags(self):
        with pytest.raises(ValueError, match="inconsistent"):
            random_reference(4, 0, full_rank=True, rank=2)


class TestSupportPairs:
    @given(seeds, st.sampled_from([3, 4, 6]))
    def test_dominating(self, seed, dim):
        rho, sigma = random_support_pair(dim, seed, rank=dim - 1, branch="dominating")
        assert prepare(rho, sigma).dominated

    @given(seeds, st.sampled_from([3, 4, 6]))
    def test_violating(self, seed, dim):
        rho, sigma = random_support_pair(dim, seed, rank=dim - 1, branch="violating")
        pair = prepare(rho, sigma)
        assert not pair.dominated
        assert not pair.orthogonal
        v = alpha_z_divergence(rho, sigma, 2.0, 1.0)
        assert not v.is_finite

    @given(seeds, st.sampled_from([3, 4, 6]))
    def test_orthogonal(self, seed, dim):
        rho, sigma = random_support_pair(dim, seed, rank=dim - 2 if dim > 2 else 1,
                                         branch="orthogonal")
        assert prepare(rho, sigma).orthogonal

    def test_unknown_branch(self):
        with pytest.raises(ValueError, match="branch"):
            random_support_pair(4, 0, rank=2, branch="sideways")

    def test_rank_bounds(self):
        with pytest.raises(ValueError, match="rank"):
            random_support_pair(4, 0, rank=4, branch="dominating")


class TestCommutingPair:
    @given(seeds, st.sampled_from([2, 4, 8]))
    def test_commutator_and_spectra(self, seed, dim):
        rho, sigma, p, q = commuting_pair(dim, seed)
        assert max_abs(rho @ sigma - sigma @ rho) <= 1e-12
        assert abs(p.sum() - 1.0) <= 1e-12
        assert abs(q.sum() - 1.0) <= 1e-12
        assert np.allclose(np.sort(support(rho).values), np.sort(p), atol=1e-12)

    def test_deterministic(self):
        a = commuting_pair(4, 99)
        b = commuting_pair(4, 99)
        assert max_abs(a[0] - b[0]) == 0.0 and max_abs(a[1] - b[1]) == 0.0


class TestRandomUnitary:
    @given(seeds, st.sampled_from([2, 3, 6]))
    def test_unitarity(self, seed, dim):
        u = random_unitary(dim, seed)
        assert max_abs(u.conj().T @ u - np.eye(dim)) <= 1e-12


class TestExample1Pair:
    def test_matrices(self):
        rho, sigma = example1_pair(0.25)
        assert max_abs(sigma - np.diag([0.25, 0.75])) == 0.0
        assert np.allclose(support(rho).values, [1.0, 0.0], atol=1e-14)
        pair = prepare(rho, sigma)
        assert pair.dominated
        assert not pair.orthogonal

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.3, 0.5])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(DomainError):
            example1_pair(bad)
