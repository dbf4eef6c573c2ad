import numpy as np
import pytest
from hypothesis import given, strategies as st

from alphaz import states
from alphaz.divergences import alpha_z_divergence, prepare
from alphaz.linalg import DomainError, hermitian_part, support
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


def _old_wishart(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    w = g @ g.conj().T
    return hermitian_part(w / np.trace(w).real)


def _old_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def _old_reference(dim, seed, rank):
    rng = np.random.default_rng(seed)
    values = np.sort(rng.uniform(0.2, 1.0, size=dim))[::-1]
    values[rank:] = 0.0
    values /= values.sum()
    u = _old_unitary(dim, rng)
    return hermitian_part((u * values) @ u.conj().T)


def _old_support_pair(dim, seed, rank, branch):
    rng = np.random.default_rng(seed)
    u = _old_unitary(dim, rng)
    values = np.sort(rng.uniform(0.2, 1.0, size=rank))[::-1]
    values = np.concatenate([values / values.sum(), np.zeros(dim - rank)])
    sigma = hermitian_part((u * values) @ u.conj().T)
    if branch == "violating":
        return _old_wishart(rng, dim), sigma
    size, basis = (rank, u[:, :rank]) if branch == "dominating" else (dim - rank, u[:, rank:])
    block = _old_wishart(rng, size)
    return hermitian_part(basis @ block @ basis.conj().T), sigma


def _old_commuting_pair(dim, seed):
    rng = np.random.default_rng(seed)
    u = _old_unitary(dim, rng)
    p = rng.uniform(0.1, 1.0, size=dim)
    p /= p.sum()
    q = rng.uniform(0.3, 1.0, size=dim)
    q /= q.sum()
    return (hermitian_part((u * p) @ u.conj().T), hermitian_part((u * q) @ u.conj().T), p, q)


def _same(a, b) -> bool:
    """Equal bit for bit, signs of zeros included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


STACK_SEEDS = (0, 1, 7, 20240811, 2**63 + 5)
ALL_DIMS = range(1, MAX_DIM + 1)


class TestStackedForms:
    """Each public generator is the one-seed case of a stacked form that
    draws every seed from its own generator and does the linear algebra
    once per stack: each row of a stack equals the public generator of its
    seed bit for bit, and that equals the one-matrix formulas the
    generators had before they were stacked."""

    @pytest.mark.parametrize("dim", ALL_DIMS)
    def test_density_rows(self, dim):
        stack = states._densities(dim, STACK_SEEDS)
        for seed, row in zip(STACK_SEEDS, stack):
            assert _same(row, random_density(dim, seed))
            assert _same(row, _old_wishart(np.random.default_rng(seed), dim))

    @pytest.mark.parametrize("dim", ALL_DIMS)
    def test_reference_rows(self, dim):
        stack = states._references(dim, STACK_SEEDS)
        for seed, row in zip(STACK_SEEDS, stack):
            assert _same(row, random_reference(dim, seed))
            assert _same(row, _old_wishart(np.random.default_rng(seed), dim))
        for rank in sorted({1, max(1, dim // 2), dim - 1 or 1, dim}):
            stack = states._references(dim, STACK_SEEDS, full_rank=False, rank=rank)
            for seed, row in zip(STACK_SEEDS, stack):
                assert _same(row, random_reference(dim, seed, full_rank=False, rank=rank))
                assert _same(row, _old_reference(dim, seed, rank))
        if dim > 1:  # rank defaults to dim - 1
            assert _same(random_reference(dim, 3, full_rank=False),
                         _old_reference(dim, 3, dim - 1))

    @pytest.mark.parametrize("dim", ALL_DIMS)
    def test_unitary_rows(self, dim):
        # from a seed and from a generator, which the stack draws from in turn
        sources = [STACK_SEEDS[0], np.random.default_rng(STACK_SEEDS[1]), *STACK_SEEDS[2:]]
        stack = states._unitaries(dim, sources)
        for seed, row in zip(STACK_SEEDS, stack):
            assert _same(row, random_unitary(dim, seed))
            assert _same(row, random_unitary(dim, np.random.default_rng(seed)))
            assert _same(row, _old_unitary(dim, np.random.default_rng(seed)))

    def test_unitary_advances_its_generator(self):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        assert _same(random_unitary(4, rng), _old_unitary(4, ref))
        assert rng.uniform() == ref.uniform()

    @pytest.mark.parametrize("dim", range(2, MAX_DIM + 1))
    def test_support_pair_rows(self, dim):
        # every branch at every rank, in one stack of groups
        groups = [(rank, branch, STACK_SEEDS[(rank + len(branch)) % 5:][:2])
                  for rank in range(1, dim) for branch in ("dominating", "violating", "orthogonal")]
        for (rank, branch, seeds), (rhos, sigmas) in zip(groups,
                                                         states._support_pairs(dim, groups)):
            assert len(rhos) == len(sigmas) == len(seeds)
            for seed, rho, sigma in zip(seeds, rhos, sigmas):
                one = random_support_pair(dim, seed, rank=rank, branch=branch)
                old = _old_support_pair(dim, seed, rank, branch)
                assert _same(rho, one[0]) and _same(sigma, one[1])
                assert _same(rho, old[0]) and _same(sigma, old[1])

    @pytest.mark.parametrize("dim", ALL_DIMS)
    def test_commuting_pair_rows(self, dim):
        stacks = states._commuting_pairs(dim, STACK_SEEDS)
        for k, seed in enumerate(STACK_SEEDS):
            row = [stack[k] for stack in stacks]
            for got, one, old in zip(row, commuting_pair(dim, seed),
                                     _old_commuting_pair(dim, seed)):
                assert _same(got, one) and _same(got, old)

    @pytest.mark.parametrize("n, base_seed, dims", [
        (10, 20240811, (2, 3, 4, 5, 6)),
        (9, 7, (4, 2, 4, 3)),
        (5, 123, (16, 1, 16)),
        (3, 0, (3,)),
    ])
    def test_seeded_pairs_equal_per_seed_loop(self, n, base_seed, dims):
        from alphaz.suites import seeded_pairs

        pairs = seeded_pairs(n, base_seed, dims)
        assert len(pairs) == n
        for k, (rho, sigma, label) in enumerate(pairs):
            dim = dims[k % len(dims)]
            assert label == f"pair{k}(dim={dim})"
            assert _same(rho, random_density(dim, base_seed + 2 * k))
            assert _same(sigma, random_reference(dim, base_seed + 2 * k + 1))

    def test_one_dimensional_support_pair(self):
        # once "rank must be in 1..0, got 1", which no rank can satisfy
        for branch in ("dominating", "violating", "orthogonal"):
            with pytest.raises(ValueError, match=r"^a support pair needs dim >= 2, got 1$"):
                random_support_pair(1, 5, rank=1, branch=branch)
        with pytest.raises(ValueError, match="dim must be in 1..16"):
            random_support_pair(17, 5, rank=1)
