"""Deterministic seeded generators for test states.

Every generator is a pure function of (dim, seed, flags), backed by
numpy's default_rng (PCG64). Same seed and dim give bit-identical output
within one platform/build.

Each public generator is the one-seed case of a stacked form (`_densities`,
`_unitaries`, `_references`, `_support_pairs`, `_commuting_pairs`), which
makes the states of many seeds of one dimension. Each seed still gets its
own generator and draws in its own order; everything after the draws runs
once per stack: one `qr` of the Ginibre matrices and one phase fix, one
product and one trace normalization for the Wishart densities, one product
for the sandwiches u diag(p) u†, and one `hermitian_part`. numpy's stacked
`qr`, products and elementwise arithmetic round each matrix as they round
it alone, so a state is the same bit for bit whichever stack made it.
"""

from __future__ import annotations

import numpy as np

from .linalg import DomainError, hermitian_part

MAX_DIM = 16


def _check_dim(dim: int) -> int:
    dim = int(dim)
    if not 1 <= dim <= MAX_DIM:
        raise ValueError(f"dim must be in 1..{MAX_DIM}, got {dim}")
    return dim


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(int(seed))


def _ginibres(rngs, dim: int) -> np.ndarray:
    """One dim x dim matrix of independent standard complex normals from
    each generator, as a stack: each draws its real parts, then its
    imaginary parts, in row-major order."""
    parts = np.empty((len(rngs), 2, dim, dim))
    for rng, out in zip(rngs, parts):
        rng.standard_normal(out=out)
    return parts[:, 0] + 1j * parts[:, 1]


def _wisharts(g: np.ndarray) -> np.ndarray:
    """G G† / Tr(G G†) for each G of a stack of Ginibre matrices."""
    w = g @ g.conj().swapaxes(1, 2)
    w /= w.trace(axis1=1, axis2=2).real[:, None, None]
    return hermitian_part(w)


def _haar(g: np.ndarray) -> np.ndarray:
    """The Q factor of each Ginibre matrix of a stack, with the R-diagonal
    phases fixed for determinism: one `qr` for the stack."""
    q, r = np.linalg.qr(g)
    phases = r.diagonal(axis1=1, axis2=2)
    return q * (phases / np.abs(phases))[:, None, :]


def _sandwiches(u: np.ndarray, diagonals: np.ndarray) -> np.ndarray:
    """u diag(p) u† for each unitary u of a stack and its row p."""
    return hermitian_part((u * diagonals[:, None, :]) @ u.conj().swapaxes(1, 2))


def _densities(dim: int, seeds) -> np.ndarray:
    """The stacked form of `random_density`: one state per seed."""
    dim = _check_dim(dim)
    return _wisharts(_ginibres([_rng(seed) for seed in seeds], dim))


def random_density(dim: int, seed: int) -> np.ndarray:
    """Full-rank random density operator G G† / Tr(G G†), Ginibre G."""
    return _densities(dim, (seed,))[0]


def _unitaries(dim: int, seeds) -> np.ndarray:
    """The stacked form of `random_unitary`: one unitary per seed or
    generator."""
    dim = _check_dim(dim)
    return _haar(_ginibres([seed if isinstance(seed, np.random.Generator) else _rng(seed)
                            for seed in seeds], dim))


def random_unitary(dim: int, seed: int | np.random.Generator) -> np.ndarray:
    """Haar-style random unitary from the QR factorization of a Ginibre
    matrix, with the R-diagonal phases fixed for determinism."""
    return _unitaries(dim, (seed,))[0]


def _references(dim: int, seeds, *, full_rank: bool = True,
                rank: int | None = None) -> np.ndarray:
    """The stacked form of `random_reference`: one operator per seed."""
    dim = _check_dim(dim)
    if full_rank:
        if rank is not None:
            raise ValueError("inconsistent flags: full_rank=True with explicit rank")
        return _densities(dim, seeds)
    rank = dim - 1 if rank is None else int(rank)
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must be in 1..{dim}, got {rank}")
    rngs, spectra = [_rng(seed) for seed in seeds], []
    for rng in rngs:
        values = np.sort(rng.uniform(0.2, 1.0, size=dim))[::-1]
        values[rank:] = 0.0
        values /= values.sum()
        spectra.append(values)
    return _sandwiches(_unitaries(dim, rngs), np.array(spectra))


def random_reference(dim: int, seed: int, *, full_rank: bool = True,
                     rank: int | None = None) -> np.ndarray:
    """Random reference operator, trace-normalized.

    full_rank=True gives a Wishart-style positive definite operator;
    otherwise the smallest dim-rank eigenvalues are zeroed out (rank
    defaults to dim-1).
    """
    return _references(dim, (seed,), full_rank=full_rank, rank=rank)[0]


def _support_pairs(dim: int, groups) -> list[tuple[np.ndarray, np.ndarray]]:
    """The stacked form of `random_support_pair`: the stacks (rhos, sigmas)
    of each group (rank, branch, seeds) of `groups`, an int rank, one pair
    per seed. The unitaries of every group share one `qr` and one sandwich
    product, and the rhos of a group one Wishart stack and one product."""
    dim = _check_dim(dim)
    if dim < 2:
        raise ValueError(f"a support pair needs dim >= 2, got {dim}")
    rngs, ranks = [], []
    for rank, branch, seeds in groups:
        if not 1 <= rank < dim:
            raise ValueError(f"rank must be in 1..{dim - 1}, got {rank}")
        if branch not in ("dominating", "violating", "orthogonal"):
            raise ValueError(f"unknown branch {branch!r}")
        for seed in seeds:
            rngs.append(_rng(seed))
            ranks.append(rank)
    # each generator draws the Ginibre matrix of u, sigma's spectrum, then
    # rho's Wishart block
    u, spectra = _haar(_ginibres(rngs, dim)), np.zeros((len(rngs), dim))
    for i, rng in enumerate(rngs):
        values = np.sort(rng.uniform(0.2, 1.0, size=ranks[i]))[::-1]
        spectra[i, :ranks[i]] = values / values.sum()
    sigmas, pairs, start = _sandwiches(u, spectra), [], 0
    for rank, branch, seeds in groups:
        at = slice(start, start + len(seeds))
        start = at.stop
        if branch == "violating":
            rhos = _wisharts(_ginibres(rngs[at], dim))
        else:
            basis = u[at, :, :rank] if branch == "dominating" else u[at, :, rank:]
            rhos = _wisharts(_ginibres(rngs[at], basis.shape[2]))
            rhos = hermitian_part(basis @ rhos @ basis.conj().swapaxes(1, 2))
        pairs.append((rhos, sigmas[at]))
    return pairs


def random_support_pair(dim: int, seed: int, *, rank: int,
                        branch: str = "dominating") -> tuple[np.ndarray, np.ndarray]:
    """(rho, sigma) with sigma of the given rank and a controlled support
    relation; dim must be >= 2.

    branch="dominating":  supp(rho) inside supp(sigma)
    branch="violating":   rho full rank, so sigma cannot dominate it,
                          but the supports overlap
    branch="orthogonal":  rho supported entirely on ker(sigma)
    """
    [(rhos, sigmas)] = _support_pairs(dim, [(int(rank), branch, (seed,))])
    return rhos[0], sigmas[0]


def _commuting_pairs(dim: int, seeds) -> tuple[np.ndarray, ...]:
    """The stacked form of `commuting_pair`: the stacks (rhos, sigmas, ps,
    qs), one pair per seed."""
    dim = _check_dim(dim)
    rngs = [_rng(seed) for seed in seeds]
    g, ps, qs = _ginibres(rngs, dim), [], []
    for rng in rngs:
        ps.append(rng.uniform(0.1, 1.0, size=dim))
        qs.append(rng.uniform(0.3, 1.0, size=dim))
    u, ps, qs = _haar(g), np.array(ps), np.array(qs)
    ps /= ps.sum(axis=1, keepdims=True)
    qs /= qs.sum(axis=1, keepdims=True)
    return _sandwiches(u, ps), _sandwiches(u, qs), ps, qs


def commuting_pair(dim: int, seed: int) -> tuple[np.ndarray, np.ndarray,
                                                 np.ndarray, np.ndarray]:
    """(rho, sigma, p, q): a commuting pair sharing a random eigenbasis,
    plus the probability vectors on the diagonal.

    Spectra are drawn with bounded dynamic range (p from uniform [0.1, 1],
    q from uniform [0.3, 1], both normalized) so spectral-calculus noise
    stays far below the classical-reduction tolerances even at extreme
    (alpha, z) exponents.
    """
    rho, sigma, p, q = (stack[0] for stack in _commuting_pairs(dim, (seed,)))
    return rho, sigma, p, q


def example1_pair(p: float) -> tuple[np.ndarray, np.ndarray]:
    """The rank-1 rho = |+><+| against sigma = diag(p, 1-p), p in (0,1)
    excluding 1/2 (the two families' curvatures coincide there)."""
    p = float(p)
    if not 0.0 < p < 1.0 or abs(p - 0.5) <= 1e-12:
        raise DomainError(f"p must lie in (0,1) excluding 1/2, got {p}")
    rho = np.full((2, 2), 0.5, dtype=complex)
    sigma = np.diag([p, 1.0 - p]).astype(complex)
    return rho, sigma
