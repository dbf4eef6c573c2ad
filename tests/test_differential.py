"""Differential tests of the paired paths that the design says agree.

The package computes the same quantities along paired paths on purpose:
`prepare` and `_prepare_pairs`; a pair alone and the same pair inside a
mixed-dimension stack of the batched kernel; the scalar `divergence` and a
one-point `evaluate`. Each test draws pairs from five support classes (full
rank, dominating, violating, orthogonal, and near-orthogonal, whose cosines
between the supports square to values on both sides of the cutoff eps =
1e-12), of dimension 1 to 6, and points with negative alpha and z, alpha
at and beside 1 and integer z up to 17, and checks one promise:

  * bit for bit, NaN equal to NaN, where the code promises it: the pairs of
    `_prepare_pairs` equal those of `prepare` field for field, and a pair's
    rows of `stacked_divergences` and `stacked_traces` in a family equal its
    own `evaluate` and `traces`;
  * the same error type and message everywhere: a family raises the error
    of its first pair whose own call fails, and the scalar `divergence`
    raises the error of a one-point `evaluate`;
  * `orthogonal` is true iff the inner rank is 0;
  * elsewhere the round-off rule of `_scalar_gap_bound`.

The examples are derandomized, so every run draws the same ones.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphaz import divergences as dv
from alphaz.states import random_density, random_reference, random_support_pair, random_unitary

# the kernel's range tests meet overflowing powers, which numpy reports too
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

U = 2.0 ** -53  # the unit round-off of a double
COS_SQ = (0.25e-12, 0.5e-12, 0.8e-12, 1.25e-12, 2e-12, 4e-12)  # around eps = 1e-12


def _near_orthogonal(dim: int, seed: int, rank: int, cos_sq: list[float]):
    """(rho, sigma) of dimension dim: sigma of this rank with eigenvectors
    e_0, e_1, ..., and rho a mixture, with weights within a factor of 2 of
    each other, of the vectors v_i = c_i e_i + s_i e_(rank+i) with
    c_i^2 = cos_sq[i], both rotated by one random unitary. The cosines
    between the supports are the c_i, and rho's weight on supp sigma, the
    mean of the c_i^2 by rho's weights, may exceed rho's zero threshold
    where every c_i^2 is below eps."""
    rng = np.random.default_rng(seed)
    s, p = rng.uniform(0.2, 1.0, rank), rng.uniform(0.5, 1.0, len(cos_sq))
    v = np.zeros((len(cos_sq), dim))
    for i, c2 in enumerate(cos_sq):
        v[i, i], v[i, rank + i] = math.sqrt(c2), math.sqrt(1.0 - c2)
    u = random_unitary(dim, rng)
    rho, sigma = (v.T * (p / p.sum())) @ v, np.diag(np.pad(s / s.sum(), (0, dim - rank)))
    return u @ rho @ u.conj().T, u @ sigma @ u.conj().T


@st.composite
def pair_operators(draw):
    """One (rho, sigma) of a drawn support class and dimension 1..6."""
    dim = draw(st.integers(1, 6))
    kind = "full" if dim == 1 else draw(st.sampled_from(
        ["full", "dominating", "violating", "orthogonal", "near-orthogonal"]))
    seed = draw(st.integers(0, 2**31))
    if kind == "full":
        return random_density(dim, seed), random_reference(dim, seed + 1)
    if kind == "near-orthogonal":
        cos_sq = draw(st.lists(st.sampled_from(COS_SQ), min_size=1, max_size=dim // 2))
        rank = draw(st.integers(len(cos_sq), dim - len(cos_sq)))
        return _near_orthogonal(dim, seed, rank, cos_sq)
    return random_support_pair(dim, seed, rank=draw(st.integers(1, dim - 1)), branch=kind)


alphas = st.one_of(st.sampled_from([0.999, 1.0, 1.001, 0.5, 2.0, -0.5]),
                   st.floats(-1.5, 5.0))
zs = st.one_of(st.integers(1, 17).map(float), st.integers(-3, -1).map(float),
               st.floats(-2.5, 20.5).filter(lambda z: z != 0.0))
points = st.lists(st.tuples(alphas, zs), min_size=1, max_size=6)
families = st.lists(pair_operators(), min_size=1, max_size=5)


def _identical(a, b) -> bool:
    """Equal bit for bit, except that any NaN equals any NaN."""
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype != b.dtype or a.shape != b.shape:
        return False
    if a.dtype.kind == "c":
        a, b = a.view(float), b.view(float)
    if a.dtype.kind != "f":
        return bool(np.array_equal(a, b))
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all() and a[~nan].tobytes() == b[~nan].tobytes())


def _outcome(call):
    """call()'s value, or its error as (type, message)."""
    try:
        return call()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def _failed(outcome) -> bool:
    return isinstance(outcome, tuple) and len(outcome) == 2 and isinstance(outcome[0], type)


def _scalar_gap_bound(pair, alpha: float, z: float, value: float, route: str, g) -> float:
    """The largest |D| gap that round-off allows between the scalar
    `divergence` and a one-point `evaluate` at an open point, from the
    roundings of the two paths; u = 2^-53.

    Both paths take the route of `_route` and build G from the same W. They
    differ in the powers of the eigenvalues: the scalar path raises a vector
    to a float exponent, which numpy may take as sqrt, square or
    reciprocal, and the stack lays the exponent out in full, so that it
    calls `pow`. Each is within one ulp (2u relative) of the exact power, so
    the two paths' G differ by row and column scalings within 4u each, and
    per entry by the two products' roundings, 4u. LAPACK's SVD gives each
    singular value within about d u sigma_1 of the exact one, in each path.
    So the two paths' singular values differ by at most
        e sigma_1, e = (8 + 4 d + 2 d) u,
    counting 4 u ||G||_F <= 4 d u sigma_1 for the entries' roundings.
    T = sum_i sigma_i^(2z) over the kept values moves by the relative
        2 |z| e sum_i w_i sigma_1 / sigma_i,   w_i = sigma_i^(2z) / T,
    to first order, plus (2k + 2) u for the k powers of the terms (2u each
    path) and the sums of k positive terms ((k - 1) u each path). On the
    product route each path's matrix products add at most 2 z (d + 2) u,
    relative to T, since the largest eigenvalue of G G† to the power z is
    at most T. Then D = ln T / (alpha - 1) moves by the relative change of
    T over |alpha - 1|, and each path's log (one ulp) and quotient (u) add
    6 u |D|. The bound is twice this first-order sum, which covers its
    second-order terms."""
    d, k = pair.rho.values.size, pair.inner_rank
    sigmas = np.linalg.svd(g, compute_uv=False)[:k]
    terms = (sigmas * sigmas) ** z
    weights = terms / terms.sum()
    shares = np.divide(sigmas[0], sigmas, out=np.zeros(k), where=weights > 0.0)
    e = (8 + 6 * d) * U
    rel_t = 2 * abs(z) * e * float(weights @ shares) + (2 * k + 2) * U
    if route == "product":
        rel_t += 2 * z * (d + 2) * U
    return 2.0 * (rel_t / abs(alpha - 1.0) + 6 * U * abs(value))


@settings(derandomize=True, max_examples=100)
@given(families)
def test_prepare_pairs_equals_prepare(operators):
    stacked = _outcome(lambda: dv._prepare_pairs(operators))
    alone = [_outcome(lambda: dv.prepare(rho, sigma)) for rho, sigma in operators]
    first = next((pair for pair in alone if _failed(pair)), None)
    if first is not None:
        assert _failed(stacked) and stacked == first
        return
    for got, want in zip(stacked, alone):
        for side in ("rho", "sigma"):
            a, b = getattr(got, side), getattr(want, side)
            assert _identical(a.values, b.values) and _identical(a.vectors, b.vectors)
            assert _identical(a.threshold, b.threshold) and (a.eps, a.rank) == (b.eps, b.rank)
        for field in ("overlap", "weights"):
            assert _identical(getattr(got, field), getattr(want, field)), field
        assert (got.dominated, got.orthogonal, got.inner_rank) == (
            want.dominated, want.orthogonal, want.inner_rank)
        assert want.orthogonal == (want.inner_rank == 0)
        assert not (want.dominated and want.orthogonal)


@settings(derandomize=True, max_examples=100)
@given(families, points)
def test_family_rows_equal_own_calls(operators, grid):
    pairs = [dv.prepare(rho, sigma) for rho, sigma in operators]
    a, z = (np.array(column) for column in zip(*grid))
    own_d = [_outcome(lambda: pair.evaluate(a, z)) for pair in pairs]
    own_t = [_outcome(lambda: pair.traces(a, z)) for pair in pairs]
    for stacked, own, pick in ((dv.stacked_divergences, own_d, lambda out: out[0]),
                               (dv.stacked_traces, own_t, lambda out: out)):
        rows = _outcome(lambda: stacked(pairs, a, z))
        first = next((out for out in own if _failed(out)), None)
        if first is not None:
            assert _failed(rows) and rows == first
        else:
            assert all(_identical(row, pick(out)) for row, out in zip(rows, own))
        # the pairs whose own calls succeed, as a family of their own
        kept = [(pair, pick(out)) for pair, out in zip(pairs, own) if not _failed(out)]
        if kept:
            rows = stacked([pair for pair, _ in kept], a, z)
            assert all(_identical(row, want) for row, (_, want) in zip(rows, kept))
    for pair, out in zip(pairs, own_d):
        if not _failed(out):
            assert _identical(out[0], pair.divergences(a, z))


@settings(derandomize=True, max_examples=200)
@given(pair_operators(), points)
def test_scalar_divergence_against_one_point_evaluate(operators, grid):
    pair = dv.prepare(*operators)
    assert pair.orthogonal == (pair.inner_rank == 0)
    for alpha, z in grid:
        scalar = _outcome(lambda: pair._divergence(alpha, z))
        stacked = _outcome(lambda: float(pair.evaluate(alpha, z)[0]))
        if _failed(scalar) or _failed(stacked):
            assert scalar == stacked
            continue
        (value, route, g), got = scalar, stacked
        assert _outcome(lambda: pair.divergence(alpha, z)) == value
        if route == "closed" or not math.isfinite(value.value):
            assert _identical(got, value.value)
        else:
            bound = _scalar_gap_bound(pair, alpha, z, value.value, route, g)
            assert abs(got - value.value) <= bound, (alpha, z, route, got, value.value, bound)
