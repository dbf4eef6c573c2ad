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
    `_prepare_pairs` equal those of `prepare` field for field, a pair's
    rows of `stacked_divergences` and `stacked_traces` in a family equal its
    own `evaluate` and `traces`, the values of a request that shares a
    kernel pass (`_Pass`) with other requests equal its own `stacked_*`
    call, the scalar `divergence` equals a one-point `evaluate`, and the
    second-route T of the self-checks of `petz` and `sandwiched` equals the
    same pair's row of `_Stack.dual_traces`: both drivers take every power,
    trace sum and log by one rounding rule;
  * the same error type and message everywhere: a family raises the error
    of its first pair whose own call fails, a request in a shared pass the
    error of its own call, and the scalar `divergence` raises the error of
    a one-point `evaluate`;
  * `orthogonal` is true iff the inner rank is 0;
  * on the same stacked G of dominated pairs at integer z in 1..16, the
    product route's T (`_power_sums`) and the SVD route's (`_trace_sums`),
    two different computations, within the round-off rule of
    `_route_gap_bound`.

The examples are derandomized, so every run draws the same ones.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from alphaz import divergences as dv
from alphaz.states import random_density, random_reference, random_support_pair, random_unitary
from alphaz.suites import seeded_pairs

# the kernel reports every range fault itself, with numpy's warnings off
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

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


KINDS = ("full", "dominating", "violating", "orthogonal", "near-orthogonal")


@st.composite
def pair_operators(draw, kinds=KINDS):
    """One (rho, sigma) of a support class drawn from `kinds` and dimension
    1..6."""
    dim = draw(st.integers(1, 6))
    kind = "full" if dim == 1 else draw(st.sampled_from(kinds))
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


mo_alphas = st.lists(st.one_of(st.sampled_from([0.3, 0.5, 0.999, 1.0, 1.001, 2.0, 3.0]),
                               st.floats(0.05, 5.0)), min_size=1, max_size=5)
# one request: the indices of its pairs in a shared pool, and either its
# points (alpha, z) or, for a Mosonyi-Ogawa request, its orders alone
requests = st.tuples(st.lists(st.integers(0, 4), max_size=4),
                     st.one_of(points.map(lambda grid: ("points", grid)),
                               mo_alphas.map(lambda alphas: ("orders", alphas))))


@settings(derandomize=True, max_examples=100)
@given(families, st.lists(requests, min_size=2, max_size=3))
def test_requests_in_one_pass_equal_own_calls(operators, specs):
    pool = [dv.prepare(rho, sigma) for rho, sigma in operators]
    kernel, added = dv._Pass(), []
    for indices, (kind, grid) in specs:
        pairs = [pool[i % len(pool)] for i in indices]
        if kind == "orders":
            added.append((kernel.add(pairs, grid), pairs, grid, None))
        else:
            a, z = (np.array(column) for column in zip(*grid))
            added.append((kernel.add(pairs, a, z), pairs, a, z))
    kernel.run()
    for request, pairs, a, z in added:
        if z is None:
            reads = [(request.mosonyi_ogawa, lambda: dv.stacked_mosonyi_ogawa(pairs, a))]
        else:
            reads = [(lambda: request.evaluate()[0], lambda: dv.stacked_divergences(pairs, a, z)),
                     (request.traces, lambda: dv.stacked_traces(pairs, a, z))]
        for read, own_call in reads:
            got, own = _outcome(read), _outcome(own_call)
            if _failed(got) or _failed(own):
                assert got == own
            else:
                assert _identical(got, own)


@settings(derandomize=True, max_examples=200)
@given(pair_operators(), points)
def test_scalar_divergence_against_one_point_evaluate(operators, grid):
    pair = dv.prepare(*operators)
    assert pair.orthogonal == (pair.inner_rank == 0)
    for alpha, z in grid:
        scalar = _outcome(lambda: pair.divergence(alpha, z))
        stacked = _outcome(lambda: float(pair.evaluate(alpha, z)[0]))
        if _failed(scalar) or _failed(stacked):
            assert scalar == stacked
        else:
            assert _identical(stacked, scalar.value), (alpha, z, stacked, scalar.value)


def test_seeded_pairs_one_value_per_point():
    # the certification's seeded pairs 0-19 on a fixed grid, no examples
    # drawn: the scalar `divergence` equals `evaluate` at every point, and
    # `mosonyi_ogawa` equals `stacked_mosonyi_ogawa` at every order. Taking
    # powers by numpy's sqrt, square or reciprocal, logs by `math.log` and
    # the Petz overlap sum by another contraction, the scalar driver once
    # differed at 24 of the 1,540 points and 7 of the 120 orders
    pairs = [dv.prepare(rho, sigma) for rho, sigma, _ in seeded_pairs(20)]
    a, z = (x.ravel() for x in np.meshgrid((0.3, 0.6, 0.7, 1.5, 2.0, 3.0, 4.0),
                                           (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 10.0, -0.5, -1.0,
                                            0.37, 1.7), indexing="ij"))
    orders = (0.3, 0.6, 0.7, 1.5, 2.0, 3.0)
    points = [(p, alpha, zi) for p, pair in enumerate(pairs)
              for alpha, zi, value in zip(a.tolist(), z.tolist(), pair.evaluate(a, z)[0])
              if not _identical(pair.divergence(alpha, zi).value, value)]
    by_order = [(p, alpha) for p, row in enumerate(dv.stacked_mosonyi_ogawa(pairs, orders))
                for alpha, value in zip(orders, row)
                if not _identical(pairs[p].mosonyi_ogawa(alpha).value, value)]
    assert not points and not by_order, (
        f"{len(points)} of {len(pairs) * a.size} points and {len(by_order)} of "
        f"{len(pairs) * len(orders)} orders differ: {points[:3]}, {by_order[:3]}")


def _weighted_shares(singular, z: float) -> float:
    """sum_i w_i sigma_1 / sigma_i over the singular values kept, with
    w_i = sigma_i^(2z) / T the share of term i in T = sum_i sigma_i^(2z)."""
    terms = (singular * singular) ** z
    weights = terms / terms.sum()
    return float(weights @ np.divide(singular[0], singular, out=np.zeros(singular.size),
                                     where=weights > 0.0))


def _route_gap_bound(d: int, k: int, rank: int, singular) -> float:
    """The largest relative gap that round-off allows between the product
    route's and the SVD route's T = Tr (G G†)^k of one G of dimension d,
    inner rank `rank` and kept singular values `singular`; u = 2^-53.

    The product route forms H = G G†, then H^(k/2) (even k) or H^((k-1)/2) G
    (odd k) by at most k - 1 complex matrix products counting H, each of
    inner dimension d, and sums the squares of the result's entries. A
    complex product AB is within c ||A||_F ||B||_F of the exact one in the
    Frobenius norm, c = sqrt(2) (d + 2) u (Higham, Accuracy and Stability,
    3.6). Every factor is a power of the PSD H, or G, so ||H^a||_F <= sqrt(d)
    sigma_1^(2a), and each product adds at most c d sigma_1^(2(a+b)); an
    error carried in a factor scales by the other factor's 2-norm. Counting
    the errors of H at each of the k/2 places it enters and of every
    product, the result X is within k c d sigma_1^k of the exact one. T is
    ||X||_F^2 >= sigma_1^(2k), so its relative error is at most 2 k c d,
    plus 2 d^2 u for the squares and the sum of the 2 d^2 real parts.

    The SVD route takes each singular value within d u sigma_1 (LAPACK's
    normwise bound, with its p(d) taken as d),
    which moves T by the relative 2 k d u sum_i w_i sigma_1 / sigma_i to
    first order, plus (rank + 2) u for the square, the power and the sum of
    the terms. The singular values it drops are exact zeros under dominance,
    where G vanishes outside the supp sigma x supp rho block. The bound is
    twice the first-order sum of both routes, which covers the second-order
    terms."""
    product = 2 * k * math.sqrt(2.0) * (d + 2) * d * U + 2 * d * d * U
    svd = 2 * k * d * U * _weighted_shares(singular, k) + (rank + 2) * U
    return 2.0 * (product + svd)


open_alphas = st.one_of(st.sampled_from([0.999, 1.001, 0.5, 2.0, -0.5, 0.0]),
                        st.floats(-1.5, 5.0)).filter(lambda a: abs(a - 1.0) > dv.ALPHA_ONE_TOL)


@settings(derandomize=True, max_examples=100)
@given(st.lists(pair_operators(("full", "dominating")), min_size=1, max_size=4),
       st.lists(st.tuples(open_alphas, st.integers(1, dv.Z_PRODUCT_MAX)), min_size=1,
                max_size=6))
def test_product_route_against_svd_route(operators, grid):
    pairs = dv._prepare_pairs(operators)
    a, z = (np.array(column, dtype=float) for column in zip(*grid))
    # one row per pair and point, and one stack per dimension, as in a pass
    pi = np.repeat(np.arange(len(pairs)), a.size)
    a, z = np.tile(a, len(pairs)), np.tile(z, len(pairs))
    dims = np.array([pair.rho.values.size for pair in pairs])[pi]
    for dim in set(dims.tolist()):
        members = np.unique(pi[dims == dim])
        stack = dv._Stack([pairs[p] for p in members])
        rows, z_rows = np.searchsorted(members, pi[dims == dim]), z[dims == dim]
        _, defined, product, e_sigma, e_rho = stack._route(rows, a[dims == dim], z_rows)
        assert np.all(product)  # dominated, open and integer z in range
        # the steps as `_Stack.rows` runs them, with numpy's warnings off
        with np.errstate(all="ignore"):
            g, over = stack._factors(rows, e_sigma, e_rho)
            kept = np.broadcast_to(defined, rows.shape).copy()
            if over is not None:
                kept &= ~over
            for k in set(z_rows[kept].tolist()):
                at = kept & (z_rows == k)
                by_product = dv.PreparedPair._power_sums(g[at], int(k))
                singular = np.linalg.svd(g[at], compute_uv=False)
                by_svd, fault = stack._trace_sums(singular, z_rows[at], rows[at])
                for row, prod, svd, code, p in zip(singular, by_product, by_svd,
                                                   np.broadcast_to(fault, by_svd.shape),
                                                   rows[at]):
                    if code or not (dv._TINY <= prod < math.inf):
                        continue  # the SVD route decides these, alone
                    pair = stack.pairs[p]
                    bound = _route_gap_bound(pair.rho.values.size, int(k), pair.inner_rank,
                                             row[:pair.inner_rank])
                    assert abs(prod - svd) <= bound * max(prod, svd), (k, prod, svd, bound)


@settings(derandomize=True, max_examples=100)
@given(families, st.lists(st.one_of(st.sampled_from([0.3, 0.5, 0.999, 1.001, 2.0, 3.0]),
                                    st.floats(0.05, 5.0)), min_size=1, max_size=5))
def test_scalar_self_checks_against_stacked(operators, alphas):
    pairs = [dv.prepare(rho, sigma) for rho, sigma in operators]
    stacked, original = {}, dv._Stack.dual_traces

    def recorded(stack, pi, alphas, *args):
        t, fault = original(stack, pi, alphas, *args)
        stacked.update({(id(stack.pairs[p]), alpha): value for p, alpha, value
                        in zip(pi.tolist(), alphas.tolist(), t.tolist())})
        return t, fault

    with mock.patch.object(dv._Stack, "dual_traces", recorded):
        dv.stacked_mosonyi_ogawa(pairs, alphas)
    for pair in pairs:
        for alpha in alphas:
            checked = []
            with mock.patch.object(dv, "_assert_dual_path",
                                   lambda label, value, a, t: checked.append(t)):
                _, route, _ = pair._divergence(alpha, 1.0 if alpha < 1.0 else alpha)
                pair.petz(alpha) if alpha < 1.0 else pair.sandwiched(alpha)
            want = stacked[id(pair), alpha]
            if route == "closed":  # no self-check, and NaN in the stack by design
                assert not checked and math.isnan(want)
                continue
            [got] = checked
            assert _identical(got, want), (alpha, route, got, want)
