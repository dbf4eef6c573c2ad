"""Divergence measures on density operators.

Implements the classical KL and Renyi divergences, the quantum relative
entropy and its variance, and the two-parameter alpha-z family

    D(a, z) = ln Tr[(sigma^((1-a)/2z) rho^(a/z) sigma^((1-a)/2z))^z] / (a - 1)

together with its z=1 (Petz), z=a (sandwiched), and piecewise
(Mosonyi-Ogawa) specializations. All values are in nats. Every scalar
quantum divergence returns a DivergenceValue carrying either a finite real
or +inf with a reason tag describing which support condition failed; the
batched calls return float arrays, +inf where the supports force it.

Support semantics for D(a, z):
  * a = 1 (within 1e-12): the relative entropy, closing the family at its
    limit point.
  * sigma dominates rho (ker sigma inside ker rho): the formula, with
    generalized powers on rank-deficient operators.
  * a > 1 without dominance: +inf, tagged support_violation.
  * a < 1 with orthogonal states: +inf, tagged orthogonal_states.
  * a < 1, overlapping but non-dominating supports: the formula restricted
    to the supports (all powers generalized), a finite value.
Negative z and negative alpha are accepted whenever the required spectral
powers are well defined; a negative exponent against a rank-deficient
operator outside the dominated case leaves T undefined. So does a finite
alpha or z whose spectral powers or trace sum overflow double range, or
whose trace sum underflows to 0.

One route rule (`_route`) gives every point one of three outcomes:
closed, where D needs no trace (the first and the two +inf cases above);
the product route (`_power_sums`) at the open points of a dominated pair
whose z is a positive integer up to Z_PRODUCT_MAX = 16, where
T = Tr (G G†)^z is a sum of squares of matrix products; or the SVD route
of T (`_trace_sums`). Both routes take G as it is built (`_factor` at one
point, `_Stack._factors` at many), graded with its large rows and columns
first for the SVD route's `svd`. A product-route T outside [tiny, inf) is
computed again by the SVD route, which alone decides the range. The route
steps raise nothing: they give each point a fault code, 1 where T's
formula is undefined, 2 where the spectral powers overflow, 3 where the
trace sum overflows and 4 where it underflows, and T is NaN at a point
with a fault. Each entry point then raises one DomainError, for the
lowest code at its first point among the points it needs (every point for
T, the open points for D); a closed point's fault is no error. Where D
needs T, a T that is not positive, NaN included, is an ArithmeticError.
Since the steps report every range fault themselves, numpy's
floating-point warnings are off where they run, entered once per driver:
around the scalar `PreparedPair._divergence` with its self-check, each
stack's `_Stack.rows` and `_Stack.dual_traces`, and
`ClassicalPair.renyi`. The self-checks of `petz`, `sandwiched` and
`stacked_mosonyi_ogawa` fail on a NaN value or check T, as an
ArithmeticError.

Every quantum value comes from a PreparedPair, which validates both
operators as one stack in one pass, decomposes them with one `eigh` and
carries every family as a method; each module function prepares one pair
per call and calls one method. `_prepare_pairs` prepares a family of pairs
with one stack, one `eigh`, per dimension, equal to `prepare` of each. The
trace functional T(a, z) is `prepare(rho, sigma).traces(alpha, z)`.

The kernel works on rows, one per pair and point (alpha, z). A kernel pass
(`_Pass`) takes the rows of several requests, each some prepared pairs of
any dimensions at the same points, and evaluates them together: the pairs
of each dimension as one stack (`_Stack`), whose `rows` gives each row's
closed flag, T and fault code and its self-check's T, with at most one SVD
per dimension and per self-check route for up to _STACK_ROWS rows. Each
request then reads its own D, T or Mosonyi-Ogawa values (`_Request`); the
first read runs the pass, which then takes no more requests.
`stacked_divergences`, `stacked_traces` and `stacked_mosonyi_ogawa`, and
through them `PreparedPair.divergences`, `traces` and `evaluate`, are the
one-request case; `suites.run_suites` puts every family of a run in one
pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import DomainError, Spectrum, _power, hermitian_part, support, supports

INFINITY_SUPPORT = "support_violation"
INFINITY_ORTHOGONAL = "orthogonal_states"

LN2 = math.log(2.0)

# |alpha - 1| below this is dispatched to the relative-entropy limit; the
# raw formula divides ln T ~ (alpha-1) D by (alpha-1) and loses all digits
# long before this point.
ALPHA_ONE_TOL = 1e-12

# the largest positive integer z whose T the product route computes; a
# numerics rule, like ALPHA_ONE_TOL. Larger z keeps the SVD route.
Z_PRODUCT_MAX = 16

# the most rows one `_Stack` evaluates at once, which bounds the memory of a
# kernel pass: rows are independent, so no value depends on it
_STACK_ROWS = 4096

# agreement tolerance for the built-in dual-route self-check
_DUAL_PATH_TOL = 1e-10

# the product route keeps a T in [_TINY, inf); the SVD route decides the rest
_TINY = float(np.finfo(float).tiny)

# the kernel's fault code of a point, 0 where it has none; a point keeps the
# first code it gets, and a call raises for its lowest code at its first
# point with that code (`PreparedPair._raise`)
_UNDEFINED, _POWERS_OVERFLOW, _SUM_OVERFLOW, _SUM_UNDERFLOW = 1, 2, 3, 4
_BEYOND_RANGE = {_POWERS_OVERFLOW: "the spectral powers overflow",
                 _SUM_OVERFLOW: "the trace sum overflows",
                 _SUM_UNDERFLOW: "the trace sum underflows"}

_TRACE_ATOL = 1e-10
_PROB_ATOL = 1e-12


@dataclass(frozen=True)
class DivergenceValue:
    """Extended-real divergence: a finite value in nats, or +inf with a
    reason tag (support_violation or orthogonal_states)."""

    value: float
    infinity_reason: str | None = None

    def __post_init__(self):
        if math.isinf(self.value):
            if self.value < 0:
                raise ValueError("divergence cannot be -inf")
            if self.infinity_reason not in (INFINITY_SUPPORT, INFINITY_ORTHOGONAL):
                raise ValueError(
                    f"infinite value needs a reason tag, got {self.infinity_reason!r}"
                )
        else:
            if self.infinity_reason is not None:
                raise ValueError("finite value must not carry an infinity reason")
            if math.isnan(self.value):
                raise ValueError("divergence cannot be NaN")

    @classmethod
    def finite(cls, value: float) -> "DivergenceValue":
        return cls(float(value))

    @classmethod
    def infinite(cls, reason: str) -> "DivergenceValue":
        return cls(math.inf, reason)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value)

    def in_bits(self) -> float:
        """Value converted from nats to bits (inf stays inf)."""
        return self.value / LN2

    def __float__(self) -> float:
        return self.value


def check_probability_vector(p) -> np.ndarray:
    """Validate a probability vector: non-negative entries summing to 1."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"expected a non-empty 1-d vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise ValueError("probability vector has non-finite entries")
    if p.min() < -_PROB_ATOL:
        raise ValueError(f"negative probability {p.min():.3e}")
    if abs(p.sum() - 1.0) > max(_PROB_ATOL, 1e-13 * p.size):
        raise ValueError(f"probabilities sum to {p.sum()!r}, not 1")
    return np.clip(p, 0.0, None)


def _density(spectrum: Spectrum) -> Spectrum:
    """The spectrum of a PSD operator, checked for unit trace."""
    tr = float(spectrum.values.sum())
    if not abs(tr - 1.0) <= _TRACE_ATOL:  # a NaN trace fails too
        raise DomainError(f"density operator must have trace 1, got {tr!r}")
    return spectrum


def _reference(spectrum: Spectrum) -> Spectrum:
    """The spectrum of a PSD operator, checked to be nonzero. Eigenvalues
    that leave double range (an inf from `eigh` makes every threshold inf,
    so the rank 0) are malformed input, as entries beyond range are."""
    if spectrum.rank == 0:
        if not np.isfinite(spectrum.values).all():
            raise ValueError("matrix has eigenvalues beyond double range")
        raise DomainError("reference operator must be nonzero")
    return spectrum


def _renyi_order(alpha: float) -> float:
    """alpha as a float; a non-finite alpha and alpha = 1 (the KL limit) are
    DomainErrors."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
        raise DomainError("alpha = 1 is the KL limit; call ClassicalPair.kl")
    return alpha


@dataclass(frozen=True)
class ClassicalPair:
    """Two probability vectors of one length, validated once; the classical
    divergences of the pair are its methods."""

    p: np.ndarray
    q: np.ndarray

    def kl(self) -> DivergenceValue:
        """Kullback-Leibler divergence sum_i p_i ln(p_i/q_i), with 0 ln 0 = 0,
        summed in Python floats, which round as numpy's scalars do.

        Returns +inf (support_violation) when p puts mass where q has none.
        """
        total = 0.0
        for pi, qi in zip(self.p.tolist(), self.q.tolist()):
            if pi <= 0.0:
                continue
            if qi <= 0.0:
                return DivergenceValue.infinite(INFINITY_SUPPORT)
            total += pi * math.log(pi / qi)
        return DivergenceValue.finite(total)

    def renyi(self, alpha: float) -> DivergenceValue:
        """Renyi divergence ln(sum_i p_i^alpha q_i^(1-alpha)) / (alpha - 1).

        Terms with p_i = 0 vanish for alpha > 0. For alpha > 1, mass of p
        outside the support of q forces +inf. A sum that leaves double range
        is a DomainError naming alpha. The terms are Python floats, which
        round as numpy's scalars do; a power that overflows, where float
        `**` raises, is an infinite term, as numpy's would be.
        """
        alpha = _renyi_order(alpha)
        total = 0.0
        for pi, qi in zip(self.p.tolist(), self.q.tolist()):
            if pi <= 0.0:
                if alpha <= 0.0:
                    raise DomainError("alpha <= 0 with zero p-entries is undefined")
                continue
            if qi <= 0.0:
                if alpha > 1.0:
                    return DivergenceValue.infinite(INFINITY_SUPPORT)
                continue  # q_i^(1-alpha) = 0 for alpha < 1
            try:
                total += pi**alpha * qi ** (1.0 - alpha)
            except OverflowError:  # the range test below reports it
                total = math.inf
        if not math.isfinite(total):
            raise DomainError(f"alpha beyond double range: the Renyi sum overflows "
                              f"at alpha = {alpha!r}")
        if total <= 0.0:
            return DivergenceValue.infinite(INFINITY_ORTHOGONAL)
        return DivergenceValue.finite(math.log(total) / (alpha - 1.0))


def prepare_classical(p, q) -> ClassicalPair:
    """Validate two probability vectors of one length once."""
    p = check_probability_vector(p)
    q = check_probability_vector(q)
    if p.shape != q.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {q.shape}")
    return ClassicalPair(p, q)


def _from_trace(alpha: float, t: float, checked: bool) -> float:
    """D = ln T / (alpha - 1) at one point. A T that is not positive, NaN
    included, is an internal fault, except that a NaN T gives a NaN D where
    a self-check is to meet it (`checked`); `_Request.evaluate` holds the
    same rule for the kernel pass. The log is numpy's, which rounds as the
    kernel's logs do (`math.log` does not)."""
    if t <= 0.0 if checked else not t > 0.0:
        raise ArithmeticError(f"trace functional collapsed to {t!r}")
    return float(np.log(t) / (alpha - 1.0))


def _assert_dual_path(label: str, value: float, alpha: float, t: float) -> None:
    """Raise the ArithmeticError of a dual-route check where the family's D,
    `value`, and the second route's T disagree beyond _DUAL_PATH_TOL, or
    that T is not positive. Both tests are written so that a NaN fails
    them: a NaN T or D is an error, never a pass."""
    if not t > 0.0:
        raise ArithmeticError(f"{label} trace term collapsed to {t!r}")
    direct = _from_trace(alpha, t, False)  # t > 0: no error
    tol = _DUAL_PATH_TOL * max(1.0, abs(value))
    if not abs(value - direct) <= tol:
        raise ArithmeticError(
            f"{label} dual-path mismatch: alpha-z route {value!r} "
            f"vs direct formula {direct!r}"
        )


def _points(alphas, zs) -> tuple[np.ndarray, np.ndarray]:
    """alphas and zs broadcast against each other, as float arrays of the
    broadcast shape; z = 0 or a non-finite value anywhere is a DomainError,
    z = 0 first. The scalar `divergence` raises by this rule too."""
    a, z = np.asarray(alphas, dtype=float), np.asarray(zs, dtype=float)
    if a.shape != z.shape:
        # broadcast copies: np.broadcast_arrays costs more than the copies
        shape = np.broadcast(a, z).shape
        a, z = _filled(shape, a), _filled(shape, z)
    # all() of z is false only at z = 0; a NaN z fails its finiteness test
    if not (np.isfinite(a).all() and np.isfinite(z).all() and z.all()):
        if (z == 0.0).any():
            raise DomainError("z = 0 is excluded")
        ok = np.isfinite(a) & np.isfinite(z)
        i = np.unravel_index(np.argmin(ok), ok.shape)
        raise DomainError(f"alpha and z must be finite, got ({float(a[i])!r}, {float(z[i])!r})")
    return a, z


def _filled(shape: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """A new float array of this shape with x broadcast into it."""
    out = np.empty(shape)
    out[...] = x
    return out


def _joined(fault, code: int, at):
    """The fault codes `fault` with `code` at the points `at` that have none."""
    return np.where(fault, fault, code * at)


def _route(alphas, zs, dominated, orthogonal, rho_full, sigma_endorsed):
    """The route rule at points (alpha, z), floats or a 1-d array, for pairs
    with these support flags (`PreparedPair._flags`): bools for one pair or
    for a stack whose pairs share them, or else 1-d arrays of bools with one
    entry per row (`_Stack._route`), which give 1-d arrays. Returns (closed,
    defined, product, e_sigma, e_rho):
      * closed where D needs no trace: alpha = 1, where D is the relative
        entropy, and, without dominance, alpha > 1 or orthogonal supports,
        where it is +inf;
      * defined where T's formula is: no negative exponent on a
        rank-deficient operator, except sigma's under dominance (its
        generalized inverse); True where every point is;
      * product at the open points of a dominated pair whose z is a
        positive integer up to Z_PRODUCT_MAX; False where no pair is
        dominated, since a product would skip the inner-rank truncation;
      * the exponents (1 - a)/2z and a/z of sigma and rho, one per point.
    So each point has one of three outcomes. Closed: D needs no T. Product:
    the product route (`_power_sums`) computes T, and hands a T out of
    [tiny, inf) to the SVD route. Otherwise the SVD route (`_trace_sums`).
    An undefined point gets the fault code _UNDEFINED and no T; `traces`
    needs T at a closed point too."""
    e_sigma, e_rho = (1.0 - alphas) / (2.0 * zs), alphas / zs
    closed, product = abs(alphas - 1.0) <= ALPHA_ONE_TOL, False
    # bools at one point, arrays at several: these operators serve both,
    # and x ^ True negates a bool and an array alike
    if dominated is not False:  # where closed is alpha = 1 alone
        product = ((zs >= 1.0) & (zs <= Z_PRODUCT_MAX) & (zs % 1.0 == 0.0) & (closed ^ True)
                   & dominated)
    if dominated is not True:
        closed = closed | ((dominated ^ True) & ((alphas > 1.0) | orthogonal))
    if rho_full is True and sigma_endorsed is True:
        return closed, True, product, e_sigma, e_rho
    defined = ((e_rho >= 0.0) | rho_full) & ((e_sigma >= 0.0) | sigma_endorsed)
    return closed, defined, product, e_sigma, e_rho


@dataclass(frozen=True)
class PreparedPair:
    """A validated (rho, sigma) pair, decomposed once: the two spectra, the
    overlap W = V_sigma† U_rho of their eigenvectors, weights = |W|^2, the
    support relation and the inner rank: the rank of the supp sigma x supp
    rho block of W, which every inner operator sigma^e rho^f sigma^e of the
    pair shares. `_paired` decides dominance, orthogonality and the inner
    rank together, and cuts that block of W to the inner rank where it has
    cosines that count as zero; `orthogonal` is true iff the inner rank is 0.

    Every entry point asks `_route` which way each point goes, and the
    route steps (`_factor`, `_power_sums`, `_trace_sums`) compute values and
    per-point fault codes without raising; the entry point then raises
    once, through `_raise`, for the faults at the points it needs. G is
    built in the order `_factor` gives it, and every route and self-check
    takes G as built. `traces`, `divergences` and `evaluate` take arrays of
    points, sum the product points' matrix products and run one stacked SVD
    for the rest: they are the one-pair case of the module's kernel pass
    (`stacked_traces`, `stacked_divergences`), and `evaluate` returns the D
    of `divergences` with the T beside it, NaN at a closed point where T is
    undefined or out of double range. The scalar `divergence` runs the same
    steps for one point, and `petz`, `sandwiched` and `mosonyi_ogawa` call
    it with their own self-checks. Both drivers round alike: every power is
    taken by `_power`, every trace sum is a row of `_trace_sums` (or of
    `_overlap_sums`) and every log is numpy's, so each D and T, and each
    self-check's T, is the kernel's bit for bit."""

    rho: Spectrum
    sigma: Spectrum
    overlap: np.ndarray
    weights: np.ndarray
    dominated: bool
    orthogonal: bool
    inner_rank: int

    @property
    def _flags(self) -> tuple[bool, bool, bool, bool]:
        """The support flags the route rule takes: dominated, orthogonal,
        rho of full rank, and sigma of full rank or dominating rho."""
        dim = self.rho.values.size
        return (self.dominated, self.orthogonal, self.rho.rank == dim,
                self.sigma.rank == dim or self.dominated)

    def _route(self, alphas, zs):
        """`_route`, the module's route rule, for this pair at points (alpha,
        z): floats, or 1-d arrays that `_points` checked."""
        return _route(alphas, zs, *self._flags)

    def _raise(self, fault, alphas, zs):
        """Raise the DomainError of the lowest fault code in `fault` (an int
        at one point, or one per point of the 1-d arrays alphas and zs) at
        its first point with that code: for _UNDEFINED the operator whose
        negative exponent has no generalized inverse there, rho before
        sigma, and otherwise the range the point leaves."""
        codes = np.ravel(fault)
        code = int(codes[codes > 0].min())
        i = int(np.argmax(codes == code))
        alpha, z = float(np.ravel(alphas)[i]), float(np.ravel(zs)[i])
        if code == _UNDEFINED:
            *_, e_sigma, e_rho = self._route(alpha, z)
            rho_first = e_rho < 0.0 and self.rho.rank < self.rho.values.size
            name, exponent = ("rho", e_rho) if rho_first else ("sigma", e_sigma)
            raise DomainError("formula undefined for this support configuration: "
                              f"{name} is rank-deficient and its exponent {exponent:.6g} "
                              "is negative")
        raise DomainError(f"alpha or z beyond double range: {_BEYOND_RANGE[code]} at "
                          f"(alpha, z) = ({alpha!r}, {z!r})")

    def _closed_value(self, alpha: float) -> DivergenceValue:
        """D at a closed point of `_route`: the relative entropy, +inf
        support_violation without dominance, but tagged orthogonal_states
        below alpha = 1. Only the tag depends on alpha."""
        if alpha < 1.0 - ALPHA_ONE_TOL:
            return DivergenceValue.infinite(INFINITY_ORTHOGONAL)
        return self.relative_entropy()

    def _factor(self, e_sigma: float, e_rho: float, defined: bool):
        """The G = diag(sigma^e_sigma) W diag(rho^(e_rho/2)) of both routes at
        one point, whose G G† is the inner operator, its fault code and the
        powers (sigma^e_sigma, rho^(e_rho/2)) it was built from, in the
        spectra's order: _UNDEFINED where `defined` (`_route`'s) is false and
        _POWERS_OVERFLOW where the powers leave double range, with no G and
        no powers (None); 0, G and the powers otherwise. Scaling W by rows
        and columns is exact per entry, and the singular values of G give the
        inner eigenvalues to about the square root of the relative error of
        an eigendecomposition of the assembled sandwich. `_Stack._factors`
        builds the G of many points the same way.

        G comes in the SVD route's order: its rows reversed where e_sigma < 0
        and its columns where e_rho < 0, so that, the spectra being sorted
        largest first, its large rows and columns come first. Householder
        bidiagonalization keeps the small singular values of a matrix graded
        that way to full relative accuracy, not those of one graded smallest
        first (Demmel & Veselic 1992); neither the singular values nor
        Tr (G G†)^k depend on the order. |W| <= 1 bounds every entry of G by
        the product of the largest power on each side, so a finite bound
        keeps the SVD finite."""
        if not defined:
            return None, _UNDEFINED, None
        s_pow, r_pow = self.sigma.powers(e_sigma), self.rho.powers(e_rho / 2.0)
        # the maxima in Python floats, which cost less than numpy's
        if not math.isfinite(max(s_pow.tolist()) * max(r_pow.tolist())):
            return None, _POWERS_OVERFLOW, None
        rows = slice(None, None, -1 if e_sigma < 0.0 else 1)  # the sides to reverse
        cols = slice(None, None, -1 if e_rho < 0.0 else 1)
        g = s_pow[rows, None] * self.overlap[rows, cols]
        g *= r_pow[cols]
        return g, 0, (s_pow, r_pow)

    def _trace_sums(self, singular, zs):
        """T from the singular values of G at points without a fault, one
        row per point of pairs of this pair's inner rank (one row at one
        point), and the range faults of T as an int, 0 where no point has
        one, or one code per point: T is the sum of the top inner-rank values
        squared, raised to z. Every trace sum of the package, the self-checks'
        included, is a row of this sum, so each is the same bits in any call.
        G has the pair's inner rank, so its smaller singular values are
        round-off and are dropped whatever their size. A sum that overflows
        gets _SUM_OVERFLOW, and one that is 0 while the inner rank is
        positive, where every term underflowed, _SUM_UNDERFLOW."""
        fault, kept = 0, singular[:, :self.inner_rank]
        sums = _power(kept * kept, zs[:, None]).sum(axis=-1)
        values = sums.tolist()  # the tests in Python floats
        if not math.isfinite(sum(values)):  # a sum is not finite if a NaN or an inf term is in
            fault = _joined(fault, _SUM_OVERFLOW, ~np.isfinite(sums))
        if not min(values, default=1.0) > 0.0 and self.inner_rank > 0:
            fault = _joined(fault, _SUM_UNDERFLOW, ~(sums > 0.0))
        return sums, fault

    @staticmethod
    def _power_sums(g, k: int):
        """The product route's T = Tr (G G†)^k at a positive integer k, from
        G at one point (a float out) or a stack of rows, of one pair or
        many, that share k (one sum per row): with H = G G†, T is the
        squared Frobenius norm of H^(k/2) at even k and of H^((k-1)/2) G at
        odd k, so sum |G_ij|^2 at k = 1 and at most 4 matrix products at
        k = 16. Every term of the sum is a square and the powers of H are of
        a PSD matrix, so the round-off stays relative to T for z >= 1. No
        range test: the caller keeps a T in [tiny, inf) and hands the rest
        to the SVD route."""
        if k > 1:
            p = np.linalg.matrix_power(g @ g.conj().swapaxes(-1, -2), k // 2)
            g = p @ g if k % 2 else p
        flat = g.reshape(g.shape[:-2] + (-1,)).view(float)
        return (flat * flat).sum(axis=-1)

    def traces(self, alphas, zs) -> np.ndarray:
        """T(a, z) = Tr[(sigma^((1-a)/2z) rho^(a/z) sigma^((1-a)/2z))^z] with
        generalized powers at the broadcast points of alphas and zs, from
        matrix products at the product points of `_route` and one stacked
        SVD for the rest: the one-pair case of `stacked_traces`. Every point
        needs T, so a fault at any point raises the DomainError of `_raise`:
        where T's formula is undefined, then where it leaves double range."""
        return stacked_traces([self], alphas, zs)[0]

    def divergences(self, alphas, zs) -> np.ndarray:
        """D(a, z) in nats at the broadcast points of alphas and zs, +inf
        where the supports force it, from at most one stacked SVD: the
        one-pair case of `stacked_divergences`. `divergence` gives one point
        with its infinity reason."""
        return stacked_divergences([self], alphas, zs)[0]

    def divergence(self, alpha: float, z: float) -> DivergenceValue:
        """D(a, z) = ln T(a, z) / (a - 1) at one point with the module's
        support semantics: `_route`'s rule, then the product or the SVD
        route for this point alone, with one G and at most one `svd`. Where
        D needs T and T is undefined or out of double range, raises the
        DomainError of `traces`."""
        return self._divergence(alpha, z)[0]

    def _divergence(self, alpha: float, z: float, check=None):
        """`divergence`, how it was reached ("closed", or "product" or "svd",
        the route that gave T) and the point's G (None if closed). At an
        open point, `check(value, route, g, powers)`, the self-check of
        `petz` or `sandwiched` given the powers G was built from (`_factor`),
        runs on the value in nats before it becomes a DivergenceValue, so
        that a NaN value meets the check. The route steps and the check run
        with numpy's floating-point warnings off, entered once: the steps
        report every range fault themselves, as a DomainError."""
        alpha, z = float(alpha), float(z)
        if not (z and math.isfinite(alpha) and math.isfinite(z)):
            _points(alpha, z)  # raises the DomainError of the kernel's rule
        closed, defined, product, e_sigma, e_rho = self._route(alpha, z)
        if closed:
            return self._closed_value(alpha), "closed", None
        with np.errstate(all="ignore"):
            g, fault, powers = self._factor(e_sigma, e_rho, defined)
            if fault:
                self._raise(fault, alpha, z)
            t, route = (self._power_sums(g, int(z)) if product else math.nan), "product"
            if not _TINY <= t < math.inf:  # a NaN fails too
                singular = np.linalg.svd(g, compute_uv=False)[None]  # one row, as in the kernel
                (t, fault), route = self._trace_sums(singular, np.array([z])), "svd"
                if fault:
                    self._raise(fault, alpha, z)
            value = _from_trace(alpha, t.item(), check is not None)
            if check is not None:
                check(value, route, g, powers)
        return DivergenceValue.finite(value), route, g

    def evaluate(self, alphas, zs) -> tuple[np.ndarray, np.ndarray]:
        """D in nats and T at the broadcast points of alphas and zs, as two
        float arrays of the broadcast shape, from at most one stacked SVD:
        the one-pair case of `_Request.evaluate`, which `divergences` takes
        its D from. D is +inf where the supports force it (`divergence` at
        that point gives the reason tag). T is NaN at a closed point, where
        D needs none, if its formula is undefined or out of double range
        there; where D needs T, such a point raises the DomainError of
        `divergences`."""
        values, traces = _Pass().add([self], alphas, zs).evaluate()
        return values[0, ...], traces[0, ...]  # 0-d arrays at one point, as at several

    def petz(self, alpha: float) -> DivergenceValue:
        """Petz quantum Renyi divergence of order alpha, the z = 1 member.

        Also evaluates T by the route the value did not take and asserts
        the two agree. Where the value came from the product route, whose
        sum |G_ij|^2 is the overlap sum sum_ij |<v_j|u_i>|^2 r_i^a s_j^(1-a)
        of the direct formula ln Tr[rho^a sigma^(1-a)] / (a - 1), the check
        is the SVD route; where it came from the SVD route, the check is
        that overlap sum (a cancellation-free route).
        """
        alpha = float(alpha)

        def check(value, route, g, _):
            if route == "product":
                t, fault = self._trace_sums(np.linalg.svd(g, compute_uv=False)[None], np.ones(1))
                if fault:
                    self._raise(fault, alpha, 1.0)
            else:
                t = _overlap_sums(self.sigma.powers(1.0 - alpha), self.weights,
                                  self.rho.powers(alpha))
            _assert_dual_path("Petz", value, alpha, t.item())

        return self._divergence(alpha, 1.0, check)[0]

    def sandwiched(self, alpha: float) -> DivergenceValue:
        """Sandwiched quantum Renyi divergence of order alpha, the z = alpha member.

        Cross-checked against the direct formula
        ln Tr[(sigma^((1-a)/2a) rho sigma^((1-a)/2a))^a] / (a - 1), whose
        inner eigenvalues are the squared top inner-rank singular values of
        sigma^((1-a)/2a) rho^(1/2), assembled as operators. This route is
        apart from the kernel's eigenbasis scaling of W, and unlike an
        eigendecomposition of the assembled inner operator it keeps the small
        eigenvalues that a power alpha < 1 magnifies.
        """
        alpha = float(alpha)
        if alpha == 0.0:
            raise DomainError("alpha = 0 puts z = 0, which is excluded")

        def check(value, route, g, powers):
            # at z = alpha, G's powers are sigma^((1-a)/2a) and rho^(1/2)
            s_pow, r_half = powers
            factor = (self.sigma.operator(s_pow) @ self.rho.operator(r_half))[None]  # one row
            t, _ = self._trace_sums(np.linalg.svd(factor, compute_uv=False), np.array([alpha]))
            _assert_dual_path("sandwiched", value, alpha, t.item())

        return self._divergence(alpha, alpha, check)[0]

    def mosonyi_ogawa(self, alpha: float) -> DivergenceValue:
        """Piecewise divergence: Petz for alpha < 1, sandwiched for alpha > 1.
        At alpha = 1 (as `_route` decides it) both give the relative entropy."""
        alpha = float(alpha)
        if alpha <= 0.0:
            raise DomainError(f"order must be positive, got {alpha}")
        return self.petz(alpha) if alpha < 1.0 else self.sandwiched(alpha)

    def relative_entropy(self) -> DivergenceValue:
        """Tr[rho (ln rho - ln sigma)] = sum_i r_i ln r_i - sum_ij r_i w_ji ln s_j."""
        if not self.dominated:
            return DivergenceValue.infinite(INFINITY_SUPPORT)
        r, ln_s = self.rho.powers(1.0), self.sigma.on_support(np.log)
        return DivergenceValue.finite(r @ self.rho.on_support(np.log) - ln_s @ self.weights @ r)

    def variance(self) -> float:
        """V = Tr[rho (d - m)^2] = Tr[rho d^2] - m^2 for d = ln rho - ln sigma
        and m = Tr[rho d], summed as sum_i r_i sum_j |d_ij - m delta_ij|^2 in
        rho's eigenbasis: every term is a square, so V is never negative,
        and no difference of two large numbers swamps a small V."""
        if not self.dominated:
            raise DomainError("variance undefined: sigma does not dominate rho")
        # d in rho's eigenbasis; centered, ((d - m)^2)_ii is the squared norm of row i
        d = np.diag(self.rho.on_support(np.log)) - self.overlap.conj().T @ (
            self.sigma.on_support(np.log)[:, None] * self.overlap)
        r = self.rho.powers(1.0)
        np.fill_diagonal(d, d.diagonal() - r @ d.diagonal().real)
        return float(r @ np.sum(np.abs(d) ** 2, axis=1))


class _Stack:
    """The pairs of one dimension in a kernel pass, laid out along a pair
    axis once per pass: their support flags (`PreparedPair._flags`: a bool
    where the pairs share it, else an array of bools, one per pair) and
    inner ranks; per pair, the eigenvalues of sigma and rho in both orders
    with the kernel entries set to 1, indexed [pair, sigma 0 or rho 1,
    reversed 0 or 1, entry], and the support masks that zero those entries'
    powers (None where every operator has full rank); and W, then W with
    its columns, its rows and both reversed (`orientations`, index 4 per
    pair, 2 for rows and 1 for columns). Each array is allocated once and
    filled for all the pairs; nothing is cached on a pair. A row is a pair
    of the stack, by its index pi, at one point (alpha, z), and each kernel
    step of `rows` runs once for all the rows it is given. Every step is
    elementwise, per row or per matrix, so a row comes out as it would in a
    stack of its own, whatever else shares the stack."""

    def __init__(self, pairs: list[PreparedPair]):
        self.pairs, count, dim = pairs, len(pairs), pairs[0].rho.values.size
        self.flags = tuple(column[0] if len(set(column)) == 1 else np.array(column)
                           for column in zip(*(pair._flags for pair in pairs)))
        self.inner_ranks = np.array([pair.inner_rank for pair in pairs])
        self.bases, self.masks = np.empty((count, 2, 2, dim)), None
        values = self.bases[:, :, 0]  # a view: the eigenvalues in their own order
        values[:, 0] = [pair.sigma.values for pair in pairs]
        values[:, 1] = [pair.rho.values for pair in pairs]
        if any(pair.sigma.rank < dim or pair.rho.rank < dim for pair in pairs):
            ranks = np.array([(pair.sigma.rank, pair.rho.rank) for pair in pairs])
            support = np.arange(dim) < ranks[:, :, None]
            values[~support] = 1.0
            self.masks = np.empty((count, 2, 2, dim))
            self.masks[:, :, 0], self.masks[:, :, 1] = support, support[..., ::-1]
        self.bases[:, :, 1] = values[..., ::-1]
        orientations = np.empty((count, 4, dim, dim), dtype=complex)
        w = orientations[:, 0]  # a view: W as it is
        w[...] = [pair.overlap for pair in pairs]
        orientations[:, 1], orientations[:, 2], orientations[:, 3] = (
            w[..., ::-1], w[:, ::-1], w[:, ::-1, ::-1])
        self.orientations = orientations.reshape(4 * count, dim, dim)

    def _route(self, pi, alphas, zs):
        """`_route`, the module's route rule, at the rows (pairs pi, points
        alphas and zs, 1-d arrays of one entry per row)."""
        return _route(alphas, zs, *(flag if isinstance(flag, bool) else flag[pi]
                                    for flag in self.flags))

    def _powers(self, pi, side: int, order, exponents) -> np.ndarray:
        """The generalized powers of operator `side` (0 sigma, 1 rho) of
        the pairs pi in the orders `order` (1 reversed), one row per
        exponent: 0 on the kernel for every exponent."""
        out = _power(self.bases[pi, side, order], exponents[:, None])
        if self.masks is not None:
            out *= self.masks[pi, side, order]
        return out

    def _factors(self, pi, e_sigma, e_rho):
        """`PreparedPair._factor`'s G at the rows (pairs pi, exponents e_sigma
        and e_rho) and the rows whose powers leave double range (None where
        none does), whose G is W in its order. Each row's W is gathered in
        its order from `orientations`, then scaled in place by powers taken
        in that order."""
        rows = (e_sigma < 0.0).astype(np.intp)  # the sides to reverse
        cols = (e_rho < 0.0).astype(np.intp)
        s_pow = self._powers(pi, 0, rows, e_sigma)
        r_pow = self._powers(pi, 1, cols, e_rho / 2.0)
        over = None
        if not math.isfinite(float(s_pow.max(initial=0.0)) * float(r_pow.max(initial=0.0))):
            over = ~np.isfinite(s_pow.max(axis=-1) * r_pow.max(axis=-1))
            s_pow[over] = r_pow[over] = 1.0
        g = self.orientations[4 * pi + 2 * rows + cols]
        g *= s_pow[:, :, None]
        g *= r_pow[:, None, :]
        return g, over

    def _trace_sums(self, singular, zs, pi):
        """`PreparedPair._trace_sums` at rows of the pairs pi, taken per
        inner rank: each row sums its own inner rank's singular values, as
        alone. (Zeros in place of the dropped values would change numpy's
        summation order in rows of 8 or more.)"""
        ranks = self.inner_ranks[pi]
        groups = set(ranks.tolist())
        if len(groups) == 1:
            return self.pairs[pi[0]]._trace_sums(singular, zs)
        sums, fault = np.empty(zs.size), np.zeros(zs.size, dtype=int)
        for rank in groups:
            at = ranks == rank
            sums[at], fault[at] = self.pairs[pi[np.argmax(at)]]._trace_sums(singular[at], zs[at])
        return sums, fault

    @np.errstate(all="ignore")  # the steps report every range fault themselves
    def rows(self, pi, alphas, zs, checked):
        """The kernel at the rows (pairs pi of this stack, points alphas and
        zs, and `checked`, the rows whose value is to pass a self-check),
        1-d arrays of one entry per row: per row, whether it is closed
        (`_route`), T and its fault code, and the self-check's T and fault
        code (`dual_traces`; NaN and 0 at a closed or unchecked row). The
        route, powers and G (`_factors`), the product-route k-groups
        (`_power_sums`) and the trace sums (`_trace_sums`, per inner rank)
        each run once for all the rows, with one SVD for the rows without a
        fault that the product route did not settle, none where there are
        none, and the self-checks take the same G. An undefined row has the
        code _UNDEFINED from the start; T is NaN at every row with a fault.
        Nothing raises: each request raises for the rows it needs
        (`_Request`). Runs with numpy's floating-point warnings off."""
        closed, defined, product, e_sigma, e_rho = self._route(pi, alphas, zs)
        g, over = self._factors(pi, e_sigma, e_rho)
        t, fault = np.full(pi.size, math.nan), np.where(defined, 0, np.full(pi.size, _UNDEFINED))
        if over is not None:
            fault = _joined(fault, _POWERS_OVERFLOW, over)
        todo = fault == 0  # the rows whose T is still to come
        by_product = todo & product  # no row where product is False
        if by_product.any():
            groups = set(zs[by_product].tolist())
            for k in groups:
                at = by_product & (zs == k) if len(groups) > 1 else by_product
                t[at] = PreparedPair._power_sums(g[at], int(k))
            by_product &= (t >= _TINY) & (t < math.inf)  # a NaN fails too
            todo &= ~by_product
        if todo.any():
            rest = slice(None) if todo.all() else todo
            singular = np.linalg.svd(g[rest], compute_uv=False)
            t[rest], fault[rest] = self._trace_sums(singular, zs[rest], pi[rest])
            if fault.any():
                t[fault != 0] = math.nan
        if not checked.any():  # no self-check to run
            return closed, t, fault, np.full(pi.size, math.nan), np.zeros(pi.size, dtype=int)
        return (closed, t, fault) + self.dual_traces(pi, alphas, zs, checked & ~closed,
                                                     by_product, g)

    @np.errstate(all="ignore")
    def dual_traces(self, pi, alphas, zs, checked, by_product, g):
        """The second route's T of the self-checks of `petz` and
        `sandwiched` at the rows `checked` (pairs pi of this stack, points
        alphas and zs, and their G as `rows` built it), NaN at the others,
        where a row with alpha < 1 is a Petz value (z = 1) and the others
        sandwiched values (z = alpha): the SVD route of that G where the
        product route gave T (`by_product`), the overlap sum
        sum_ij w_ji r_i^a s_j^(1-a) (`_overlap_sums`) where the SVD route
        gave it, and for a sandwiched value the squared top inner-rank
        singular values of the assembled factor sigma^((1-a)/2a) rho^(1/2)
        raised to alpha (`_trace_sums`); one `svd` for each of the first and
        the last. Also the fault codes of the SVD route, 0 where it has
        none."""
        t, fault = np.full(pi.size, math.nan), np.zeros(pi.size, dtype=int)
        petz = checked & (alphas < 1.0)
        at = np.flatnonzero(petz & by_product)
        if at.size:
            t[at], fault[at] = self._trace_sums(np.linalg.svd(g[at], compute_uv=False), zs[at],
                                                pi[at])
        at = np.flatnonzero(petz & ~by_product)
        if at.size:
            weights = np.stack([self.pairs[p].weights for p in pi[at].tolist()])
            t[at] = _overlap_sums(self._powers(pi[at], 0, 0, 1.0 - alphas[at]), weights,
                                  self._powers(pi[at], 1, 0, alphas[at]))
        at = np.flatnonzero(checked & ~petz)
        if at.size:
            singular = np.linalg.svd(_sandwiched_factors(self, pi[at], alphas[at]),
                                     compute_uv=False)
            t[at] = self._trace_sums(singular, alphas[at], pi[at])[0]
        return t, fault


def _overlap_sums(s_pow, weights, r_pow) -> np.ndarray:
    """The Petz overlap sum sum_ij s_j w_ji r_i of sigma's powers s_pow and
    rho's r_pow, shape (d,), and the weights, (d, d), or one sum per row of
    such operands, (R, d) and (R, d, d): a product per matrix, the same
    bits for one pair as for its row in any stack (an `einsum`'s sums
    depend on the rows beside them)."""
    return (s_pow[..., None, :] @ weights @ r_pow[..., :, None])[..., 0, 0]


def _sandwiched_factors(stack: _Stack, pi, alphas) -> np.ndarray:
    """The sandwiched self-check's factors sigma^((1-a)/2a) rho^(1/2) of the
    pairs pi of a stack at the orders alphas, one per row, each operator
    assembled in its eigenbasis as `Spectrum.operator` assembles it; rho^(1/2)
    once per pair that the rows name."""
    named, at = np.unique(pi, return_inverse=True)
    sigmas = np.stack([stack.pairs[p].sigma.vectors for p in pi.tolist()])
    rhos = np.stack([stack.pairs[p].rho.vectors for p in named.tolist()])
    s_pow = stack._powers(pi, 0, 0, (1.0 - alphas) / (2.0 * alphas))
    r_half = stack._powers(named, 1, 0, np.full(named.size, 0.5))
    s_op = hermitian_part((sigmas * s_pow[:, None, :]) @ sigmas.conj().swapaxes(-1, -2))
    half = hermitian_part((rhos * r_half[:, None, :]) @ rhos.conj().swapaxes(-1, -2))
    return s_op @ half[at]


class _Pass:
    """Requests for D, T or Mosonyi-Ogawa values on prepared pairs of any
    dimensions, evaluated in one kernel pass: `add` each request, then read
    each request's values from its `_Request`. The first read runs the pass
    (`run`), and a pass that has run takes no more requests, so no request
    misses the pass it joined. The rows of every request, one per pair and
    point, are evaluated at once, so each pair that several requests name
    is laid out once, and each dimension takes one `_Stack`, whose `rows`
    gives each row's closed flag, T and fault code and its self-check's T
    and fault code. A row's values do not depend on what else shares the
    pass, so each read gives what that request's own `stacked_*` call
    gives, bit for bit, and raises what that call raises."""

    def __init__(self):
        # each pair's index in the pass and the pair, by id; each request's
        # rows; the pass's arrays, None until it has run
        self._pairs, self._rows, self.rows = {}, [], None

    def add(self, pairs, alphas, zs=None) -> "_Request":
        """Request `pairs` at the broadcast points of alphas and zs, checked
        here as `_points` checks them. Without zs, the Mosonyi-Ogawa points
        of the orders alphas > 0 (z = 1 below alpha = 1, z = alpha from it),
        whose values the pass also checks by a second route. Raises
        RuntimeError once the pass has run."""
        if self.rows is not None:
            raise RuntimeError("a kernel pass takes no request once it has run")
        checked = zs is None
        if checked:
            alphas = np.asarray(alphas, dtype=float)
            if (alphas <= 0.0).any():
                raise DomainError(f"order must be positive, got {float(alphas[alphas <= 0.0][0])}")
            zs = np.where(alphas < 1.0, 1.0, alphas)
        a, z = _points(alphas, zs)
        pairs = list(pairs)
        for pair in pairs:
            self._pairs.setdefault(id(pair), (len(self._pairs), pair))
        index = [self._pairs[id(pair)][0] for pair in pairs]
        start = sum(rows[0].size for rows in self._rows)
        count = len(pairs) * a.size
        shape = (len(pairs), a.size)  # pair-major rows
        self._rows.append((np.repeat(np.array(index, dtype=np.intp), a.size),
                           _filled(shape, a.ravel()).ravel(), _filled(shape, z.ravel()).ravel(),
                           np.full(count, checked)))
        return _Request(self, pairs, a, z, slice(start, start + count), checked)

    def run(self) -> None:
        """Evaluate every request's rows in one kernel pass; a request's
        first read calls it. The pairs of each dimension are laid out as one
        `_Stack`, which takes that dimension's rows (`_Stack.rows`) at most
        _STACK_ROWS at once; a pass of one dimension within that bound goes
        to its stack whole. This is the one place that knows one stack needs
        one matrix size."""
        pairs = [pair for _, pair in self._pairs.values()]
        pi, alphas, zs, checked = (self._rows[0] if len(self._rows) == 1
                                   else map(np.concatenate, zip(*self._rows)))
        sizes = [pair.rho.values.size for pair in pairs]
        if len(set(sizes)) == 1 and pi.size <= _STACK_ROWS:  # one stack, one chunk
            self.rows = _Stack(pairs).rows(pi, alphas, zs, checked)
            return
        out = (np.empty(pi.size, dtype=bool), np.empty(pi.size), np.empty(pi.size, dtype=int),
               np.empty(pi.size), np.empty(pi.size, dtype=int))
        sizes = np.array(sizes, dtype=int)
        dims = sizes[pi]
        local = np.empty(len(pairs), dtype=np.intp)  # a pair's index in its stack
        for dim in dict.fromkeys(sizes.tolist()):
            members = np.flatnonzero(sizes == dim)
            local[members] = np.arange(members.size)
            stack = _Stack([pairs[p] for p in members.tolist()])
            every = np.flatnonzero(dims == dim)
            for start in range(0, every.size, _STACK_ROWS):
                rows = every[start:start + _STACK_ROWS]
                parts = stack.rows(local[pi[rows]], alphas[rows], zs[rows], checked[rows])
                for whole, part in zip(out, parts):
                    whole[rows] = part
        self.rows = out


class _Request:
    """One request of a `_Pass`: its pairs and points, and its values, each
    of shape (len(pairs), *points), read from the pass's arrays in the order
    of `_Stack.rows` (closed, T, fault code, self-check T and its fault
    code), which the first read of any of its requests fills."""

    def __init__(self, kernel: _Pass, pairs, alphas, zs, rows: slice, checked: bool):
        self.kernel, self.pairs, self.shape = kernel, pairs, (len(pairs),) + alphas.shape
        self.alphas, self.zs, self.rows, self.checked = alphas.ravel(), zs.ravel(), rows, checked

    def _read(self, k: int) -> np.ndarray:
        """Array k of the pass at this request's rows, one row per pair;
        runs the pass first if it has not run."""
        if self.kernel.rows is None:
            self.kernel.run()
        return self.kernel.rows[k][self.rows].reshape(len(self.pairs), self.alphas.size)

    def _raise_first(self, faults: np.ndarray) -> None:
        """Raise the DomainError of the first pair with a fault code in
        `faults`, one row per pair, through its `_raise`; none if none."""
        if faults.any():
            p = int(np.argmax(faults.any(axis=1)))
            self.pairs[p]._raise(faults[p], self.alphas, self.zs)

    def traces(self) -> np.ndarray:
        """T. Every point needs T, so the first pair with a fault raises the
        DomainError of its own `traces` call."""
        self._raise_first(self._read(2))
        return self._read(1).reshape(self.shape)

    def evaluate(self) -> tuple[np.ndarray, np.ndarray]:
        """D in nats and T, as `PreparedPair.evaluate` gives them per pair:
        D is the pair's `_closed_value` at its closed points and
        ln T / (a - 1) elsewhere. D needs T at the open points only, and
        there the first pair whose T is not positive, NaN included, raises:
        for a fault, whose T is NaN, through `_raise`, else an
        ArithmeticError. A checked request (`_Pass.add` without zs) keeps
        the NaN D of a NaN T without a fault instead, for its self-check to
        meet, as the checks of `petz` and `sandwiched` meet it. This is the
        one place that forms D from T."""
        closed, t, faults = self._read(0), self._read(1), self._read(2)
        collapsed = ~closed & ((t <= 0.0) | (faults != 0) if self.checked else ~(t > 0.0))
        if collapsed.any():
            p = int(np.argmax(collapsed.any(axis=1)))
            faults = np.where(closed[p], 0, faults[p])
            if faults.any():
                self.pairs[p]._raise(faults, self.alphas, self.zs)
            raise ArithmeticError(f"trace functional collapsed to "
                                  f"{float(t[p][collapsed[p]][0])!r}")
        values = np.log(np.where(closed, math.nan, t)) / (self.alphas - 1.0)
        for row, pair, at in zip(values, self.pairs, closed):
            if at.any():
                row[at] = pair._closed_value(1.0).value
        return values.reshape(self.shape), t.reshape(self.shape)

    def mosonyi_ogawa(self) -> np.ndarray:
        """`PreparedPair.mosonyi_ogawa` in nats, for a request added without
        zs: the D of `evaluate`, of which every value that is not closed
        then passes the self-check of `petz` or `sandwiched`. A fault of the
        check's SVD route raises the pair's DomainError, and a mismatch that
        method's ArithmeticError, each for the first such value in pair
        order. As there, a NaN value or check T fails the check; the check
        reads the open points only, since the check T is NaN at the closed
        ones by design. Each value meets the scalar methods' own check,
        `_assert_dual_path`, so the two drivers share one check rule."""
        values = self.evaluate()[0].reshape(len(self.pairs), self.alphas.size)
        closed, checked = self._read(0), self._read(3)
        self._raise_first(self._read(4))
        for p, n in np.argwhere(~closed).tolist():
            _assert_dual_path("Petz" if self.alphas[n] < 1.0 else "sandwiched",
                              float(values[p, n]), float(self.alphas[n]), float(checked[p, n]))
        return values.reshape(self.shape)


def stacked_divergences(pairs, alphas, zs) -> np.ndarray:
    """D(a, z) in nats for prepared pairs of any dimensions at the same
    broadcast points of alphas and zs, shape (len(pairs), *points), from
    one kernel pass: at most one stacked SVD per dimension. Row p equals
    `pairs[p].divergences(alphas, zs)` bit for bit, +inf where the supports
    force it, and the error raised is the one of the first pair whose own
    call fails, read from the fault codes of the pass. No pairs give shape
    (0, *points), once the points are checked."""
    return _Pass().add(pairs, alphas, zs).evaluate()[0]


def stacked_traces(pairs, alphas, zs) -> np.ndarray:
    """T(a, z) for prepared pairs of any dimensions at the same broadcast
    points of alphas and zs, shape (len(pairs), *points), from one kernel
    pass: at most one stacked SVD per dimension. Row p equals
    `pairs[p].traces(alphas, zs)` bit for bit. Every point needs T, so the
    first pair with a fault raises the DomainError of its own `traces`
    call."""
    return _Pass().add(pairs, alphas, zs).traces()


def stacked_mosonyi_ogawa(pairs, alphas) -> np.ndarray:
    """`PreparedPair.mosonyi_ogawa` in nats for prepared pairs of any
    dimensions at the orders alphas > 0, shape (len(pairs), *alphas), from
    one kernel pass: Petz (z = 1) below alpha = 1, sandwiched (z = alpha)
    from it, +inf where the supports force it. Every value that is not
    closed then passes the self-check of `petz` or `sandwiched`, run for all
    of them at once on the pass's stacks (`_Stack.dual_traces`); a fault or
    a mismatch raises for the first such value in pair order
    (`_Request.mosonyi_ogawa`). The values and the self-checks' T equal
    those of the scalar methods bit for bit."""
    return _Pass().add(pairs, alphas).mosonyi_ogawa()


def _paired(r: Spectrum, s: Spectrum, overlap: np.ndarray) -> PreparedPair:
    """The PreparedPair of the spectra r of rho and s of sigma, of one
    dimension, with their overlap W = V_sigma† U_rho: checks rho's unit
    trace and sigma's nonzero rank, then gives weights = |W|^2 and decides
    the support relation; no other code does. rho's weight on a set J of
    sigma's eigenvectors is the sum of r_i weights[j, i] over j in J and i
    in supp rho, and, as with rank, it counts as zero iff it is <= rho's
    threshold. sigma dominates rho iff rho's weight on ker sigma is zero. The inner rank is
    rank rho under dominance; 0 where rho's weight on supp sigma is zero;
    rank sigma for a full-rank rho; and otherwise the number of cosines
    between the supports (the singular values of the supp sigma x supp rho
    block of W) whose square exceeds eps. Where some of those cosines count
    and others do not, the block of W is cut to its top inner-rank part, as
    are the weights: a cosine that counts as zero is zero in every route
    and self-check of the pair, the Petz overlap sum included, which once
    kept it and raised a dual-path mismatch. The supports are orthogonal iff
    the inner rank is 0, which also covers supports whose cosines are all
    too small to count while rho's weight on supp sigma is not zero."""
    r, s = _density(r), _reference(s)
    weights = np.abs(overlap) ** 2
    if s.rank == s.values.size:
        # rho's weight on ker sigma is an empty sum, and a density operator's
        # threshold is finite and >= 0: sigma dominates rho
        dominated = 0.0 <= r.threshold
    else:
        mass = weights[:, :r.rank] @ r.values[:r.rank]
        dominated = float(mass[s.rank:].sum()) <= r.threshold
    if dominated:
        inner_rank = r.rank
    elif float(mass[:s.rank].sum()) <= r.threshold:
        inner_rank = 0
    elif r.rank == r.values.size:
        inner_rank = s.rank
    else:
        cosines = np.linalg.svd(overlap[:s.rank, :r.rank], compute_uv=False)
        inner_rank = int(np.count_nonzero(cosines * cosines > s.eps))
        if 0 < inner_rank < cosines.size:
            # the cosines that count as zero are zero: cut the block to its top
            # inner-rank part, so that every G of the pair has the inner rank
            left, kept, right = np.linalg.svd(overlap[:s.rank, :r.rank])
            k, overlap = inner_rank, overlap.copy()
            overlap[:s.rank, :r.rank] = (left[:, :k] * kept[:k]) @ right[:k]
            weights = np.abs(overlap) ** 2
    return PreparedPair(r, s, overlap, weights, dominated, inner_rank == 0, inner_rank)


def prepare(rho: np.ndarray, sigma: np.ndarray) -> PreparedPair:
    """Validate and decompose a (rho, sigma) pair once, as one stack with one
    `eigh`; `_paired` gives the pair from the two spectra.

    rho must be a density operator (Hermitian, PSD, unit trace) and sigma a
    nonzero PSD operator. When the stack fails (shapes differ or a check
    fails), rho alone and then sigma alone are checked, so the error raised
    is the first one of the per-operator order with its own message. Each
    family of pairs that the suites check is prepared by `_prepare_pairs`,
    whose pairs equal this function's field for field."""
    try:
        r, s = supports(np.array((rho, sigma), dtype=complex))
    except (ValueError, TypeError):
        r, s = _density(support(rho)), _reference(support(sigma))
        if r.values.shape != s.values.shape:
            raise ValueError(f"dimension mismatch: {r.vectors.shape} vs {s.vectors.shape}")
    return _paired(r, s, s.vectors.conj().T @ r.vectors)


def _prepare_pairs(pairs) -> list[PreparedPair]:
    """`prepare` of each (rho, sigma) in `pairs`, in order, with the pairs of
    each dimension validated and decomposed as one stack: one `supports`
    call (one `eigh`, one cutoff read) and one batched product for the
    overlaps. When a stack fails, every pair is prepared on its own in
    order, so the first failing pair raises its own error."""
    pairs = list(pairs)
    out = [None] * len(pairs)
    try:
        groups: dict[tuple, list[int]] = {}
        for i, (rho, _) in enumerate(pairs):
            groups.setdefault(np.shape(rho), []).append(i)
        for at in groups.values():
            spectra = supports(np.array([op for i in at for op in pairs[i]], dtype=complex))
            rhos, sigmas = spectra[::2], spectra[1::2]
            overlaps = (np.array([s.vectors for s in sigmas]).conj().swapaxes(1, 2)
                        @ np.array([r.vectors for r in rhos]))
            for i, r, s, overlap in zip(at, rhos, sigmas, overlaps):
                out[i] = _paired(r, s, overlap)
    except (ValueError, TypeError):
        return [prepare(rho, sigma) for rho, sigma in pairs]
    return out


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> DivergenceValue:
    """Quantum relative entropy Tr[rho (ln rho - ln sigma)] in nats.

    +inf (support_violation) when sigma does not dominate rho.
    """
    return prepare(rho, sigma).relative_entropy()


def alpha_z_divergence(rho: np.ndarray, sigma: np.ndarray,
                       alpha: float, z: float) -> DivergenceValue:
    """alpha-z divergence D(a, z) = ln T(a, z) / (a - 1) in nats.

    At a = 1 this returns the relative entropy, closing the family at its
    limit point; see the module docstring for the support semantics.
    """
    return prepare(rho, sigma).divergence(alpha, z)


def petz_divergence(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> DivergenceValue:
    """Petz quantum Renyi divergence of order alpha; see PreparedPair.petz."""
    return prepare(rho, sigma).petz(alpha)


def sandwiched_divergence(rho: np.ndarray, sigma: np.ndarray,
                          alpha: float) -> DivergenceValue:
    """Sandwiched quantum Renyi divergence of order alpha; see
    PreparedPair.sandwiched."""
    return prepare(rho, sigma).sandwiched(alpha)


def mosonyi_ogawa_divergence(rho: np.ndarray, sigma: np.ndarray,
                             alpha: float) -> DivergenceValue:
    """Piecewise divergence: Petz for alpha < 1, sandwiched for alpha > 1,
    relative entropy at alpha = 1; see PreparedPair.mosonyi_ogawa."""
    return prepare(rho, sigma).mosonyi_ogawa(alpha)
