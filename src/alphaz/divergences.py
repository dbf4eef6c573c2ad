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
operator outside the dominated case raises DomainError. So does a finite
alpha or z whose spectral powers or trace sum overflow double range, or
whose trace sum underflows to 0.

Every quantum value comes from a PreparedPair, which validates both
operators as one stack in one pass, decomposes them with one `eigh` and
carries every family as a method; each module function prepares one pair
per call and calls one method. The trace functional T(a, z) is
`prepare(rho, sigma).traces(alpha, z)`. `stacked_divergences` evaluates the
same points on several prepared pairs of one dimension with one SVD.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DomainError, Spectrum, support, support_relation, supports

INFINITY_SUPPORT = "support_violation"
INFINITY_ORTHOGONAL = "orthogonal_states"

LN2 = math.log(2.0)

# |alpha - 1| below this is dispatched to the relative-entropy limit; the
# raw formula divides ln T ~ (alpha-1) D by (alpha-1) and loses all digits
# long before this point.
ALPHA_ONE_TOL = 1e-12

# agreement tolerance for the built-in dual-route self-check
_DUAL_PATH_TOL = 1e-10

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
    """The spectrum of a PSD operator, checked to be nonzero."""
    if spectrum.rank == 0:
        raise DomainError("reference operator must be nonzero")
    return spectrum


def _renyi_order(alpha: float) -> float:
    """alpha as a float; a non-finite alpha and alpha = 1 (the KL limit) are
    DomainErrors."""
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha!r}")
    if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
        raise DomainError("alpha = 1 is the KL limit; call classical_kl")
    return alpha


@dataclass(frozen=True)
class ClassicalPair:
    """Two probability vectors of one length, validated once; the classical
    divergences of the pair are its methods."""

    p: np.ndarray
    q: np.ndarray

    def kl(self) -> DivergenceValue:
        """Kullback-Leibler divergence sum_i p_i ln(p_i/q_i), with 0 ln 0 = 0.

        Returns +inf (support_violation) when p puts mass where q has none.
        """
        total = 0.0
        for pi, qi in zip(self.p, self.q):
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
        is a DomainError naming alpha.
        """
        alpha = _renyi_order(alpha)
        total = 0.0
        for pi, qi in zip(self.p, self.q):
            if pi <= 0.0:
                if alpha <= 0.0:
                    raise DomainError("alpha <= 0 with zero p-entries is undefined")
                continue
            if qi <= 0.0:
                if alpha > 1.0:
                    return DivergenceValue.infinite(INFINITY_SUPPORT)
                continue  # q_i^(1-alpha) = 0 for alpha < 1
            total += pi**alpha * qi ** (1.0 - alpha)
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


def classical_kl(p, q) -> DivergenceValue:
    """Kullback-Leibler divergence in nats; see ClassicalPair.kl."""
    return prepare_classical(p, q).kl()


def classical_renyi(p, q, alpha: float) -> DivergenceValue:
    """Classical Renyi divergence of order alpha != 1 in nats; see
    ClassicalPair.renyi."""
    alpha = _renyi_order(alpha)
    return prepare_classical(p, q).renyi(alpha)


def _point(alpha: float, z: float) -> tuple[float, float]:
    """alpha and z as floats; z = 0 or a non-finite value is a DomainError."""
    alpha, z = float(alpha), float(z)
    if z == 0.0:
        raise DomainError("z = 0 is excluded")
    if not (math.isfinite(alpha) and math.isfinite(z)):
        raise DomainError(f"alpha and z must be finite, got ({alpha!r}, {z!r})")
    return alpha, z


def _undefined(name: str, exponent: float) -> DomainError:
    return DomainError("formula undefined for this support configuration: "
                       f"{name} is rank-deficient and its exponent {exponent:.6g} "
                       "is negative")


def _from_trace(alpha: float, t: float) -> float:
    """D = ln T / (alpha - 1) at one point; T <= 0 is an internal fault."""
    if t <= 0.0:
        raise ArithmeticError(f"trace functional collapsed to {t!r}")
    return math.log(t) / (alpha - 1.0)


def _assert_dual_path(label: str, family: DivergenceValue, alpha: float,
                      t: float) -> None:
    if t <= 0.0:
        raise ArithmeticError(f"{label} trace term collapsed to {t!r}")
    direct = math.log(t) / (alpha - 1.0)
    tol = _DUAL_PATH_TOL * max(1.0, abs(family.value))
    if abs(family.value - direct) > tol:
        raise ArithmeticError(
            f"{label} dual-path mismatch: alpha-z route {family.value!r} "
            f"vs direct formula {direct!r}"
        )


def _points(alphas, zs) -> tuple[np.ndarray, np.ndarray]:
    """alphas and zs broadcast against each other, as float arrays of the
    broadcast shape; z = 0 or a non-finite value anywhere is a DomainError,
    as in `_point`."""
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


def _beyond_range(what: str, alphas, zs, finite) -> DomainError:
    """The DomainError for the first point (in order) where `finite` is
    false; alphas and zs are scalars or arrays that broadcast to the shape
    of finite."""
    i = int(np.argmin(finite))
    alpha, z = (np.ravel(np.broadcast_to(x, np.shape(finite)))[i] for x in (alphas, zs))
    return DomainError(f"alpha or z beyond double range: {what} at (alpha, z) = "
                       f"({float(alpha)!r}, {float(z)!r})")


@dataclass(frozen=True)
class PreparedPair:
    """A validated (rho, sigma) pair, decomposed once: the two spectra, the
    overlap W = V_sigma† U_rho of their eigenvectors, weights = |W|^2, the
    support relation of `linalg.support_relation`, and the inner rank: the
    rank of the supp sigma x supp rho block of W, which every inner operator
    sigma^e rho^f sigma^e of the pair shares.

    `traces`, `divergences` and `evaluate` take arrays of points and run one
    stacked SVD for all of them: they are the one-pair case of the module's
    stacked kernel (`stacked_divergences`). The scalar `divergence` builds
    the same G for one point (`_sums`), and `petz`, `sandwiched` and
    `mosonyi_ogawa` call it with their own self-checks."""

    rho: Spectrum
    sigma: Spectrum
    overlap: np.ndarray
    weights: np.ndarray
    dominated: bool
    orthogonal: bool
    inner_rank: int

    def _undefined_points(self, e_sigma, e_rho):
        """(rho's, sigma's) undefined flags at scalar or array exponents: a
        negative exponent on a rank-deficient operator, which for sigma is
        endorsed (generalized inverse) only under dominance."""
        dim = self.rho.values.size
        return ((e_rho < 0.0) & (self.rho.rank < dim),
                (e_sigma < 0.0) & (self.sigma.rank < dim and not self.dominated))

    def _sums(self, alpha: float, z: float, e_sigma: float, e_rho: float) -> float:
        """Tr[(sigma^e_sigma rho^e_rho sigma^e_sigma)^z] at one point (alpha,
        z), from one SVD: the one-point case of `_stacked_traces`, whose
        docstring gives the construction and the range checks. One point
        needs no stacked reductions: its maxima and its sum are the tests."""
        s_pow = self.sigma.powers(e_sigma)
        r_pow = self.rho.powers(e_rho / 2.0)
        if not math.isfinite(max(s_pow.tolist()) * max(r_pow.tolist())):
            raise _beyond_range("the spectral powers overflow", alpha, z, False)
        g = s_pow[:, None] * self.overlap
        g *= r_pow[None, :]
        singular = np.linalg.svd(g, compute_uv=False)[:self.inner_rank]
        total = float(((singular * singular) ** z).sum())
        if not math.isfinite(total):
            raise _beyond_range("the trace sum overflows", alpha, z, False)
        if not total > 0.0 and self.inner_rank > 0:
            raise _beyond_range("the trace sum underflows", alpha, z, False)
        return total

    def _always_defined(self) -> bool:
        """Whether T is defined at every point: no operator whose negative
        powers lack an endorsed meaning (rho full rank, and sigma full rank
        or dominating)."""
        dim = self.rho.values.size
        return self.rho.rank == dim and (self.sigma.rank == dim or self.dominated)

    def traces(self, alphas, zs) -> np.ndarray:
        """T(a, z) = Tr[(sigma^((1-a)/2z) rho^(a/z) sigma^((1-a)/2z))^z] with
        generalized powers at the broadcast points of alphas and zs, from one
        stacked SVD. Raises DomainError at the first point where a negative
        exponent meets a rank-deficient operator outside the dominated case
        (no endorsed interpretation exists there)."""
        a, z = _points(alphas, zs)
        return _stacked_traces([self], a.ravel(), z.ravel())[0].reshape(a.shape)

    def _closed(self, alpha):
        """Whether D needs no trace at alpha, a float or an array: alpha = 1,
        where D is the relative entropy, or +inf forced by the supports."""
        closed = abs(alpha - 1.0) <= ALPHA_ONE_TOL
        if not self.dominated:
            closed = closed | (alpha > 1.0) | self.orthogonal
        return closed

    def _closed_value(self, alpha: float) -> DivergenceValue:
        """D at a point where `_closed` holds: the relative entropy, which is
        +inf support_violation without dominance, except below alpha = 1,
        where only orthogonal supports are closed."""
        if alpha < 1.0 - ALPHA_ONE_TOL:
            return DivergenceValue.infinite(INFINITY_ORTHOGONAL)
        return self.relative_entropy()

    def divergences(self, alphas, zs) -> np.ndarray:
        """D(a, z) in nats at the broadcast points of alphas and zs, +inf
        where the supports force it, from one stacked SVD: the one-pair case
        of `stacked_divergences`. `divergence` gives one point with its
        infinity reason."""
        return stacked_divergences([self], alphas, zs)[0]

    def divergence(self, alpha: float, z: float) -> DivergenceValue:
        """D(a, z) = ln T(a, z) / (a - 1) with the module's support semantics,
        T from `_sums`. Where D needs T and T is undefined, raises the
        DomainError of `traces`."""
        alpha, z = _point(alpha, z)
        if self._closed(alpha):
            return self._closed_value(alpha)
        e_sigma, e_rho = (1.0 - alpha) / (2.0 * z), alpha / z
        bad_rho, bad_sigma = self._undefined_points(e_sigma, e_rho)
        if bad_rho:
            raise _undefined("rho", e_rho)
        if bad_sigma:
            raise _undefined("sigma", e_sigma)
        return DivergenceValue.finite(_from_trace(alpha, self._sums(alpha, z, e_sigma, e_rho)))

    def evaluate(self, alphas, zs) -> tuple[np.ndarray, np.ndarray]:
        """D in nats and T at the points of two equal-length sequences, as
        two float arrays, from one stacked SVD. D is +inf where the supports
        force it (`divergence` at that point gives the reason tag) and
        otherwise ln T / (a - 1) per point, as `divergence` computes it.
        T is NaN where its formula is undefined, which happens only where D
        needs no trace; elsewhere an undefined T raises the DomainError of
        `traces`."""
        a, z = _points(alphas, zs)
        closed = self._closed(a)
        t = _stacked_traces([self], a, z, optional=closed)[0]
        values = [self._closed_value(x).value if c else _from_trace(x, y)
                  for x, c, y in zip(a.tolist(), closed.tolist(), t.tolist())]
        return np.array(values, dtype=float), t

    def petz(self, alpha: float) -> DivergenceValue:
        """Petz quantum Renyi divergence of order alpha, the z = 1 member.

        Also evaluates the direct formula ln Tr[rho^a sigma^(1-a)] / (a - 1)
        through the overlap sum sum_ij |<v_j|u_i>|^2 r_i^a s_j^(1-a) (a
        cancellation-free route) and asserts the two routes agree.
        """
        alpha = float(alpha)
        value = self.divergence(alpha, 1.0)
        if not self._closed(alpha):
            t = float(self.sigma.powers(1.0 - alpha) @ self.weights @ self.rho.powers(alpha))
            _assert_dual_path("Petz", value, alpha, t)
        return value

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
        value = self.divergence(alpha, alpha)
        if not self._closed(alpha):
            s_pow = self.sigma.operator(self.sigma.powers((1.0 - alpha) / (2.0 * alpha)))
            factor = s_pow @ self.rho.operator(self.rho.powers(0.5))
            singular = np.linalg.svd(factor, compute_uv=False)[:self.inner_rank]
            _assert_dual_path("sandwiched", value, alpha,
                              float(np.sum((singular * singular) ** alpha)))
        return value

    def mosonyi_ogawa(self, alpha: float) -> DivergenceValue:
        """Piecewise divergence: Petz for alpha < 1, sandwiched for alpha > 1.
        At alpha = 1 (as `_closed` decides it) both give the relative entropy."""
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
        """Tr[rho d^2] - Tr[rho d]^2 for d = ln rho - ln sigma, clamped at 0."""
        if not self.dominated:
            raise DomainError("variance undefined: sigma does not dominate rho")
        # d in rho's eigenbasis, where (d^2)_ii is the squared norm of row i
        d = np.diag(self.rho.on_support(np.log)) - self.overlap.conj().T @ (
            self.sigma.on_support(np.log)[:, None] * self.overlap)
        r = self.rho.powers(1.0)
        mean = float(r @ d.diagonal().real)
        var = float(r @ np.sum(np.abs(d) ** 2, axis=1)) - mean * mean
        if var < -1e-12:
            raise ArithmeticError(f"variance computed as {var!r} < -1e-12")
        return max(var, 0.0)


def _stacked_traces(pairs: list[PreparedPair], alphas: np.ndarray, zs: np.ndarray,
                    need=None, optional=False) -> np.ndarray:
    """T at 1-d arrays of N points for P pairs of one dimension, shape
    (P, N), from one SVD of the stack of every pair's G factors at its
    points; NaN where `need`, a (P, N) mask (all points by default), is
    false. An undefined point raises DomainError, the first one in (pair,
    point) order, unless `optional` is true there; then its value is NaN.

    The inner operator is G G† with G = diag(sigma powers) W diag(sqrt of
    rho powers). Scaling W by rows and columns is exact per entry, and the
    singular values of G give the inner eigenvalues to about the square root
    of the relative error of an eigendecomposition of the assembled
    sandwich. G has the pair's inner rank, so its smaller singular values
    are round-off and are dropped whatever their size. Each pair's rows of
    the stack are built and reduced as they would be alone, so its values
    do not depend on the other pairs.

    |W| <= 1 bounds every entry of G by the product of the largest power on
    each side, so a finite bound per point keeps the SVD finite. A point
    whose bound or trace sum leaves double range raises DomainError naming
    it, the first in (pair, point) order: a sum that overflows, or one that
    is 0 while the inner rank is positive, where every term underflowed.
    Each test runs first on the whole stack and per point only when that
    fails; powers and sums are >= 0, so extrema starting at 0 and 1 also
    cover an empty stack."""
    takes = []  # each pair's computed points: a slice for all, else a mask
    for p, pair in enumerate(pairs):
        take = slice(None) if need is None else need[p]
        if not pair._always_defined():
            e_sigma, e_rho = (1.0 - alphas) / (2.0 * zs), alphas / zs
            bad_rho, bad_sigma = pair._undefined_points(e_sigma, e_rho)
            defined = ~(bad_rho | bad_sigma)
            fatal = ~(defined | np.asarray(optional))
            if need is not None:
                fatal &= take
            if fatal.any():
                i = int(np.argmax(fatal))
                raise (_undefined("rho", e_rho[i]) if bad_rho[i]
                       else _undefined("sigma", e_sigma[i]))
            take = defined if need is None else defined & take
        takes.append(take)
    # the stack's rows: each pair's computed points, in (pair, point) order
    a_parts = [alphas[t] for t in takes]
    a, z = _cat(a_parts), _cat([zs[t] for t in takes])
    ends = list(itertools.accumulate(len(part) for part in a_parts))
    spans = [slice(lo, hi) for lo, hi in zip([0] + ends[:-1], ends)]
    e_sigma, e_rho = (1.0 - a) / (2.0 * z), a / z
    s_parts = [pair.sigma.powers(e_sigma[r]) for pair, r in zip(pairs, spans)]
    s_pow = _cat(s_parts)
    r_pow = _cat([pair.rho.powers(e_rho[r] / 2.0) for pair, r in zip(pairs, spans)])
    bound = float(s_pow.max(initial=0.0)) * float(r_pow.max(initial=0.0))
    if not math.isfinite(bound):
        finite = np.isfinite(s_pow.max(axis=-1) * r_pow.max(axis=-1))
        if not finite.all():
            raise _beyond_range("the spectral powers overflow", a, z, finite)
    # s * W * r with the second product in place: a large stack's
    # temporaries cost a fresh allocation each
    g = _cat([s[:, :, None] * pair.overlap for s, pair in zip(s_parts, pairs)])
    g *= r_pow[:, None, :]
    singular = np.linalg.svd(g, compute_uv=False)
    kept = [singular[r, :pair.inner_rank] for pair, r in zip(pairs, spans)]
    sums = _cat([((k * k) ** z[r, None]).sum(axis=-1) for k, r in zip(kept, spans)])
    if not math.isfinite(sums.max(initial=0.0)):
        raise _beyond_range("the trace sum overflows", a, z, np.isfinite(sums))
    if not sums.min(initial=1.0) > 0.0:
        empty = np.repeat([pair.inner_rank == 0 for pair in pairs],
                          [r.stop - r.start for r in spans])
        positive = (sums > 0.0) | empty
        if not positive.all():
            raise _beyond_range("the trace sum underflows", a, z, positive)
    if all(isinstance(t, slice) for t in takes):
        return sums.reshape(len(pairs), alphas.size)
    out = np.full((len(pairs), alphas.size), math.nan)
    for row, t, r in zip(out, takes, spans):
        row[t] = sums[r]
    return out


def _cat(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays joined along their first axis; one array is not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def stacked_divergences(pairs, alphas, zs) -> np.ndarray:
    """D(a, z) in nats for prepared pairs of one dimension at the same
    broadcast points of alphas and zs, shape (len(pairs), *points), from one
    stacked SVD. Row p equals `pairs[p].divergences(alphas, zs)` bit for
    bit, +inf where the supports force it, and the error raised is the one
    of the first pair whose own call fails. Pairs of different dimensions
    raise ValueError."""
    pairs = list(pairs)
    dims = {pair.rho.values.size for pair in pairs}
    if len(dims) != 1:
        raise ValueError(f"stacked pairs need one dimension, got {sorted(dims)}")
    a, z = _points(alphas, zs)
    shape, a, z = (len(pairs),) + a.shape, a.ravel(), z.ravel()
    try:
        return _divergence_rows(pairs, a, z).reshape(shape)
    except (ValueError, ArithmeticError):
        # the stack runs each check on all pairs at once; alone, in order,
        # the first failing pair raises the error its own call would
        if len(pairs) > 1:
            for pair in pairs:
                _divergence_rows([pair], a, z)
        raise


def _divergence_rows(pairs: list[PreparedPair], alphas: np.ndarray,
                     zs: np.ndarray) -> np.ndarray:
    """D at 1-d arrays of points for pairs of one dimension, shape
    (len(pairs), N): the closed points (`PreparedPair._closed`) take the
    pair's `_closed_value`, which is +inf everywhere but at alpha = 1 under
    dominance, and the rest ln T / (a - 1)."""
    closed = np.array([pair._closed(alphas) for pair in pairs])
    shut = closed.any()
    t = _stacked_traces(pairs, alphas, zs, ~closed if shut else None)
    if (t <= 0.0).any():
        raise ArithmeticError(f"trace functional collapsed to {float(t[t <= 0.0][0])!r}")
    # T is NaN at the closed points, where the quotient is NaN too
    values = np.log(t) / (alphas - 1.0)
    if shut:
        for row, pair, at in zip(values, pairs, closed):
            if at.any():
                row[at] = pair.relative_entropy().value
    return values


def prepare(rho: np.ndarray, sigma: np.ndarray) -> PreparedPair:
    """Validate and decompose a (rho, sigma) pair once, as one stack with one
    `eigh`. The inner rank is rank rho under dominance, 0 for orthogonal
    supports and rank sigma for a full-rank rho; otherwise it counts the
    cosines between the supports whose square, a weight, exceeds eps.

    rho must be a density operator (Hermitian, PSD, unit trace) and sigma a
    nonzero PSD operator. When the stack fails (shapes differ or a check
    fails), rho alone and then sigma alone are checked, so the error raised
    is the first one of the per-operator order with its own message."""
    try:
        r, s = supports(np.array((rho, sigma), dtype=complex))
        r, s = _density(r), _reference(s)
    except (ValueError, TypeError):
        r, s = _density(support(rho)), _reference(support(sigma))
    if r.values.shape != s.values.shape:
        raise ValueError(f"dimension mismatch: {r.vectors.shape} vs {s.vectors.shape}")
    overlap = s.vectors.conj().T @ r.vectors
    weights = np.abs(overlap) ** 2
    dominated, orthogonal = support_relation(r, s, weights)
    if dominated or orthogonal or r.rank == r.values.size:
        inner_rank = r.rank if dominated else 0 if orthogonal else s.rank
    else:
        cosines = np.linalg.svd(overlap[:s.rank, :r.rank], compute_uv=False)
        inner_rank = int(np.count_nonzero(cosines * cosines > s.eps))
    return PreparedPair(r, s, overlap, weights, dominated, orthogonal, inner_rank)


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
