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

One route rule (`PreparedPair._route`) decides every point: closed, where
D needs no trace (the first and the two +inf cases above), or the SVD
route of T (`_factor`, `_trace_sums`). T is optional at a closed point: it
is NaN there where it is undefined or out of double range. Where D needs
T, such a T raises DomainError naming the point.

Every quantum value comes from a PreparedPair, which validates both
operators as one stack in one pass, decomposes them with one `eigh` and
carries every family as a method; each module function prepares one pair
per call and calls one method. The trace functional T(a, z) is
`prepare(rho, sigma).traces(alpha, z)`. `stacked_divergences` evaluates the
same points on several prepared pairs of one dimension with one SVD.
"""

from __future__ import annotations

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
        raise DomainError("alpha = 1 is the KL limit; call ClassicalPair.kl")
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

    Every entry point asks `_route` which way each point goes. `traces`,
    `divergences` and `evaluate` take arrays of points and run one stacked
    SVD for all of them: they are the one-pair case of the module's stacked
    kernel (`stacked_divergences`), and `evaluate` returns the D of
    `divergences` with the T beside it, NaN at a closed point where T is
    undefined or out of double range. The scalar `divergence` runs the
    same SVD route (`_factor`, `_trace_sums`) for one point, and `petz`,
    `sandwiched` and `mosonyi_ogawa` call it with their own self-checks."""

    rho: Spectrum
    sigma: Spectrum
    overlap: np.ndarray
    weights: np.ndarray
    dominated: bool
    orthogonal: bool
    inner_rank: int

    def _route(self, alphas, zs, closing: bool = True):
        """The route rule at points (alpha, z), floats or 1-d arrays that
        `_point(s)` checked. Returns (closed, defined, e_sigma, e_rho):
          * closed where D needs no trace (nowhere for T alone, closing
            false): alpha = 1, where D is the relative entropy, and, without
            dominance, alpha > 1 or orthogonal supports, where it is +inf;
          * defined where T's formula is: no negative exponent on a
            rank-deficient operator, except sigma's under dominance (its
            generalized inverse); True for a pair where every point is;
          * the exponents (1 - a)/2z and a/z of sigma and rho.
        The SVD route (`_factor`, `_trace_sums`) takes the defined points; T
        is optional at the closed ones. Raises the DomainError of the first
        point that is neither closed nor defined."""
        e_sigma, e_rho = (1.0 - alphas) / (2.0 * zs), alphas / zs
        closed = False
        if closing:
            closed = abs(alphas - 1.0) <= ALPHA_ONE_TOL
            if not self.dominated:
                closed = closed | (alphas > 1.0) | self.orthogonal
        dim = self.rho.values.size
        rho_full, sigma_endorsed = self.rho.rank == dim, self.sigma.rank == dim or self.dominated
        if rho_full and sigma_endorsed:
            return closed, True, e_sigma, e_rho
        # bools at one point, arrays at several: these operators serve both
        defined = ((e_rho >= 0.0) | rho_full) & ((e_sigma >= 0.0) | sigma_endorsed)
        passed = defined | closed
        if not (passed if isinstance(passed, bool) else passed.all()):
            e_s, e_r = (np.ravel(e)[np.argmin(passed)] for e in (e_sigma, e_rho))
            raise _undefined("rho", e_r) if e_r < 0.0 and not rho_full else _undefined("sigma", e_s)
        return closed, defined, e_sigma, e_rho

    def _closed_value(self, alpha: float) -> DivergenceValue:
        """D at a closed point of `_route`: the relative entropy, +inf
        support_violation without dominance, but tagged orthogonal_states
        below alpha = 1. Only the tag depends on alpha."""
        if alpha < 1.0 - ALPHA_ONE_TOL:
            return DivergenceValue.infinite(INFINITY_ORTHOGONAL)
        return self.relative_entropy()

    def _factor(self, alphas, zs, e_sigma, e_rho, optional=False):
        """The SVD route's G = diag(sigma^e_sigma) W diag(rho^(e_rho/2)) at one
        point (floats) or a row of points (1-d arrays), whose G G† is the
        inner operator, and the points it lost (None if none). Scaling W by
        rows and columns is exact per entry, and the singular values of G
        give the inner eigenvalues to about the square root of the relative
        error of an eigendecomposition of the assembled sandwich.

        |W| <= 1 bounds every entry of G by the product of the largest power
        on each side, so a finite bound keeps the SVD finite. A point whose
        bound overflows raises the DomainError naming it, the first in order,
        unless `optional` holds there: then it is lost, with powers 1 (G is
        the unitary W). The test runs on all points first, per point only
        when that fails; maxima starting at 0 also cover no points."""
        s_pow, r_pow = self.sigma.powers(e_sigma), self.rho.powers(e_rho / 2.0)
        lost = None
        # one point's maxima in Python floats, which cost less than numpy's
        bound = (max(s_pow.tolist()) * max(r_pow.tolist()) if s_pow.ndim == 1
                 else float(s_pow.max(initial=0.0)) * float(r_pow.max(initial=0.0)))
        if not math.isfinite(bound):
            lost = _lost("the spectral powers overflow", alphas, zs, optional,
                         np.isfinite(s_pow.max(axis=-1) * r_pow.max(axis=-1)))
            s_pow[lost] = r_pow[lost] = 1.0
        # s * W * r with the second product in place: a large stack's
        # temporaries cost a fresh allocation each
        g = s_pow[..., :, None] * self.overlap
        g *= r_pow[..., None, :]
        return g, lost

    def _trace_sums(self, singular, alphas, zs, optional=False, lost=None):
        """T from the singular values of `_factor`'s G at its points, one row
        per point (one 1-d array for a point given as floats): the top
        inner-rank values squared, raised to z and summed.
        G has the pair's inner rank, so its smaller singular values are
        round-off and are dropped whatever their size. A sum that overflows,
        or one that is 0 while the inner rank is positive, where every term
        underflowed, leaves double range: it raises as `_factor` does, or is
        lost where `optional` holds. T is NaN at the lost points."""
        one = isinstance(zs, float)
        kept = singular[..., :self.inner_rank]
        sums = ((kept * kept) ** (zs if one else zs[:, None])).sum(axis=-1)
        values = sums.tolist()  # the tests in Python floats; one point's is a float
        top, low = (values, values) if one else (sum(values), min(values, default=1.0))
        if not math.isfinite(top):  # a sum is not finite if a NaN or an inf term is in
            lost = _lost("the trace sum overflows", alphas, zs, optional,
                         np.isfinite(sums), lost)
        if not low > 0.0 and self.inner_rank > 0:
            lost = _lost("the trace sum underflows", alphas, zs, optional, sums > 0.0, lost)
        return sums if lost is None else np.where(lost, math.nan, sums)

    def traces(self, alphas, zs) -> np.ndarray:
        """T(a, z) = Tr[(sigma^((1-a)/2z) rho^(a/z) sigma^((1-a)/2z))^z] with
        generalized powers at the broadcast points of alphas and zs, from one
        stacked SVD. Every point needs T, so the first point where its
        formula is undefined (`_route`) or out of double range raises
        DomainError."""
        a, z = _points(alphas, zs)
        return _stacked_traces([self], a.ravel(), z.ravel())[1][0].reshape(a.shape)

    def divergences(self, alphas, zs) -> np.ndarray:
        """D(a, z) in nats at the broadcast points of alphas and zs, +inf
        where the supports force it, from one stacked SVD: the one-pair case
        of `stacked_divergences`. `divergence` gives one point with its
        infinity reason."""
        return stacked_divergences([self], alphas, zs)[0]

    def divergence(self, alpha: float, z: float) -> DivergenceValue:
        """D(a, z) = ln T(a, z) / (a - 1) at one point with the module's
        support semantics: `_route`'s rule, then the SVD route for this point
        alone, with one G and one `svd`. Where D needs T and T is undefined
        or out of double range, raises the DomainError of `traces`."""
        return self._divergence(alpha, z)[0]

    def _divergence(self, alpha: float, z: float) -> tuple[DivergenceValue, bool]:
        """`divergence` and whether the point is closed."""
        alpha, z = _point(alpha, z)
        closed, _, e_sigma, e_rho = self._route(alpha, z)
        if closed:
            return self._closed_value(alpha), True
        g, _ = self._factor(alpha, z, e_sigma, e_rho)
        t = self._trace_sums(np.linalg.svd(g, compute_uv=False), alpha, z)
        return DivergenceValue.finite(_from_trace(alpha, float(t))), False

    def evaluate(self, alphas, zs) -> tuple[np.ndarray, np.ndarray]:
        """D in nats and T at the points of two equal-length sequences, as
        two float arrays, from one stacked SVD: the one-pair case of the
        rows `divergences` takes its D from. D is +inf where the supports
        force it (`divergence` at that point gives the reason tag). T is NaN
        at a closed point, where D needs none, if its formula is undefined
        or out of double range there; where D needs T, such a point raises
        the DomainError of `divergences`."""
        a, z = _points(alphas, zs)
        values, traces = _divergence_rows([self], a, z)
        return values[0], traces[0]

    def petz(self, alpha: float) -> DivergenceValue:
        """Petz quantum Renyi divergence of order alpha, the z = 1 member.

        Also evaluates the direct formula ln Tr[rho^a sigma^(1-a)] / (a - 1)
        through the overlap sum sum_ij |<v_j|u_i>|^2 r_i^a s_j^(1-a) (a
        cancellation-free route) and asserts the two routes agree.
        """
        alpha = float(alpha)
        value, closed = self._divergence(alpha, 1.0)
        if not closed:
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
        value, closed = self._divergence(alpha, alpha)
        if not closed:
            s_pow = self.sigma.operator(self.sigma.powers((1.0 - alpha) / (2.0 * alpha)))
            factor = s_pow @ self.rho.operator(self.rho.powers(0.5))
            singular = np.linalg.svd(factor, compute_uv=False)[:self.inner_rank]
            _assert_dual_path("sandwiched", value, alpha,
                              float(np.sum((singular * singular) ** alpha)))
        return value

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


def _lost(what: str, alphas, zs, optional, finite, lost=None):
    """The points where `finite` is false, which leave double range: raises
    the DomainError naming the first one where `optional` is false, and
    otherwise returns them joined to the points already `lost`."""
    fatal = np.logical_not(finite | optional)
    if fatal.any():
        raise _beyond_range(what, alphas, zs, np.logical_not(fatal))
    return np.logical_not(finite) if lost is None else lost | np.logical_not(finite)


def _stacked_traces(pairs: list[PreparedPair], alphas: np.ndarray, zs: np.ndarray,
                    closing: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The closed points of `PreparedPair._route` (with closing) and T at
    1-d arrays of N points for P pairs of one dimension, each of shape (P,
    N), from one SVD of the stack of every pair's G (`_factor`) at the
    points where T is defined. T is NaN at a closed point where it is
    undefined or out of double range. Any other such point raises: the
    undefined points are checked first on every pair, then the range per
    pair, each in (pair, point) order. Each pair's rows of the stack are
    built and reduced as they would be alone, so its values do not depend
    on the other pairs."""
    routes = [pair._route(alphas, zs, closing) for pair in pairs]
    takes, factors = [], []
    for pair, (closed, defined, e_sigma, e_rho) in zip(pairs, routes):
        take = defined if isinstance(defined, np.ndarray) else slice(None)
        optional = closed[take] if closing else False
        takes.append((take, optional))
        factors.append(pair._factor(alphas[take], zs[take], e_sigma[take], e_rho[take],
                                    optional))
    singular = np.linalg.svd(_cat([g for g, _ in factors]), compute_uv=False)
    out = np.full((len(pairs), alphas.size), math.nan)
    start = 0
    for row, pair, (take, optional), (g, lost) in zip(out, pairs, takes, factors):
        stop = start + len(g)
        row[take] = pair._trace_sums(singular[start:stop], alphas[take], zs[take],
                                     optional, lost)
        start = stop
    return np.array([route[0] for route in routes]), out


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
        return _divergence_rows(pairs, a, z)[0].reshape(shape)
    except (ValueError, ArithmeticError):
        # the stack checks every pair's undefined points before any range;
        # alone, in order, the first failing pair raises its own call's error
        if len(pairs) > 1:
            for pair in pairs:
                _divergence_rows([pair], a, z)
        raise


def _divergence_rows(pairs: list[PreparedPair], alphas: np.ndarray,
                     zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D and T at 1-d arrays of points for pairs of one dimension, each of
    shape (len(pairs), N): D is the pair's `_closed_value` at its closed
    points and ln T / (a - 1) elsewhere; T is `_stacked_traces`'."""
    closed, t = _stacked_traces(pairs, alphas, zs, closing=True)
    # the quotient's T: NaN at the closed points, which need none
    needed = np.where(closed, math.nan, t)
    if (needed <= 0.0).any():
        raise ArithmeticError(f"trace functional collapsed to "
                              f"{float(needed[needed <= 0.0][0])!r}")
    values = np.log(needed) / (alphas - 1.0)
    for row, pair, at in zip(values, pairs, closed):
        if at.any():
            row[at] = pair._closed_value(1.0).value
    return values, t


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
