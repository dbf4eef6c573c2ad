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

One route rule (`PreparedPair._route`) gives every point one of three
outcomes: closed, where D needs no trace (the first and the two +inf cases
above); the product route (`_factor`, `_power_sums`) at the open points of
a dominated pair whose z is a positive integer up to Z_PRODUCT_MAX = 16,
where T = Tr (G G†)^z is a sum of squares of matrix products; or the SVD
route of T (`_factor`, `_trace_sums`). Both routes take G as `_factor`
builds it, graded with its large rows and columns first for the SVD
route's `svd`. A product-route T outside [tiny, inf) is computed again by
the SVD route, which alone decides the range. The route steps raise
nothing: they give each point a fault code, 1 where T's formula is
undefined, 2 where the spectral powers overflow, 3 where the trace sum
overflows and 4 where it underflows, and T is NaN at a point with a
fault. Each entry point then raises one DomainError, for the lowest code
at its first point among the points it needs (every point for T, the open
points for D); a closed point's fault is no error.

Every quantum value comes from a PreparedPair, which validates both
operators as one stack in one pass, decomposes them with one `eigh` and
carries every family as a method; each module function prepares one pair
per call and calls one method. The trace functional T(a, z) is
`prepare(rho, sigma).traces(alpha, z)`. `stacked_divergences` evaluates the
same points on several prepared pairs of one dimension with at most one
SVD.
"""

from __future__ import annotations

import functools
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

# the largest positive integer z whose T the product route computes; a
# numerics rule, like ALPHA_ONE_TOL. Larger z keeps the SVD route.
Z_PRODUCT_MAX = 16

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


def _joined(fault, code: int, at):
    """The fault codes `fault` with `code` at the points `at` that have none."""
    return np.where(fault, fault, code * at)


@dataclass(frozen=True)
class PreparedPair:
    """A validated (rho, sigma) pair, decomposed once: the two spectra, the
    overlap W = V_sigma† U_rho of their eigenvectors, weights = |W|^2, the
    support relation of `linalg.support_relation`, and the inner rank: the
    rank of the supp sigma x supp rho block of W, which every inner operator
    sigma^e rho^f sigma^e of the pair shares.

    Every entry point asks `_route` which way each point goes, and the
    route steps (`_factor`, `_power_sums`, `_trace_sums`) compute values and
    per-point fault codes without raising; the entry point then raises
    once, through `_raise`, for the faults at the points it needs. `_factor`
    alone decides the order of G's rows and columns, and every route and
    self-check takes G as built. `traces`,
    `divergences` and `evaluate` take arrays of points, sum the product
    points' matrix products and run one stacked SVD for the rest: they are
    the one-pair case of the module's stacked kernel
    (`stacked_divergences`), and `evaluate` returns the D of `divergences`
    with the T beside it, NaN at a closed point where T is undefined or out
    of double range. The scalar `divergence` runs the same steps for one
    point, and `petz`, `sandwiched` and `mosonyi_ogawa` call it with their
    own self-checks."""

    rho: Spectrum
    sigma: Spectrum
    overlap: np.ndarray
    weights: np.ndarray
    dominated: bool
    orthogonal: bool
    inner_rank: int

    def _route(self, alphas, zs):
        """The route rule at points (alpha, z), floats or 1-d arrays that
        `_point(s)` checked. Returns (closed, defined, product, e_sigma,
        e_rho):
          * closed where D needs no trace: alpha = 1, where D is the
            relative entropy, and, without dominance, alpha > 1 or
            orthogonal supports, where it is +inf;
          * defined where T's formula is: no negative exponent on a
            rank-deficient operator, except sigma's under dominance (its
            generalized inverse); True for a pair where every point is;
          * product at the open points of a dominated pair whose z is a
            positive integer up to Z_PRODUCT_MAX; False for a pair without
            dominance, whose inner-rank truncation a product would skip;
          * the exponents (1 - a)/2z and a/z of sigma and rho.
        So each point has one of three outcomes. Closed: D needs no T.
        Product: the product route (`_factor`, `_power_sums`) computes T, and
        hands a T out of [tiny, inf) to the SVD route. Otherwise the SVD
        route (`_factor`, `_trace_sums`). `_factor` gives an undefined
        point the fault code _UNDEFINED; `traces` needs T at a closed point
        too."""
        e_sigma, e_rho = (1.0 - alphas) / (2.0 * zs), alphas / zs
        closed, product = abs(alphas - 1.0) <= ALPHA_ONE_TOL, False
        # bools at one point, arrays at several: these operators serve both
        if self.dominated:  # where closed is alpha = 1 alone; ^ True negates it
            product = (zs >= 1.0) & (zs <= Z_PRODUCT_MAX) & (zs % 1.0 == 0.0) & (closed ^ True)
        else:
            closed = closed | (alphas > 1.0) | self.orthogonal
        dim = self.rho.values.size
        rho_full, sigma_endorsed = self.rho.rank == dim, self.sigma.rank == dim or self.dominated
        if rho_full and sigma_endorsed:
            return closed, True, product, e_sigma, e_rho
        defined = ((e_rho >= 0.0) | rho_full) & ((e_sigma >= 0.0) | sigma_endorsed)
        return closed, defined, product, e_sigma, e_rho

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

    def _factor(self, e_sigma, e_rho, defined):
        """The G = diag(sigma^e_sigma) W diag(rho^(e_rho/2)) of both routes at
        one point (floats) or a row of points (1-d arrays), whose G G† is the
        inner operator, and the fault codes: _UNDEFINED where `defined`
        (`_route`'s) is false, and _POWERS_OVERFLOW where the powers leave
        double range; an int, 0 where no point has one, or one per point.
        Scaling W by rows and columns is exact per entry, and the singular
        values of G give the inner eigenvalues to about the square root of
        the relative error of an eigendecomposition of the assembled
        sandwich.

        G comes in the SVD route's order: its rows reversed where e_sigma < 0
        and its columns where e_rho < 0, so that, the spectra being sorted
        largest first, its large rows and columns come first. Householder
        bidiagonalization keeps the small singular values of a matrix graded
        that way to full relative accuracy, not those of one graded smallest
        first (Demmel & Veselic 1992); neither the singular values nor
        Tr (G G†)^k depend on the order.

        An undefined point's G is built with exponents 0, which can neither
        overflow nor warn. |W| <= 1 bounds every entry of G by the product of
        the largest power on each side, so a finite bound keeps the SVD
        finite. Where the bound overflows, the powers are set to 1 (G is the
        unitary W). The test
        runs on all points first, per point only when that fails; maxima
        starting at 0 also cover no points."""
        if defined is not True:  # exponents 0 where undefined: no overflow warning there
            e_sigma, e_rho = np.where(defined, e_sigma, 0.0), np.where(defined, e_rho, 0.0)
        s_pow, r_pow = self.sigma.powers(e_sigma), self.rho.powers(e_rho / 2.0)
        fault = 1 - defined  # _UNDEFINED (1) where not defined: an int for a bool
        # one point's maxima in Python floats, which cost less than numpy's
        bound = (max(s_pow.tolist()) * max(r_pow.tolist()) if s_pow.ndim == 1
                 else float(s_pow.max(initial=0.0)) * float(r_pow.max(initial=0.0)))
        if not math.isfinite(bound):
            over = ~np.isfinite(s_pow.max(axis=-1) * r_pow.max(axis=-1))
            fault = _joined(fault, _POWERS_OVERFLOW, over)
            s_pow[over] = r_pow[over] = 1.0
        rows, cols = e_sigma < 0.0, e_rho < 0.0  # the sides to reverse
        if s_pow.ndim == 1:  # one point: views of W and of its powers
            rows, cols = slice(None, None, -1 if rows else 1), slice(None, None, -1 if cols else 1)
            g, r_pow = s_pow[rows, None] * self.overlap[rows, cols], r_pow[cols]
        else:  # a stack: each point's W gathered, then scaled in place
            s_pow = np.where(rows[:, None], s_pow[:, ::-1], s_pow)
            r_pow = np.where(cols[:, None], r_pow[:, ::-1], r_pow)
            g = self._orientations[2 * rows + cols]
            g *= s_pow[:, :, None]
        g *= r_pow[..., None, :]
        return g, fault

    @functools.cached_property
    def _orientations(self) -> np.ndarray:
        """W, then W with its columns, its rows and both reversed: index 2 for
        rows plus 1 for columns. Built at the pair's first stacked `_factor`."""
        return np.stack([self.overlap[::r, ::c] for r in (1, -1) for c in (1, -1)])

    def _trace_sums(self, singular, zs):
        """T from the singular values of `_factor`'s G at points without a
        fault, one row per point (one 1-d array for a point given as a float
        z), and the range faults of T as codes in `_factor`'s form: T is the
        sum of the top inner-rank values squared, raised to z.
        G has the pair's inner rank, so its smaller singular values are
        round-off and are dropped whatever their size. A sum that overflows
        gets _SUM_OVERFLOW, and one that is 0 while the inner rank is
        positive, where every term underflowed, _SUM_UNDERFLOW."""
        one, fault = isinstance(zs, float), 0
        kept = singular[..., :self.inner_rank]
        sums = ((kept * kept) ** (zs if one else zs[:, None])).sum(axis=-1)
        values = sums.tolist()  # the tests in Python floats; one point's is a float
        top, low = (values, values) if one else (sum(values), min(values, default=1.0))
        if not math.isfinite(top):  # a sum is not finite if a NaN or an inf term is in
            fault = _joined(fault, _SUM_OVERFLOW, ~np.isfinite(sums))
        if not low > 0.0 and self.inner_rank > 0:
            fault = _joined(fault, _SUM_UNDERFLOW, ~(sums > 0.0))
        return sums, fault

    @staticmethod
    @np.errstate(all="ignore")  # the SVD route warns where it decides the range
    def _power_sums(g, k: int):
        """The product route's T = Tr (G G†)^k at a positive integer k, from
        `_factor`'s G at one point (a float out) or a stack of its rows that
        share k (one sum per row): with H = G G†, T is the squared Frobenius
        norm of H^(k/2) at even k and of H^((k-1)/2) G at odd k, so
        sum |G_ij|^2 at k = 1 and at most 4 matrix products at k = 16. Every
        term of the sum is a square and the powers of H are of a PSD matrix,
        so the round-off stays relative to T for z >= 1. No range test: the
        caller keeps a T in [tiny, inf) and hands the rest to the SVD
        route."""
        if k > 1:
            p = np.linalg.matrix_power(g @ g.conj().swapaxes(-1, -2), k // 2)
            g = p @ g if k % 2 else p
        flat = g.reshape(g.shape[:-2] + (-1,)).view(float)
        return (flat * flat).sum(axis=-1)

    def traces(self, alphas, zs) -> np.ndarray:
        """T(a, z) = Tr[(sigma^((1-a)/2z) rho^(a/z) sigma^((1-a)/2z))^z] with
        generalized powers at the broadcast points of alphas and zs, from
        matrix products at the product points of `_route` and one stacked
        SVD for the rest. Every point needs T, so a fault at any point
        raises the DomainError of `_raise`: where T's formula is undefined,
        then where it leaves double range."""
        a, z = _points(alphas, zs)
        _, t, faults = _stacked_traces([self], a.ravel(), z.ravel())
        if faults.any():
            self._raise(faults, a, z)
        return t[0].reshape(a.shape)

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

    def _divergence(self, alpha: float, z: float):
        """`divergence`, how it was reached ("closed", or "product" or "svd",
        the route that gave T) and the point's G (None if closed)."""
        alpha, z = _point(alpha, z)
        closed, defined, product, e_sigma, e_rho = self._route(alpha, z)
        if closed:
            return self._closed_value(alpha), "closed", None
        g, fault = self._factor(e_sigma, e_rho, defined)
        if fault:
            self._raise(fault, alpha, z)
        t, route = (self._power_sums(g, int(z)) if product else math.nan), "product"
        if not _TINY <= t < math.inf:  # a NaN fails too
            singular = np.linalg.svd(g, compute_uv=False)
            (t, fault), route = self._trace_sums(singular, z), "svd"
            if fault:
                self._raise(fault, alpha, z)
        return DivergenceValue.finite(_from_trace(alpha, float(t))), route, g

    def evaluate(self, alphas, zs) -> tuple[np.ndarray, np.ndarray]:
        """D in nats and T at the broadcast points of alphas and zs, as two
        float arrays of the broadcast shape, from at most one stacked SVD:
        the one-pair case of the rows `divergences` takes its D from. D is
        +inf where the supports force it (`divergence` at that point gives
        the reason tag). T is NaN at a closed point, where D needs none, if
        its formula is undefined or out of double range there; where D
        needs T, such a point raises the DomainError of `divergences`."""
        a, z = _points(alphas, zs)
        values, traces = _divergence_rows([self], a.ravel(), z.ravel())
        return values[0].reshape(a.shape), traces[0].reshape(a.shape)

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
        value, route, g = self._divergence(alpha, 1.0)
        if route == "product":
            t, fault = self._trace_sums(np.linalg.svd(g, compute_uv=False), 1.0)
            if fault:
                self._raise(fault, alpha, 1.0)
            _assert_dual_path("Petz", value, alpha, float(t))
        elif route == "svd":
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
        value, route, _ = self._divergence(alpha, alpha)
        if route != "closed":
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


def _stacked_traces(pairs: list[PreparedPair], alphas: np.ndarray, zs: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The closed points of `PreparedPair._route`, T and the fault codes at
    1-d arrays of N points for P pairs of one dimension, each of shape (P,
    N), from every pair's G (`_factor`): `_power_sums` at the product points
    without a fault, then one SVD of the stack of the other rows without a
    fault, none if there are none. T is NaN at every point with a fault;
    nothing raises, and each caller raises for the points it needs. Each
    pair's rows of the stack are built and reduced as they would be alone,
    so its values do not depend on the other pairs."""
    closed = np.empty((len(pairs), alphas.size), dtype=bool)
    out = np.full(closed.shape, math.nan)
    faults = np.zeros(closed.shape, dtype=int)
    pending = []  # per pair: the SVD route's rows, their zs and their points
    for p, pair in enumerate(pairs):
        closed[p], defined, product, e_sigma, e_rho = pair._route(alphas, zs)
        g, faults[p] = pair._factor(e_sigma, e_rho, defined)
        todo = faults[p] == 0  # the points whose T is still to come
        if isinstance(product, np.ndarray) and product.any():
            on = product & todo
            groups = set(zs[on].tolist())
            for k in groups:
                at = on & (zs == k) if len(groups) > 1 else on
                out[p, at] = pair._power_sums(g[at], int(k))
            todo &= ~((out[p] >= _TINY) & (out[p] < math.inf))  # a NaN fails too
        rest = slice(None) if todo.all() else todo
        pending.append((g[rest], zs[rest], rest))
    stack = [g for g, *_ in pending if len(g)]
    singular = np.linalg.svd(_cat(stack), compute_uv=False) if stack else None
    start = 0
    for p, (pair, (g, z, rest)) in enumerate(zip(pairs, pending)):
        if len(g):
            out[p, rest], faults[p, rest] = pair._trace_sums(singular[start:start + len(g)], z)
            start += len(g)
    if faults.any():
        out[faults != 0] = math.nan
    return closed, out, faults


def _cat(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays joined along their first axis; one array is not copied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def stacked_divergences(pairs, alphas, zs) -> np.ndarray:
    """D(a, z) in nats for prepared pairs of one dimension at the same
    broadcast points of alphas and zs, shape (len(pairs), *points), from at
    most one stacked SVD. Row p equals `pairs[p].divergences(alphas, zs)`
    bit for bit, +inf where the supports force it, and the error raised is
    the one of the first pair whose own call fails, read from the fault
    codes of the one kernel pass. Pairs of different dimensions raise
    ValueError."""
    pairs = list(pairs)
    dims = {pair.rho.values.size for pair in pairs}
    if len(dims) != 1:
        raise ValueError(f"stacked pairs need one dimension, got {sorted(dims)}")
    a, z = _points(alphas, zs)
    return _divergence_rows(pairs, a.ravel(), z.ravel())[0].reshape((len(pairs),) + a.shape)


def _divergence_rows(pairs: list[PreparedPair], alphas: np.ndarray,
                     zs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """D and T at 1-d arrays of points for pairs of one dimension, each of
    shape (len(pairs), N): D is the pair's `_closed_value` at its closed
    points and ln T / (a - 1) elsewhere; T is `_stacked_traces'`. D needs T
    at the open points only: the first pair with a fault or a T <= 0 there
    raises, a fault through `_raise`."""
    closed, t, faults = _stacked_traces(pairs, alphas, zs)
    # the quotient's T: NaN at the closed points, which need none
    needed = np.where(closed, math.nan, t)
    faults = np.where(closed, 0, faults)
    if faults.any() or (needed <= 0.0).any():
        p = int(np.argmax(faults.any(axis=1) | (needed <= 0.0).any(axis=1)))
        if faults[p].any():
            pairs[p]._raise(faults[p], alphas, zs)
        raise ArithmeticError(f"trace functional collapsed to "
                              f"{float(needed[p][needed[p] <= 0.0][0])!r}")
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
