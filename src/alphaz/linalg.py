"""Complex Hermitian linear algebra: one prepared `Spectrum` per operator,
support/kernel logic with a single relative cutoff, and spectral functional
calculus (generalized powers, logs on the support, pinching).

An eigenvalue counts as zero iff it is <= eps * max|eigenvalue|, where eps
defaults to 1e-12 and can be overridden through the RENYI_EPS environment
variable. `eigensystem` reads eps once per operator into its Spectrum, and
every support decision about the operator uses that Spectrum.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-12

# max-abs entry tolerance accepted before an input is rejected as non-Hermitian
HERMITICITY_RTOL = 1e-8


class NotPSDError(ValueError):
    """Raised when an operator required to be positive semi-definite is not."""


class DomainError(ValueError):
    """Raised for parameter/support combinations the formulas do not cover."""


def zero_cutoff() -> float:
    """Relative eigenvalue cutoff, overridable via the RENYI_EPS env variable."""
    raw = os.environ.get("RENYI_EPS")
    if raw is None:
        return DEFAULT_EPS
    try:
        eps = float(raw)
    except ValueError as exc:
        raise DomainError(f"RENYI_EPS is not a number: {raw!r}") from exc
    if not 0.0 < eps < 1.0:
        raise DomainError(f"RENYI_EPS must lie in (0, 1), got {eps}")
    return eps


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A†)/2."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().T) / 2.0


def as_hermitian(a: np.ndarray) -> np.ndarray:
    """Validate and symmetrize a square matrix.

    Rejects non-square or non-finite input and input whose Hermiticity
    defect exceeds HERMITICITY_RTOL relative to the matrix scale; otherwise
    returns the exactly Hermitian part.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    scale = max(1.0, float(np.abs(a).max()))
    defect = float(np.abs(a - a.conj().T).max())
    if defect > HERMITICITY_RTOL * scale:
        raise ValueError(f"matrix is not Hermitian: max defect {defect:.3e}")
    return hermitian_part(a)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of one Hermitian operator with its zero cutoff.

    Eigenvalues are sorted descending with unitary eigenvector columns. The
    first `rank` eigenvalues exceed `threshold` = eps * max|eigenvalue|, and
    their eigenvectors span the support; the rest count as exact zeros.
    """

    values: np.ndarray
    vectors: np.ndarray
    eps: float
    threshold: float
    rank: int

    @property
    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the support."""
        return self.operator(self.powers(0.0))

    def on_support(self, fn) -> np.ndarray:
        """fn of the support eigenvalues (all > 0), 0 on the kernel."""
        out = np.zeros_like(self.values)
        out[:self.rank] = fn(self.values[:self.rank])
        return out

    def powers(self, p) -> np.ndarray:
        """Generalized power of the eigenvalues: kernel entries map to 0 for
        every exponent, so p = 0 gives the support indicator. An array of
        exponents gives one row of powers per exponent."""
        p = np.asarray(p, dtype=float)
        out = np.zeros(p.shape + self.values.shape)
        out[..., :self.rank] = self.values[:self.rank] ** p[..., None]
        return out

    def operator(self, diagonal: np.ndarray) -> np.ndarray:
        """The operator with these eigenvalues in this eigenbasis."""
        return hermitian_part((self.vectors * diagonal) @ self.vectors.conj().T)


def eigensystem(a: np.ndarray) -> Spectrum:
    """Validate a Hermitian matrix and decompose it once, eigenvalues sorted
    descending, with the zero cutoff read and applied."""
    a = as_hermitian(a)
    try:
        values, vectors = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed to converge on a {a.shape[0]}x{a.shape[1]} "
            f"matrix with max-abs entry {np.abs(a).max():.3e}: {exc}"
        ) from exc
    values, vectors = values[::-1].copy(), vectors[:, ::-1].copy()
    eps = zero_cutoff()
    threshold = eps * float(np.abs(values).max())
    return Spectrum(values, vectors, eps, threshold,
                    int(np.count_nonzero(values > threshold)))


def support(a: np.ndarray) -> Spectrum:
    """Spectrum of a PSD operator, whose rank and projector describe its
    support. Rejects a spectrum with an eigenvalue below -threshold. The
    zero operator has rank 0 and a zero projector."""
    spectrum = eigensystem(a)
    vmin = float(spectrum.values[-1])
    if vmin < -spectrum.threshold and vmin < 0.0:
        raise NotPSDError(f"operator is not PSD: eigenvalue {vmin:.6e}")
    return spectrum


def support_relation(rho: Spectrum, sigma: Spectrum,
                     weights: np.ndarray) -> tuple[bool, bool]:
    """(dominated, orthogonal) for PSD spectra, where
    weights[j, i] = |<v_j|u_i>|^2 for the eigenvectors v of sigma and u of rho.

    rho's weight on a subspace is sum r_i weights[j, i] over i in supp rho
    and j spanning the subspace. As with rank, it counts as zero iff it is
    <= rho.threshold: sigma dominates rho iff the weight on ker sigma is
    zero, and the supports are orthogonal iff the weight on supp sigma is.
    """
    mass = weights[:, :rho.rank] @ rho.values[:rho.rank]
    return (float(mass[sigma.rank:].sum()) <= rho.threshold,
            float(mass[:sigma.rank].sum()) <= rho.threshold)


def matrix_power(a: np.ndarray, p: float) -> np.ndarray:
    """Generalized spectral power of a PSD operator.

    Eigenvalues at or below the cutoff are treated as exact zeros and map to
    zero for every exponent; A**0 is the support projector, not the identity.
    """
    spectrum = support(a)
    return spectrum.operator(spectrum.powers(float(p)))


def log_on_support(a: np.ndarray) -> np.ndarray:
    """Natural log evaluated on the support; kernel contributes nothing.
    The zero operator maps to the zero matrix."""
    spectrum = support(a)
    return spectrum.operator(spectrum.on_support(np.log))


def pinch(a: np.ndarray, basis_of: np.ndarray) -> np.ndarray:
    """Pinch A in the eigenbasis of a PSD operator: sum_i P_i A P_i over the
    spectral projectors P_i of basis_of (eigenvalues equal within tolerance
    share a block). Trace preserving and Hermiticity preserving."""
    a = as_hermitian(a)
    es = support(basis_of)
    if a.shape != es.vectors.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {es.vectors.shape}")
    scale = max(float(np.abs(es.values).max()), 1e-300)
    cluster_tol = 1e-8 * scale
    # eigenvalues are sorted descending; split where the gap exceeds tolerance
    splits = np.nonzero(np.abs(np.diff(es.values)) > cluster_tol)[0] + 1
    out = np.zeros_like(a)
    for block in np.split(np.arange(es.values.size), splits):
        u = es.vectors[:, block]
        proj = u @ u.conj().T
        out += proj @ a @ proj
    return hermitian_part(out)
