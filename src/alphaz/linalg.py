"""Complex Hermitian linear algebra: one prepared `Spectrum` per operator,
support/kernel logic with a single relative cutoff, and spectral functional
calculus (generalized powers, logs on the support, pinching).

An eigenvalue counts as zero iff it is <= eps * max|eigenvalue|, where eps
defaults to 1e-12 and can be overridden through the RENYI_EPS environment
variable. `supports` validates a stack of PSD operators in one pass,
decomposes it with one `eigh` and reads eps once into every Spectrum of the
stack; `support` is its one-operator case. Every support decision about an
operator uses its Spectrum. `_pinches` pinches a stack of operators, each in
the eigenbasis of its own Spectrum, with one product; `Spectrum.pinch` is
its one-operator case.
"""

from __future__ import annotations

import bisect
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_EPS = 1e-12

# max-abs entry tolerance accepted before an input is rejected as non-Hermitian
HERMITICITY_RTOL = 1e-8

# the largest entry modulus accepted: A + A† stays finite up to it
MAX_ENTRY_MODULUS = np.finfo(float).max / 2.0


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
    """Return (A + A†)/2, for one matrix or for each of a stack."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def _square(a) -> np.ndarray:
    """a as a complex square matrix of dimension >= 1."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise ValueError("matrix dimension must be >= 1")
    return a


def _hermitian_stack(stack: np.ndarray) -> np.ndarray:
    """Validate and symmetrize a complex stack of square matrices, shape
    (n, d, d) with d >= 1.

    Rejects non-finite entries, entries beyond double range (a modulus above
    MAX_ENTRY_MODULUS, where A + A† could overflow) and a matrix whose
    Hermiticity defect exceeds HERMITICITY_RTOL times its scale max(1,
    max-abs entry); otherwise returns the exactly Hermitian parts. A stack
    equal to its adjoint entry for entry is its own Hermitian part (the
    range test keeps A + A† finite) and is returned as it is. A NaN or inf
    entry makes the max-abs entry non-finite, so the exact finiteness test
    runs only when the max-abs entry fails the range test, and scales are
    >= 1, so per-matrix scales are needed only when the largest defect
    exceeds HERMITICITY_RTOL (or is NaN)."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError(f"expected a stack of square matrices, got shape {stack.shape}")
    if not np.abs(stack).max() <= MAX_ENTRY_MODULUS:
        if not np.isfinite(stack).all():
            raise ValueError("matrix has non-finite entries")
        raise ValueError("matrix has entries beyond double range")
    adjoint = stack.conj().swapaxes(1, 2)
    if not (stack != adjoint).any():
        return stack
    gap = np.abs(stack - adjoint)
    if not gap.max() <= HERMITICITY_RTOL:
        defect = gap.max(axis=(1, 2))
        faulty = defect > HERMITICITY_RTOL * np.maximum(np.abs(stack).max(axis=(1, 2)), 1.0)
        if faulty.any():
            raise ValueError(f"matrix is not Hermitian: max defect {defect[faulty][0]:.3e}")
    return (stack + adjoint) / 2.0


def _power(base: np.ndarray, exponents) -> np.ndarray:
    """base ** exponents with the exponents laid out in full over the base: a
    float, or one exponent per row of a base of rows as a column (R, 1).
    numpy's `power` then takes its loop over contiguous operands, and each
    entry rounds as it does in any other call. A float exponent, or one
    broadcast along a row, makes numpy take sqrt, square or reciprocal at
    0.5, 2 or -1 in some calls, which round apart from that loop. Every
    spectral power is taken here, so a power is the same bit for bit
    whichever driver asks for it and whatever rows share its call."""
    laid = np.empty(base.shape)
    laid[...] = exponents
    return np.power(base, laid)


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

    def on_support(self, fn) -> np.ndarray:
        """fn of the support eigenvalues (all > 0), 0 on the kernel: at full
        rank, fn of the eigenvalues as they are."""
        if self.rank == self.values.size:
            return fn(self.values)
        out = np.zeros(self.values.shape)
        out[:self.rank] = fn(self.values[:self.rank])
        return out

    def powers(self, p: float) -> np.ndarray:
        """Generalized power of the eigenvalues, taken by `_power`: kernel
        entries map to 0 for every exponent, so p = 0 gives the support
        indicator. x**1.0 is x, so p = 1 gives a copy of the eigenvalues."""
        return self.on_support(lambda values: values.copy() if p == 1.0 else _power(values, p))

    def operator(self, diagonal: np.ndarray) -> np.ndarray:
        """The operator with these eigenvalues in this eigenbasis."""
        return hermitian_part((self.vectors * diagonal) @ self.vectors.conj().T)

    def pinch(self, a: np.ndarray) -> np.ndarray:
        """Pinch A in this eigenbasis: the one-operator case of `_pinches`."""
        return _pinches([self], _square(a)[None])[0]


def _pinches(spectra: list[Spectrum], stack) -> np.ndarray:
    """Pinch each A of a stack, shape (n, d, d), in the eigenbasis of its
    Spectrum: sum_i P_i A P_i over the spectral projectors P_i (neighbouring
    eigenvalues closer than 1e-8 times the largest magnitude share a block).
    Trace preserving and Hermiticity preserving. Each A is validated and
    symmetrized by `_hermitian_stack`, and the stack is computed as one
    product V (M ∘ V†AV) V†, where M is the block mask of each spectrum:
    M_ij = 1 iff eigenvalues i and j share a block."""
    stack = _hermitian_stack(np.asarray(stack, dtype=complex))
    vectors = np.array([s.vectors for s in spectra])
    if stack.shape != vectors.shape:
        raise ValueError(f"dimension mismatch: {stack.shape[1:]} vs {vectors.shape[1:]}")
    values = np.array([s.values for s in spectra])
    scales = np.maximum(np.abs(values).max(axis=1), 1e-300)
    # eigenvalues are sorted descending; a new block starts where the gap
    # exceeds tolerance, so each eigenvalue's block is the count of such gaps
    # before it
    gaps = np.abs(np.diff(values, axis=1)) > 1e-8 * scales[:, None]
    blocks = np.concatenate((np.zeros((len(spectra), 1), int), np.cumsum(gaps, axis=1)), axis=1)
    adjoints = vectors.conj().swapaxes(1, 2)
    in_basis = adjoints @ stack @ vectors
    mask = blocks[:, :, None] == blocks[:, None, :]
    return hermitian_part(vectors @ (mask * in_basis) @ adjoints)


def supports(stack) -> list[Spectrum]:
    """Validate a stack of PSD operators, shape (n, d, d), and decompose it
    with one `eigh`: one Spectrum per operator, eigenvalues sorted
    descending (C-contiguous rows of one reversed copy of eigh's arrays),
    every one with the zero cutoff of one RENYI_EPS read. Ranks
    and leading eigenvectors describe the supports. Rejects the first
    spectrum, in stack order, with an eigenvalue below -threshold. A zero
    operator has rank 0: an empty support."""
    stack = _hermitian_stack(np.asarray(stack, dtype=complex))
    try:
        values, vectors = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigensolver failed to converge on a {stack.shape[1]}x{stack.shape[2]} "
            f"matrix with max-abs entry {np.abs(stack).max():.3e}: {exc}"
        ) from exc
    eps, rows = zero_cutoff(), values.tolist()
    values, vectors = values[:, ::-1].copy(), vectors[:, :, ::-1].copy()
    spectra = []
    for i, row in enumerate(rows):
        # eigh sorts each row ascending, so the largest magnitude sits at an
        # end and the rank is the count above the threshold. eigh raises
        # where its arithmetic goes invalid, so a NaN eigenvalue comes only
        # in a row of NaNs: its threshold is NaN and its rank 0
        threshold = eps * max(abs(row[0]), abs(row[-1]))
        rank = len(row) - bisect.bisect_right(row, threshold)
        if row[0] < -threshold and row[0] < 0.0:
            raise NotPSDError(f"operator is not PSD: eigenvalue {row[0]:.6e}")
        spectra.append(Spectrum(values[i], vectors[i], eps, threshold, rank))
    return spectra


def support(a: np.ndarray) -> Spectrum:
    """Spectrum of a PSD operator, whose rank and leading eigenvectors
    describe its support; the one-operator case of `supports`."""
    return supports(_square(a)[None])[0]

