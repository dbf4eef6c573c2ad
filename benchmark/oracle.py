"""Independent high-precision reference values for the accuracy metric.

Everything here is computed with mpmath at ORACLE_DPS decimal digits from
the float64 matrices the program saw, without calling the package. The
support rule is the package's documented one (an eigenvalue is zero iff it
is <= 1e-12 * max|eigenvalue|), applied to the high-precision spectra, so
that reference and program agree on what counts as a kernel.

The alpha-z trace is Tr[(B W R W^dag B)^z] = sum of squared singular values
of G = B W R^(1/2) raised to z, where B = diag(s^((1-a)/2z)) and
R = diag(r^(a/z)) live on the supports and W is the eigenbasis overlap.
Restricting G to the supports keeps it generically of full rank, so no
spurious zero singular value gets raised to a small z.
"""

from __future__ import annotations

import math

import mpmath as mp

ORACLE_DPS = 40
REL_CUTOFF = mp.mpf("1e-12")
ALPHA_ONE_TOL = 1e-12
# a relative error this small is below what a float64 result can resolve
REL_ERROR_FLOOR = 2.0**-53
ZERO_REFERENCE = 1e-9


class Spectrum:
    """High-precision eigenvalues and eigenvectors of one operator,
    restricted to its support."""

    def __init__(self, a):
        with mp.workdps(ORACLE_DPS):
            m = mp.matrix([[mp.mpc(complex(x)) for x in row] for row in a])
            e, q = mp.eighe(m)
            vals = [mp.re(v) for v in e]
            vmax = max(abs(v) for v in vals)
            keep = [i for i, v in enumerate(vals) if v > REL_CUTOFF * vmax]
            self.values = [vals[i] for i in keep]
            self.vectors = [[q[r, i] for r in range(m.rows)] for i in keep]


def _overlap(s: Spectrum, r: Spectrum):
    """W[i][j] = <s_i | r_j> over the two supports."""
    return [[mp.fsum(mp.conj(u[k]) * v[k] for k in range(len(u))) for v in r.vectors]
            for u in s.vectors]


class PairOracle:
    """Reference divergences of one (rho, sigma) pair; the two spectra are
    computed once and reused for every (alpha, z) point of the pair."""

    def __init__(self, rho, sigma):
        self.rho = Spectrum(rho)
        self.sigma = Spectrum(sigma)
        with mp.workdps(ORACLE_DPS):
            self.w = _overlap(self.sigma, self.rho)

    def trace(self, alpha: float, z: float):
        with mp.workdps(ORACLE_DPS):
            a, zz = mp.mpf(alpha), mp.mpf(z)
            e_s = (1 - a) / (2 * zz)
            e_r = a / zz
            b = [s**e_s for s in self.sigma.values]
            h = [r ** (e_r / 2) for r in self.rho.values]
            g = mp.matrix([[b[i] * self.w[i][j] * h[j] for j in range(len(h))]
                           for i in range(len(b))])
            sv = mp.svd_c(g, compute_uv=False)
            return mp.fsum((sv[i] ** 2) ** zz for i in range(sv.rows) if sv[i] > 0)

    def relative_entropy(self):
        with mp.workdps(ORACLE_DPS):
            ln_r = [mp.log(r) for r in self.rho.values]
            ln_s = [mp.log(s) for s in self.sigma.values]
            first = mp.fsum(r * lr for r, lr in zip(self.rho.values, ln_r))
            cross = mp.fsum(abs(self.w[i][j]) ** 2 * self.rho.values[j] * ln_s[i]
                            for i in range(len(ln_s)) for j in range(len(ln_r)))
            return first - cross

    def divergence(self, alpha: float, z: float):
        """D(alpha, z) in nats; the relative entropy at alpha = 1."""
        if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
            return self.relative_entropy()
        with mp.workdps(ORACLE_DPS):
            return mp.log(self.trace(alpha, z)) / (mp.mpf(alpha) - 1)


def example1_divergence(p: float, alpha: float, z: float):
    """Closed form of the rank-1-vs-diagonal pair at high precision."""
    with mp.workdps(ORACLE_DPS):
        p, a, zz = mp.mpf(p), mp.mpf(alpha), mp.mpf(z)
        if abs(alpha - 1.0) <= ALPHA_ONE_TOL:
            return -(mp.log(p) + mp.log(1 - p)) / 2
        u = (1 - a) / zz
        return zz / (a - 1) * mp.log((p**u + (1 - p) ** u) / 2)


def classical_renyi(p, q, alpha: float):
    with mp.workdps(ORACLE_DPS):
        a = mp.mpf(alpha)
        total = mp.fsum(mp.mpf(pi) ** a * mp.mpf(qi) ** (1 - a)
                        for pi, qi in zip(p, q) if pi > 0)
        return mp.log(total) / (a - 1)


def classical_kl(p, q):
    with mp.workdps(ORACLE_DPS):
        return mp.fsum(mp.mpf(pi) * mp.log(mp.mpf(pi) / mp.mpf(qi))
                       for pi, qi in zip(p, q) if pi > 0)


def digits(error, reference) -> float:
    """-log10 of the relative error, floored at float64 resolution. A
    reference of magnitude <= ZERO_REFERENCE (rho = sigma, D = 0) has no
    relative error; its absolute error counts instead."""
    with mp.workdps(ORACLE_DPS):
        scale = abs(reference) if abs(reference) > ZERO_REFERENCE else 1
        rel = abs(mp.mpf(error)) / scale
    return -math.log10(max(float(rel), REL_ERROR_FLOOR))
