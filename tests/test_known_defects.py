"""The register of known defects: one strict xfail per defect that the
ROADMAP records, each asserting the right behaviour at its recorded point.

A tier-1 run lists them as xfailed, so the count of known defects shows in
every run. A change that mends a defect makes its test pass, which fails
the run under strict=True until its mark is removed.

Every reference below comes from a direct high-precision evaluation of the
stated formula on the double inputs with mpmath, never from this package;
each gives its digits and method, and each agrees to the digits shown at a
second, higher precision.
"""

import pytest

from alphaz.divergences import prepare
from alphaz.linalg import DomainError
from alphaz.states import example1_pair, random_density, random_reference
from alphaz.suites import BASE_SEED, SELF_DIVERGENCE_TOL


def _seeded_pair_0():
    """Seeded pair 0 of the suites, d = 2."""
    return prepare(random_density(2, BASE_SEED), random_reference(2, BASE_SEED + 1))


# D(1.001, 0.001) on seeded pair 0, at 60 and 100 digits: G = rho^(a/2z)
# sigma^((1-a)/2z) from mpmath eigendecompositions (`eighe`), and T the sum
# of G's squared singular values raised to z. For 2 x 2, the large squared
# singular value is |G|_F^2 (1 + sqrt(1 - 4 |det G|^2 / |G|_F^4)) / 2 and the
# small one |det G|^2 over it, with det G from the eigenvalues, so the
# powers 500.5 of rho's eigenvalues lose no digit to cancellation.
SMALL_Z_REFERENCE = 2.0212177003082873716


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_small_z_value_or_refusal():
    # today: -144.898210106, with no error
    try:
        value = _seeded_pair_0().divergence(1.001, 0.001).value
    except DomainError:
        return
    assert abs(value - SMALL_Z_REFERENCE) <= 1e-6 * SMALL_Z_REFERENCE


# example1's closed form z/(a-1) ln((p^u + (1-p)^u)/2), u = (1-a)/z, at
# p = 0.25, (a, z) = (2, 1e16), at 80 and 120 digits
LARGE_Z_REFERENCE = 0.8369882167858357882237036


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_large_z_value_or_refusal():
    # today: 0, with no error
    try:
        value = prepare(*example1_pair(0.25)).divergence(2.0, 1e16).value
    except DomainError:
        return
    assert abs(value - LARGE_Z_REFERENCE) <= 1e-10 * LARGE_Z_REFERENCE


# D(1 + 2e-12, 1) on seeded pair 0, at 50 and 80 digits, by the method of
# SMALL_Z_REFERENCE; it is D + (a - 1) V/2 = 1.98268663 to 9 digits
NEAR_ONE_REFERENCE = 1.98268662834289992549343960193


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
def test_near_alpha_one():
    # today: 1.98301321, 1.6e-4 relative from the reference
    value = _seeded_pair_0().divergence(1.0 + 2e-12, 1.0).value
    assert abs(value - NEAR_ONE_REFERENCE) <= 1e-10 * NEAR_ONE_REFERENCE


@pytest.mark.xfail(strict=True, reason="ROADMAP item 20")
def test_self_divergence_at_the_seed_limit():
    # D(rho||rho) = ln(Tr rho) / (a - 1) for every (a, z); the exact sum of
    # this rho's double diagonal, at 50 digits, is 1 + 8.3e-17, so the value
    # is 4.2e-17. Today: 8.07e-7
    rho = random_density(6, BASE_SEED + 2248)
    assert abs(prepare(rho, rho).divergence(3.0, 0.5).value) <= SELF_DIVERGENCE_TOL


# the sandwiched D(300, 300) on seeded pair 0, at 60 and 90 digits, by the
# method of SMALL_Z_REFERENCE
LARGE_ALPHA_REFERENCE = 2.6464129920149355639


@pytest.mark.xfail(strict=True, reason="ROADMAP item 22")
def test_sandwiched_at_large_alpha():
    # today: a DomainError, "the trace sum overflows"
    value = _seeded_pair_0().sandwiched(300.0).value
    assert abs(value - LARGE_ALPHA_REFERENCE) <= 1e-10 * LARGE_ALPHA_REFERENCE
