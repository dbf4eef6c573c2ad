import inspect

import pytest

import alphaz
from alphaz import analysis, divergences, linalg

# names removed from the public API, with the module or class that defined them
REMOVED = [
    (linalg, "matrix_power"),
    (linalg, "log_on_support"),
    (linalg, "pinch"),
    (linalg.Spectrum, "projector"),
    (divergences, "alpha_z_trace"),
    (divergences, "relative_entropy_variance"),
    (analysis.CurveSpec, "g_prime"),
    (linalg, "eigensystem"),
    (linalg, "eigensystems"),
    (divergences.PreparedPair, "trace"),
    (divergences, "check_density"),
    (divergences, "check_reference"),
    (divergences, "_stacked_spectra"),
    (divergences, "classical_kl"),
    (divergences, "classical_renyi"),
    (analysis, "FdScheme"),
    (analysis.CurveSpec, "kind"),
    (analysis.CurveSpec, "params"),
    (analysis, "FD_ORDERS"),
    (analysis, "D1_STENCILS"),
    (analysis, "D2_STENCILS"),
    (analysis, "SweepRow"),
    (analysis, "dyadic_offsets"),
]


def test_every_exported_name_resolves():
    missing = [name for name in alphaz.__all__ if not hasattr(alphaz, name)]
    assert missing == []


def test_exports_have_no_duplicates():
    assert len(alphaz.__all__) == len(set(alphaz.__all__))


@pytest.mark.parametrize("owner, name", REMOVED,
                         ids=[name for _, name in REMOVED])
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)
    assert not hasattr(alphaz, name)
    assert name not in alphaz.__all__


def test_derivative_check_has_no_family_parameter():
    params = inspect.signature(alphaz.verify_derivative_at_one).parameters
    assert list(params) == ["tf"]


# the offset ladders and finite-difference steps are module constants
@pytest.mark.parametrize("function, params", [
    (alphaz.verify_curve_limits, ["tf", "curves", "bias"]),
    (alphaz.verify_second_derivative_example1, ["p"]),
    (alphaz.verify_dz_trace_vanishes, ["tf", "z0s"]),
], ids=["limits", "second_derivative", "dz_trace"])
def test_verification_has_no_offset_or_step_parameter(function, params):
    assert list(inspect.signature(function).parameters) == params
