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
    assert list(params) == ["tf", "scheme"]
