import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", max_examples=25, deadline=None)
settings.load_profile("ci")


def rand_hermitian(dim: int, seed: int) -> np.ndarray:
    """General (not PSD) random Hermitian matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def max_abs(a) -> float:
    return float(np.abs(np.asarray(a)).max())


def near_orthogonal_pair(cos_sq: float) -> tuple[np.ndarray, np.ndarray]:
    """(rho, sigma) of dimension 4 with sigma = diag(1/2, 1/2, 0, 0) and rho
    the even mixture of v1 = (d, 0, c, 0) and v2 = (0, d, 0, c), d^2 = cos_sq
    and c^2 = 1 - cos_sq: both cosines between the supports square to
    cos_sq, and so does rho's weight on supp sigma."""
    d, c = np.sqrt(cos_sq), np.sqrt(1.0 - cos_sq)
    v = np.array([[d, 0.0, c, 0.0], [0.0, d, 0.0, c]])
    return v.T @ v / 2.0, np.diag([0.5, 0.5, 0.0, 0.0])


@pytest.fixture
def example1_quarter():
    from alphaz.states import example1_pair

    return example1_pair(0.25)
