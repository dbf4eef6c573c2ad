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


def near_orthogonal_pair(cos_sq: float, cos_sq_2: float | None = None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """(rho, sigma) of dimension 4 with sigma = diag(1/2, 1/2, 0, 0) and rho
    the even mixture of v1 = (d1, 0, c1, 0) and v2 = (0, d2, 0, c2), d1^2 =
    cos_sq, d2^2 = cos_sq_2 (cos_sq by default) and c_i^2 = 1 - d_i^2: the
    cosines between the supports square to cos_sq and cos_sq_2, and rho's
    weight on supp sigma is their mean."""
    cos = np.sqrt([cos_sq, cos_sq if cos_sq_2 is None else cos_sq_2])
    v = np.zeros((2, 4))
    v[[0, 1], [0, 1]], v[[0, 1], [2, 3]] = cos, np.sqrt(1.0 - cos * cos)
    return v.T @ v / 2.0, np.diag([0.5, 0.5, 0.0, 0.0])


@pytest.fixture
def example1_quarter():
    from alphaz.states import example1_pair

    return example1_pair(0.25)
