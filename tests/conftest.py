import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = z @ z.conj().T
    return rho / np.trace(rho).real


def reorder_subsystems(c, dims, perm):
    """Permute the tensor factors of a square matrix on prod(dims) dims."""
    n = len(dims)
    t = np.asarray(c).reshape(list(dims) + list(dims))
    axes = list(perm) + [p + n for p in perm]
    side = int(np.prod(dims))
    return t.transpose(axes).reshape(side, side)


def same_bits(a, b):
    """Same dtype, shape and bytes: equality that also tells -0.0 from 0.0."""
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
