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


def _bareiss_rank(rows):
    """Rank of an integer matrix, given as nested lists, by fraction-free
    (Bareiss) elimination over the integers: the oracle for exact rank."""
    m = [list(r) for r in rows]
    n_rows = len(m)
    n_cols = len(m[0]) if n_rows else 0
    rank_ = 0
    prev = 1
    row = 0
    for col in range(n_cols):
        piv = None
        for r in range(row, n_rows):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != row:
            m[row], m[piv] = m[piv], m[row]
        p = m[row][col]
        for r in range(row + 1, n_rows):
            mr = m[r]
            f = mr[col]
            if f == 0 and p == prev:
                continue
            top = m[row]
            for c in range(col + 1, n_cols):
                mr[c] = (p * mr[c] - f * top[c]) // prev
            mr[col] = 0
        prev = p
        row += 1
        rank_ += 1
        if row == n_rows:
            break
    return rank_
