import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from extremal_marginals import KrausFamily
from extremal_marginals.linalg import _bipartite_view, _to_fraction


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


def rebuilt(f):
    """The family with ``f``'s operators and no factors, which every layer
    treats as it treats any family that :func:`tensor` did not build."""
    return KrausFamily(d_in=f.d_in, d_out=f.d_out, ops=f.ops, exact_ops=f.exact_ops)


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


# Independent oracles for the tests: the map itself, direct sums,
# vectorization, partial traces and exact matrices from nested data. No
# library path needs them.


def apply(f, x):
    """Evaluate the map: sum_i K_i X K_i^dagger."""
    a = np.asarray(x, dtype=complex)
    if a.shape != (f.d_in, f.d_in):
        raise ValueError(f"input must be {f.d_in} x {f.d_in}, got {a.shape}")
    out = np.zeros((f.d_out, f.d_out), dtype=complex)
    for k in f.ops:
        out += k @ a @ k.conj().T
    return out


def vec(m):
    """Column-stacking vectorization of a matrix: vec(M)[c * rows + r] = M[r, c]."""
    return np.asarray(m).reshape(-1, order="F")


def direct_sum(a, b):
    """Block-diagonal direct sum a (+) b."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out


def partial_trace(m, d1, d2, sub):
    """Trace out the named subsystem of a matrix on a d1 (x) d2 space:
    ``sub="first"`` gives the d2 x d2 reduction, ``sub="second"`` the d1 x d1
    one, and the full trace is kept."""
    t = _bipartite_view(m, d1, d2)
    if sub == "second":
        return np.einsum("iaja->ij", t)
    if sub == "first":
        return np.einsum("aiaj->ij", t)
    raise ValueError("sub must be 'first' or 'second'")


def rational_matrix(rows):
    """An exact matrix (object array of Fraction) from nested int, Fraction
    and "p/q" string entries."""
    data = [[_to_fraction(x) for x in row] for row in rows]
    if not data or not data[0]:
        raise ValueError("rational matrix needs at least one row and column")
    ncols = len(data[0])
    if any(len(row) != ncols for row in data):
        raise ValueError("rows have inconsistent lengths")
    out = np.empty((len(data), ncols), dtype=object)
    for i, row in enumerate(data):
        for j, x in enumerate(row):
            out[i, j] = x
    return out
