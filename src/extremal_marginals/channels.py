"""Kraus-family algebra.

A completely positive map Phi(X) = sum_i K_i X K_i^dagger is carried as the
ordered list of its Kraus operators. The two marginals are

    rho1 = (sum_i K_i^dagger K_i)^T        (input side)
    rho2 =  sum_i K_i K_i^dagger           (output side)

and the Choi matrix is C = sum_{r,s} E_rs (x) Phi(E_rs), so that
tr_2 C = rho1 and tr_1 C = rho2 exactly.

A family may additionally carry ``exact_ops``: a rational-entry version of
the operators equal to ``ops`` up to one positive scalar. Rank computations
are invariant under that scalar, which is what makes exact certificates
possible for families whose normalization constant is irrational.

:class:`KrausFamily` stores its operators once, as one read-only
C-ordered (r, d_out, d_in) array, and every layer reads that array as it
is: the marginals, the Choi matrix and vectorizations, the block span and
Gram, the partial-transposed Choi matrix and the reductions are stacked
products, with no per-call ``np.stack`` and no loop over operators.
It is also the one place that picks the arithmetic: the stack is float64
when every operator is real and complex128 otherwise, and every product
built from it follows that dtype. It decides the exact integer form once
too, in the pass that certifies the exact entries: ``KrausFamily.integer_ops``
stacks the exact operators scaled to integers, and the exact span and Choi
rank read that stack instead of converting the exact entries on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .linalg import (
    HERMITIAN_ATOL,
    RankResult,
    integer_entries,
    matrix_from_json,
    matrix_to_json,
    rank,
)

__all__ = [
    "KrausFamily",
    "MarginalPair",
    "adjoint",
    "apply",
    "choi",
    "choi_rank",
    "exact_marginals",
    "family_from_json",
    "family_to_json",
    "is_minimal",
    "marginals",
    "random_family",
    "tensor",
]


@dataclass(frozen=True)
class MarginalPair:
    """The pair (rho1, rho2) of marginals a family reproduces."""

    rho1: np.ndarray
    rho2: np.ndarray


@dataclass(frozen=True)
class KrausFamily:
    """Ordered Kraus operators of shape d_out x d_in, immutable after construction.

    ``ops`` may be given as any sequence of 2-D operators or as one 3-D
    array; it is stored as one read-only, C-ordered (r, d_out, d_in) array,
    a copy that never shares memory with what the caller gave, so
    ``f.ops[i]``, iteration and ``len`` still see the operators one by one.
    The shapes are checked first, and then the operators are converted
    once: to float64 when every one has a real dtype, else to complex128,
    kept as float64 when no entry has an imaginary part. This is the only
    place that decides between real and complex arithmetic.

    ``exact_ops``, when present, holds integer/Fraction operators proportional
    to ``ops`` by a single positive scalar; the constructor verifies the
    proportionality so the rational form is certified, not assumed. One
    pass of :func:`linalg.integer_entries` over the exact entries checks
    their types and gives both the entries as Python ints and Fractions of
    Python ints (``exact_ops`` stays a tuple of 2-D object arrays) and
    ``integer_ops``, the read-only (r, d_out, d_in) stack of the exact
    operators times the lcm of all their denominators, int64 when every
    entry fits and Python ints otherwise, or None without ``exact_ops``.
    One positive scalar on every operator keeps every rank, so exact ranks
    read that stack as it is. An operator given in ``ops`` as the very
    array given in ``exact_ops`` is that exact operator as floats: the
    stack divided by the lcm, or ``float`` of each entry past 2^53.
    """

    d_in: int
    d_out: int
    ops: np.ndarray
    exact_ops: tuple[np.ndarray, ...] | None = None
    integer_ops: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.d_in < 1 or self.d_out < 1:
            raise ValueError("dimensions must be positive")
        if len(self.ops) == 0:
            raise ValueError("a Kraus family needs at least one operator")
        shape = (self.d_out, self.d_in)
        exact, floats = None, {}
        if self.exact_ops is not None:
            if len(self.exact_ops) != len(self.ops):
                raise ValueError("exact_ops must match ops one to one")
            if any(np.shape(e) != shape for e in self.exact_ops):
                raise ValueError("exact operator shape mismatch")
            stack = np.array(self.exact_ops, dtype=object)
            integer, exact, lcm = integer_entries(stack, rationals=True)
            integer, exact = integer.reshape(stack.shape), exact.reshape(stack.shape)
            # int64 -> float rounds to nearest as float(int) does, and n / lcm of
            # two exactly held floats is rounded once, as float(Fraction) is
            if integer.dtype == np.int64 and (
                lcm == 1 or max(lcm, int(integer.max()), -int(integer.min())) < 2**53
            ):
                exact_floats = integer / lcm
            else:
                exact_floats = exact.astype(float)
            floats = {id(given): e for given, e in zip(self.exact_ops, exact_floats)}
        if isinstance(self.ops, np.ndarray) and self.ops.ndim == 3:
            raw, shapes, kinds = self.ops, [self.ops.shape[1:]], {self.ops.dtype.kind}
        else:
            raw = [np.asarray(floats.get(id(k), k)) for k in self.ops]
            shapes, kinds = [k.shape for k in raw], {k.dtype.kind for k in raw}
        for s in shapes:
            if s != shape:
                raise ValueError(
                    f"operator shape {s} does not match d_out x d_in = ({self.d_out}, {self.d_in})"
                )
        if kinds <= set("biuf"):
            ops = np.array(raw, dtype=float, order="C")
        else:
            ops = np.array(raw, dtype=complex, order="C")
            if not ops.imag.any():
                ops = np.ascontiguousarray(ops.real)
        if not np.isfinite(ops).all():
            raise ValueError("operator entries must be finite (no NaN or inf)")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        if exact is not None:
            _check_proportional(ops, exact_floats)
            exact.setflags(write=False)
            integer.setflags(write=False)
            object.__setattr__(self, "exact_ops", tuple(exact))
            object.__setattr__(self, "integer_ops", integer)

    @property
    def r(self) -> int:
        """Number of Kraus operators."""
        return len(self.ops)

    @property
    def hermitian_kraus(self) -> bool:
        """True iff d_in = d_out and every operator is Hermitian within 1e-12."""
        if self.d_in != self.d_out:
            return False
        return float(np.abs(self.ops - _dagger(self.ops)).max()) <= HERMITIAN_ATOL

    def is_normalized(self, atol: float = HERMITIAN_ATOL) -> bool:
        """True iff tr(sum_i K_i^dagger K_i) = 1 within atol."""
        return abs(float(np.vdot(self.ops, self.ops).real) - 1.0) <= atol


def _dagger(k: np.ndarray) -> np.ndarray:
    """K_i^dagger for every operator of an (r, d_out, d_in) stack; a view of
    a real stack, whose ``conj`` is the stack itself."""
    return k.conj().transpose(0, 2, 1)


def _check_proportional(ops: np.ndarray, floats: np.ndarray) -> None:
    """``ops`` (r, d_out, d_in) equals a positive multiple of ``floats``, the
    exact operators as floats, up to rounding."""
    num = float(np.vdot(ops, ops).real)
    den = float(np.vdot(floats, floats))
    if den == 0.0:
        if num > 1e-24:
            raise ValueError("exact_ops are all zero but ops are not")
        return
    scale = np.sqrt(num / den)
    worst = float(np.abs(ops - scale * floats).max())
    bound = 1e-12 * max(1.0, scale * float(np.abs(floats).max()))
    if worst > bound:
        raise ValueError(
            f"exact_ops are not proportional to ops (deviation {worst:.3e} at scale {scale:.6g})"
        )


def apply(f: KrausFamily, x: np.ndarray) -> np.ndarray:
    """Evaluate the map: sum_i K_i X K_i^dagger."""
    a = np.asarray(x, dtype=complex)
    if a.shape != (f.d_in, f.d_in):
        raise ValueError(f"input must be {f.d_in} x {f.d_in}, got {a.shape}")
    out = np.zeros((f.d_out, f.d_out), dtype=complex)
    for k in f.ops:
        out += k @ a @ k.conj().T
    return out


def marginals(f: KrausFamily) -> MarginalPair:
    """Both marginals, one product per side.

    With M the operators stacked on top of each other, (r d_out) x d_in,
    sum_i K_i^dagger K_i = M^dagger M; with L the operators side by side,
    d_out x (r d_in), sum_i K_i K_i^dagger = L L^dagger.
    """
    k = f.ops
    m = k.reshape(f.r * f.d_out, f.d_in)
    side = k.transpose(1, 0, 2).reshape(f.d_out, f.r * f.d_in)
    return MarginalPair(rho1=(m.conj().T @ m).T, rho2=side @ side.conj().T)


def exact_marginals(f: KrausFamily) -> tuple[np.ndarray, np.ndarray]:
    """Marginals of a normalized family in exact rational arithmetic.

    Uses the certified rational operators; the normalization scalar cancels
    because for a trace-one family it equals 1/sqrt(tr sum E_i^dagger E_i).
    """
    if f.exact_ops is None:
        raise ValueError("family carries no certified rational operators")
    if not f.is_normalized(atol=1e-9):
        raise ValueError("exact marginals are defined for normalized families only")
    s1 = sum(np.conjugate(e).T @ e for e in f.exact_ops)
    s2 = sum(e @ np.conjugate(e).T for e in f.exact_ops)
    t = Fraction(np.trace(s1))
    if t == 0:
        raise ValueError("zero family has no normalized marginals")
    return s1.T / t, s2 / t


def _vecs(k: np.ndarray) -> np.ndarray:
    """Row i is vec K_i for the (r, d_out, d_in) stack ``k``: column-stacking
    is row-major flattening of K_i^T, so all r rows are one copy of the
    stack with its last two axes swapped."""
    return k.transpose(0, 2, 1).reshape(len(k), -1)


def choi(f: KrausFamily) -> np.ndarray:
    """Choi matrix C = sum_{r,s} E_rs (x) Phi(E_rs) = sum_i |vec K_i><vec K_i|.

    The sum is one product V^T conj(V), where row i of V is vec K_i, in the
    operators' own real or complex arithmetic.
    """
    v = _vecs(f.ops)
    return v.T @ v.conj()


def choi_rank(f: KrausFamily, tol: float | None = None) -> RankResult:
    """Rank of the Choi matrix, i.e. the span dimension of the vectorized operators.

    Computed from the stacked vectorizations: exactly from the family's
    integer stack when it carries certified rational operators, and
    otherwise by an SVD in the operators' own real or complex arithmetic.
    """
    if f.integer_ops is not None:
        return rank(_vecs(f.integer_ops), mode="exact")
    return rank(_vecs(f.ops), mode="numerical", tol=tol)


def is_minimal(f: KrausFamily) -> bool:
    """True iff the vectorized operators are linearly independent (r = Choi rank)."""
    return choi_rank(f).rank == f.r


def adjoint(f: KrausFamily) -> KrausFamily:
    """The adjoint map Phi*(X) = sum_i K_i^dagger X K_i; the exact operators
    are rational, so their adjoints are their transposes."""
    exact = None if f.exact_ops is None else tuple(e.T for e in f.exact_ops)
    return KrausFamily(d_in=f.d_out, d_out=f.d_in, ops=_dagger(f.ops), exact_ops=exact)


def tensor(f: KrausFamily, g: KrausFamily) -> KrausFamily:
    """Tensor product with operators K_i (x) G_j in lexicographic (i, j) order,
    all r_f r_g of them from one broadcast product of the two stacks."""
    if not f.is_normalized() or not g.is_normalized():
        raise ValueError("tensor requires normalized families")
    exact = None
    if f.exact_ops is not None and g.exact_ops is not None:
        exact = _kron_stack(np.stack(f.exact_ops), np.stack(g.exact_ops))
    return KrausFamily(
        d_in=f.d_in * g.d_in,
        d_out=f.d_out * g.d_out,
        ops=_kron_stack(f.ops, g.ops),
        exact_ops=exact,
    )


def _kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a[i], b[j]) for every pair in lexicographic (i, j) order, as one
    broadcast product: entry (i r_b + j, s m + t, u n + v) is a[i, s, u] b[j, t, v],
    one multiplication each, as in np.kron."""
    (ra, p, q), (rb, m, n) = a.shape, b.shape
    prod = a[:, None, :, None, :, None] * b[None, :, None, :, None, :]
    return prod.reshape(ra * rb, p * m, q * n)


def random_family(rng: np.random.Generator, d_in: int, d_out: int, r: int) -> KrausFamily:
    """Random normalized family with complex Gaussian operators, drawn as
    one (r, 2, d_out, d_in) array: operator i is ``z[i, 0] + 1j * z[i, 1]``,
    the stream order of a real and an imaginary draw per operator."""
    z = rng.standard_normal((r, 2, d_out, d_in))
    ops = z[:, 0] + 1j * z[:, 1]
    total = sum(float(np.vdot(k, k).real) for k in ops)
    return KrausFamily(d_in=d_in, d_out=d_out, ops=ops / np.sqrt(total))


def family_to_json(f: KrausFamily) -> dict:
    return {
        "d_in": f.d_in,
        "d_out": f.d_out,
        "ops": [matrix_to_json(k) for k in f.ops],
        "hermitian_kraus": f.hermitian_kraus,
    }


def family_from_json(obj: dict) -> KrausFamily:
    try:
        d_in, d_out, ops = int(obj["d_in"]), int(obj["d_out"]), obj["ops"]
    except (KeyError, TypeError) as exc:
        raise ValueError("family JSON needs 'd_in', 'd_out' and 'ops'") from exc
    mats = tuple(matrix_from_json(m) for m in ops)
    if mats and all(m.dtype == object for m in mats):
        return KrausFamily(d_in=d_in, d_out=d_out, ops=mats, exact_ops=mats)
    floats = tuple(m.astype(float) if m.dtype == object else m for m in mats)
    return KrausFamily(d_in=d_in, d_out=d_out, ops=floats)
