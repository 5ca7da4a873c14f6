"""Extremality certificates via the block vectors, and the rank bound.

A family {K_i} of r operators is an extreme point of the set of completely
positive maps with its marginals if and only if the r^2 block matrices
diag(K_i^dagger K_j, K_j K_i^dagger) are linearly independent. Each block is
flattened to a row of length d_in^2 + d_out^2, row (i-1)r + j, and the
family is extremal iff this r^2-row span matrix has rank r^2.

Every block satisfies the trace identity tr K_i^dagger K_j = tr K_j K_i^dagger
(Choi 1975; Landau-Streater 1993), so the span is orthogonal to
(vec I_{d_in}, -vec I_{d_out}) and its rank is at most D - 1, with
D = d_in^2 + d_out^2; this is the -1 of :func:`parthasarathy_bound`.

The span is built in the arithmetic :class:`channels.KrausFamily` picked
for the operators, the one place that decides between real and complex:
real float64 rows for a real family, complex rows otherwise, and integer
rows from the exact operators in exact mode.

The span itself goes to :func:`linalg.rank`, never the conjugate Gram
below; only the rank certificates form the Grams of the span's blocks. In
both modes the span is ranked less the one column the trace identity makes
redundant, so the numerical span is the exact span in floating point, up to
one positive scalar, and a family of rank D - 1 has a span of full column
rank. Both modes offer it to the same full-rank certificate of
:func:`linalg.rank`, a verified Cholesky factorisation of each block's
Gram less a rounding shift: the exact integer Gram in exact mode (else mod
2^31 - 1, and a deficiency beyond the identity is proven by further primes
below it, as many as the Hadamard bound on the span's minors asks for),
the float Gram in numerical mode, where a certificate counts only with a
margin of BORDERLINE_GAP_RATIO over the threshold. That test squares the
conditioning, so a p x q block with sigma_min below sqrt(4(p + q + 4) u)
||block||_F, u = 2^-53 (1e-7 to 1e-6 here), is not certified; such a span,
and every deficient one, goes to the SVD, which sees the span's own
singular values, so there the conditioning is not squared. Every built-in
span is certified.

A family that :func:`channels.tensor` built as f (x) g is offered first to
a certificate from its factors (:func:`_kronecker`). Write P for the rows
vec(K_i^dagger K_j) of a span and Q for the rows vec(K_j K_i^dagger). Up
to permutations of rows and columns the span of f (x) g is [P_f (x) P_g,
Q_f (x) Q_g], so it has full row rank r^2 when P_f and Q_f have full row
rank r_f^2 and g's full span [P_g, Q_g] has full row rank r_g^2, checked
from g's own factors when it has them. Exactly, that is the exact ranks of
those factor matrices. Numerically, lifted Gram certificates of them give
a lower bound on the span's sigma_min, less the rounding of the stored
operators and over the column dropped, which must clear the threshold
tenfold. For rank8k 4 that is five Grams of side at most 16 and no
1024 x 1151 span. When the rule does not apply (a factor's P or Q part
deficient, g not extremal, or a bound that misses the margin), the span is
built and ranked as for any other family; so is a family rebuilt from a
tensor's ``ops``, which has no factors. The certificate changes no verdict.

The span is built densely by two stacked matmuls, or, where
:func:`linalg.coo_is_cheaper` says so, as a :class:`linalg.Coo` from
products of the operators' nonzero entries that share an output row (for
K_i^dagger K_j) or an input column (for K_j K_i^dagger), so that only its
independent blocks are ever dense. Both give the same matrix, exactly in
integer arithmetic and up to the order of float additions.
The conjugate Gram

    G[(i,j),(k,l)] = tr((K_i^dagger K_j)^dagger (K_k^dagger K_l))
                   + tr((K_j K_i^dagger)^dagger (K_l K_k^dagger))

has the same rank as the span and is kept as :func:`block_gram`, an oracle
for the tests and for the span-rank checks of the CLI's ``proptest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channels import KrausFamily, MarginalPair, marginals
from .linalg import (
    BORDERLINE_GAP_RATIO,
    Coo,
    RankResult,
    _gram_certifies,
    coo_is_cheaper,
    group_pairs,
    rank,
)

__all__ = [
    "BORDERLINE_GAP_RATIO",
    "MARGINAL_ATOL",
    "ExtremalityCertificate",
    "block_gram",
    "bound_attained",
    "is_extremal",
    "parthasarathy_bound",
]

MARGINAL_ATOL = 1e-9
# Integer block vectors are built in int64 while max|e|^2 * max(d_in, d_out),
# a bound on every entry of K_i^dagger K_j and K_j K_i^dagger, stays below this.
_INT64_PRODUCT_LIMIT = 2**62


@dataclass(frozen=True)
class ExtremalityCertificate:
    """Verdict record for the block-vector extremality test.

    ``extremal`` holds exactly when the span rank reaches r^2. The rank is
    kept under the ``gram_rank``/``gram_size`` names because it equals the
    rank of the block Gram. A certificate is ``borderline`` when the
    numerical singular-value gap around the rank threshold is thinner than a
    factor of 10 (on the discarded side only for a caller-set ``tol``, since
    under the default threshold a discarded value is rounding noise), which
    a numerical rank certified by ``cholesky`` or ``kronecker`` never is:
    its certified bound clears the threshold tenfold by construction;
    ``valid_marginals`` is False when the computed marginals miss the
    declared targets, which does not change the extremality verdict (the
    span test is marginal-independent). The residual is compared with
    ``MARGINAL_ATOL`` times the Choi trace sum_i ||K_i||_F^2, which is 1 for
    a normalized family, so the check does not change with the overall scale
    of the operators and targets.
    """

    r: int
    gram_rank: RankResult
    marginal_residual: float
    borderline: bool
    valid_marginals: bool

    @property
    def gram_size(self) -> int:
        """r^2, the number of block vectors."""
        return self.r * self.r

    @property
    def extremal(self) -> bool:
        """Whether the span rank reaches r^2."""
        return self.gram_rank.rank == self.gram_size

    @property
    def mode(self) -> str:
        """The mode of the span rank, 'exact' or 'numerical'."""
        return self.gram_rank.mode

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "gram_size": self.gram_size,
            "gram_rank": self.gram_rank.to_json(),
            "extremal": self.extremal,
            "mode": self.mode,
            "gap": self.gram_rank.gap_ratio,
            "marginal_residual": self.marginal_residual,
            "borderline": self.borderline,
            "valid_marginals": self.valid_marginals,
        }


def block_gram(f: KrausFamily) -> np.ndarray:
    """The r^2 x r^2 Gram matrix of the blocks diag(K_i^dagger K_j, K_j K_i^dagger).

    A family that carries certified rational operators gets the exact Gram
    of those unscaled operators, whose rank equals the rank of the scaled
    Gram; any other family gets the floating-point Gram, made Hermitian.
    """
    if f.exact_ops is not None:
        x = _block_vectors(np.stack(f.exact_ops))
        return np.conjugate(x) @ x.T
    x = _block_vectors(f.ops)
    g = np.conjugate(x) @ x.T
    return (g + g.conj().T) / 2


def _block_vectors(k: np.ndarray) -> np.ndarray:
    """Row i*r + j is K_i^dagger K_j followed by K_j K_i^dagger, each flattened
    row-major, for the (r, d_out, d_in) stack ``k`` in its dtype; all r^2
    products come from two stacked matmuls."""
    r = k.shape[0]
    adj = k.conj().transpose(0, 2, 1)
    p = adj[:, None] @ k[None, :]
    q = k[None, :] @ adj[:, None]
    return np.concatenate([p.reshape(r * r, -1), q.reshape(r * r, -1)], axis=1)


def _sparse_block_vectors(k: np.ndarray) -> Coo:
    """The rows of :func:`_block_vectors` for the stacked operators ``k``, less
    column 0, built from the operators' nonzero entries.

    Entry (c, s) of K_i and entry (c, t) of K_j, which share output row c,
    give the term conj(K_i[c, s]) K_j[c, t] of (K_i^dagger K_j)[s, t];
    entry (s, c) of K_j and entry (t, c) of K_i, which share input column c,
    give the term K_j[s, c] conj(K_i[t, c]) of (K_j K_i^dagger)[s, t].
    """
    r, d_out, d_in = k.shape
    flat = k.reshape(-1)
    at = np.flatnonzero(flat)
    x = flat[at]
    op, row, col = np.unravel_index(at, k.shape)
    xc = np.conjugate(x)
    pi, pj = group_pairs(row)
    qi, qj = group_pairs(col)
    rows = np.concatenate([op[pi] * r + op[pj], op[qi] * r + op[qj]])
    cols = np.concatenate([col[pi] * d_in + col[pj], d_in * d_in + row[qj] * d_out + row[qi]])
    vals = np.concatenate([xc[pi] * x[pj], x[qj] * xc[qi]])
    keep = cols > 0
    shape = (r * r, d_in * d_in + d_out * d_out - 1)
    return Coo.from_terms(rows[keep], cols[keep] - 1, vals[keep], shape)


def _span(f: KrausFamily, exact: bool) -> np.ndarray | Coo:
    """The r^2 block vectors as rows less column 0, exact or in the
    operators' own dtype.

    Column 0, the (0, 0) entry of K_i^dagger K_j, is dropped in both modes:
    by the trace identity tr K_i^dagger K_j = tr K_j K_i^dagger it equals
    the sum of the diagonal columns of K_j K_i^dagger minus the other
    diagonal columns of K_i^dagger K_j, in every row and after any row
    scaling, so the column space and every rank are unchanged. Dropping it
    lets a family with r^2 >= d_in^2 + d_out^2 and rank
    d_in^2 + d_out^2 - 1 have a span of full column rank, which the
    certificate of :func:`linalg.rank` can prove.
    Exact: from the family's ``integer_ops``, the exact operators scaled to
    integers by the lcm of all their denominators once, at construction,
    which multiplies every row by one scalar and so keeps every rank; the
    rows are int64 when the product bound allows and Python ints otherwise.
    Numerical: float64 for a real family and complex128 otherwise, as the
    family stores its operators; for a rational family, the exact span
    times one positive scalar, in floats.
    The span is a :class:`linalg.Coo` where :func:`linalg.coo_is_cheaper`
    finds the products of nonzero entries that build it few for its shape,
    and a dense array otherwise.
    """
    k = _operators(f, exact)
    shape = (f.r * f.r, f.d_in * f.d_in + f.d_out * f.d_out)
    if coo_is_cheaper(shape, lambda: _span_terms(k != 0)):
        return _sparse_block_vectors(k)
    return _block_vectors(k)[:, 1:]


def _operators(f: KrausFamily, exact: bool) -> np.ndarray:
    """The (r, d_out, d_in) stack whose block vectors are the span of ``f``:
    ``integer_ops`` exactly, as Python ints where a product of two entries
    summed max(d_in, d_out) times could pass int64, and ``ops`` otherwise."""
    if not exact:
        return f.ops
    k = f.integer_ops
    if k is None:
        raise ValueError("family carries no certified rational operators")
    if k.dtype == np.int64:
        big = max(int(k.max()), -int(k.min()))
        if big * big * max(f.d_in, f.d_out) >= _INT64_PRODUCT_LIMIT:
            k = k.astype(object)
    return k


def _span_terms(nonzero: np.ndarray) -> int:
    """Products :func:`_sparse_block_vectors` sums for this (r, d_out, d_in)
    nonzero pattern: a pair of entries per output row and per input column."""
    return int((nonzero.sum(axis=(0, 2)) ** 2).sum() + (nonzero.sum(axis=(0, 1)) ** 2).sum())


class _Kron(NamedTuple):
    """What the factors of a tensor family prove of its full-column span
    X = [P, Q], all r^2 block vectors with column 0: in numerical mode
    ``sigma``, a lower bound on sigma_min of X for the exact Kronecker
    product of the leaves' stored operators; ``traces``, the computed
    ||P||_F^2 and ||Q||_F^2; ``t``, the computed sum_i ||K_i||_F^2; and
    ``depth``, the number of rounded products from the leaves to the stored
    operators. ``count`` is the number of factor matrices certified."""

    sigma: float
    traces: tuple[float, float]
    t: float
    depth: int
    count: int


# The factor certificates shift each Gram by this fraction of its computed
# smallest eigenvalue, so that they prove about that fraction of it rather
# than the rounding shift of order u tr G: the product of the factors' bounds
# must clear the whole span's threshold tenfold (rank8k 4: 4.9e-6 against
# 7.8e-14, where unlifted bounds multiply to about 1e-22).
_KRONECKER_LIFT = 0.5


def _gamma(n: int) -> float:
    """gamma_n = n u / (1 - n u), u = 2^-53 (Higham Sec. 3.1)."""
    return n * 2.0**-53 / (1 - n * 2.0**-53)


def _full_row_rank(mats: list[np.ndarray], exact: bool) -> list[tuple[float, float]] | None:
    """For wide matrices, each (a lower bound on its sigma_min, ||M||_F^2)
    when every one has full row rank, else None: exactly by
    :func:`linalg.rank`, with 1.0 and 0.0 standing for the numbers, and
    numerically by the lifted certificate of :func:`linalg._gram_certifies`
    on each matrix as computed, matrices of one shape in one stack, so that
    each shape takes one eigensolve."""
    if any(m.shape[0] > m.shape[1] for m in mats):
        return None
    if exact:
        ok = all(rank(m, mode="exact").rank == m.shape[0] for m in mats)
        return [(1.0, 0.0)] * len(mats) if ok else None
    shapes: dict[tuple[int, int], list[int]] = {}
    for i, m in enumerate(mats):
        shapes.setdefault(m.shape, []).append(i)
    stacks = [np.stack([mats[i] for i in group]) for group in shapes.values()]
    certified = _gram_certifies(stacks, lift=_KRONECKER_LIFT)
    if None in certified:
        return None
    out = [(0.0, 0.0)] * len(mats)
    for group, (bounds, traces) in zip(shapes.values(), certified):
        for i, b, t in zip(group, bounds.tolist(), traces.tolist()):
            out[i] = (math.sqrt(b), t)
    return out


def _kronecker(k: KrausFamily, exact: bool) -> _Kron | None:
    """The certificate of the full-column span of ``k``, a family that
    :func:`channels.tensor` built, from its factors, or None.

    With (f, g) its factors in either order, the operators K = A_i (x) B_a
    give the blocks (A_i^dagger A_j) (x) (B_a^dagger B_b) and
    (A_j A_i^dagger) (x) (B_b B_a^dagger), whose row-major vecs are those of
    the factors' blocks Kronecker-multiplied with the columns permuted. So
    up to a permutation of rows and of columns X_k = [P_f (x) P_g, Q_f (x)
    Q_g], the same permutations in either factor order, and its Gram is
    G_Pf (x) G_Pg + G_Qf (x) G_Qg. A Kronecker product of positive
    semidefinite matrices is positive semidefinite (Horn and Johnson,
    Topics in Matrix Analysis, Sec. 4.2), so with a = min(lambda_min G_Pf,
    lambda_min G_Qf), (G_Pf - a I) (x) G_Pg and (G_Qf - a I) (x) G_Qg are,
    and the Gram is at least a I (x) (G_Pg + G_Qg) = a I (x) G_g: X_k has
    full row rank with sigma_min(X_k) >= sqrt(a) sigma_min(X_g) when P_f and
    Q_f have full row rank r_f^2 and X_g full row rank r_g^2. The order
    (f, g) of :func:`channels.tensor` is tried first, then (g, f).

    P_f and Q_f are built from f's operators as they are stored, a tensor
    family or not. X_g comes from g's own factors when it has them and they
    certify it, else from g's operators. Exactly, each of these matrices is
    ranked from the integer operators. Numerically, each is certified as
    computed by the lifted Gram certificate, and its bound brought to the
    exact matrix of the stored operators by Weyl's inequality: each entry
    of K_i^dagger K_j or K_j K_i^dagger is an inner product of length at
    most m = max(d_in, d_out), within gamma_{m+2} |K_i|^T |K_j| of exact
    (Higham Sec. 3.5-3.6), so P and Q are each within gamma_{m+2} t and X
    within sqrt(2) gamma_{m+2} t in Frobenius norm, t = sum_i ||K_i||_F^2.
    These terms are doubled, which covers t and gamma as computed.
    The traces and t multiply, and the depth grows by one.
    """
    for f, g in (k.factors, k.factors[::-1]):
        if f.r * f.r > min(f.d_in, f.d_out) ** 2:
            continue
        inner = None if g.factors is None else _kronecker(g, exact)
        x = _block_vectors(_operators(f, exact))
        mats = [x[:, : f.d_in**2], x[:, f.d_in**2 :]]
        if inner is None:
            mats.append(_block_vectors(_operators(g, exact)))
        got = _full_row_rank(mats, exact)
        if got is None:
            continue
        if exact:
            return _Kron(1.0, (0.0, 0.0), 0.0, 0, 2 + (1 if inner is None else inner.count))
        t_f = float(np.vdot(f.ops, f.ops).real)
        sigma = min(got[0][0], got[1][0]) - 2 * _gamma(max(f.d_in, f.d_out) + 2) * t_f
        if inner is None:
            t_g = float(np.vdot(g.ops, g.ops).real)
            error = 2 * math.sqrt(2) * _gamma(max(g.d_in, g.d_out) + 2) * t_g
            p = mats[2][:, : g.d_in**2]
            tr_p = float(np.vdot(p, p).real)
            inner = _Kron(got[2][0] - error, (tr_p, got[2][1] - tr_p), t_g, 0, 1)
        if sigma <= 0 or inner.sigma <= 0:
            continue
        (pf, qf), (pg, qg) = (got[0][1], got[1][1]), inner.traces
        return _Kron(sigma * inner.sigma, (pf * pg, qf * qg), t_f * inner.t, inner.depth + 1, 2 + inner.count)
    return None


def _kronecker_rank(f: KrausFamily, exact: bool, tol: float | None) -> RankResult | None:
    """The span rank r^2 of a tensor family, proven from its factors by
    :func:`_kronecker`, or None, and then the span is ranked directly.

    Numerically the bound on the full-column span of the exact Kronecker
    product is brought to the span as :func:`_span` reports it, in two
    steps. Rounding: :func:`channels.tensor` stores fl(A_i (x) B_a), each
    entry one rounded product, so after ``depth`` of them every stored entry
    is within (1 + u)^depth - 1 = e of the exact one, relatively. Each block
    K~_i^dagger K~_j then differs from K_i^dagger K_j by E_i^dagger K_j +
    K_i^dagger E_j + E_i^dagger E_j, of Frobenius norm at most (2e + e^2)
    ||K_i||_F ||K_j||_F, and likewise for K~_j K~_i^dagger; summed over the
    r^2 rows of both parts, the stored span is within (2e + e^2) sqrt(2) t
    <= gamma_{2 depth} sqrt(2) t of the exact one, which Weyl's inequality
    subtracts (doubled, as in :func:`_kronecker`). Column drop: column 0 of
    the full span Z is Z' w for the reported span Z', w with d_in + d_out -
    1 entries of +-1 by the trace identity, so Z = Z' M with M a column
    permutation of [w | I], ||M||_2^2 = 1 + ||w||^2 = d_in + d_out, and
    sigma_min(Z') >= sigma_min(Z) / sqrt(d_in + d_out). Each step is
    monotone in its inputs, so the computed bound is below the derived one
    by at most a relative u per float operation; it is lowered by a
    relative 2^-40 for the few dozen of them.

    The default threshold of :meth:`linalg.RankResult.proven` is taken at
    sigma_max <= ||Z'||_F <= sqrt(||P||_F^2 + ||Q||_F^2), and the bound
    must clear it by BORDERLINE_GAP_RATIO. Exactly, the factor ranks prove
    the rank with no bound. Either way the span has full row rank, so
    nothing is discarded.
    """
    if exact and f.integer_ops is None:
        return None
    kron = _kronecker(f, exact)
    if kron is None:
        return None
    n = f.r * f.r
    rounding = 2 * math.sqrt(2) * _gamma(2 * kron.depth) * kron.t
    bound = (kron.sigma - rounding) / math.sqrt(f.d_in + f.d_out) * (1 - 2.0**-40)
    mode = "exact" if exact else "numerical"
    shape = (n, f.d_in * f.d_in + f.d_out * f.d_out - 1)
    sigma_max = math.sqrt(sum(kron.traces))
    return RankResult.proven(n, mode, "kronecker", kron.count, shape, tol, bound, sigma_max)


def _is_borderline(rr: RankResult, tol: float | None) -> bool:
    if rr.gap_ratio is not None and rr.gap_ratio < BORDERLINE_GAP_RATIO:
        return True
    # Below the default threshold, max(rows, cols) * eps * sigma_max, a
    # singular value is rounding noise of the SVD, so only a caller's tol can
    # sit just above a real one. On a span with a few rows that noise is
    # within 10x of the default threshold.
    discarded = rr.largest_discarded_singular_value
    return bool(tol is not None and discarded and rr.threshold / discarded < BORDERLINE_GAP_RATIO)


def is_extremal(
    f: KrausFamily,
    targets: MarginalPair | None = None,
    mode: str | None = None,
    tol: float | None = None,
) -> ExtremalityCertificate:
    """Rank the r^2 block vectors and assemble a certificate.

    ``mode`` forces 'exact' or 'numerical'; by default the exact path is used
    whenever the family is certified rational. Both modes rank the span
    without the column that the trace identity
    tr K_i^dagger K_j = tr K_j K_i^dagger writes through the others
    (:func:`_span`), which keeps the rank, so a family of rank
    d_in^2 + d_out^2 - 1 can get a full-rank certificate in either mode. A
    sparse family's span is built from its operators' nonzero entries and
    ranked block by block without a dense copy of the whole span. A family
    that :func:`channels.tensor` built has its span rank proven from its
    factors where they allow it, without building the span (engine
    "kronecker", see the module docstring); otherwise, and for every family
    without ``factors``, the span is ranked directly. In numerical mode
    ``tol`` thresholds the singular values of that span, or the certified
    lower bound on them (engines "cholesky" and "kronecker"); exact mode
    takes no ``tol`` and raises ValueError for one. When ``targets``
    is given the computed marginals are checked against it, relative to the
    Choi trace, and the residual recorded; targets whose shapes are not
    (d_in, d_in) and (d_out, d_out) raise ValueError.
    """
    if mode not in (None, "exact", "numerical"):
        raise ValueError("mode must be None, 'exact' or 'numerical'")
    if targets is not None:
        want = ((f.d_in, f.d_in), (f.d_out, f.d_out))
        got = (np.shape(targets.rho1), np.shape(targets.rho2))
        if got != want:
            raise ValueError(f"targets (rho1, rho2) must have shapes {want}, got {got}")
    use_exact = f.exact_ops is not None if mode is None else mode == "exact"
    rr = None if f.factors is None else _kronecker_rank(f, use_exact, tol)
    if rr is None:
        rr = rank(_span(f, use_exact), mode="exact" if use_exact else "numerical", tol=tol)
    residual = trace = 0.0
    if targets is not None:
        mp = marginals(f)
        trace = float(np.trace(mp.rho1).real)
        residual = max(
            float(np.abs(mp.rho1 - np.asarray(targets.rho1, dtype=complex)).max()),
            float(np.abs(mp.rho2 - np.asarray(targets.rho2, dtype=complex)).max()),
        )
    return ExtremalityCertificate(
        r=f.r,
        gram_rank=rr,
        marginal_residual=residual,
        borderline=_is_borderline(rr, tol),
        valid_marginals=residual <= MARGINAL_ATOL * trace,
    )


def parthasarathy_bound(d1: int, d2: int) -> int:
    """floor(sqrt(d1^2 + d2^2 - 1)), the maximal rank of an extreme point."""
    if d1 < 1 or d2 < 1:
        raise ValueError("dimensions must be positive")
    return math.isqrt(d1 * d1 + d2 * d2 - 1)


def bound_attained(d: int, m: int) -> bool:
    """Whether the rank-(d+m) construction on (d, d+m) attains the bound.

    Computed in integer arithmetic and cross-checked against the equivalent
    inequality 2m > d^2 - 2d - 2.
    """
    if d < 2 or m < 1:
        raise ValueError("requires d >= 2 and m >= 1")
    attained = d + m == parthasarathy_bound(d, d + m)
    if attained != (2 * m > d * d - 2 * d - 2):
        raise RuntimeError("bound attainment disagrees with its inequality form")
    return attained
