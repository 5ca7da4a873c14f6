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
exact mode the integer rows, less the one column the trace identity makes
redundant, go to the full-rank certificates of :func:`linalg.rank` (a
verified Cholesky factorisation of each block's exact integer Gram, else
mod p), so a family of rank D - 1 is certified and Bareiss only confirms a
deficiency beyond the identity. In numerical mode the full span is
ranked: a span of at least ``linalg._CERTIFY_MIN_ENTRIES`` entries whose
blocks the verified Cholesky factorisation of their shifted float Grams
certifies, with a margin of BORDERLINE_GAP_RATIO over the threshold, is
proven to have rank r^2 (the irrational built-ins from rank8-66 up,
rank8-66 and ohno-d 8 as one block). That test squares the conditioning,
so a p x q block with sigma_min below sqrt(4(p + q + 4) u) ||block||_F,
u = 2^-53 (1e-7 to 1e-6 here), is not certified; such a span and every
other one go to the SVD, which sees the span's own singular values, whose
squares are the Gram's, so there the conditioning is not squared.

A span whose smaller side is at most ``linalg._WHOLE_MAX_SIDE`` (120) is
built densely by two stacked matmuls, and :func:`linalg.rank` offers it to
the certificate whole before any split: among the built-ins, the float
spans of rank8-66 and ohno-d 8 and the exact span of paper 4 4.
Above that side the span of a sparse family (:func:`linalg.coo_is_cheaper`)
is built as a :class:`linalg.Coo` from products of the operators' nonzero
entries that share an output row (for K_i^dagger K_j) or an input column
(for K_j K_i^dagger), and only its independent blocks are ever dense; any
other span is built densely. Both give the same matrix, exactly in integer
arithmetic and up to the order of float additions.
The conjugate Gram

    G[(i,j),(k,l)] = tr((K_i^dagger K_j)^dagger (K_k^dagger K_l))
                   + tr((K_j K_i^dagger)^dagger (K_l K_k^dagger))

has the same rank as the span and is kept as :func:`block_gram`, an oracle
for the tests and for the span-rank checks of the CLI's ``proptest``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import KrausFamily, MarginalPair, marginals
from .linalg import (
    _WHOLE_MAX_SIDE,
    BORDERLINE_GAP_RATIO,
    Coo,
    RankResult,
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
    a numerical rank certified by ``cholesky`` never is: its certified
    bound clears the threshold tenfold by construction;
    ``valid_marginals`` is False when the computed marginals miss the
    declared targets, which does not change the extremality verdict (the
    span test is marginal-independent). The residual is compared with
    ``MARGINAL_ATOL`` times the Choi trace sum_i ||K_i||_F^2, which is 1 for
    a normalized family, so the check does not change with the overall scale
    of the operators and targets.
    """

    r: int
    gram_size: int
    gram_rank: RankResult
    extremal: bool
    marginal_residual: float
    mode: str
    borderline: bool
    valid_marginals: bool

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


def _sparse_block_vectors(k: np.ndarray, first: int) -> Coo:
    """The rows of :func:`_block_vectors` for the stacked operators ``k``, less
    the first ``first`` columns, built from the operators' nonzero entries.

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
    if first:
        keep = cols >= first
        rows, cols, vals = rows[keep], cols[keep] - first, vals[keep]
    return Coo.from_terms(rows, cols, vals, (r * r, d_in * d_in + d_out * d_out - first))


def _span(f: KrausFamily, exact: bool) -> np.ndarray | Coo:
    """The r^2 block vectors as rows, exact or in the operators' own dtype.

    Exact: from the family's ``integer_ops``, the exact operators scaled to
    integers by the lcm of all their denominators once, at construction,
    which multiplies every row by one scalar and so keeps every rank; the
    rows are int64 when the product bound allows and Python ints otherwise.
    Column 0, the (0, 0) entry of K_i^dagger K_j, is dropped: by the trace
    identity tr K_i^dagger K_j = tr K_j K_i^dagger it equals the sum of the
    diagonal columns of K_j K_i^dagger minus the other diagonal columns of
    K_i^dagger K_j, in every row and after any row scaling, so the column
    space and every rank are unchanged. Dropping it
    lets a family with r^2 >= d_in^2 + d_out^2 and rank
    d_in^2 + d_out^2 - 1 be certified without Bareiss.
    Numerical: the full span, float64 for a real family and complex128
    otherwise, as the family stores its operators.
    The span is a :class:`linalg.Coo` when its smaller side exceeds
    ``linalg._WHOLE_MAX_SIDE``, under which rank takes it whole and dense,
    and the products of nonzero entries that build it are few for its size
    (:func:`linalg.coo_is_cheaper`, on the dtype of the operators it
    multiplies); else it is a dense array. Integer products cross over
    earlier than float ones, so the exact spans of the shift family from
    ``paper 5 6`` up are built sparse while their float spans up to
    ``paper 6 8`` are dense; the spans of rank8-66, ohno-d 8 and
    ``paper 4 4``, whose smaller side is 64, are dense.
    """
    if exact:
        k = f.integer_ops
        if k is None:
            raise ValueError("family carries no certified rational operators")
        if k.dtype == np.int64:
            big = max(int(k.max()), -int(k.min()))
            if big * big * max(f.d_in, f.d_out) >= _INT64_PRODUCT_LIMIT:
                k = k.astype(object)
    else:
        k = f.ops
    first = 1 if exact else 0
    shape = (f.r * f.r, f.d_in * f.d_in + f.d_out * f.d_out)
    if min(shape) > _WHOLE_MAX_SIDE and coo_is_cheaper(shape, lambda: _span_terms(k != 0), k.dtype):
        return _sparse_block_vectors(k, first)
    return _block_vectors(k)[:, first:]


def _span_terms(nonzero: np.ndarray) -> int:
    """Products :func:`_sparse_block_vectors` sums for this (r, d_out, d_in)
    nonzero pattern: a pair of entries per output row and per input column."""
    return int((nonzero.sum(axis=(0, 2)) ** 2).sum() + (nonzero.sum(axis=(0, 1)) ** 2).sum())


def _is_borderline(rr: RankResult, tol: float | None) -> bool:
    if rr.mode != "numerical":
        return False
    if rr.rank > 0 and rr.threshold:
        if rr.smallest_kept_singular_value / rr.threshold < BORDERLINE_GAP_RATIO:
            return True
    # Below the default threshold, max(rows, cols) * eps * sigma_max, a
    # singular value is rounding noise of the SVD, so only a caller's tol can
    # sit just above a real one. On a span with a few rows that noise is
    # within 10x of the default threshold.
    if tol is not None and rr.largest_discarded_singular_value and rr.threshold:
        if rr.threshold / rr.largest_discarded_singular_value < BORDERLINE_GAP_RATIO:
            return True
    return False


def is_extremal(
    f: KrausFamily,
    targets: MarginalPair | None = None,
    mode: str | None = None,
    tol: float | None = None,
) -> ExtremalityCertificate:
    """Rank the r^2 block vectors and assemble a certificate.

    ``mode`` forces 'exact' or 'numerical'; by default the exact path is used
    whenever the family is certified rational. The exact path ranks the
    integer span without the column that the trace identity
    tr K_i^dagger K_j = tr K_j K_i^dagger writes through the others, which
    keeps the rank, so a family of rank d_in^2 + d_out^2 - 1 gets a full-rank
    certificate; numerical mode ranks the full span. A sparse family's span
    is built from its operators' nonzero entries and ranked block by block
    without a dense copy of the whole span. In numerical mode ``tol``
    thresholds the singular values of the span itself (the square roots of
    the block Gram's). When ``targets`` is given the computed marginals are
    checked against it, relative to the Choi trace, and the residual recorded.
    """
    if mode not in (None, "exact", "numerical"):
        raise ValueError("mode must be None, 'exact' or 'numerical'")
    use_exact = f.exact_ops is not None if mode is None else mode == "exact"
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
        gram_size=f.r * f.r,
        gram_rank=rr,
        extremal=rr.rank == f.r * f.r,
        marginal_residual=residual,
        mode=rr.mode,
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
