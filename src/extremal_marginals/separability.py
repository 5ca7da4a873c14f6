"""PPT testing and the rank-based separability verdict for Choi states.

A PPT state of rank at most its larger marginal rank is separable
(Horodecki, Lewenstein, Vidal and Cirac, PRA 62, 032310, 2000); outside
that regime a PPT state stays undetermined and an NPT state is entangled.

PPT is decided relative to the Choi trace sum_i ||K_i||_F^2, so no verdict
depends on the overall scale of the operators. For a sparse family the
partial-transposed Choi matrix is built from products of entry pairs
within each operator, as a :class:`linalg.Coo`, with no dense Choi matrix.
Either way it is real for a real family and complex otherwise, in the
arithmetic :class:`channels.KrausFamily` picked for the operators, the one
place that decides between the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausFamily, choi, choi_rank
from .linalg import (
    HERMITIAN_ATOL,
    Coo,
    coo_is_cheaper,
    group_pairs,
    min_eigenvalue,
    partial_transpose,
    rank,
)

__all__ = ["PPT_ATOL", "SeparabilityVerdict", "ppt", "separability_verdict"]

PPT_ATOL = 1e-10


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Separability conclusion for a family's Choi state.

    ``conclusion`` is "separable" only when the state is PPT and the rank
    criterion applies (PPT and Choi rank <= min(d_out, max(rank rho1,
    rank rho2)), False for an NPT state), "entangled" only when it is NPT,
    and "undetermined" otherwise.
    """

    ppt: bool
    min_pt_eigenvalue: float
    choi_rank: int
    criterion_applicable: bool
    conclusion: str

    def __post_init__(self) -> None:
        if self.conclusion not in ("separable", "entangled", "undetermined"):
            raise ValueError(f"bad conclusion {self.conclusion!r}")
        if self.conclusion == "separable" and not (self.ppt and self.criterion_applicable):
            raise ValueError("separable verdict requires PPT and an applicable criterion")
        if self.conclusion == "entangled" and self.ppt:
            raise ValueError("entangled verdict requires a negative partial transpose")

    def to_json(self) -> dict:
        return {
            "ppt": self.ppt,
            "min_pt_eigenvalue": self.min_pt_eigenvalue,
            "choi_rank": self.choi_rank,
            "criterion_applicable": self.criterion_applicable,
            "conclusion": self.conclusion,
        }


def ppt(c: np.ndarray, d1: int, d2: int) -> tuple[bool, float]:
    """Whether the partial transpose over the first factor is PSD within
    ``PPT_ATOL`` times the trace of ``c``.

    For a Choi matrix the trace is sum_i ||K_i||_F^2, 1 for a normalized
    family, and it bounds the spectral norm of the partial transpose, so
    neither this threshold nor the Hermiticity check of the eigensolve, taken
    relative to the same trace, changes with the overall scale of the
    operators. Returns the flag and the minimum partial-transpose eigenvalue.
    """
    pt = partial_transpose(c, d1, d2, "first")
    return _psd_within(pt, abs(float(np.trace(pt).real)))


def _psd_within(pt: np.ndarray | Coo, scale: float) -> tuple[bool, float]:
    smallest = min_eigenvalue(pt, atol=HERMITIAN_ATOL * scale)
    return smallest >= -PPT_ATOL * scale, smallest


def _partial_transposed_choi(k: np.ndarray) -> Coo:
    """The partial transpose over the first factor of the Choi matrix of the
    stacked operators ``k``, built from their nonzero entries.

    Entries (a, b) and (a', b') of one operator K_i give the term
    K_i[a, b] conj(K_i[a', b']) of C[b d_out + a, b' d_out + a'], which the
    partial transpose moves to (b' d_out + a, b d_out + a').
    """
    _, d_out, d_in = k.shape
    op, row, col = np.nonzero(k)
    x = k[op, row, col]
    e, g = group_pairs(op)
    side = d_in * d_out
    return Coo.from_terms(
        col[g] * d_out + row[e], col[e] * d_out + row[g], x[e] * np.conjugate(x[g]), (side, side)
    )


def _marginal_rank_reaches(f: KrausFamily, choi_rank_: int) -> bool:
    """Whether max(rank rho1, rank rho2) >= ``choi_rank_``: rank rho2 is that
    of the operators side by side, taken first, and rank rho1 that of the
    operators stacked (as in :func:`channels.marginals`), exact from the
    integer stack of a rational family and by SVD otherwise."""
    exact = f.integer_ops is not None
    k = f.integer_ops if exact else f.ops
    r, d_out, d_in = k.shape
    mode = "exact" if exact else "numerical"
    if rank(k.transpose(1, 0, 2).reshape(d_out, r * d_in), mode=mode).rank >= choi_rank_:
        return True
    return rank(k.reshape(r * d_out, d_in), mode=mode).rank >= choi_rank_


def separability_verdict(f: KrausFamily, tol: float | None = None) -> SeparabilityVerdict:
    """Choi-state separability verdict from PPT plus the low-rank criterion.

    PPT is decided as by :func:`ppt`, relative to the Choi trace. When the
    operators are sparse enough (:func:`linalg.coo_is_cheaper` on the
    (d_in d_out)^2 Choi entries against the products of entry pairs within
    each operator), the partial-transposed Choi matrix is built from those
    products as a :class:`linalg.Coo` and no dense Choi matrix is formed.
    ``tol`` thresholds the singular values of the Choi rank as in
    :func:`channels.choi_rank`. Marginal ranks are taken only for a PPT
    state of Choi rank <= d_out.
    """
    side = f.d_in * f.d_out
    k = f.ops
    # one product per pair of entries of one operator
    if coo_is_cheaper(
        (side, side), lambda: int(((k != 0).sum(axis=(1, 2)) ** 2).sum()), k.dtype
    ):
        trace = float(np.vdot(k, k).real)
        is_ppt, smallest = _psd_within(_partial_transposed_choi(k), trace)
    else:
        is_ppt, smallest = ppt(choi(f), f.d_in, f.d_out)
    cr = choi_rank(f, tol=tol).rank
    applicable = is_ppt and cr <= f.d_out and _marginal_rank_reaches(f, cr)
    if not is_ppt:
        conclusion = "entangled"
    elif applicable:
        conclusion = "separable"
    else:
        conclusion = "undetermined"
    return SeparabilityVerdict(
        ppt=is_ppt,
        min_pt_eigenvalue=smallest,
        choi_rank=cr,
        criterion_applicable=applicable,
        conclusion=conclusion,
    )
