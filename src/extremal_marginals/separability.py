"""PPT testing and the rank-based separability verdict for Choi states.

A PPT state of rank at most its larger marginal rank is separable
(Horodecki, Lewenstein, Vidal and Cirac, PRA 62, 032310, 2000); outside
that regime a PPT state stays undetermined and an NPT state is entangled.

PPT is decided relative to the Choi trace sum_i ||K_i||_F^2, so no verdict
depends on the overall scale of the operators. The partial-transposed Choi
matrix is built dense, by :func:`linalg.partial_transpose` of the Choi
matrix, and its eigensolve splits it into the principal blocks of its
nonzero pattern. It is real for a real family and complex otherwise, in
the arithmetic :class:`channels.KrausFamily` picked for the operators, the
one place that decides between the two. A family built by
:func:`channels.tensor` is not eigensolved whole: the partial transpose of
its Choi matrix is a permutation similarity of the Kronecker product of its
factors', whose eigenvalues are the products of theirs (Horn and Johnson,
Topics in Matrix Analysis, Thm 4.2.12), so its extreme eigenvalues are
among the four products of the factors' extreme ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausFamily, choi, choi_rank
from .linalg import HERMITIAN_ATOL, _eigenvalue_range, partial_transpose, rank

__all__ = ["PPT_ATOL", "SeparabilityVerdict", "ppt", "separability_verdict"]

PPT_ATOL = 1e-10


@dataclass(frozen=True)
class SeparabilityVerdict:
    """Separability conclusion for a family's Choi state.

    ``criterion_applicable`` holds when the state is PPT and Choi rank <=
    min(d_out, max(rank rho1, rank rho2)), with the Choi rank at the
    default threshold when a larger ``tol`` gives fewer. ``choi_rank_engine``
    is the :class:`linalg.RankResult` engine that decided the reported Choi
    rank.
    """

    ppt: bool
    min_pt_eigenvalue: float
    choi_rank: int
    choi_rank_engine: str
    criterion_applicable: bool

    @property
    def conclusion(self) -> str:
        """"entangled" for an NPT state, "separable" where the criterion
        applies, and "undetermined" otherwise."""
        if not self.ppt:
            return "entangled"
        return "separable" if self.criterion_applicable else "undetermined"

    def to_json(self) -> dict:
        return {
            "ppt": self.ppt,
            "min_pt_eigenvalue": self.min_pt_eigenvalue,
            "choi_rank": self.choi_rank,
            "choi_rank_engine": self.choi_rank_engine,
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
    smallest, _, trace = _pt_range(c, d1, d2)
    return _is_ppt(smallest, trace), smallest


def _pt_range(c: np.ndarray, d1: int, d2: int) -> tuple[float, float, float]:
    """The smallest and largest eigenvalue of the partial transpose of ``c``
    over the first factor, and its trace |tr c|, from one eigensolve per
    principal block; the eigensolve checks that the partial transpose is
    Hermitian within ``HERMITIAN_ATOL`` times that trace."""
    pt = partial_transpose(c, d1, d2, "first")
    trace = abs(float(np.trace(pt).real))
    return (*_eigenvalue_range(pt, HERMITIAN_ATOL * trace), trace)


def _is_ppt(smallest: float, trace: float) -> bool:
    return smallest >= -PPT_ATOL * trace


def _pt_spectrum(f: KrausFamily) -> tuple[float, float, float]:
    """The smallest and largest eigenvalue of the partial transpose over the
    input of the Choi matrix of ``f``, and its trace sum_i ||K_i||_F^2.

    A family with ``factors`` (f_1, f_2) takes them from its factors: the
    operators K_i (x) G_j in :func:`channels.tensor`'s order give the Choi
    index (b_1 d_in2 + b_2) d_out + a_1 d_out2 + a_2 for input index b and
    output index a, which is that of C_1 (x) C_2 with b_2 and a_1 swapped.
    The partial transpose over the input (b_1, b_2) commutes with that swap
    and acts on each factor, so PT C = P (PT C_1 (x) PT C_2) P^T for a
    permutation P, with eigenvalues the products l_1 l_2, each l_k in the
    interval of PT C_k; a product is extreme at a corner, so the four
    products of the extremes hold both ends, and the traces multiply.

    Any other family is eigensolved, as by :func:`ppt`, from its Choi
    matrix, whose trace is sum_i ||K_i||_F^2.
    """
    if f.factors is not None:
        (lo1, hi1, tr1), (lo2, hi2, tr2) = (_pt_spectrum(g) for g in f.factors)
        corners = (lo1 * lo2, lo1 * hi2, hi1 * lo2, hi1 * hi2)
        return min(corners), max(corners), tr1 * tr2
    return _pt_range(choi(f), f.d_in, f.d_out)


def _marginal_rank_reaches(f: KrausFamily, choi_rank_: int) -> bool:
    """Whether max(rank rho1, rank rho2) >= ``choi_rank_``: rank rho2 is that
    of the operators side by side, taken first, and rank rho1 that of the
    operators stacked (as in :func:`channels.marginals`), exact from the
    integer stack of a rational family and by numerical rank otherwise."""
    exact = f.integer_ops is not None
    k = f.integer_ops if exact else f.ops
    r, d_out, d_in = k.shape
    mode = "exact" if exact else "numerical"
    if rank(k.transpose(1, 0, 2).reshape(d_out, r * d_in), mode=mode).rank >= choi_rank_:
        return True
    return rank(k.reshape(r * d_out, d_in), mode=mode).rank >= choi_rank_


def separability_verdict(f: KrausFamily, tol: float | None = None) -> SeparabilityVerdict:
    """Choi-state separability verdict from PPT plus the low-rank criterion.

    PPT is decided as by :func:`ppt`, relative to the Choi trace, on the
    extreme partial-transpose eigenvalues of :func:`_pt_spectrum`: of the
    partial-transposed Choi matrix, or, for a family that
    :func:`channels.tensor` built, from its factors' spectra, with no Choi
    matrix of the whole family. A family rebuilt from such a family's
    ``ops`` has no factors and is eigensolved whole, which gives the same
    verdict and the same PT minimum to rounding. ``tol`` thresholds the
    singular values of the reported Choi rank as in
    :func:`channels.choi_rank`, which refuses it for a rational family; the
    criterion reads the larger of that rank and the one at the default
    threshold. Marginal ranks are taken only for
    a PPT state whose criterion rank is <= d_out. The Choi rank and the
    marginal ranks are ranked directly, tensor or not. An all-zero family,
    whose Choi matrix is no state, raises ValueError.
    """
    if not f.ops.any():
        raise ValueError("zero family: its Choi matrix (trace 0) is no state")
    smallest, _, trace = _pt_spectrum(f)
    is_ppt = _is_ppt(smallest, trace)
    reported = choi_rank(f, tol=tol)
    cr = reported.rank
    # a tol above the default threshold may undercount the Choi rank, and the
    # criterion must not apply to a rank the state does not have
    support = cr if tol is None else max(cr, choi_rank(f).rank)
    applicable = is_ppt and support <= f.d_out and _marginal_rank_reaches(f, support)
    return SeparabilityVerdict(
        ppt=is_ppt,
        min_pt_eigenvalue=smallest,
        choi_rank=cr,
        choi_rank_engine=reported.engine,
        criterion_applicable=applicable,
    )
