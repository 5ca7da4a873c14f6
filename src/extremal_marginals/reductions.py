"""Reductions that preserve extremality.

Three transformations let the general problem be studied in canonical form:
the adjoint swaps the two marginals (up to transpose) without changing the
verdict, conjugation by local unitaries makes both marginals diagonal, and
compression onto the marginal supports removes null directions. Each leaves
the block-Gram rank unchanged.

Both unitary reductions act on the family's whole operator stack at once:
``v @ f.ops @ u^dagger`` is one batched matmul over the (r, d_out, d_in)
array, and every eigenvector's phase is fixed in one vectorized step.
Each entry is still the product a per-operator loop would form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import KrausFamily, adjoint, marginals
from .extremality import is_extremal

__all__ = [
    "SUPPORT_ATOL",
    "CanonicalizationRecord",
    "adjoint_duality_check",
    "diagonalize_marginals",
    "restrict_to_support",
]

SUPPORT_ATOL = 1e-12


@dataclass(frozen=True)
class CanonicalizationRecord:
    """A canonicalized family together with the unitaries that produced it.

    The transformed operators are A_i = v K_i u^dagger, with u chosen so that
    u rho1^T u^dagger and v rho2 v^dagger are diagonal with nondecreasing
    entries d1_diag and d2_diag. Degenerate eigenspaces make u, v non-unique;
    storing them makes every canonicalization replayable.
    """

    family: KrausFamily
    u: np.ndarray
    v: np.ndarray
    d1_diag: np.ndarray
    d2_diag: np.ndarray


def _phase_fixed_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """eigh with each eigenvector's first component of modulus above 1e-9 made
    real positive, all columns at once; a column with no such component is
    turned by its first entry instead, unless that entry is 0."""
    w, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    pivot = vecs[np.argmax(np.abs(vecs) > 1e-9, axis=0), np.arange(vecs.shape[1])]
    size = np.abs(pivot)
    turn = size > 0
    vecs[:, turn] *= pivot[turn].conjugate() / size[turn]
    return w, vecs


def diagonalize_marginals(f: KrausFamily) -> CanonicalizationRecord:
    """Conjugate the family by local unitaries so both marginals are diagonal.

    Eigenvalues are sorted nondecreasing; the Gram rank of the transformed
    family equals that of the input.
    """
    mp = marginals(f)
    w1, u0 = _phase_fixed_eigh(np.asarray(mp.rho1, dtype=complex).T)
    w2, v0 = _phase_fixed_eigh(np.asarray(mp.rho2, dtype=complex))
    u = u0.conj().T
    v = v0.conj().T
    return CanonicalizationRecord(
        family=KrausFamily(d_in=f.d_in, d_out=f.d_out, ops=v @ f.ops @ u.conj().T),
        u=u,
        v=v,
        d1_diag=w1,
        d2_diag=w2,
    )


def adjoint_duality_check(f: KrausFamily) -> bool:
    """True iff the family and its adjoint get the same extremality verdict.

    Also verifies that taking the adjoint swaps the marginals up to
    transpose, raising if that identity fails.
    """
    adj = adjoint(f)
    mp = marginals(f)
    mpa = marginals(adj)
    swap = max(
        float(np.abs(mpa.rho1 - mp.rho2.T).max()),
        float(np.abs(mpa.rho2 - mp.rho1.T).max()),
    )
    if swap > 1e-12:
        raise RuntimeError(f"adjoint failed to swap the marginals (deviation {swap:.3e})")
    return is_extremal(f).extremal == is_extremal(adj).extremal


def restrict_to_support(f: KrausFamily) -> KrausFamily:
    """Compress the operators onto the supports of the two marginals.

    Families whose marginals are already full rank are returned unchanged,
    which makes the operation idempotent. The compressed family has full-rank
    marginals and the same Gram rank. An eigenvalue counts as zero up to
    ``SUPPORT_ATOL`` times the Choi trace tr rho1 = sum_i ||K_i||_F^2, which is 1 for
    a normalized family, so the supports do not change with the overall
    scale of the operators.
    """
    mp = marginals(f)
    w1, u1 = np.linalg.eigh(np.asarray(mp.rho1, dtype=complex).T)
    w2, u2 = np.linalg.eigh(np.asarray(mp.rho2, dtype=complex))
    cut = SUPPORT_ATOL * float(np.trace(mp.rho1).real)
    keep1 = w1 > cut
    keep2 = w2 > cut
    s1 = int(keep1.sum())
    s2 = int(keep2.sum())
    if s1 == 0 or s2 == 0:
        raise ValueError("zero family: both marginals vanish")
    if s1 == f.d_in and s2 == f.d_out:
        return f
    p_in = u1[:, keep1]
    p_out = u2[:, keep2]
    return KrausFamily(d_in=s1, d_out=s2, ops=p_out.conj().T @ f.ops @ p_in)
