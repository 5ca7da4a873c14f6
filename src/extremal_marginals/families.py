"""Constructors for the explicit extremal families and a closed-form oracle.

The central construction is the shift family on (d, d+m): d+1 operators
built from the forward cyclic shift on the first d+1 coordinates plus m-1
all-ones column operators, normalized by 1/sqrt(d(d+m)). Its marginals are

    rho1 = Z = p I_d/d + (1-p) J_d/d,  p = (d+1)/(d+m)
    rho2 = I_{d+m}/(d+m)

and its Choi rank d+m attains floor(sqrt(d^2 + (d+m)^2 - 1)) for every
m > (d^2 - 2d - 2)/2 (for d = 2, every m >= 1).

The partial transpose of its Choi state has a closed form in stacked
shift-power form, which serves as an independent oracle: the computed
partial transpose must match it to 1e-12. Extremality verdicts come from
the rank of the family's block vectors, never from a closed form.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausFamily, MarginalPair, is_minimal, tensor

__all__ = [
    "closed_form_choi_pt",
    "ohno_rank4",
    "ohno_rank_d",
    "rank8_66",
    "rank8_66_marginal",
    "rank8k_6k",
    "rank8k_marginal",
    "shift_family",
    "shift_matrix",
    "shift_operators",
    "shift_targets",
    "sigma_marginal",
    "sigma_rank2",
]


def _check_shift_args(d: int, m: int) -> None:
    if d < 2 or m < 1:
        raise ValueError("shift family requires d >= 2 and m >= 1")


def shift_matrix(d: int, m: int) -> np.ndarray:
    """Forward cyclic shift on the first d+1 coordinates of a (d+m)-dim space.

    S e_k = e_{k+1} for k <= d, S e_{d+1} = e_1, and S annihilates the
    remaining m-1 coordinates; S^{d+1} acts as the identity on the cycle.
    """
    _check_shift_args(d, m)
    n = d + m
    s = np.zeros((n, n))
    for k in range(1, d + 2):
        s[k % (d + 1), k - 1] = 1.0
    return s


def shift_operators(d: int, m: int) -> list[np.ndarray]:
    """Unscaled integer Kraus operators of the shift family, shape (d+m) x d.

    Operators 1..d+1 place a 1 at row mod(k+i-2, d+1)+1 of column k; operators
    d+2..d+m are the all-ones row at position i (rank-one onto e_i).
    """
    _check_shift_args(d, m)
    n = d + m
    ops: list[np.ndarray] = []
    for i in range(1, d + 2):
        e = np.zeros((n, d), dtype=object)
        for k in range(1, d + 1):
            e[(k + i - 2) % (d + 1), k - 1] = 1
        ops.append(e)
    for i in range(d + 2, n + 1):
        e = np.zeros((n, d), dtype=object)
        e[i - 1, :] = 1
        ops.append(e)
    return ops


def shift_family(d: int, m: int) -> KrausFamily:
    """The normalized shift family: d+m operators scaled by 1/sqrt(d(d+m))."""
    exact = shift_operators(d, m)
    scale = 1.0 / np.sqrt(d * (d + m))
    ops = tuple(e.astype(float) * scale for e in exact)
    return KrausFamily(d_in=d, d_out=d + m, ops=ops, exact_ops=tuple(exact))


def shift_targets(d: int, m: int) -> MarginalPair:
    """Declared marginals (Z, I/(d+m)) of the shift family."""
    _check_shift_args(d, m)
    n = d + m
    p = (d + 1) / n
    z = p * np.eye(d) / d + (1 - p) * np.ones((d, d)) / d
    return MarginalPair(rho1=z, rho2=np.eye(n) / n)


def closed_form_choi_pt(d: int, m: int) -> np.ndarray:
    """Closed form of the partially transposed Choi state of the shift family.

    Equal to (1/(d(d+m))) (B^dagger B + J_d (x) (0 (+) I_{m-1})) with B the
    block row of shift powers S^{mod(r-2, d+1)+1}, r = 1..d. The exponent is
    taken in 1..d+1 so the leading block is the cycle projection S^{d+1},
    not the full identity. Positive semidefinite by construction.
    """
    _check_shift_args(d, m)
    n = d + m
    s = shift_matrix(d, m)
    b = np.hstack([np.linalg.matrix_power(s, ((r - 2) % (d + 1)) + 1) for r in range(1, d + 1)])
    zero_pad = np.zeros((n, n))
    zero_pad[d + 1 :, d + 1 :] = np.eye(m - 1)
    return (b.conj().T @ b + np.kron(np.ones((d, d)), zero_pad)) / (d * n)


def sigma_rank2() -> KrausFamily:
    """Two Hermitian operators on (2, 2) with marginals (sigma, sigma).

    A1 = diag(1/sqrt(3), 1) and A2 = antidiag(1/sqrt(3), 1/sqrt(3)), each
    scaled by 1/sqrt(2); sigma = diag(1/3, 2/3).
    """
    a = 1.0 / np.sqrt(3)
    a1 = np.array([[a, 0.0], [0.0, 1.0]])
    a2 = np.array([[0.0, a], [a, 0.0]])
    return KrausFamily(d_in=2, d_out=2, ops=(a1 / np.sqrt(2), a2 / np.sqrt(2)))


def sigma_marginal() -> np.ndarray:
    return np.diag([1 / 3, 2 / 3])


def ohno_rank4() -> KrausFamily:
    """Ohno's Kraus-rank-4 extreme point on (3, 3) with marginals (I/3, I/3).

    B1 = E11, B2 = E12 + sqrt(2) E23, B3 = sqrt(2) E21 + sqrt(3) E32,
    B4 = E31 + sqrt(2) E13, each scaled by 1/(2 sqrt(3)).
    """
    r2, r3 = np.sqrt(2), np.sqrt(3)
    b1 = np.zeros((3, 3))
    b1[0, 0] = 1.0
    b2 = np.zeros((3, 3))
    b2[0, 1] = 1.0
    b2[1, 2] = r2
    b3 = np.zeros((3, 3))
    b3[1, 0] = r2
    b3[2, 1] = r3
    b4 = np.zeros((3, 3))
    b4[2, 0] = 1.0
    b4[0, 2] = r2
    scale = 1.0 / (2.0 * r3)
    return KrausFamily(d_in=3, d_out=3, ops=tuple(b * scale for b in (b1, b2, b3, b4)))


def ohno_rank_d(d: int) -> KrausFamily:
    """Ohno's d Hermitian operators on (d, d) with marginals (I/d, I/d).

    V1 = sqrt((d-2)/(d-1)) sum_{j>=2} E_jj and
    V_k = (E_1k + E_k1)/sqrt(d-1) for 2 <= k <= d, each scaled by 1/sqrt(d).
    """
    if d < 3:
        raise ValueError("requires d >= 3")
    v1 = np.sqrt((d - 2) / (d - 1)) * np.diag([0.0] + [1.0] * (d - 1))
    ops = [v1]
    for k in range(2, d + 1):
        v = np.zeros((d, d))
        v[0, k - 1] = 1.0
        v[k - 1, 0] = 1.0
        ops.append(v / np.sqrt(d - 1))
    return KrausFamily(d_in=d, d_out=d, ops=tuple(v / np.sqrt(d) for v in ops))


def rank8_66() -> KrausFamily:
    """Tensor of the rank-2 and rank-4 factors: 8 operators on (6, 6).

    Marginals are (D, D) with D = sigma (x) I_3/3.
    """
    return tensor(sigma_rank2(), ohno_rank4())


def rank8_66_marginal() -> np.ndarray:
    return np.kron(sigma_marginal(), np.eye(3) / 3)


def rank8k_6k(k: int) -> KrausFamily:
    """Tensor of the rank-k Ohno factor with the (6, 6) family: 8k operators on (6k, 6k).

    Factor order is (k-factor, 2-factor, 3-factor). The Hermitian minimal
    Kraus precondition of the tensor extremality theorem is machine-checked
    on the k-factor before tensoring.
    """
    if k < 3:
        raise ValueError("requires k >= 3")
    left = ohno_rank_d(k)
    if not left.hermitian_kraus:
        raise RuntimeError("tensor precondition violated: k-factor is not Hermitian")
    if not is_minimal(left):
        raise RuntimeError("tensor precondition violated: k-factor is not minimal")
    return tensor(left, rank8_66())


def rank8k_marginal(k: int) -> np.ndarray:
    return np.kron(np.eye(k) / k, rank8_66_marginal())
