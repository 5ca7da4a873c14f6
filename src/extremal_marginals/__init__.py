"""Verification toolkit for extreme points of fixed-marginal CP map sets.

Builds explicit Kraus families, certifies their extremality through the
block-Gram linear-independence test (exactly, in rational arithmetic, where
the family permits), analyzes their Choi states (rank, PPT, separability),
and checks attainment of the floor(sqrt(d1^2 + d2^2 - 1)) rank bound.
"""

from .channels import (
    KrausFamily,
    MarginalPair,
    adjoint,
    choi,
    choi_rank,
    exact_marginals,
    family_from_json,
    family_to_json,
    is_minimal,
    marginals,
    random_family,
    tensor,
)
from .extremality import (
    ExtremalityCertificate,
    block_gram,
    bound_attained,
    is_extremal,
    parthasarathy_bound,
)
from .families import (
    closed_form_choi_pt,
    ohno_rank4,
    ohno_rank_d,
    rank8_66,
    rank8_66_marginal,
    rank8k_6k,
    rank8k_marginal,
    shift_family,
    shift_matrix,
    shift_operators,
    shift_targets,
    sigma_marginal,
    sigma_rank2,
)
from .linalg import (
    RankResult,
    matrix_from_json,
    matrix_to_json,
    min_eigenvalue,
    partial_transpose,
    rank,
)
from .reductions import (
    CanonicalizationRecord,
    adjoint_duality_check,
    diagonalize_marginals,
    restrict_to_support,
)
from .separability import SeparabilityVerdict, ppt, separability_verdict

__version__ = "0.1.0"

__all__ = [
    "CanonicalizationRecord",
    "ExtremalityCertificate",
    "KrausFamily",
    "MarginalPair",
    "RankResult",
    "SeparabilityVerdict",
    "adjoint",
    "adjoint_duality_check",
    "block_gram",
    "bound_attained",
    "choi",
    "choi_rank",
    "closed_form_choi_pt",
    "diagonalize_marginals",
    "exact_marginals",
    "family_from_json",
    "family_to_json",
    "is_extremal",
    "is_minimal",
    "marginals",
    "matrix_from_json",
    "matrix_to_json",
    "min_eigenvalue",
    "ohno_rank4",
    "ohno_rank_d",
    "parthasarathy_bound",
    "partial_transpose",
    "ppt",
    "random_family",
    "rank",
    "rank8_66",
    "rank8_66_marginal",
    "rank8k_6k",
    "rank8k_marginal",
    "restrict_to_support",
    "separability_verdict",
    "shift_family",
    "shift_matrix",
    "shift_operators",
    "shift_targets",
    "sigma_marginal",
    "sigma_rank2",
    "tensor",
]
