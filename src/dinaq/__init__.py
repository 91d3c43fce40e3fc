"""Q-matrix learning for the DINA cognitive diagnosis model.

The package estimates which latent attributes each test item requires (the
Q-matrix) from binary response data alone. The pipeline: build response-rate
design matrices for candidate Q-matrices, score each candidate by how well a
probability distribution over attribute profiles can reproduce the observed
joint success rates, and search the canonical candidate space for the best
fit. Slipping rates can be estimated alongside when only guessing rates are
known, and a numerical identifiability probe reports which candidates a
population could not distinguish.
"""

from .core import (
    DEFAULT_BUDGET,
    MAX_ATTRIBUTES,
    MAX_ITEMS,
    BudgetExceededError,
    ProfileDistribution,
    QMatrix,
    bit_label,
    bits_to_mask,
    canonicalize,
    enumerate_candidates,
    equivalent,
    ideal_response,
    is_complete,
    mask_to_bits,
    profile_order,
    subsets_card_lex,
)
from .estimator import (
    DEFAULT_TIE_TOL,
    IDENTIFIABILITY_TOL,
    AlignmentError,
    DegenerateSampleError,
    EstimationResult,
    IdentifiabilityReport,
    check_identifiability,
    decontaminate,
    estimate_p,
    estimate_q,
    estimate_q_unknown_c,
    find_cover_combo,
    moment_slip,
    profile_slip,
    score,
    split_estimate,
)
from .simulator import (
    AlphaVector,
    ResponseData,
    SimConfig,
    capability_matrix,
    compute_alpha,
    dina_responses,
    population_alpha,
    sample_profiles,
    simulate,
)
from .solver import (
    FEASIBILITY_TOL,
    KKT_TOL,
    LsqSolution,
    kkt_residuals,
    simplex_lsq,
)
from .tmatrix import (
    MAX_SATURATED_ITEMS,
    ComboOrder,
    DinaParams,
    build_d,
    design,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "AlphaVector",
    "BudgetExceededError",
    "ComboOrder",
    "DEFAULT_BUDGET",
    "DEFAULT_TIE_TOL",
    "DegenerateSampleError",
    "DinaParams",
    "EstimationResult",
    "FEASIBILITY_TOL",
    "IDENTIFIABILITY_TOL",
    "IdentifiabilityReport",
    "KKT_TOL",
    "LsqSolution",
    "MAX_ATTRIBUTES",
    "MAX_ITEMS",
    "MAX_SATURATED_ITEMS",
    "ProfileDistribution",
    "QMatrix",
    "ResponseData",
    "SimConfig",
    "bit_label",
    "bits_to_mask",
    "build_d",
    "canonicalize",
    "capability_matrix",
    "check_identifiability",
    "compute_alpha",
    "decontaminate",
    "design",
    "dina_responses",
    "enumerate_candidates",
    "equivalent",
    "estimate_p",
    "estimate_q",
    "estimate_q_unknown_c",
    "find_cover_combo",
    "ideal_response",
    "is_complete",
    "kkt_residuals",
    "mask_to_bits",
    "moment_slip",
    "population_alpha",
    "profile_order",
    "profile_slip",
    "sample_profiles",
    "score",
    "simplex_lsq",
    "simulate",
    "split_estimate",
    "subsets_card_lex",
    "__version__",
]
