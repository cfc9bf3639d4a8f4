"""Weighted Fock-space toolkit over graph correspondences.

Builds truncated weighted Fock spaces, dual correspondences and Szego-type
kernels, decides weighted Nevanlinna-Pick solvability by a complete
positivity test, and constructs interpolants through an exact finite version
of the Parrott-based commutant lifting argument.
"""

from .graphs import CorrElement, GraphCorrespondence, PathBasis, inner_product, \
    insertion_matrix, left_action, path_basis
from .weights import (
    AdmissibleSequence,
    CompositionSet,
    WeightSystem,
    admissible_from_kernel_coeffs,
    canonical_weights,
    compositions,
    compute_R,
    weight_system_from,
)
from .fock import FockOperator, TruncatedFock, creation, phi_inf, weight_diagonal, \
    weighted_creation
from .induced import CommutantAlgebra, InducedSpace, Representation, gamma_decomposition
from .duality import (
    DualCorrespondence,
    DualStructure,
    commutation_check_section5,
    dual_weights,
    intertwiner_basis,
    interior_tensor,
    u_k_unitary,
)
from .lifting import CoinvariantSubspace, LiftModel, LiftState, ParrottProblem, \
    commutant_lift, lift_step, parrott_complete, two_space_lift
from .interpolation import (
    CauchyKernel,
    DiscPoint,
    PickInfeasibleError,
    PickProblem,
    np_solve,
    phi_map,
    pick_map_cp_test,
    representation_eval,
    szego_kernel,
)

__all__ = [
    "CorrElement", "GraphCorrespondence", "PathBasis", "inner_product", "insertion_matrix",
    "left_action", "path_basis", "AdmissibleSequence", "CompositionSet", "WeightSystem",
    "admissible_from_kernel_coeffs", "canonical_weights", "compositions", "compute_R",
    "weight_system_from", "FockOperator", "TruncatedFock", "creation", "phi_inf",
    "weight_diagonal", "weighted_creation", "CommutantAlgebra", "InducedSpace", "Representation",
    "gamma_decomposition", "DualCorrespondence", "DualStructure", "commutation_check_section5",
    "dual_weights", "intertwiner_basis", "interior_tensor", "u_k_unitary", "CoinvariantSubspace",
    "LiftModel", "LiftState", "ParrottProblem", "commutant_lift", "lift_step", "parrott_complete",
    "two_space_lift", "CauchyKernel", "DiscPoint", "PickInfeasibleError", "PickProblem",
    "np_solve", "phi_map", "pick_map_cp_test", "representation_eval", "szego_kernel",
]
__version__ = "0.1.0"
