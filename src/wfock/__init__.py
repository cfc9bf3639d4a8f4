"""Weighted Fock-space toolkit over graph correspondences.

Builds truncated weighted Fock spaces, dual correspondences and Szego-type
kernels, decides weighted Nevanlinna-Pick solvability by a complete
positivity test, and constructs interpolants through an exact finite version
of the Parrott-based commutant lifting argument.
"""

from .graphs import CorrElement, GraphCorrespondence, PathBasis, insertion_matrix, left_action, \
    path_basis
from .weights import (
    AdmissibleSequence,
    WeightSystem,
    admissible_from_kernel_coeffs,
    canonical_weights,
    compute_R,
    weight_system_from,
)
from .fock import FockOperator, TruncatedFock, creation, phi_inf, weighted_creation
from .induced import CommutantAlgebra, InducedSpace, Representation
from .duality import (
    DualCorrespondence,
    DualStructure,
    commutation_check_section5,
    dual_weights,
    intertwiner_basis,
    interior_tensor,
    u_k_unitary,
)
from .lifting import LiftModel, LiftState, ParrottProblem, commutant_lift, lift_step, \
    parrott_complete, two_space_lift
from .interpolation import (
    CauchyKernel,
    DiscPoint,
    PickInfeasibleError,
    PickProblem,
    np_solve,
    phi_map,
    pick_map_cp_test,
    szego_kernel,
)

__all__ = [
    "CorrElement", "GraphCorrespondence", "PathBasis", "insertion_matrix", "left_action",
    "path_basis", "AdmissibleSequence", "WeightSystem", "admissible_from_kernel_coeffs",
    "canonical_weights", "compute_R", "weight_system_from", "FockOperator", "TruncatedFock",
    "creation", "phi_inf", "weighted_creation", "CommutantAlgebra", "InducedSpace",
    "Representation", "DualCorrespondence", "DualStructure", "commutation_check_section5",
    "dual_weights", "intertwiner_basis", "interior_tensor", "u_k_unitary", "LiftModel",
    "LiftState", "ParrottProblem", "commutant_lift", "lift_step", "parrott_complete",
    "two_space_lift", "CauchyKernel", "DiscPoint", "PickInfeasibleError", "PickProblem",
    "np_solve", "phi_map", "pick_map_cp_test", "szego_kernel",
]
__version__ = "0.1.0"
