"""Convex geometry of 3x3 PPT states: state families, extremality tests,
positive/decomposable maps, and the exact combinatorics behind the
decomposable-cone bounds."""

from .extremality import (
    ExtremalityReport,
    FaceSpec,
    appendix_basis_X,
    appendix_basis_Y,
    face_of,
    is_extreme_in_T,
    verify_combination_identity,
)
from .krawtchouk import (
    KrawtchoukSolution,
    krawtchouk_sum,
    nu_lower_bound_D,
    nu_summary,
    solve,
)
from .linalg import NumericalError, hermitian_to_real_vector
from .maps import (
    ChoiMap,
    DecomposableSpec,
    antipodal_sum_choi,
    block_positivity_sample,
    boundary_witness_search,
    decomposable_map,
    pairing,
    phi_theta_t,
    trace_map_decomposition_2n,
    trace_map_decomposition_33,
)
from .states import (
    Arc,
    BipartiteMatrix,
    StateType,
    arc_of,
    combine,
    conjugate_by_phase_unitary,
    is_interior_of_S_sufficient,
    is_interior_of_T,
    is_ppt,
    kernel_vectors_w,
    normalize,
    p_theta,
    partial_transpose,
    product_state,
    rho,
    search_product_vector_in_subspace,
    sigma,
    state_type,
    verify_product_decomposition,
)

__version__ = "0.1.0"
