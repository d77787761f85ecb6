"""Numerical workbench for programmable reflections and rotations about an
unknown pure state: closed-form diamond distances, optimization landscapes,
gate-level circuits, Schur-basis twirls, and program-dimension bounds."""

__version__ = "0.1.0"

from .config import ConsistencyError, DimensionBudgetError, NonChannelElementError
from .tensor_core import (
    PureState,
    cyclic_permutation,
    haar_random_state,
    haar_random_unitary,
    partial_trace,
    permutation_operator,
    sym_dim,
    symmetric_encoder,
    symmetric_projector,
)
from .cyclic import (
    CyclicElement,
    apply_element,
    dense_element,
    f_opt,
    fourier,
    inverse_fourier,
    is_channel_element,
    is_unitary_element,
    lmr_coeffs,
    optimal_angle,
    optimal_reflection_coeffs,
    r_theta_coeffs,
)
from .channels import (
    EffectiveChannel,
    MeasureReflectChannel,
    choi,
    dense_reflection_channel,
    effective_channel,
    group_twirl_state,
    lmr_sequential_dense,
    mr_channel,
    reflection_channel,
    rotation_channel,
)
from .distances import (
    PhiP,
    closed_form_rotation_distance,
    diamond_covariant,
    diamond_unitary_channels,
    distance_at_p,
    equal_angle_distance,
    linear_bound,
    mr_diamond_distance,
    sampled_diamond_lower_bound,
    trace_norm,
)
from .optima import (
    Domain,
    LandscapePoint,
    boundary_curve,
    critical_u,
    domain_classify,
    landscape,
    landscape_point,
    landscape_value,
    lmr_equal_angle_distance,
    lmr_improved_angle,
    lmr_improvement,
    theta_star,
)
from .repthy import (
    GTPattern,
    ProbeSpec,
    SpinLabel,
    build_probe_d2,
    cg_su2,
    conjecture_system_d2,
    ensemble_entropy,
    final_lower_bound,
    lambert_w0,
    lower_bound_fd,
    magic_sum_check,
    maximize_entropy_over_q,
    n_of_eps,
    solve_q_d2,
    twirl,
)
from .universal import (
    assemble_universal_channel,
    binary_angle,
    budget,
    eigendecompose_target,
    lower_bound_via_universal,
    verify_budget,
)
from .circuits import (
    Gate,
    RotationCircuit,
    build_rotation_circuit,
    circuit_to_dense,
    export_circuit,
    gate_counts,
    parse_circuit,
)
