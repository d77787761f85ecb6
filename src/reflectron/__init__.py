"""Numerical workbench for programmable reflections and rotations about an
unknown pure state: closed-form diamond distances, optimization landscapes,
gate-level circuits, Schur-basis twirls, and program-dimension bounds.

The package namespace carries the error types and the names of the README
example and the benchmark queries; everything else is imported from its
module (``reflectron.cyclic``, ``reflectron.distances`` and so on)."""

__version__ = "0.1.0"

from .config import ConsistencyError, DimensionBudgetError, NonChannelElementError
from .tensor_core import symmetric_encoder, symmetric_projector
from .cyclic import lmr_coeffs, optimal_reflection_coeffs, r_theta_coeffs
from .channels import dense_reflection_channel, effective_channel
from .distances import closed_form_rotation_distance, diamond_covariant
from .optima import boundary_curve, domain_classify, landscape, lmr_improvement, theta_star
from .repthy import ProbeSpec, build_probe_d2, ensemble_entropy, solve_q_d2
from .circuits import build_rotation_circuit
