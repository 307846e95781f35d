"""Volumes and memberships of the nested two-party correlation sets.

Five nested regions of the correlation cube [-1, 1]^4 are covered: the local
set, the quantum set (three equivalent characterizations), the quadratic
two-circle relaxation, the linear-bound relaxation and the full cube.  The
package computes memberships with signed margins, exact rational polytope
data (vertices, facets, volumes), Monte Carlo and quadrature volumes and
ratios, quantum witness points from two-qubit states, and the toggle metric
that justifies the flat measure.
"""

from .regions import (
    DEFAULT_TOLERANCE,
    TSIRELSON_BOUND,
    CorrelationPoint,
    MembershipProfile,
    MembershipResult,
    QCharacterization,
    RegionId,
    chsh_value,
    in_box_L,
    in_local,
    in_quantum_arcsin,
    in_quantum_landau,
    in_quantum_sextic,
    in_tsirelson_T,
    in_uffink_U,
    membership_profile,
    membership_profiles,
    region_margins,
    region_mask,
)
from .polytopes import (
    Behavior,
    DegeneratePolytope,
    Halfspace,
    JointProbabilityTable,
    NoSignalingViolation,
    RationalPolytope,
    UnboundedPolytope,
    behavior_from_table,
    check_no_signaling,
    correlation_polytope_C,
    cube_polytope_h,
    deterministic_behaviors,
    enumerate_facets,
    enumerate_vertices,
    exact_volume,
    local_polytope_v,
    ns_polytope_h,
    pr_box,
    project_to_correlations,
    signaling_example,
)
from .volumes import (
    ANALYTIC,
    DegenerateDenominator,
    EstimatorConfig,
    ToleranceNotMet,
    VolumeEstimate,
    exact_region_volume,
    headline_report,
    mc_volume,
    quadrature_volume,
    ratio_estimate,
)
from .quantum import (
    BlochDirection,
    MeasurementSettings,
    TwoQubitState,
    chsh_optimal_settings,
    correlation_expectation,
    correlation_point,
    sample_quantum_points,
    singlet,
)
from .toggles import (
    MinToggleResult,
    OutcomeSequence,
    TargetUnreachable,
    ToggleDistance,
    min_toggles,
    toggle_distance,
)

__version__ = "0.1.0"
