"""Volumes and memberships of the nested two-party correlation sets.

Five nested regions of the correlation cube [-1, 1]^4 are covered: the local
set, the quantum set (three equivalent characterizations), the quadratic
two-circle relaxation, the linear-bound relaxation and the full cube.  The
package computes memberships with signed margins, exact rational polytope
data (vertices, facets, volumes), Monte Carlo and quadrature volumes and
ratios, quantum witness points from two-qubit states, and the toggle metric
that justifies the flat measure.

``import bellvol`` loads ``regions`` alone: every other module, and its
public names, is imported on first access (PEP 562).  So a membership
profile needs nothing more, ``polytopes`` and ``toggles`` (which compute with
``fractions``) load only for the exact geometry and the toggle metric,
``estimates`` (the deterministic volumes, exact and by quadrature) only for
volumes, ``volumes`` (the Monte Carlo stream) only for sampled volumes and
ratios, and numpy only with ``volumes`` and ``quantum``, which compute with
arrays, and with the Q and U quadrature of ``estimates``.
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

__version__ = "0.1.0"

#: The public names imported on first access, by their home module.
_LAZY = {
    "polytopes": (
        "DegeneratePolytope",
        "Halfspace",
        "JointProbabilityTable",
        "RationalPolytope",
        "UnboundedPolytope",
        "check_no_signaling",
        "correlation_polytope_C",
        "cube_polytope_h",
        "enumerate_facets",
        "enumerate_vertices",
        "exact_volume",
        "local_polytope_v",
        "ns_polytope_h",
        "pr_box",
        "signaling_example",
    ),
    "toggles": (
        "MinToggleResult",
        "OutcomeSequence",
        "TargetUnreachable",
        "ToggleDistance",
        "min_toggles",
        "toggle_distance",
    ),
    "estimates": (
        "ANALYTIC",
        "ToleranceNotMet",
        "VolumeEstimate",
        "exact_region_volume",
        "quadrature_volume",
    ),
    "volumes": (
        "DegenerateDenominator",
        "EstimatorConfig",
        "headline_report",
        "mc_volume",
    ),
    "quantum": (
        "BlochDirection",
        "MeasurementSettings",
        "TwoQubitState",
        "chsh_optimal_settings",
        "correlation_point",
        "sample_quantum_points",
        "singlet",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    home = _HOME.get(name, name)
    if home not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    module = importlib.import_module(f".{home}", __name__)
    return module if home == name else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})
