"""Exact tools for sensor-driven exploration of metric graphs: control
signals with a rational metric and geodesics, ported-graph environments with
deterministic unit-speed dynamics, canonical sensor traces, covering maps and
lifts, and equivalence deciders (sampled enumeration, bisimulation,
homomorphism search)."""

__version__ = "0.1.0"

from .covering import (
    CoveringCertificate,
    GraphMap,
    cyclic_cover,
    lift_state_path,
    pullback_sensor,
    universal_cover_truncation,
    verify_covering,
)
from .environments import (
    Environment,
    SensorTrace,
    Trajectory,
    apply,
    first_divergence,
    trace_of,
    trace_of_trajectory,
    trajectory,
)
from .equivalence import (
    BisimulationResult,
    DiscreteStateSpace,
    SampledVerdict,
    TraceComparison,
    check_equiv_sampled,
    compute_bisimulation,
    homomorphism_search,
    structure_map,
    traces_equal,
    verify_bisimulation,
)
from .errors import CovertraceError, PreconditionError, ValidationError
from .gallery import GALLERY, write_gallery
from .graphs import (
    Dart,
    EdgeState,
    GraphState,
    PortedGraph,
    VertexState,
)
from .sensors import (
    BLANK,
    EDGE,
    BeamSensor,
    DegreeSensor,
    FilteredSensor,
    LabelSensor,
    sensor_from_json,
)
from .signals import EMPTY, HALT, ControlSignal, distance, geodesic

__all__ = [
    "BLANK",
    "BeamSensor",
    "BisimulationResult",
    "ControlSignal",
    "CoveringCertificate",
    "CovertraceError",
    "Dart",
    "DegreeSensor",
    "DiscreteStateSpace",
    "EDGE",
    "EMPTY",
    "EdgeState",
    "Environment",
    "FilteredSensor",
    "GALLERY",
    "GraphMap",
    "GraphState",
    "HALT",
    "LabelSensor",
    "PortedGraph",
    "PreconditionError",
    "SampledVerdict",
    "SensorTrace",
    "TraceComparison",
    "Trajectory",
    "ValidationError",
    "VertexState",
    "apply",
    "check_equiv_sampled",
    "compute_bisimulation",
    "cyclic_cover",
    "distance",
    "first_divergence",
    "geodesic",
    "homomorphism_search",
    "lift_state_path",
    "pullback_sensor",
    "sensor_from_json",
    "structure_map",
    "trace_of",
    "trace_of_trajectory",
    "traces_equal",
    "trajectory",
    "verify_bisimulation",
    "verify_covering",
    "write_gallery",
]
