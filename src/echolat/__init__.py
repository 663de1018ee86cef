"""Pseudo-range multilateration, event matching, and echo-based room reconstruction.

The package solves three stacked problems, all with the propagation speed
normalised to 1 and in any ambient dimension n >= 2:

* :mod:`echolat.lateration` — recover an emission event (time and place)
  from per-sensor reception times, in closed form, including the
  rank-deficient case where two candidate events remain.
* :mod:`echolat.matching` — given unlabelled bags of reception times,
  decide which times belong together using a determinant relation, and
  multilaterate each consistent tuple (:mod:`echolat.relations` holds the
  underlying rank machinery).
* :mod:`echolat.acoustics` — treat first-order echoes as signals from
  mirrored sources and reconstruct the walls of a room.

``echolat.cli`` exposes the same functionality as a command-line tool
driven by JSON scenario files.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    DegenerateMirror,
    DegenerateSystem,
    DimensionMismatch,
    EcholatError,
    InconsistentTimes,
    LengthMismatch,
    NotSpanning,
    NumericError,
    ParseError,
    RankDeficient,
    ValidationError,
)
from .linalg import (
    QuadraticRoots,
    RootKind,
    least_squares_solve,
    numeric_rank,
    solve_quadratic,
)
from .lateration import (
    Candidate,
    EmissionEvent,
    GeometryReport,
    SensorArray,
    SolvePath,
    SolveResult,
    check_geometry,
    event_arrivals,
    measurement_matrix,
    solve,
)
from .relations import (
    QuadraticForm,
    batched_relation_residuals,
    cayley_menger_matrix,
    relation_matrix,
    relation_residual,
)
from .matching import (
    DetectedEvent,
    MatchConfig,
    MatchReport,
    ReceptionTable,
    match_events,
)
from .acoustics import (
    GoodnessReport,
    Room,
    Wall,
    WallDetection,
    detect_walls,
    goodness_check,
    mirror_point,
    same_plane,
    simulate_echoes,
    wall_from_mirror,
)
from .scenario import Scenario, load_scenario, parse_scenario

__all__ = [
    "__version__",
    # errors
    "EcholatError", "ValidationError", "LengthMismatch", "DimensionMismatch",
    "DegenerateMirror", "BudgetExceeded", "ParseError", "NumericError",
    "RankDeficient", "NotSpanning", "DegenerateSystem", "InconsistentTimes",
    # linear kernel
    "QuadraticRoots", "RootKind", "least_squares_solve",
    "numeric_rank", "solve_quadratic",
    # lateration
    "Candidate", "EmissionEvent", "GeometryReport", "SensorArray",
    "SolvePath", "SolveResult", "check_geometry", "event_arrivals",
    "measurement_matrix", "solve",
    # relations
    "QuadraticForm", "batched_relation_residuals", "cayley_menger_matrix",
    "relation_matrix", "relation_residual",
    # matching
    "DetectedEvent", "MatchConfig", "MatchReport", "ReceptionTable",
    "match_events",
    # acoustics
    "GoodnessReport", "Room", "Wall", "WallDetection",
    "detect_walls", "goodness_check", "mirror_point", "same_plane",
    "simulate_echoes", "wall_from_mirror",
    # scenarios
    "Scenario", "load_scenario", "parse_scenario",
]
