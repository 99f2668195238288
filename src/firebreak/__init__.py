"""Fire containment in the L1 upper half-plane with vertical delaying barriers.

An exact, event-driven simulator for the consumption curve B(t) of a barrier
system (horizontal barrier along the x-axis plus vertical delaying segments),
generators for the interlaced constructions that contain the fire at build
speeds 17/9 and about 1.8771, parameter optimizers, and an independent
grid-BFS oracle for validation.

The oracle, and with it numpy, loads on first use: ``firebreak.oracle`` or
any of its names exported here imports it (PEP 562), so everything else
starts without numpy.
"""

from .model import (
    FLOAT,
    LEFT,
    RATIONAL,
    RIGHT,
    BarrierSystem,
    DocumentError,
    SideCheck,
    ValidationError,
    ValidationReport,
    from_document,
    load,
    normalize_doubling,
    save,
    scale,
    to_document,
    validate,
)
from .geodesic import (
    FaceArrivalProfile,
    face_arrival_profiles,
    forced_descent,
    geodesic_distance,
    top_arrival_times,
)
from .simulate import (
    ConsumptionCurves,
    KInterval,
    PiecewiseLinearCurve,
    RatioReport,
    SpeedCheck,
    check_speed,
    consumption_curve,
    curve_to_csv,
    default_horizon,
    predict_intervals,
    ratio_maxima,
    ratio_report,
    side_intervals,
    valid_horizon,
)
from .constructions import (
    InterlacingParams,
    build_flat,
    build_improved,
    build_seventeen_ninths,
)
from .optimize import (
    Optimum,
    cycle_ratio,
    delta_of_beta,
    interlaced_maxima,
    optimize_beta,
    optimize_beta_delta,
)

__version__ = "0.1.0"

__all__ = [
    "BarrierSystem",
    "ConsumptionCurves",
    "DocumentError",
    "FLOAT",
    "FaceArrivalProfile",
    "GridScene",
    "InterlacingParams",
    "KInterval",
    "LEFT",
    "Optimum",
    "OracleComparison",
    "PiecewiseLinearCurve",
    "RATIONAL",
    "RIGHT",
    "RatioReport",
    "SampledCurve",
    "SideCheck",
    "SpeedCheck",
    "ValidationError",
    "ValidationReport",
    "build_flat",
    "build_improved",
    "build_scene",
    "build_seventeen_ninths",
    "check_speed",
    "compare",
    "consumption_curve",
    "consumption_tolerance",
    "curve_to_csv",
    "cycle_ratio",
    "default_horizon",
    "delta_of_beta",
    "face_arrival_profiles",
    "forced_descent",
    "from_document",
    "geodesic_distance",
    "grid_arrival",
    "grid_consumption",
    "interlaced_maxima",
    "load",
    "normalize_doubling",
    "optimize_beta",
    "optimize_beta_delta",
    "predict_intervals",
    "ratio_maxima",
    "ratio_report",
    "save",
    "scale",
    "side_intervals",
    "to_document",
    "top_arrival_times",
    "valid_horizon",
    "validate",
]

_ORACLE_NAMES = frozenset({
    "GridScene",
    "OracleComparison",
    "SampledCurve",
    "build_scene",
    "compare",
    "consumption_tolerance",
    "grid_arrival",
    "grid_consumption",
})


def __getattr__(name):
    if name == "oracle" or name in _ORACLE_NAMES:
        import importlib  # not ``from . import oracle``, which asks this hook again

        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    # as if the oracle were imported eagerly: its names, no import machinery
    return sorted(set(globals()) - {"__getattr__", "__dir__", "_ORACLE_NAMES"}
                  | _ORACLE_NAMES | {"oracle"})
