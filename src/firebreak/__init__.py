"""Fire containment in the L1 upper half-plane with vertical delaying barriers.

An exact, event-driven simulator for the consumption curve B(t) of a barrier
system (horizontal barrier along the x-axis plus vertical delaying segments),
generators for the interlaced constructions that contain the fire at build
speeds 17/9 and about 1.8771, parameter optimizers, and an independent
grid oracle for validation, whose column sweep gives breadth-first-search
arrivals.

Every submodule loads on first use (PEP 562): ``import firebreak`` loads none,
and ``firebreak.simulate`` or one of the names exported here imports the
submodule that defines it.  So a command of the CLI loads only the
submodules it runs.  No submodule imports numpy when it loads: only
``grid_arrival`` and ``GridScene.passable`` import it, when called.
"""

__version__ = "0.1.0"

# the public names each submodule gives the package
_EXPORTS = {
    "model": "FLOAT LEFT RATIONAL RIGHT BarrierSystem DocumentError SideCheck ValidationError "
             "ValidationReport from_document load normalize_doubling save scale to_document validate",
    "geodesic": "face_arrival_profiles geodesic_distance top_arrival_times",
    "simulate": "ConsumptionCurves KInterval PiecewiseLinearCurve RatioReport SpeedCheck check_speed "
                "consumption_curve curve_to_csv predict_intervals ratio_maxima "
                "ratio_report side_intervals valid_horizon",
    "constructions": "InterlacingParams build_flat build_improved build_seventeen_ninths",
    "optimize": "Optimum cycle_ratio delta_of_beta interlaced_maxima optimize_beta optimize_beta_delta",
    "oracle": "GridScene OracleComparison SampledCurve build_scene compare consumption_tolerance "
              "grid_arrival grid_consumption",
}
# name -> the submodule that defines it; a submodule names itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}

__all__ = sorted(_HOME.keys() - _EXPORTS.keys())


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib  # not ``from . import x``, which asks this hook again

    value = importlib.import_module(f".{_HOME[name]}", __name__)
    if name not in _EXPORTS:
        value = getattr(value, name)
    globals()[name] = value  # later lookups are plain attribute reads
    return value


def __dir__():
    # as if every submodule were imported eagerly: its names, no import machinery
    return sorted(set(globals()) - {"__getattr__", "__dir__", "_EXPORTS", "_HOME"} | _HOME.keys())
