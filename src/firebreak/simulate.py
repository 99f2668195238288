"""Event-driven computation of consumption curves, k-intervals and ratios.

Every barrier point is consumed at the minimum arrival time over the faces
covering it.  Each face profile is piecewise linear with slopes +-1 in
arclength, so consumption accumulates as a sum of unit-rate ramps: one ramp
per monotone profile piece, active between the piece's earliest and latest
arrival time.  B(t) is thus piecewise linear with integer slopes: the number
k of simultaneously active consumption points.  A near (origin-facing)
profile is pointwise no later than the far one (their difference shrinks to
0 at the top), so far faces consume nothing and get no ramps.

One sweep over a side's ramps yields its curve and maximal k-intervals; the
total is the same sweep over both sides' ramps.  A rational system is first
rescaled by the LCM of its denominators and the horizon's, so ramps, sweeps
and speed checks run on Python ints; numbers become Fractions again only in
the public curves and intervals.  Float mode runs the same code at scale 1.

Head-start accounting: ground within ``head_start`` of the origin is
burned over but adds nothing to B(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import NamedTuple

from .geodesic import GROUND, side_profiles, top_arrival_times
from .model import FLOAT, LEFT, RIGHT, SIDES, BarrierSystem, approx, render_number, validate

TOTAL = "total"

# float mode: event times closer than this relative gap collapse to one breakpoint
MERGE_RTOL = 1e-12


class PiecewiseLinearCurve:
    """Continuous nondecreasing piecewise-linear curve given by its breakpoints."""

    __slots__ = ("points",)

    def __init__(self, points):
        points = tuple((t, v) for t, v in points)
        if len(points) < 2:
            raise ValueError("curve needs at least two breakpoints")
        for (t0, v0), (t1, v1) in zip(points, points[1:]):
            if not t1 > t0:
                raise ValueError(f"breakpoint times must increase: {t0} -> {t1}")
            if v1 < v0:
                raise ValueError(f"curve must be nondecreasing: {v0} -> {v1}")
        self.points = points

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    @property
    def start(self):
        return self.points[0][0]

    @property
    def end(self):
        return self.points[-1][0]

    def value_at(self, t):
        pts = self.points
        if not (pts[0][0] <= t <= pts[-1][0]):
            raise ValueError(f"time {t} outside curve domain [{pts[0][0]}, {pts[-1][0]}]")
        lo, hi = 0, len(pts) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if pts[mid][0] <= t:
                lo = mid
            else:
                hi = mid
        t0, v0 = pts[lo]
        t1, v1 = pts[hi]
        if t == t0:
            return v0
        return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


@dataclass(frozen=True)
class KInterval:
    """Maximal time interval with a constant number of consumption points."""

    side: str
    t_start: object
    t_end: object
    k: int


@dataclass(frozen=True)
class RatioReport:
    """Local maxima and supremum of the consumption ratio Q(t) = B(t)/t.

    With ``feasible_for`` set, ``earliest_violation`` is as in ``SpeedCheck``,
    over (0, valid_horizon].
    """

    local_maxima: tuple
    supremum: object
    sup_time: object
    valid_horizon: object
    feasible_for: object = None
    feasible: bool | None = None
    earliest_violation: object = None


@dataclass(frozen=True)
class SpeedCheck:
    """Whether B(t) <= speed*t holds on (0, horizon], and where it first fails.

    ``earliest_violation`` is the infimum of the times in (0, horizon] where
    B(t) > speed*t, or None when there are none.  At that time B = speed*t,
    and B exceeds speed*t just after it.  It is 0 exactly when the violation
    starts at the origin, which needs zero head start.
    """

    feasible: bool
    speed: object
    horizon: object
    earliest_violation: object = None


class ConsumptionCurves(NamedTuple):
    total: PiecewiseLinearCurve
    left: PiecewiseLinearCurve
    right: PiecewiseLinearCurve
    intervals: tuple  # KInterval entries for right, left and total


# -- horizons ------------------------------------------------------------------


def _earliest_top(system: BarrierSystem, back: int):
    """The earliest over the sides of each side's ``back``-th top from the end (its first when fewer)."""
    tops = (top_arrival_times(system, side) for side in SIDES)
    bounds = [times[max(len(times) - back, 0)] for times in tops if times]
    return min(bounds) if bounds else None


def valid_horizon(system: BarrierSystem):
    """Time range over which a truncated prefix still matches the infinite system.

    Per side: the arrival time at the top of the last generated vertical
    minus one full cycle, i.e. the arrival at the second-to-last top.  With
    fewer than two verticals the last top itself is used; with none there is
    no structural bound and None is returned.
    """
    return _earliest_top(system, 2)


def default_horizon(system: BarrierSystem):
    """Arrival at the earliest side's last top: the natural simulation span."""
    return _earliest_top(system, 1)


# -- integer lattice, ramps and sweep ---------------------------------------------


class _Lattice(NamedTuple):
    """A system and a horizon as integer numerators over one scale (float mode: as they are)."""

    mode: str
    zero: object
    head: object
    pairs: dict  # side -> (gap, height) pairs
    horizon: object
    number: object  # (n, den=1) -> the system number n / (den * scale)


def _lattice(system: BarrierSystem, horizon) -> _Lattice:
    """Rescale by the LCM of all denominators so every coordinate is an int.

    Times and consumed lengths scale together, so Q(t) and feasibility are
    unchanged; ramps, sweeps and checks then run on Python ints.
    """
    pairs = {side: system.pairs(side) for side in SIDES}
    if system.mode == FLOAT:
        return _Lattice(FLOAT, 0.0, system.head_start, pairs, horizon, lambda n, den=1: n / den)
    lengths = [system.head_start, horizon] + [x for side in SIDES for pair in pairs[side] for x in pair]
    scale = math.lcm(*(x.denominator for x in lengths))

    def on(x):
        return x.numerator * (scale // x.denominator)

    def number(n, den=1):
        return Fraction(n) if den * scale == 1 else Fraction(n, den * scale)

    pairs = {side: [(on(g), on(h)) for g, h in pairs[side]] for side in SIDES}
    return _Lattice(system.mode, 0, on(system.head_start), pairs, on(horizon), number)


def _side_ramps(lat: _Lattice, side: str) -> list:
    """Unit-rate consumption ramps (t_lo, t_hi) for one side, head start excluded."""
    head = lat.head
    ramps = []
    for kind, _, pts in side_profiles(lat.pairs[side], lat.horizon, lat.zero, far=False):
        if kind == GROUND:
            if pts[-1][0] <= head:
                continue
            if pts[0][0] < head:
                # ground slope is +1: shift start to the head-start boundary
                pts = [(head, pts[0][1] + (head - pts[0][0]))] + pts[1:]
        ramps.extend((min(t0, t1), max(t0, t1)) for (_, t0), (_, t1) in zip(pts, pts[1:]) if t0 != t1)
    return ramps


def _merge_event_times(items: list, mode: str) -> list:
    """Sort (time, delta) events; in float mode collapse near-identical times."""
    items.sort(key=lambda it: it[0])
    merged = []
    for t, delta in items:
        if merged and (
            t == merged[-1][0]
            or (mode == FLOAT and t - merged[-1][0] <= MERGE_RTOL * max(abs(t), 1.0))
        ):
            merged[-1][1] += delta
        else:
            merged.append([t, delta])
    return merged


def _sweep(ramps: list, lat: _Lattice):
    """Breakpoints of the sum of ``ramps`` up to the horizon, and each segment's k.

    Adjacent segments never share a k: each segment is a maximal k-interval.
    """
    events = [(lo, +1) for lo, _ in ramps] + [(hi, -1) for _, hi in ramps]
    points, slopes, k = [(lat.zero, lat.zero)], [], 0
    for t, delta in _merge_event_times(events, lat.mode) + [(lat.horizon, 0)]:
        if t > points[-1][0]:
            if slopes and slopes[-1] == k:  # same k: extend the last segment
                del points[-1], slopes[-1]
            t0, v0 = points[-1]
            points.append((t, v0 + k * (t - t0)))
            slopes.append(k)
        k += delta
    return points, slopes


def _simulation_horizon(system: BarrierSystem, horizon, truncated: bool):
    """The checked horizon of ``consumption_curve`` and ``check_speed``."""
    if horizon is None:
        horizon = default_horizon(system)
        if horizon is None:
            raise ValueError("system has no verticals; specify an explicit horizon")
        truncated = True
    else:
        horizon = system.number(horizon)
    if horizon <= 0:
        raise ValueError(f"horizon must be > 0, got {horizon}")
    if not truncated and (bound := valid_horizon(system)) is not None and horizon > bound:
        raise ValueError(
            f"horizon {approx(horizon)} exceeds the valid horizon {approx(bound)}; "
            "pass truncated=True to simulate the truncated system anyway"
        )
    return horizon


def consumption_curve(
    system: BarrierSystem, horizon=None, truncated: bool = False
) -> ConsumptionCurves:
    """Consumption curves B(t) for both sides and their sum, with k-intervals.

    ``horizon`` defaults to the arrival at the earliest side's last top.  An
    explicit horizon beyond the valid horizon requires ``truncated=True``:
    past that point a longer instance of the same construction would burn
    differently.
    """
    lat = _lattice(system, _simulation_horizon(system, horizon, truncated))
    right, left = _side_ramps(lat, RIGHT), _side_ramps(lat, LEFT)
    curves, intervals = {}, []
    for side, ramps in ((RIGHT, right), (LEFT, left), (TOTAL, right + left)):
        points, slopes = _sweep(ramps, lat)
        points = [(lat.number(t), lat.number(v)) for t, v in points]
        curves[side] = PiecewiseLinearCurve(points)
        segments = zip(points, points[1:])
        intervals.extend(KInterval(side, t0, t1, k) for ((t0, _), (t1, _)), k in zip(segments, slopes))
    return ConsumptionCurves(curves[TOTAL], curves[LEFT], curves[RIGHT], tuple(intervals))


def side_intervals(curves: ConsumptionCurves, side: str) -> tuple:
    return tuple(iv for iv in curves.intervals if iv.side == side)


# -- consumption ratio -----------------------------------------------------------


def ratio_maxima(curve: PiecewiseLinearCurve, valid_horizon=None) -> RatioReport:
    """Local maxima and supremum of Q(t) = B(t)/t over (0, valid_horizon].

    Q is monotone between breakpoints, so a breakpoint is a local maximum
    iff the incoming slope exceeds Q(t) and the outgoing slope does not.
    Q(0) is taken as 0.
    """
    pts = curve.points
    bound = curve.end if valid_horizon is None else min(valid_horizon, curve.end)
    if bound <= curve.start:
        raise ValueError(f"valid horizon {bound} not inside curve domain")

    maxima = []
    candidates = []  # (t, Q(t)) at every breakpoint in (0, bound], then at the bound
    for j in range(1, len(pts) - 1):
        t, v = pts[j]
        if t <= 0 or t > bound:
            continue
        q = v / t
        candidates.append((t, q))
        t0, v0 = pts[j - 1]
        t1, v1 = pts[j + 1]
        k_in = (v - v0) / (t - t0)
        k_out = (v1 - v) / (t1 - t)
        if k_in > q >= k_out:
            maxima.append((t, q))
    candidates.append((bound, curve.value_at(bound) / bound))
    sup_time, sup = max(candidates, key=lambda c: c[1])  # the first of equal maxima
    return RatioReport(local_maxima=tuple(maxima), supremum=sup, sup_time=sup_time, valid_horizon=bound)


def _feasibility(points, speed):
    """Where B(t) <= speed*t first fails on (0, end]: the crossing time as (num, den), or None.

    The crossing time is the infimum of the violating times (see
    ``SpeedCheck``): B = speed*t there, so it is the segment start ``t0``
    when B already touches speed*t at ``t0``, which at ``t0 = 0`` needs zero
    head start.

    B - speed*t is linear per segment, so checking segment ends is
    exhaustive.  With speed = p/q every test is the cross-multiplied
    ``q*B > p*t``; that is invariant under a common scaling of t and B, so
    ``points`` may be lattice numerators.
    """
    p, q = (speed, 1) if isinstance(speed, float) else (speed.numerator, speed.denominator)
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        if q * v1 > p * t1:
            # first upward crossing of B(t) = speed*t inside (t0, t1]
            if q * v0 == p * t0:
                return t0, 1
            return q * (v0 * t1 - v1 * t0), p * (t1 - t0) - q * (v1 - v0)
    return None


def check_speed(system: BarrierSystem, speed, horizon=None, truncated: bool = False) -> SpeedCheck:
    """Feasibility of build speed ``speed``: B(t) <= speed*t up to the horizon.

    Sweeps only the total, on the integer lattice; no curve objects are built.
    ``earliest_violation`` is the infimum of the times in (0, horizon] where
    B(t) > speed*t; it is 0 when the violation starts at the origin (zero
    head start).
    """
    speed = system.number(speed)
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    horizon = _simulation_horizon(system, horizon, truncated)
    lat = _lattice(system, horizon)
    points, _ = _sweep(_side_ramps(lat, RIGHT) + _side_ramps(lat, LEFT), lat)
    hit = _feasibility(points, speed)
    return SpeedCheck(hit is None, speed, horizon, None if hit is None else lat.number(*hit))


def ratio_report(system: BarrierSystem, horizon=None, speed=None, truncated: bool = False):
    """Simulate, then analyze Q over the valid horizon.

    With ``speed``, the report's feasibility fields are ``check_speed`` over
    the report's valid horizon.
    """
    curves = consumption_curve(system, horizon, truncated=truncated)
    report = ratio_maxima(curves.total, valid_horizon(system))
    if speed is not None:
        verdict = check_speed(system, speed, report.valid_horizon, truncated=True)
        report = replace(
            report,
            feasible_for=verdict.speed,
            feasible=verdict.feasible,
            earliest_violation=verdict.earliest_violation,
        )
    return curves, report


# -- analytic k-interval cycle -----------------------------------------------------


def predict_intervals(system: BarrierSystem, side: str, index: int) -> list:
    """Analytic (length, k) cycle following the top of vertical ``index`` (1-based).

    Requires the side to satisfy the growth conditions (each gap at least
    the previous height, heights at least doubling); the cycle is then
    one 0-interval of the barrier's own height, a 1-interval along the next
    gap, a 3-interval of the same height again, and a closing 1-interval up
    the next barrier.  Zero-length entries are dropped.
    """
    pairs = system.pairs(side)  # rejects an unknown side before the report is read
    report = validate(system)
    side_check = report.right if side == RIGHT else report.left
    if not side_check.conditions7:
        raise ValueError(
            f"{side} side violates the growth conditions at barrier "
            f"{side_check.conditions7_violation}"
        )
    if not 1 <= index <= len(pairs) - 1:
        raise ValueError(f"cycle index must be in [1, {len(pairs) - 1}], got {index}")
    height = pairs[index - 1][1]
    next_gap, next_height = pairs[index]
    entries = [
        (height, 0),
        (next_gap - height, 1),
        (height, 3),
        (next_height - 2 * height, 1),
    ]
    return [(length, k) for length, k in entries if length > 0]


# -- exports -----------------------------------------------------------------------


def curve_to_csv(curves: ConsumptionCurves) -> str:
    """Breakpoint rows of the total curve: t, B_total, B_left, B_right, k_total."""
    ks = [iv.k for iv in side_intervals(curves, TOTAL)]  # one per segment; the last row repeats the last
    lines = ["t,B_total,B_left,B_right,k_total"]
    points = curves.total.points
    sides = zip(_values_along(curves.left, points), _values_along(curves.right, points))
    for (t, v), (left, right), k in zip(points, sides, ks + ks[-1:]):
        lines.append(f"{float(t)!r},{float(v)!r},{float(left)!r},{float(right)!r},{k}")
    return "\n".join(lines) + "\n"


def _values_along(curve: PiecewiseLinearCurve, points):
    """``curve.value_at(t)`` for the increasing t of ``points``, in one walk, bit for bit."""
    pts = curve.points
    i = 0
    for t, _ in points:
        while i < len(pts) - 2 and pts[i + 1][0] <= t:
            i += 1
        (t0, v0), (t1, v1) = pts[i], pts[i + 1]
        yield v0 if t == t0 else v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def intervals_to_document(curves: ConsumptionCurves, mode: str) -> dict:
    """Each side's k-intervals, one per segment of its curve: every breakpoint time is rendered once."""
    doc = {}
    for side, curve in ((RIGHT, curves.right), (LEFT, curves.left), (TOTAL, curves.total)):
        times = [render_number(t, mode) for t, _ in curve.points]
        intervals = zip(side_intervals(curves, side), times, times[1:])
        doc[side] = [{"t_start": t0, "t_end": t1, "k": iv.k} for iv, t0, t1 in intervals]
    return doc


def report_to_document(report: RatioReport, mode: str) -> dict:
    return {
        "local_maxima": [
            {"t": render_number(t, mode), "q": render_number(q, mode)} for t, q in report.local_maxima
        ],
        "supremum": render_number(report.supremum, mode),
        "sup_time": render_number(report.sup_time, mode),
        "valid_horizon": render_number(report.valid_horizon, mode),
        "feasible_for": render_number(report.feasible_for, mode),
        "feasible": report.feasible,
        "earliest_violation": render_number(report.earliest_violation, mode),
    }
