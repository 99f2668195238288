"""Event-driven computation of consumption curves, k-intervals and ratios.

Every barrier point is consumed at the minimum arrival time over the faces
covering it.  Each face profile is piecewise linear with slopes +-1 in
arclength, so consumption accumulates as a sum of unit-rate ramps: one ramp
per monotone profile piece, active between the piece's earliest and latest
arrival time.  B(t) is thus piecewise linear with integer slopes: the number
k of simultaneously active consumption points.  A near (origin-facing)
profile is pointwise no later than the far one (their difference shrinks to
0 at the top), so far faces consume nothing and get no ramps.  A side's
ramps come straight from its clearance/top recurrence in one loop, with the
expressions of the profiles of ``face_arrival_profiles`` but no point lists.

One sort of a side's ramp ends and one loop over them yield its curve and
maximal k-intervals; the total is the same loop over one merge of both
sides' sorted ends.  In float mode an event time within ``MERGE_RTOL`` of a
run's first time, relative to its own, joins that run, so a float system
scaled by a power of two has its curve scaled bit for bit.  A rational
system is first rescaled by the LCM of its denominators and the horizon's,
so the tops behind the horizons, ramps, sweeps, the curves' order checks and
speed checks run on Python ints, and each rational curve keeps that lattice
(scale, int points, segment ks) and makes its points when read.  Fractions
are a boundary type: one is made for each number a caller reads, and none
is compared or combined again in a loop; the lattice helper is
``model._on_one_scale``.  Float mode runs the same code at scale 1.  A kept
lattice's ``start``, ``end`` and ``value_at`` make only the breakpoints they
read, and ``value_at`` reads every time (a numpy int as an int) between two
of them with one evaluator, ``_between``.  On a kept lattice the ratio scan
tests a rise of Q by ``k*t0 > v0``, each CSV cell is one int division, and
the k-interval document renders each time once, from its int.  Off a
lattice the ratio scan's float products decide where they differ, and every
other pair is read on its exact integer ratios.  Other curves are read
exactly on one lattice of ints made from their points, by the CSV export
only without a float: curves with a float, and the grid oracle's
``compare``, are handed to one float evaluator, ``value_at`` bit for bit,
which reads a kept lattice on its ints.

Head-start accounting: ground within ``head_start`` of the origin is
burned over but adds nothing to B(t).
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import itemgetter, sub
from typing import NamedTuple

from .model import (FLOAT, LEFT, RATIONAL, RIGHT, BarrierSystem, _check_side, _on_one_scale, _positive, _shown,
                    _verticals, _whole, approx, render_number)

TOTAL = "total"

# float mode: event times within this gap, relative to their own, of a run's first time join the run
MERGE_RTOL = 1e-12


class PiecewiseLinearCurve:
    """Continuous nondecreasing piecewise-linear curve by its breakpoints; a lattice curve makes them when read."""

    __slots__ = ("_points", "_lattice")  # _lattice: a rational sweep's (scale, int points, ks), else None

    def __init__(self, points):
        points = tuple((t, v) for t, v in points)
        if bad := [point for point in points if not all(x == x and abs(x) != math.inf for x in point)]:
            raise ValueError(f"breakpoint {bad[0]!r} is not finite")
        _check_breakpoints(points)
        self._points, self._lattice = points, None

    @classmethod
    def _checked(cls, points: list, scale: int | None, ks: tuple) -> "PiecewiseLinearCurve":
        """A sweep's curve, kept on its lattice if it has a ``scale``; ``_check_breakpoints`` passed its points."""
        curve = cls.__new__(cls)
        curve._points, curve._lattice = (tuple(points), None) if scale is None else (None, (scale, points, ks))
        return curve

    @property
    def points(self) -> tuple:
        if self._points is None:
            self._points = tuple(map(self._point, range(len(self))))
        return self._points

    def _point(self, i):  # breakpoint i, made alone from the lattice while the points are not
        return self._points[i] if self._points else tuple(_number(self._lattice[0], x) for x in self._lattice[1][i])

    def _count(self, t) -> int:  # breakpoints at or before t: on a lattice, at or before floor(t*scale)
        if not self._lattice:
            return bisect_right(self._points, (t, math.inf))  # (t, inf) sorts after every breakpoint at t
        a, b = (t if type(t) in (int, float, Fraction) else Fraction(t)).as_integer_ratio()
        return bisect_right(self._lattice[1], ((a * self._lattice[0]) // b, math.inf))

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self._points or self._lattice[1])

    @property
    def start(self):
        return self._point(0)[0]

    @property
    def end(self):
        return self._point(-1)[0]

    def value_at(self, t):
        t = _builtin(t)
        if self.start <= t <= self.end:
            hi = min(self._count(t), len(self) - 1)
            return _between(t, *self._point(hi - 1), *self._point(hi))
        raise ValueError(f"time {approx(t)} outside curve domain [{approx(self.start)}, {approx(self.end)}]")


def _builtin(t):
    """A rational time of a type not built in (numpy's ints) as an int or a Fraction; any other time as it is."""
    if isinstance(t, (int, float, Fraction)) or not isinstance(t, numbers.Rational):
        return t
    return int(t) if isinstance(t, numbers.Integral) else Fraction(int(t.numerator), int(t.denominator))


def _number(scale, n, den=1):
    """The number ``n / (den * scale)`` of a lattice: a Fraction, or with no scale (float mode) a float."""
    return n / den if scale is None else Fraction(n) if den * scale == 1 else Fraction(n, den * scale)


def _between(t, t0, v0, t1, v1):
    """The value at ``t`` on the segment from (t0, v0) to (t1, v1), exact at both ends.

    Floats past about 1e154 overflow ``(v1 - v0) * (t - t0)``; only there
    is the time step divided first.  Exact times closer than the smallest
    float have a float run of 0.0: a float t between them is read exactly.
    """
    if t == t0:
        return v0
    if t == t1:
        return v1
    try:
        rise = (v1 - v0) * (t - t0)
        if rise == math.inf:
            return v0 + (v1 - v0) * ((t - t0) / (t1 - t0))
        return v0 + rise / (t1 - t0)
    except ZeroDivisionError:
        return float(v0 + (v1 - v0) * (Fraction(t) - t0) / (t1 - t0))


def _check_breakpoints(points) -> None:
    """Refuse fewer than two breakpoints, times that do not increase or values that decrease."""
    if len(points) < 2:
        raise ValueError("curve needs at least two breakpoints")
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        if not t1 > t0:
            raise ValueError(f"breakpoint times must increase: {approx(t0)} -> {approx(t1)}")
        if v1 < v0:
            raise ValueError(f"curve must be nondecreasing: {approx(v0)} -> {approx(v1)}")


class KInterval(NamedTuple):
    """Maximal time interval with a constant number of consumption points."""

    side: str
    t_start: object
    t_end: object
    k: int


class RatioReport(NamedTuple):
    """Local maxima and supremum of the consumption ratio Q(t) = B(t)/t; ``check_speed`` decides a speed."""

    local_maxima: tuple
    supremum: object
    sup_time: object
    valid_horizon: object


class SpeedCheck(NamedTuple):
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
    ks: dict  # right, left and total -> the tuple of the k of each segment of that curve

    @property
    def intervals(self) -> tuple:
        """KInterval entries for right, left and total."""
        return tuple(iv for side in self.ks for iv in side_intervals(self, side))


# -- integer lattice and horizons -------------------------------------------------


class _Lattice(NamedTuple):
    """A system and a horizon as integer numerators over one scale (float mode: as they are); see ``_number``."""

    head: object
    pairs: dict  # side -> (gap, height) pairs
    horizon: object
    scale: int | None = None  # None in float mode

    @property
    def zero(self):  # a float curve starts at (0.0, 0.0)
        return 0.0 if self.scale is None else 0


def _scaled(system: BarrierSystem, horizon=None) -> _Lattice:
    """Rescale by the LCM of all denominators so every coordinate is an int.

    Times and consumed lengths scale together, so Q(t) and feasibility are
    unchanged; tops, ramps, sweeps and checks then run on Python ints.
    """
    if system.mode == FLOAT:
        return _Lattice(system.head_start, {RIGHT: system.right, LEFT: system.left}, horizon)
    scale, (right, left, [(head, end)]) = _on_one_scale(system.right, system.left, [(system.head_start, horizon or 0)])
    return _Lattice(head, {RIGHT: right, LEFT: left}, None if horizon is None else end, scale)


def _earliest_top(lat: _Lattice, back: int):
    """The earliest over the sides of each side's ``back``-th top from the end (its first when fewer).

    Each is ``_verticals``' top in closed form: its foot adds the gaps in order (a float one rounds as there,
    not as ``sum``'s compensated addition) and its clearance is the tallest height before it."""
    bounds = []
    for pairs in filter(None, lat.pairs.values()):
        i = max(len(pairs) - back, 0)
        *_, foot = accumulate(map(itemgetter(0), pairs[:i + 1]), initial=lat.zero)
        height, clearance = pairs[i][1], max(map(itemgetter(1), pairs[:i]), default=lat.zero)
        bounds.append(foot + 2 * clearance - height if clearance >= height else foot + height)
    return min(bounds, default=None)


def valid_horizon(system: BarrierSystem):
    """Time range over which a truncated prefix still matches the infinite system.

    Per side: the arrival time at the top of the last generated vertical
    minus one full cycle, i.e. the arrival at the second-to-last top.  With
    fewer than two verticals the last top itself is used; with none there is
    no structural bound and None is returned.
    """
    lat = _scaled(system)
    top = _earliest_top(lat, 2)
    return None if top is None else _number(lat.scale, top)


def _lattice(system: BarrierSystem, horizon=None, truncated: bool = False) -> _Lattice:
    """The system on its lattice, with the checked horizon of ``consumption_curve`` and ``check_speed``.

    ``horizon`` defaults to the arrival at the earliest side's last top.  An
    explicit one must be > 0 and, unless ``truncated``, no later than the
    valid horizon.
    """
    if horizon is None:
        lat = _scaled(system)
        if (top := _earliest_top(lat, 1)) is None:
            raise ValueError("system has no verticals; specify an explicit horizon")
        return lat._replace(horizon=top)
    horizon = _positive(horizon, system.mode, "horizon")
    lat = _scaled(system, horizon)
    if not truncated and (bound := _earliest_top(lat, 2)) is not None and lat.horizon > bound:
        raise ValueError(
            f"horizon {approx(horizon)} exceeds the valid horizon {approx(_number(lat.scale, bound))}; "
            "pass truncated=True to simulate the truncated system anyway"
        )
    return lat


# -- ramps and sweep ----------------------------------------------------------------


def _side_ramps(lat: _Lattice, side: str) -> list:
    """Unit-rate consumption ramps (t_lo, t_hi) for one side, head start excluded.

    One loop over the side's recurrence gives the monotone pieces of its
    ground and near-face profiles (see ``face_arrival_profiles``) truncated
    at the horizon, with the same expressions, so bit for bit the same
    ramps.  A piece between times ``a <= b`` keeps ``(a, min(b, horizon))``
    when ``a`` is before the horizon and ``a != b``.  A ground piece rises
    with x at slope +1: it is dropped when it ends (in x) within the head
    start, and otherwise starts no earlier than the head start's end.
    """
    head, horizon, ramps = lat.head, lat.horizon, []
    for pos, foot, height, clearance, top in _verticals(lat.pairs[side], lat.zero):
        start = pos + 2 * clearance  # the ground piece's first arrival
        if foot is None:  # the trailing ray, up to where it meets the horizon
            end = horizon - 2 * clearance
            if end > pos and start < horizon and end > head:
                lo = start + (head - pos) if pos < head else start
                if lo != horizon:
                    ramps.append((lo, horizon) if lo < horizon else (horizon, lo))
            return ramps
        rise = foot + 2 * clearance  # at the ground's end and the near face's base
        end = foot if rise <= horizon else pos + (horizon - start) if start < horizon else None
        if end is not None and end > head:
            lo, hi = start + (head - pos) if pos < head else start, rise if rise <= horizon else horizon
            if lo != hi:
                ramps.append((lo, hi) if lo < hi else (hi, lo))
        if 0 < clearance < height:  # the near face is first reached at the clearance, then both ways
            low = foot + clearance
            pieces = ((low, rise), (low, top))
        else:
            pieces = ((rise, top) if rise <= top else (top, rise),)
        for lo, hi in pieces:
            if lo < horizon and lo != hi:
                ramps.append((lo, hi if hi <= horizon else horizon))


def _events(ramps: list) -> list:
    """The (time, +1) start and (time, -1) end of each of ``ramps``, sorted by time."""
    return sorted([(lo, +1) for lo, _ in ramps] + [(hi, -1) for _, hi in ramps], key=itemgetter(0))


def _sweep(events: list, lat: _Lattice):
    """Breakpoints of the sum of the ramps of the time-sorted ``events`` up to the horizon, and each segment's k.

    The first event of a run is a breakpoint; the others share its time, or
    in float mode lie within ``MERGE_RTOL`` of it relative to their own (times
    are >= 0), and only change k, in any order.  The horizon closes the last
    segment and is never merged.  Adjacent segments never share a k.  A float
    curve that ends past the float range (and none before its end) is refused.
    """
    exact = lat.scale is not None
    points, slopes, k, run = [(lat.zero, lat.zero)], [], 0, lat.zero
    for t, delta in chain(events, [(lat.horizon, 0)]):
        if t > run and (exact or not delta or t - run > MERGE_RTOL * t):  # a run's first time, or the horizon
            if slopes and slopes[-1] == k:  # same k: extend the last segment
                del points[-1], slopes[-1]
            t0, v0 = points[-1]
            points.append((t, v0 + k * (t - t0)))
            slopes.append(k)
            run = t
        k += delta
    if not exact and not (math.isfinite(points[-1][0]) and math.isfinite(points[-1][1])):
        t = next(t for t, v in points if not (math.isfinite(t) and math.isfinite(v)))
        raise ValueError(f"float curve leaves the float range at t = {approx(t)}; use rational mode for exact results")
    return points, tuple(slopes)


def consumption_curve(
    system: BarrierSystem, horizon=None, truncated: bool = False
) -> ConsumptionCurves:
    """Consumption curves B(t) for both sides and their sum, with k-intervals.

    ``horizon`` defaults to the arrival at the earliest side's last top.  An
    explicit horizon beyond the valid horizon requires ``truncated=True``:
    past that point a longer instance of the same construction would burn
    differently.
    """
    lat = _lattice(system, horizon, truncated)
    right, left = _events(_side_ramps(lat, RIGHT)), _events(_side_ramps(lat, LEFT))  # the total's sort: one merge
    curves, ks = {}, dict.fromkeys((RIGHT, LEFT, TOTAL))  # in document order; the total, swept first, overflows first
    for side, events in ((TOTAL, sorted(right + left, key=itemgetter(0))), (RIGHT, right), (LEFT, left)):
        points, ks[side] = _sweep(events, lat)
        _check_breakpoints(points)  # on the lattice: a positive scale keeps both orders
        curves[side] = PiecewiseLinearCurve._checked(points, lat.scale, ks[side])
    return ConsumptionCurves(curves[TOTAL], curves[LEFT], curves[RIGHT], ks)


def side_intervals(curves: ConsumptionCurves, side: str) -> tuple:
    """The maximal k-intervals of one side's curve (or the total's): one per segment."""
    if side not in curves.ks:
        raise ValueError(f"side must be 'right', 'left' or 'total', got {side!r}")
    points = getattr(curves, side).points
    return tuple(KInterval(side, t0, t1, k) for (t0, _), (t1, _), k in zip(points, points[1:], curves.ks[side]))


# -- consumption ratio -----------------------------------------------------------


def ratio_maxima(curve: PiecewiseLinearCurve, valid_horizon=None) -> RatioReport:
    """Local maxima and supremum of Q(t) = B(t)/t over (0, valid_horizon].

    The candidates are the breakpoints in (0, valid_horizon] other than the
    curve's ends.  A candidate (t, v) is a local maximum iff the slope into
    it from the previous breakpoint (t0, v0) exceeds Q(t), also when t0 <= 0,
    and the slope out of it does not.  Q(0) plays no part: on a curve through
    the origin Q is constant on the first segment, so the first candidate is
    never a maximum from the left.  The supremum is the first largest Q over
    the candidates, then the bound.  Rounding breaks exact ties on a float
    curve, so only in rational mode is ``sup_time`` the first time it is reached.

    Every test is exact, whatever the points' types: the slope k into (t, v)
    exceeds Q(t) iff v*t0 > v0*t, that is iff k*t0 > v0, which is read on the
    ints of a curve that keeps its lattice, else by ``_rises``: on differing
    float products of two float points, else on the pair's integer ratios.
    Q(t) > Q(s) iff v*s > w*t, each pair on its own scale.  Q is divided, as
    v/t in the points' own types, only for the reported points.
    """
    if valid_horizon is not None and (isinstance(valid_horizon, bool) or not isinstance(valid_horizon, numbers.Real)
                                      or valid_horizon != valid_horizon):
        raise ValueError(f"valid horizon must be a real number other than a bool or nan, got {valid_horizon!r}")
    bound = curve.end if valid_horizon is None else min(_builtin(valid_horizon), curve.end)
    if bound <= 0:
        raise ValueError(f"valid horizon {approx(bound)} leaves Q(t) = B(t)/t the empty range (0, {approx(bound)}]")
    if bound <= curve.start:
        raise ValueError(f"valid horizon {approx(bound)} not inside curve domain")
    lo, hi = max(curve._count(0), 1), min(curve._count(bound), len(curve) - 1)
    scale, pts, ks = curve._lattice or (None, curve.points, None)
    window = pts[lo - 1 : hi + 1] if lo < hi else ()  # the candidates pts[lo:hi] and their neighbours
    if scale:  # v*t0 - v0*t = (t - t0)*(k*t0 - v0); pairs beside no candidate are never read
        rises = [k * t0 > v0 for (t0, v0), k in zip(window, ks[lo - 1 : hi])]
    else:
        rises = list(map(_rises, window, window[1:]))

    def reported(i):  # candidate i as (t, Q(t)), published
        t, v = window[i]
        return (_number(scale, t), Fraction(v, t)) if scale else (t, v / t)
    peaks = [i for i in range(1, len(window) - 1) if rises[i - 1] and not rises[i]]
    # only the first and the last candidate, the local maxima and the bound (None) can hold the first largest Q
    sup, *rest = [1, *peaks, len(window) - 2] if window else [None]
    for i in rest:
        a, b = window[sup], window[i]
        if b[1] * a[0] > a[1] * b[0] if scale else _rises(a, b):
            sup = i
    at_bound = curve.value_at(bound)
    sup = None if sup is None or _rises(window[sup], (bound, at_bound)) else sup  # the bound, last
    maxima = tuple(map(reported, peaks))
    sup_time, sup_q = (bound, at_bound / bound) if sup is None else reported(sup)
    return RatioReport(local_maxima=maxima, supremum=sup_q, sup_time=sup_time, valid_horizon=bound)


def _rises(a, b) -> bool:
    """Whether Q rises from a = (t0, v0) to b = (t1, v1), that is v1*t0 > v0*t1, exactly; each point on any scale.

    Rounding is monotone, so float products that differ decide it, also past the float range and below it;
    equal ones (ties, the origin segment) and points not all floats are cross-multiplied as integer ratios."""
    (t0, v0), (t1, v1) = a, b
    if type(t0) is type(v0) is type(t1) is type(v1) is float and (p := v1 * t0) != (q := v0 * t1):
        return p > q
    (nt0, dt0), (nv0, dv0), (nt1, dt1), (nv1, dv1) = (x.as_integer_ratio() for x in (t0, v0, t1, v1))
    return nv1 * nt0 * dv0 * dt1 > nv0 * nt1 * dv1 * dt0  # over the positive dv1*dt0*dv0*dt1


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
    """The library's one speed verdict: whether B(t) <= speed*t holds up to the horizon.

    Sweeps only the total, on the integer lattice; no curve objects are built.
    ``earliest_violation`` is the infimum of the times in (0, horizon] where
    B(t) > speed*t; it is 0 when the violation starts at the origin (zero
    head start).
    """
    speed = _positive(speed, system.mode, "speed")
    lat = _lattice(system, horizon, truncated)
    points, _ = _sweep(_events(_side_ramps(lat, RIGHT) + _side_ramps(lat, LEFT)), lat)
    hit = _feasibility(points, speed)
    return SpeedCheck(hit is None, speed, _number(lat.scale, lat.horizon), hit and _number(lat.scale, *hit))


def ratio_report(system: BarrierSystem, horizon=None, truncated: bool = False):
    """Simulate, then analyze Q over the valid horizon."""
    curves = consumption_curve(system, horizon, truncated=truncated)
    return curves, ratio_maxima(curves.total, valid_horizon(system))


# -- analytic k-interval cycle -----------------------------------------------------


def predict_intervals(system: BarrierSystem, side: str, index: int) -> list:
    """Analytic (length, k) cycle following the top of vertical ``index`` (1-based).

    Requires the side to satisfy the growth conditions (each gap at least
    the previous height, heights at least doubling); the cycle is then
    one 0-interval of the barrier's own height, a 1-interval along the next
    gap, a 3-interval of the same height again, and a closing 1-interval up
    the next barrier.  Zero-length entries are dropped.
    """
    pairs, index = system.pairs(side), _whole(index, "cycle index")  # rejects an unknown side first
    side_check = _check_side(pairs)
    if not side_check.conditions7:
        raise ValueError(
            f"{side} side violates the growth conditions at barrier "
            f"{side_check.conditions7_violation}"
        )
    if not 1 <= index <= len(pairs) - 1:
        raise ValueError(f"cycle index must be in [1, {len(pairs) - 1}], got {_shown(index)}")
    height = pairs[index - 1][1]
    next_gap, next_height = pairs[index]
    entries = [(height, 0), (next_gap - height, 1), (height, 3), (next_height - 2 * height, 1)]
    return [(length, k) for length, k in entries if length > 0]


# -- exports -----------------------------------------------------------------------


def curve_to_csv(curves: ConsumptionCurves) -> str:
    """Breakpoint rows of the total curve: t, B_total, B_left, B_right, k_total.

    Curves with a float coordinate are read at the float of each breakpoint
    time by ``_floats_at``, as ``value_at`` computes.  Other curves are read
    on one lattice of ints (the one all three keep, if so), and each cell is
    one int true division.  That rounds correctly, as ``float(Fraction)``
    does, so the rows, and the ``OverflowError`` past the float range, are the same.
    """
    ks = curves.ks[TOTAL] + curves.ks[TOTAL][-1:]  # one per segment; the last row repeats the last
    lines = ["t,B_total,B_left,B_right,k_total"]
    lattices = [curve._lattice for curve in curves[:3]]  # total, left, right
    kept = all(lattices) and len({scale for scale, _, _ in lattices}) == 1
    if not kept and any(isinstance(t, float) or isinstance(v, float) for curve in curves[:3] for t, v in curve):
        times = [float(t) for t, _ in curves.total.points]
        rows = zip(times, map(float, (v for _, v in curves.total.points)),
                   _floats_at(curves.left, times), _floats_at(curves.right, times))
    else:
        scale, (points, left, right) = ((lattices[0][0], [ints for _, ints, _ in lattices]) if kept
                                        else _on_one_scale(*(curve.points for curve in curves[:3])))
        sides = zip(_values_along(left, points, scale), _values_along(right, points, scale))
        rows = ((t / scale, v / scale, left, right) for (t, v), (left, right) in zip(points, sides))
    lines += (f"{t!r},{v!r},{left!r},{right!r},{k}" for (t, v, left, right), k in zip(rows, ks))
    return "\n".join(lines) + "\n"


def _values_along(pts, points, scale):
    """The curve ``pts`` at the increasing t of ``points``, all lattice ints, in one walk: one int division each."""
    i = 0
    for t, _ in points:
        while i < len(pts) - 2 and pts[i + 1][0] <= t:
            i += 1
        (t0, v0), (t1, v1) = pts[i], pts[i + 1]
        yield v0 / scale if t == t0 else (v0 * (t1 - t0) + (v1 - v0) * (t - t0)) / ((t1 - t0) * scale)


def _floats_at(curve: PiecewiseLinearCurve, times) -> list:
    """``float(curve.value_at(t))`` at each float t of the sorted ``times``, bit for bit.

    Breakpoint i is passed at the smallest float not below its time, so one
    ``bisect_left`` per breakpoint counts the times on each of value_at's
    segments; flat end pieces clamp the times outside.  A segment keeps
    ``_between``'s operands as it rounds them: its start time (nan unless a
    float), float start, value, rise and run, repeated once per time on it.
    A curve that keeps its lattice is read on its ints n, and each float
    n / scale is one int true division, as ``float(Fraction)`` makes it.  A
    segment whose float run is 0.0 holds at most one float time, its key,
    and becomes a flat piece at ``value_at``'s value there.
    """
    scale, points, _ = curve._lattice or (None, curve.points, None)
    num = float if scale is None else scale.__rtruediv__  # n -> n / scale
    pieces = [(math.nan, 0.0, num(points[0][1]), None, None)]
    if scale is None:
        keys = [math.nextafter(f, math.inf) if (f := float(t)) < t else f for t, _ in points]
        for (t0, v0), (t1, v1), key in zip(points, points[1:], keys):
            pieces.append((key if key == t0 else math.nan, float(t0), float(v0), float(v1 - v0), float(t1 - t0)))
    else:  # for f = a / b, the gap b x n - a x scale has the sign of n / scale - f
        gaps = [(f, b * n - a * scale) for n, _ in points for f in [n / scale] for a, b in [f.as_integer_ratio()]]
        keys = [math.nextafter(f, math.inf) if gap > 0 else f for f, gap in gaps]
        for (t0, v0), (t1, v1), (f, gap), key in zip(points, points[1:], gaps, keys):
            pieces.append((math.nan if gap else key, f, num(v0), num(v1 - v0), num(t1 - t0)))
    for i in [i for i, piece in enumerate(pieces) if piece[4] == 0.0]:  # a run below the smallest float
        at = float(curve.value_at(keys[i - 1])) if keys[i - 1] < keys[i] else math.nan  # else no time on it
        pieces[i] = (math.nan, 0.0, at, None, None)
    pieces.append((math.nan, 0.0, num(points[-1][1]), None, None))
    cuts = [0, *map(bisect_left, repeat(times), keys), len(times)]
    found = chain.from_iterable(map(repeat, pieces, map(sub, cuts[1:], cuts)))
    return [
        v0 if dt is None or t == exact  # value_at's t == t0
        else v0 + (rise / dt if (rise := dv * (t - t0)) != math.inf else dv * ((t - t0) / dt))
        for (exact, t0, v0, dv, dt), t in zip(found, times)
    ]


def intervals_to_document(curves: ConsumptionCurves, mode: str) -> dict:
    """Each side's k-intervals: every breakpoint time is rendered once, for all curves that keep one lattice."""
    doc, texts = {}, {}  # scale -> {lattice time: its text}
    for side, ks in curves.ks.items():
        curve = getattr(curves, side)
        scale, ints, _ = curve._lattice or (None, curve.points, None)  # no lattice: its own times, its own dict
        seen = texts.setdefault(scale, {}) if scale else {}
        if scale and mode == RATIONAL:  # the text of n / scale from the int: no Fraction made only to be printed
            render = str if scale == 1 else lambda n: str(Fraction(n, scale))
        else:  # float text keeps the messages of float(Fraction), which float(int) words otherwise past 1e308
            render = lambda n: render_number(_number(scale, n) if scale else n, mode)
        times = [seen.get(n) or seen.setdefault(n, render(n)) for n, _ in ints]
        doc[side] = [{"t_start": t0, "t_end": t1, "k": k} for k, t0, t1 in zip(ks, times, times[1:])]
    return doc


def report_to_document(report: RatioReport, mode: str) -> dict:
    return {
        "local_maxima": [
            {"t": render_number(t, mode), "q": render_number(q, mode)} for t, q in report.local_maxima
        ],
        "supremum": render_number(report.supremum, mode),
        "sup_time": render_number(report.sup_time, mode),
        "valid_horizon": render_number(report.valid_horizon, mode),
        # a report holds no verdict (``check_speed`` gives one); the keys stay null while stored digests pin them
        "feasible_for": None,
        "feasible": None,
        "earliest_violation": None,
    }
