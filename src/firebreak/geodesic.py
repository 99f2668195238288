"""Exact L1 geodesic distances from the origin among vertical barriers.

The fire front at time t is the set of points whose shortest
non-barrier-crossing path from the origin has length t.  Within one side of
the origin an optimal path never reverses horizontal direction: revisiting a
vertical line costs horizontal length with no vertical savings in L1.  Every
distance therefore reduces to

    |x| + y + 2 * max(0, clearance - y)

where the clearance is the tallest vertical whose foot lies between the
origin and x: an x-monotone path climbs over it and comes down to y.  A
point on a vertical may be reached sooner over its top.  Per-face arrival
profiles are piecewise linear in arclength with slopes exactly +-1 (the
front moves at unit speed along any face it consumes).  Truncated at a
horizon, every piece of a profile still changes time: a face the front
reaches only at the horizon has no profile.  On a rational system an int
or Fraction point is read as integer ratios, on the lattice of
``model._on_one_scale``, and one Fraction is made for its distance.  The
clearance/top recurrence is ``model._verticals``, which ``simulate`` runs.
"""

from __future__ import annotations

import math
import numbers
from fractions import Fraction
from typing import NamedTuple

from .model import FLOAT, LEFT, RATIONAL, RIGHT, BarrierSystem, _on_one_scale, _positive, _shown, _verticals, approx

GROUND = "ground"
VERTICAL_LEFT = "vertical_left"    # face toward the origin
VERTICAL_RIGHT = "vertical_right"  # face away from the origin


def geodesic_distance(system: BarrierSystem, point) -> object:
    """Arrival time of the fire at ``point`` (min over faces for on-barrier points).

    In rational mode an int or Fraction point runs on its side's lattice for a Fraction; floats, a float.
    """
    x, y = point
    exact = system.mode == RATIONAL and type(x) in (int, Fraction) and type(y) in (int, Fraction)
    if not exact:  # an int or a Fraction is finite, and its sign is its numerator's
        for c in (x, y):  # the type test first: an ABC check is slow
            if type(c) not in (int, float, Fraction) and (isinstance(c, bool) or not isinstance(c, numbers.Real)):
                raise ValueError(f"point {_point(point)} has a coordinate that is not a real number")
        if not (-math.inf < x < math.inf and -math.inf < y < math.inf):  # nan fails too; no float made of a Fraction
            raise ValueError(f"point {_point(point)} has a coordinate that is not finite")
    if (y.numerator if exact else y) < 0:
        raise ValueError(f"point must lie in the upper half-plane, got y={_shown(y)}")
    try:  # a float system reads the point as its numbers
        x, y = (float(x), float(y)) if system.mode == FLOAT else (x, y)
    except OverflowError:
        raise ValueError(f"point {_point(point)} has a coordinate past the float range") from None
    pairs, scale = system.pairs(RIGHT if (x.numerator if exact else x) >= 0 else LEFT), None
    if exact:  # the whole side: _verticals stops at the first foot at |x| or past; x keeps its sign
        scale, (pairs, [(x, y)]) = _on_one_scale(pairs, [(x, y)])
    ax = x if x >= 0 else -x
    for _, foot, height, clearance, top in _verticals(pairs, system.zero if scale is None else 0):
        if foot is None or foot >= ax:
            break
    try:  # with a float coordinate on a rational system the sums are floats: an int or Fraction can overflow them
        # up over the clearance and down to y, or straight up: at (foot, height) this is the top
        direct = ax + 2 * clearance - y if clearance >= y else ax + y
        # points on a vertical barrier see both faces; the top is the pivot
        if foot == ax and y <= height:
            over_the_top = top + (height - y)
            direct = direct if direct <= over_the_top else over_the_top
    except OverflowError:
        raise ValueError(f"point ({approx(point[0])}, {approx(point[1])}) has a float coordinate, and its distance "
                         "is past the float range") from None
    return direct if scale is None else Fraction(direct, scale)


def _point(point) -> str:
    """``point`` as a refusal prints it: ``repr``, or, past ``int_digit_limit()``, an int or Fraction as ``approx``."""
    try:
        return repr(point)
    except ValueError:
        return f"({', '.join(approx(c) if type(c) in (int, Fraction) else repr(c) for c in point)})"


def top_arrival_times(system: BarrierSystem, side: str) -> tuple:
    """Arrival time of the fire at the top of each vertical on one side."""
    return tuple(top for *_, top in _verticals(system.pairs(side), system.zero))[:-1]  # not the ray


class FaceArrivalProfile(NamedTuple):
    """Arrival time along one face as a piecewise-linear function of arclength.

    ``points`` maps the arclength parameter (height for vertical faces,
    absolute horizontal offset for ground segments) to arrival time; slopes
    between breakpoints are exactly +1 or -1.
    """

    side: str
    kind: str
    index: int  # 1-based barrier index; ground segment i lies before barrier i+1
    points: tuple


def _clip_points(points: list, horizon) -> list | None:
    """Restrict a piecewise-linear (param, time) chain to time <= horizon; None when no piece is left.

    Slopes are +-1, so a crossing parameter is exact in rational mode; a breakpoint on the horizon is its own.
    """
    clipped: list = []
    for (p0, t0), (p1, t1) in zip(points, points[1:]):
        if t0 <= horizon and not clipped:
            clipped.append((p0, t0))
        if t0 < horizon < t1:  # rising through the horizon
            clipped.append((p0 + (horizon - t0), horizon))
        elif t1 < horizon < t0:  # falling through it
            clipped.append((p0 + (t0 - horizon), horizon))
        if t1 <= horizon:
            clipped.append((p1, t1))
    return clipped if len(clipped) >= 2 else None


def face_arrival_profiles(system: BarrierSystem, side: str, horizon) -> list:
    """All face profiles of one side, truncated at the horizon.

    Vertical barrier i gets a near face (toward the origin: the front hits
    it at the clearance height of everything before and spreads both ways)
    and a far face (reached over the top).  Each horizontal segment,
    including the stretch under the head start and the trailing ray, has a
    single upward-sloping profile.  A face the front reaches only at the
    horizon has no profile.  ``horizon`` is read as a system number, so
    rational mode refuses a float.
    """
    pairs = system.pairs(side)  # rejects an unknown side
    horizon, zero = _positive(horizon, system.mode, "horizon"), system.zero
    profiles = []
    for i, (pos, foot, height, clearance, top) in enumerate(_verticals(pairs, zero)):
        if foot is None:
            break
        near = [(zero, foot + 2 * clearance), (height, top)]
        # the front meets the face at the clearance height, unless in floats that time rounds to the top's
        if 0 < clearance < height and foot + clearance < top:
            near.insert(1, (clearance, foot + clearance))
        for kind, index, chain in ((GROUND, i, [(pos, pos + 2 * clearance), (foot, foot + 2 * clearance)]),
                                   (VERTICAL_LEFT, i + 1, near),
                                   (VERTICAL_RIGHT, i + 1, [(zero, top + height), (height, top)])):
            if points := _clip_points(chain, horizon):
                profiles.append(FaceArrivalProfile(side, kind, index, tuple(points)))

    # trailing ray: arrival = x + 2*clearance, truncated where it meets the horizon; in floats
    # each test alone can leave a piece of no length or of no time
    ray_end = horizon - 2 * clearance
    if ray_end > pos and pos + 2 * clearance < horizon:
        profiles.append(FaceArrivalProfile(side, GROUND, i, ((pos, pos + 2 * clearance), (ray_end, horizon))))
    return profiles
