"""Consumption curves, k-intervals, ratio maxima and speed feasibility."""

import json
import math
import pickle
import random
from collections import Counter
from copy import deepcopy
from fractions import Fraction
from itertools import accumulate, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firebreak import (
    FLOAT,
    LEFT,
    RATIONAL,
    RIGHT,
    BarrierSystem,
    ConsumptionCurves,
    InterlacingParams,
    KInterval,
    PiecewiseLinearCurve,
    RatioReport,
    build_flat,
    build_improved,
    build_seventeen_ninths,
    check_speed,
    consumption_curve,
    curve_to_csv,
    default_horizon,
    face_arrival_profiles,
    normalize_doubling,
    predict_intervals,
    ratio_maxima,
    ratio_report,
    scale,
    side_intervals,
    top_arrival_times,
    valid_horizon,
)
from firebreak.geodesic import GROUND, VERTICAL_RIGHT
from firebreak.model import _on_one_scale, approx, render_number
from firebreak.simulate import (
    MERGE_RTOL, TOTAL, _events, _floats_at, _Lattice, _lattice, _number, _rises, _side_ramps, _sweep,
    intervals_to_document,
)

from conftest import random_rational_system


def rational(head_start, right=(), left=()):
    return BarrierSystem(mode=RATIONAL, head_start=head_start, right=right, left=left)


class TestConsumptionCurve:
    def test_single_barrier_intervals_and_values(self):
        system = rational(1, right=((1, 17),))
        curves = consumption_curve(system, 40, truncated=True)
        intervals = [
            (iv.t_start, iv.t_end, iv.k) for iv in side_intervals(curves, RIGHT)
        ]
        # the stretch under the head start burns first and counts nothing
        assert intervals == [(0, 1, 0), (1, 18, 1), (18, 35, 0), (35, 40, 1)]
        assert curves.right.value_at(18) == 17
        assert curves.right.value_at(35) == 17

    def test_intervals_of_an_unknown_side_are_refused(self, sys17_curves):
        with pytest.raises(ValueError) as info:
            side_intervals(sys17_curves, "up")
        assert str(info.value) == "side must be 'right', 'left' or 'total', got 'up'"

    def test_flat_system_two_ground_fronts(self):
        flat = build_flat(1)
        curves = consumption_curve(flat, 50)
        assert curves.total.value_at(1) == 0
        for t in (2, 10, Fraction(99, 2), 50):
            assert curves.total.value_at(t) == 2 * (t - 1)

    def test_zero_at_origin(self, sys17_curves):
        assert sys17_curves.total.points[0] == (0, 0)

    def test_total_is_sum_of_sides(self, sys17_curves):
        for t, v in sys17_curves.total.points:
            assert v == sys17_curves.left.value_at(t) + sys17_curves.right.value_at(t)

    @pytest.mark.parametrize("t, text", [
        (-1, "time -1 outside curve domain [0, 3.42255e+09]"),
        (Fraction(6845104063, 2), "time 3.42255e+09 outside curve domain [0, 3.42255e+09]"),
    ])
    def test_value_outside_the_domain_is_refused(self, sys17_curves, t, text):
        with pytest.raises(ValueError) as info:
            sys17_curves.total.value_at(t)
        assert str(info.value) == text

    def test_integer_slopes_everywhere(self, sys17_curves):
        for curve in (sys17_curves.total, sys17_curves.left, sys17_curves.right):
            for (t0, v0), (t1, v1) in zip(curve.points, curve.points[1:]):
                slope = (v1 - v0) / (t1 - t0)
                assert slope == int(slope) and slope >= 0

    def test_observation_consumed_equals_built_length(self, sys17):
        # at each top arrival, one side has consumed all its barriers so far
        # except the head start
        curves = consumption_curve(sys17)
        s = sys17.head_start
        for side, curve in ((RIGHT, curves.right), (LEFT, curves.left)):
            feet = sys17.feet(side)
            cum = accumulate(sys17.heights(side))
            for top, foot, built in zip(top_arrival_times(sys17, side), feet, cum):
                if top > curve.end:
                    continue
                assert curve.value_at(top) == foot + built - s

    def test_mirror_symmetry(self):
        system = rational(1, right=((1, 17), (34, 136)), left=((2, 5), (11, 30)))
        flipped = rational(1, right=system.left, left=system.right)
        a = consumption_curve(system, 200, truncated=True)
        b = consumption_curve(flipped, 200, truncated=True)
        assert a.right.points == b.left.points
        assert a.left.points == b.right.points
        assert a.total.points == b.total.points

    def test_zero_intervals_have_barrier_length(self, sys17, sys17_curves):
        # under the growth conditions each 0-interval is exactly one height long
        for side in (RIGHT, LEFT):
            heights = list(sys17.heights(side))
            zeros = [
                iv
                for iv in side_intervals(sys17_curves, side)
                if iv.k == 0 and iv.t_start > 0
            ]
            for iv, h in zip(zeros, heights):
                if iv.t_end == sys17_curves.total.end:
                    continue  # clipped by the horizon
                assert iv.t_end - iv.t_start == h

    def test_horizon_guard(self, sys17):
        bound = valid_horizon(sys17)
        with pytest.raises(ValueError, match="valid horizon"):
            consumption_curve(sys17, bound * 2)
        consumption_curve(sys17, bound * 2, truncated=True)  # explicit opt-in works

    def test_flat_needs_explicit_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            consumption_curve(build_flat(1))


class TestRatioMaxima:
    def test_seventeen_ninths_exact(self, sys17, sys17_curves):
        report = ratio_maxima(sys17_curves.total, valid_horizon(sys17))
        assert len(report.local_maxima) == 12
        assert all(q == Fraction(17, 9) for _, q in report.local_maxima)
        assert report.supremum == Fraction(17, 9)

    def test_flat_ratio_monotone(self):
        flat = build_flat(1)
        curves = consumption_curve(flat, 100)
        report = ratio_maxima(curves.total, 100)
        assert report.local_maxima == ()
        assert report.supremum == Fraction(198, 100)
        assert report.sup_time == 100

    def test_improved_steady_maxima_in_band(self, improved):
        curves, report = ratio_report(improved)
        steady_start = top_arrival_times(improved, RIGHT)[1]  # past the start-up
        steady = [(t, q) for t, q in report.local_maxima if t >= steady_start]
        assert len(steady) >= 15
        assert all(1.8770 <= q <= 1.8772 for _, q in steady)

    def test_supremum_dominates_listed_maxima(self, improved, sys17, sys17_curves):
        for system, report in (
            (sys17, ratio_maxima(sys17_curves.total, valid_horizon(sys17))),
            (improved, ratio_report(improved)[1]),
        ):
            for _, q in report.local_maxima:
                assert report.supremum >= q

    def test_empty_curve_rejected(self):
        from firebreak import PiecewiseLinearCurve

        with pytest.raises(ValueError):
            PiecewiseLinearCurve([(0, 0)])

    @pytest.mark.parametrize("points, message", [
        ([(0, 0), (1, 1), (1, 2)], "breakpoint times must increase: 1 -> 1"),
        ([(0, 0), (2, 1), (1, 2)], "breakpoint times must increase: 2 -> 1"),
        ([(0, 0), (1, 2), (2, 1)], "curve must be nondecreasing: 2 -> 1"),
    ])
    def test_unordered_breakpoints_rejected(self, points, message):
        with pytest.raises(ValueError) as info:
            PiecewiseLinearCurve(points)
        assert str(info.value) == message

    @pytest.mark.parametrize("points, message", [
        ([(0, math.nan), (1, 1)], "breakpoint (0, nan) is not finite"),
        ([(0, 0), (1, math.nan)], "breakpoint (1, nan) is not finite"),
        ([(0, 0), (math.inf, 1)], "breakpoint (inf, 1) is not finite"),
        ([(-math.inf, 0), (0, 0)], "breakpoint (-inf, 0) is not finite"),
        ([(0, 0), (Fraction(1, 2), 1), (1, math.inf)], "breakpoint (1, inf) is not finite"),
    ])
    def test_non_finite_breakpoints_rejected(self, points, message):
        with pytest.raises(ValueError) as info:
            PiecewiseLinearCurve(points)
        assert str(info.value) == message

    def test_exact_breakpoints_past_the_float_range_are_finite(self):
        curve = PiecewiseLinearCurve([(0, 0), (10**400, Fraction(10**401, 3))])
        assert curve.value_at(10**400) == Fraction(10**401, 3)

    @pytest.mark.parametrize("curve", [
        PiecewiseLinearCurve([(0, 0), (10**5000, 10**5000)]),
        consumption_curve(BarrierSystem(RATIONAL, 1, right=((10**5000, 1),), left=()), 10**5000, truncated=True).total,
    ], ids=["bare", "lattice"])
    def test_times_past_the_digit_limit_are_shown_short(self, curve, digit_limit):
        # str of a 5001-digit int raised "Exceeds the limit (4300 digits) for integer string conversion"
        assert curve.end == 10**5000
        for t, shown in ((-1, "-1"), (10**5000 + 1, "1e+5000")):
            with pytest.raises(ValueError) as info:
                curve.value_at(t)
            assert str(info.value) == f"time {shown} outside curve domain [0, 1e+5000]"
        with pytest.raises(ValueError) as info:
            ratio_maxima(curve, -(10**5000))
        assert str(info.value) == "valid horizon -1e+5000 leaves Q(t) = B(t)/t the empty range (0, -1e+5000]"
        with pytest.raises(ValueError) as info:
            PiecewiseLinearCurve([(0, 0), (10**5000, 1), (10**5000, 2)])
        assert str(info.value) == "breakpoint times must increase: 1e+5000 -> 1e+5000"

    def test_a_float_time_between_exact_times_closer_than_the_smallest_float(self):
        # the float run (t1 - t0) is 0.0: value_at raised ZeroDivisionError; the time is now read exactly
        tiny = Fraction(1, 10**400)
        curve = PiecewiseLinearCurve([(-tiny, 0), (tiny, 1), (1, 2)])
        assert typed(curve.value_at(0.0)) == typed(0.5)
        assert typed(curve.value_at(0)) == typed(Fraction(1, 2))
        assert _floats_at(curve, [-0.0, 0.0, 5e-324, 1.0]) == [0.5, 0.5, 1.0, 2.0]

    @pytest.mark.parametrize("bound", [1, Fraction(1, 2)])
    def test_bound_at_or_before_the_start_rejected(self, bound):
        curve = PiecewiseLinearCurve([(1, 0), (2, 1)])
        with pytest.raises(ValueError) as info:
            ratio_maxima(curve, bound)
        assert str(info.value) == f"valid horizon {approx(bound)} not inside curve domain"


class TestCheckSpeed:
    def test_flat_feasible_at_two(self):
        assert check_speed(build_flat(1), 2, horizon=1000).feasible

    def test_flat_violation_time_exact(self):
        # 2(t - 1) = 1.9 t at t = 20
        verdict = check_speed(build_flat(1), Fraction(19, 10), horizon=100)
        assert not verdict.feasible
        assert verdict.earliest_violation == 20

    def test_seventeen_ninths_feasible_at_its_ratio(self, sys17):
        assert check_speed(sys17, Fraction(17, 9)).feasible

    def test_seventeen_ninths_fails_below(self, sys17):
        verdict = check_speed(sys17, Fraction(185, 100))
        assert not verdict.feasible
        # equality-at-maximum is reached before t = 18 already
        assert verdict.earliest_violation < 18

    def test_zero_head_start_violates_from_the_origin(self):
        # B rises at slope 2 from t = 0, so B(t) > t on all of (0, horizon]:
        # the infimum of the violating times is the origin itself
        system = rational(0, right=((1, 2),), left=((1, 2),))
        verdict = check_speed(system, 1, horizon=5, truncated=True)
        curves, report = ratio_report(system, 5, truncated=True)
        total = curves.total
        over_valid = check_speed(system, 1, report.valid_horizon, truncated=True)
        assert verdict.earliest_violation == over_valid.earliest_violation == 0
        half = total.points[1][0] / 2
        assert total.value_at(half) > half

    def test_rejects_non_positive_speed(self, sys17):
        with pytest.raises(ValueError):
            check_speed(sys17, 0)

    # the first system's curves end at (1.2e308, inf); the second's horizon, its first top, is inf
    @pytest.mark.parametrize("pairs, t", [
        (((1e307, 1e307), (1e307, 1e308)), "1.2e+308"), (((1e308, 1e308),), "1e+308"),
    ])
    def test_float_curves_past_the_float_range_are_refused(self, pairs, t):
        system = BarrierSystem(FLOAT, 1.0, right=pairs, left=pairs)
        for call in (consumption_curve, ratio_report, lambda system: check_speed(system, 2.0)):
            with pytest.raises(ValueError) as info:
                call(system)
            assert str(info.value) == (
                f"float curve leaves the float range at t = {t}; use rational mode for exact results")

    @pytest.mark.parametrize("cycles, end", [(128, 4.24e154), (253, 9.90e306)])
    def test_the_improved_scheme_stays_inside_the_float_range(self, cycles, end):
        system = build_improved(InterlacingParams(cycles=cycles))
        curve = consumption_curve(system).total
        assert curve.end == pytest.approx(end, rel=1e-3) and math.isfinite(curve.value_at(curve.end))
        assert check_speed(system, 1.8772).feasible


class TestPredictIntervals:
    def test_first_cycle_seventeen_ninths(self, sys17):
        assert predict_intervals(sys17, RIGHT, 1) == [
            (17, 0),
            (17, 1),
            (17, 3),
            (102, 1),
        ]

    def test_degenerate_gap_dropped_and_matches_simulation(self):
        system = rational("1/2", right=((1, 2), (2, 5)), left=((1, 2), (2, 5)))
        predicted = predict_intervals(system, RIGHT, 1)
        assert predicted == [(2, 0), (2, 3), (1, 1)]
        curves = consumption_curve(system)
        tops = top_arrival_times(system, RIGHT)
        window = [
            iv
            for iv in side_intervals(curves, RIGHT)
            if iv.t_start >= tops[0] and iv.t_end <= tops[1]
        ]
        assert [(iv.t_end - iv.t_start, iv.k) for iv in window] == predicted

    def test_matches_simulator_on_random_conforming_sides(self):
        from conftest import random_conforming_system

        rng = random.Random(23)
        for _ in range(10):
            system = random_conforming_system(rng, cycles=5)
            horizon = max(
                top_arrival_times(system, RIGHT)[-1],
                top_arrival_times(system, LEFT)[-1],
            )
            curves = consumption_curve(system, horizon, truncated=True)
            for side in (RIGHT, LEFT):
                tops = top_arrival_times(system, side)
                for i in (1, 2, 3):
                    predicted = predict_intervals(system, side, i)
                    window = [
                        iv
                        for iv in side_intervals(curves, side)
                        if iv.t_start >= tops[i - 1] and iv.t_end <= tops[i]
                    ]
                    assert [(iv.t_end - iv.t_start, iv.k) for iv in window] == predicted

    def test_improved_cycle_matches_within_tolerance(self, improved):
        predicted = predict_intervals(improved, RIGHT, 2)
        curves = consumption_curve(improved)
        tops = top_arrival_times(improved, RIGHT)
        window = [
            iv
            for iv in side_intervals(curves, RIGHT)
            if iv.t_start >= tops[1] - 1e-9 and iv.t_end <= tops[2] + 1e-9
        ]
        assert len(window) == len(predicted)
        for (length, k), iv in zip(predicted, window):
            assert iv.k == k
            assert iv.t_end - iv.t_start == pytest.approx(length, rel=1e-9, abs=1e-9)

    def test_rejects_non_conforming_side(self):
        system = rational(1, right=((2, 4), (5, 6)))
        with pytest.raises(ValueError, match="growth conditions"):
            predict_intervals(system, RIGHT, 1)

    def test_rejects_unknown_side_before_reading_the_report(self):
        # the left side violates the growth conditions; "up" must not be read as left
        system = rational(1, right=((1, 17), (34, 136)), left=((2, 4), (5, 6)))
        with pytest.raises(ValueError, match="side must be 'right' or 'left', got 'up'"):
            predict_intervals(system, "up", 1)

    def test_rejects_out_of_range_index(self, sys17):
        with pytest.raises(ValueError, match="cycle index"):
            predict_intervals(sys17, RIGHT, 8)

    @pytest.mark.parametrize("index", [True, 1.5, "1", None])
    def test_rejects_an_index_that_is_not_an_integer(self, sys17, index):
        # True read as cycle 1, and 1.5 raised "TypeError: tuple indices must be integers"
        with pytest.raises(ValueError) as info:
            predict_intervals(sys17, RIGHT, index)
        assert str(info.value) == f"cycle index must be an integer, got {index!r}"

    def test_a_numpy_int_index_reads_as_the_int(self, sys17):
        assert predict_intervals(sys17, RIGHT, np.int64(2)) == predict_intervals(sys17, RIGHT, 2)


class TestKIntervalInvariants:
    def test_total_k_is_sum_of_sides(self, sys17_curves):
        rights = side_intervals(sys17_curves, RIGHT)
        lefts = side_intervals(sys17_curves, LEFT)
        totals = side_intervals(sys17_curves, TOTAL)

        def k_at(intervals, t):
            for iv in intervals:
                if iv.t_start <= t < iv.t_end:
                    return iv.k
            raise AssertionError(f"no interval covers t={t}")

        for iv in totals:
            mid = (iv.t_start + iv.t_end) / 2
            assert iv.k == k_at(rights, mid) + k_at(lefts, mid)

    def test_intervals_maximal(self, sys17_curves):
        for side in (RIGHT, LEFT, TOTAL):
            ivs = side_intervals(sys17_curves, side)
            for a, b in zip(ivs, ivs[1:]):
                assert a.t_end == b.t_start
                assert a.k != b.k

    def test_ratio_above_one_at_late_tops(self, sys17, sys17_curves):
        # once the built length dwarfs the head start, each side's ratio at
        # a top exceeds 1
        def check(system, curves):
            s = system.head_start
            for side, curve in ((RIGHT, curves.right), (LEFT, curves.left)):
                cum = tuple(accumulate(system.heights(side)))
                for i, top in enumerate(top_arrival_times(system, side)):
                    if top > curve.end or i == 0:
                        continue
                    if cum[i - 1] > s:
                        assert curve.value_at(top) / top > 1

        check(sys17, sys17_curves)
        from firebreak import normalize_doubling

        rng = random.Random(53)
        for _ in range(10):
            system = normalize_doubling(random_rational_system(rng))
            horizon = max(
                top_arrival_times(system, RIGHT)[-1:] or (1,),
                top_arrival_times(system, LEFT)[-1:] or (1,),
            )[0]
            check(system, consumption_curve(system, horizon, truncated=True))

    def test_random_systems_side_sum_and_slopes(self):
        rng = random.Random(41)
        for _ in range(15):
            system = random_rational_system(rng, n_min=2, n_max=5)
            horizon = 3 * sum(
                system.head_start + sum(g + h for g, h in system.pairs(side))
                for side in (RIGHT, LEFT)
            )
            curves = consumption_curve(system, horizon, truncated=True)
            for t, v in curves.total.points:
                assert v == curves.left.value_at(t) + curves.right.value_at(t)
            points = curves.total.points
            for (t0, v0), (t1, v1) in zip(points, points[1:]):
                slope = (v1 - v0) / (t1 - t0)
                assert slope == int(slope) and slope >= 0


# -- reference: the Fraction pipeline of two side sweeps plus a combiner ------------


def profile_ramps(system, side, horizon):
    """One side's ramps read off its ground and near-face profiles, head start cut off."""
    head, ramps = system.head_start, []
    for prof in face_arrival_profiles(system, side, horizon):
        if prof.kind == VERTICAL_RIGHT:
            continue
        pts = prof.points
        if prof.kind == GROUND:
            if pts[-1][0] <= head:
                continue
            if pts[0][0] < head:
                pts = ((head, pts[0][1] + (head - pts[0][0])),) + pts[1:]
        for (_, t0), (_, t1) in zip(pts, pts[1:]):
            if t0 != t1:
                ramps.append((min(t0, t1), max(t0, t1)))
    return ramps


def reference_sweep(ramps, mode, zero, horizon):
    """Two loops: merge the sorted events into runs, then walk the runs up to the horizon.

    Returns the breakpoints and the k-intervals (t_start, t_end, k).
    """
    events = sorted([(lo, 1) for lo, _ in ramps] + [(hi, -1) for _, hi in ramps], key=lambda e: e[0])
    merged = []
    for t, delta in events:
        if merged and (t == merged[-1][0] or (
                mode == FLOAT and t - merged[-1][0] <= MERGE_RTOL * abs(t))):
            merged[-1][1] += delta
        else:
            merged.append([t, delta])
    intervals, k, t_prev = [], 0, zero
    for t, delta in merged + [[horizon, 0]]:
        if t > t_prev:
            if intervals and intervals[-1][2] == k:
                intervals[-1] = (intervals[-1][0], t, k)
            else:
                intervals.append((t_prev, t, k))
        k += delta
        t_prev = t
    points, total = [(zero, zero)], zero
    for t0, t1, k in intervals:
        total = total + k * (t1 - t0)
        points.append((t1, total))
    return points, intervals


def reference_curves(system, horizon):
    """Side sweeps over face-profile ramps, then one value_at per total breakpoint."""
    zero = system.zero
    swept = {}
    for side in (RIGHT, LEFT):
        points, intervals = reference_sweep(profile_ramps(system, side, horizon), system.mode, zero, horizon)
        swept[side] = PiecewiseLinearCurve(points), [KInterval(side, *iv) for iv in intervals]

    (right, right_iv), (left, left_iv) = swept[RIGHT], swept[LEFT]
    bounds = sorted({t for iv in right_iv + left_iv for t in (iv.t_start, iv.t_end)})
    intervals, ri, li = [], 0, 0
    for t0, t1 in zip(bounds, bounds[1:]):
        while right_iv[ri].t_end <= t0 and ri < len(right_iv) - 1:
            ri += 1
        while left_iv[li].t_end <= t0 and li < len(left_iv) - 1:
            li += 1
        k = right_iv[ri].k + left_iv[li].k
        if intervals and intervals[-1][2] == k:
            intervals[-1] = (intervals[-1][0], t1, k)
        else:
            intervals.append((t0, t1, k))
    total = PiecewiseLinearCurve(
        [(zero, zero)] + [(t1, right.value_at(t1) + left.value_at(t1)) for _, t1, _ in intervals])
    ks = {RIGHT: tuple(iv.k for iv in right_iv), LEFT: tuple(iv.k for iv in left_iv),
          TOTAL: tuple(k for *_, k in intervals)}
    return ConsumptionCurves(total, left, right, ks)


def reference_csv(curves):
    """curve_to_csv with two value_at binary searches per row."""
    totals = side_intervals(curves, TOTAL)
    k_at = {iv.t_start: iv.k for iv in totals}
    lines = ["t,B_total,B_left,B_right,k_total"]
    for t, v in curves.total.points:
        lines.append(f"{float(t)!r},{float(v)!r},{float(curves.left.value_at(t))!r},"
                     f"{float(curves.right.value_at(t))!r},{k_at.get(t, totals[-1].k)}")
    return "\n".join(lines) + "\n"


def reference_feasibility(points, speed, bound):
    """Where B(t) <= speed*t first fails on (0, bound], scanning a public curve's points.

    Returns the crossing time, or None.  Inside a segment that ends past
    ``bound``, B(bound) is interpolated and compared without dividing.
    """
    p, q = (speed, 1) if isinstance(speed, float) else (speed.numerator, speed.denominator)
    t0, v0 = points[0]
    for t1, v1 in points[1:]:
        if t1 <= bound:
            over = q * v1 > p * t1
        else:
            over = q * (v0 * (t1 - t0) + (v1 - v0) * (bound - t0)) > p * bound * (t1 - t0)
        if over:
            if q * v0 == p * t0:
                return t0 / 1
            return q * (v0 * t1 - v1 * t0) / (p * (t1 - t0) - q * (v1 - v0))
        if t1 >= bound:
            break
        t0, v0 = t1, v1
    return None


LENGTHS = st.fractions(min_value=Fraction(1, 12), max_value=100, max_denominator=12)


@st.composite
def rational_cases(draw):
    """A random rational system (maybe normalized) with non-unit denominators and a rational horizon."""
    side = st.lists(st.tuples(LENGTHS, LENGTHS), max_size=6)
    system = BarrierSystem(
        mode=RATIONAL,
        head_start=draw(st.fractions(min_value=0, max_value=10, max_denominator=12)),
        right=draw(side),
        left=draw(side),
    )
    if draw(st.booleans()):
        system = normalize_doubling(system)
    horizon = draw(st.fractions(min_value=Fraction(1, 7), max_value=1500, max_denominator=7))
    return system, horizon


QUARTERS = st.integers(min_value=1, max_value=400).map(lambda n: Fraction(n, 4))


@st.composite
def speed_cases(draw):
    """A system on the quarter grid (head start 0 allowed), a horizon and a speed in [1/2, 3].

    Dyadic lengths and speeds keep float mode exact at every breakpoint.
    """
    side = st.lists(st.tuples(QUARTERS, QUARTERS), max_size=6)
    system = BarrierSystem(
        mode=RATIONAL,
        head_start=Fraction(draw(st.integers(min_value=0, max_value=40)), 4),
        right=draw(side),
        left=draw(side),
    )
    if draw(st.booleans()):
        system = normalize_doubling(system)
    horizon = Fraction(draw(st.integers(min_value=1, max_value=6000)), 4)
    speed = Fraction(draw(st.integers(min_value=16, max_value=96)), 32)
    return system, horizon, speed


def as_float(system):
    return BarrierSystem(
        mode=FLOAT,
        head_start=float(system.head_start),
        right=tuple((float(g), float(h)) for g, h in system.right),
        left=tuple((float(g), float(h)) for g, h in system.left),
    )


def typed(x):
    return type(x).__name__, x


def exact_key(curves):
    """Everything a ConsumptionCurves holds, with the type of every number."""
    return (
        [[(typed(t), typed(v)) for t, v in c.points] for c in (curves.total, curves.left, curves.right)],
        [(iv.side, typed(iv.t_start), typed(iv.t_end), iv.k) for iv in curves.intervals],
    )


class TestLatticeProperties:
    @pytest.mark.parametrize("head_start, cycles", [(1, 8), (1, 64), (Fraction(7, 3), 8)])
    def test_seventeen_ninths_matches_reference(self, head_start, cycles):
        system = build_seventeen_ninths(head_start, cycles=cycles)
        curves = consumption_curve(system)
        assert exact_key(curves) == exact_key(reference_curves(system, curves.total.end))

    @settings(max_examples=120, deadline=None)
    @given(rational_cases())
    def test_rational_matches_reference_bit_for_bit(self, case):
        system, horizon = case
        curves = consumption_curve(system, horizon, truncated=True)
        assert exact_key(curves) == exact_key(reference_curves(system, horizon))

    @settings(max_examples=40, deadline=None)
    @given(rational_cases(), st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9))
    def test_scale_covariance(self, case, factor):
        system, horizon = case
        curves = consumption_curve(system, horizon, truncated=True)
        scaled = consumption_curve(scale(system, factor), horizon * factor, truncated=True)
        for a, b in zip((curves.total, curves.left, curves.right), (scaled.total, scaled.left, scaled.right)):
            assert b.points == tuple((factor * t, factor * v) for t, v in a.points)
        assert [(iv.side, iv.t_start * factor, iv.t_end * factor, iv.k) for iv in curves.intervals] == [
            (iv.side, iv.t_start, iv.t_end, iv.k) for iv in scaled.intervals]

    @settings(max_examples=60, deadline=None)
    @given(rational_cases(), st.integers(min_value=-200, max_value=200))
    def test_float_scale_covariance_bit_for_bit(self, case, exponent):
        # a power of two scales every float operation exactly, so the float merge must too
        system, horizon, factor = as_float(case[0]), float(case[1]), 2.0**exponent
        curves = consumption_curve(system, horizon, truncated=True)
        scaled = consumption_curve(scale(system, factor), horizon * factor, truncated=True)
        for a, b in zip((curves.total, curves.left, curves.right), (scaled.total, scaled.left, scaled.right)):
            assert b.points == tuple((t * factor, v * factor) for t, v in a.points)
        assert scaled.ks == curves.ks

    @pytest.mark.parametrize("factor", [1e-16, 1e-200, 1e200])
    def test_float_seventeen_ninths_at_any_scale(self, factor):
        system = scale(as_float(build_seventeen_ninths(1, cycles=6)), factor)
        curves = consumption_curve(system)
        report = ratio_maxima(curves.total, valid_horizon(system))
        assert len(curves.total) == len(consumption_curve(build_seventeen_ninths(1, cycles=6)).total) == 30
        assert abs(report.supremum - 17 / 9) <= 1e-12 * (17 / 9)

    @settings(max_examples=80, deadline=None)
    @given(rational_cases(), st.fractions(min_value=1, max_value=3, max_denominator=20), st.booleans())
    def test_check_speed_agrees_with_a_curve_scan(self, case, speed, floating):
        system, horizon = case
        if floating:
            system, horizon, speed = as_float(system), float(horizon), float(speed)
        curves = consumption_curve(system, horizon, truncated=True)
        verdict = check_speed(system, speed, horizon, truncated=True)
        violation = reference_feasibility(curves.total.points, speed, curves.total.end)
        assert verdict.horizon == curves.total.end
        assert (verdict.feasible, typed(verdict.earliest_violation)) == (violation is None, typed(violation))
        if not verdict.feasible:
            t = verdict.earliest_violation
            assert 0 <= t <= curves.total.end
            if not floating:  # the first crossing: B(t) = speed * t exactly
                assert curves.total.value_at(t) == speed * t

    @settings(max_examples=80, deadline=None)
    @given(rational_cases(), st.fractions(min_value=1, max_value=3, max_denominator=20), st.booleans())
    def test_check_speed_over_the_valid_horizon_matches_the_longer_curve(self, case, speed, floating):
        system, horizon = case
        if floating:
            system, horizon, speed = as_float(system), float(horizon), float(speed)
        curves, report = ratio_report(system, horizon, truncated=True)
        verdict = check_speed(system, speed, report.valid_horizon, truncated=True)
        assert typed(verdict.speed) == typed(system.number(speed))
        assert typed(verdict.horizon) == typed(report.valid_horizon)
        # the scan of the longer curve up to the valid horizon agrees, bit for bit
        violation = reference_feasibility(curves.total.points, system.number(speed), report.valid_horizon)
        assert (verdict.feasible, typed(verdict.earliest_violation)) == (violation is None, typed(violation))

    @settings(max_examples=100, deadline=None)
    @given(speed_cases(), st.sampled_from(["rational", "float", "touching"]))
    def test_earliest_violation_is_the_first_crossing(self, case, kind):
        system, horizon, speed = case
        if kind == "float":
            system, horizon, speed = as_float(system), float(horizon), float(speed)
        total = consumption_curve(system, horizon, truncated=True).total
        if kind == "touching":  # the largest Q at a breakpoint: B touches speed * t, no violation
            speed = max((v / s for s, v in total.points if v > 0), default=speed)
        verdict = check_speed(system, speed, horizon, truncated=True)
        t = horizon if verdict.feasible else verdict.earliest_violation
        assert all(v <= speed * s for s, v in total.points if s <= t)
        if not verdict.feasible:  # B exceeds speed * t right after t
            mid = (t + next(s for s, _ in total.points if s > t)) / 2
            assert total.value_at(mid) > speed * mid

    @settings(max_examples=100, deadline=None)
    @given(rational_cases())
    def test_float_total_matches_reference(self, case):
        system, horizon = as_float(case[0]), float(case[1])
        curves = consumption_curve(system, horizon, truncated=True)
        reference = reference_curves(system, horizon)
        assert curves.left.points == reference.left.points
        assert curves.right.points == reference.right.points
        for t in sorted({t for t, _ in curves.total} | {t for t, _ in reference.total}):
            got, want = curves.total.value_at(t), reference.total.value_at(t)
            assert abs(got - want) <= 1e-12 * max(abs(want), t)

    @settings(max_examples=50, deadline=None)
    @given(rational_cases(), st.booleans())
    def test_csv_matches_per_row_value_at(self, case, floating):
        system, horizon = case
        if floating:
            system, horizon = as_float(system), float(horizon)
        curves = consumption_curve(system, horizon, truncated=True)
        assert curve_to_csv(curves) == reference_csv(curves)

    def test_csv_past_the_float_range_raises_as_the_reference_does(self):
        curves = consumption_curve(build_seventeen_ninths(1, 300))
        with pytest.raises(OverflowError) as want:
            reference_csv(curves)
        with pytest.raises(OverflowError) as got:
            curve_to_csv(curves)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("cycles", [128, 253])
    def test_improved_scheme_values_stay_finite_past_1e154(self, cycles):
        # there (v1 - v0) * (t - t0) is past the float range: at the end time from 128 cycles, inside from 160
        curves = consumption_curve(build_improved(InterlacingParams(cycles=cycles)))
        for curve in (curves.total, curves.left, curves.right):
            assert curve.value_at(curve.end) == curve.points[-1][1]
            (t0, v0), (t1, v1) = curve.points[-2:]
            assert v0 <= curve.value_at((t0 + t1) / 2) <= v1
        rows = [[float(x) for x in line.split(",")] for line in curve_to_csv(curves).splitlines()[1:]]
        assert len(rows) == len(curves.total)
        assert all(math.isfinite(x) for row in rows for x in row)

    @settings(max_examples=50, deadline=None)
    @given(rational_cases(), st.booleans())
    def test_intervals_document_matches_rendering_each_interval(self, case, floating):
        system, horizon = case
        if floating:
            system, horizon = as_float(system), float(horizon)
        curves = consumption_curve(system, horizon, truncated=True)
        mode = system.mode
        want = {
            side: [
                {"t_start": render_number(iv.t_start, mode), "t_end": render_number(iv.t_end, mode), "k": iv.k}
                for iv in side_intervals(curves, side)
            ]
            for side in (RIGHT, LEFT, TOTAL)
        }
        assert json.dumps(intervals_to_document(curves, mode)) == json.dumps(want)


def assert_ramps_match_profiles(system, horizon):
    """``_side_ramps`` on the lattice equals ``profile_ramps`` as a multiset, with the type of every number."""
    lat = _lattice(system, horizon, truncated=True)
    for side in (RIGHT, LEFT):
        got = Counter(tuple(typed(_number(lat.scale, x)) for x in ramp) for ramp in _side_ramps(lat, side))
        want = Counter((typed(lo), typed(hi)) for lo, hi in profile_ramps(system, side, horizon))
        assert got == want, side


# right: tops 4, 13, 25, the second vertical met at its clearance at 6, ground ends 1, 9, 27;
# left: tops 4, 8, clearance time 5, ground ends 3, 6
STEPS = ((1, 3), (2, 10), (4, 2)), ((3, 1), (1, 4))


def float_lattice(horizon):
    return _Lattice(0.0, {}, horizon, None)


class TestRampsAndSweep:
    @pytest.mark.parametrize("floating", [False, True])
    @pytest.mark.parametrize("head_start", [0, Fraction(1, 2), 5])  # 5 is past the first two feet of each side
    @pytest.mark.parametrize("horizon", [4, 5, 6, 9, 13, 25, 27, 40])  # 40 cuts the right side's trailing ray
    def test_ramps_match_the_profile_path(self, floating, head_start, horizon):
        system = rational(head_start, *STEPS)
        if floating:
            system, horizon = as_float(system), float(horizon)
        assert_ramps_match_profiles(system, horizon)

    @pytest.mark.parametrize("head_start, right, horizon", [
        (5.7, ((0.1, 0.3), (0.2, 0.1)), 10.0),  # the ray starts inside the head start, off the binary grid
        (0.1 + 0.2, ((0.1, 0.1), (0.2, 0.5)), 10.0),  # the head start ends at a foot, off the binary grid
        (1.0, ((1e17, 1.0), (1.0, 3.0)), 2e17),  # a height and a clearance lost to rounding at a far foot
    ])
    def test_ramps_match_the_profile_path_where_floats_round(self, head_start, right, horizon):
        assert_ramps_match_profiles(BarrierSystem(mode=FLOAT, head_start=head_start, right=right, left=right), horizon)

    @settings(max_examples=150, deadline=None)
    @given(rational_cases(), st.booleans(), st.integers(min_value=0, max_value=40))
    def test_ramps_match_the_profile_path_on_random_systems(self, case, floating, pick):
        system, horizon = case
        if floating:
            system, horizon = as_float(system), float(horizon)
        # most draws put the horizon on an event time: a top, a clearance time or a ground end
        times = sorted({t for side in (RIGHT, LEFT) for ramp in profile_ramps(system, side, horizon)
                        for t in ramp if t > 0})
        if pick and times:
            horizon = times[pick % len(times)]
        assert_ramps_match_profiles(system, horizon)

    @pytest.mark.parametrize("ramps, horizon, times, ks", [
        # each event within MERGE_RTOL of the one before, the third not of the run's first: a new breakpoint
        ([(1.0, 4.0), (1.0 + 8e-13, 4.0), (1.0 + 1.6e-12, 4.0)], 5.0, [0.0, 1.0, 1.0 + 1.6e-12, 4.0, 5.0], (0, 2, 3, 0)),
        # a first event within MERGE_RTOL above 0 is its own breakpoint
        ([(5e-13, 2.0)], 3.0, [0.0, 5e-13, 2.0, 3.0], (0, 1, 0)),
        # so is a horizon within MERGE_RTOL above the last event
        ([(1.0, 2.0)], 2.0 + 1e-12, [0.0, 1.0, 2.0, 2.0 + 1e-12], (0, 1, 0)),
        # events at 0 and events at one time merge
        ([(0.0, 2.0), (0.0, 3.0), (1.0, 3.0)], 3.0, [0.0, 1.0, 2.0, 3.0], (2, 3, 2)),
    ])
    def test_fused_sweep_matches_the_two_loop_reference(self, ramps, horizon, times, ks):
        points, slopes = _sweep(_events(ramps), float_lattice(horizon))
        want_points, intervals = reference_sweep(ramps, FLOAT, 0.0, horizon)
        assert (points, slopes) == (want_points, tuple(k for *_, k in intervals))
        assert ([t for t, _ in points], slopes) == (times, ks)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=4),
                              st.integers(min_value=1, max_value=6)), max_size=12),
           st.sampled_from([0.0, 1e-12, 1e-9]))
    def test_fused_sweep_matches_the_two_loop_reference_on_clustered_times(self, draws, offset):
        # times in clusters a few MERGE_RTOL wide, and a horizon maybe within MERGE_RTOL above the last one
        ramps = [(base * (1 + 4e-13 * j), base + length) for base, j, length in draws]
        horizon = 12.0 * (1 + offset)
        want_points, intervals = reference_sweep(ramps, FLOAT, 0.0, horizon)
        assert _sweep(_events(ramps), float_lattice(horizon)) == (want_points, tuple(k for *_, k in intervals))


# -- reference: the ratio scan that divides at every breakpoint ----------------------


def reference_ratio_maxima(curve, valid_horizon=None):
    """Q, the incoming and the outgoing slope at every breakpoint in (0, bound], each an exact Fraction.

    The reported Q of a point is its v / t in the points' own types.
    """
    pts = curve.points
    bound = curve.end if valid_horizon is None else min(valid_horizon, curve.end)
    if bound <= 0:
        raise ValueError(f"valid horizon {approx(bound)} leaves Q(t) = B(t)/t the empty range (0, {approx(bound)}]")
    if bound <= curve.start:
        raise ValueError(f"valid horizon {approx(bound)} not inside curve domain")
    maxima = []
    candidates = []  # (exact Q, t, v) at every breakpoint in (0, bound], then at the bound
    for j in range(1, len(pts) - 1):
        t, v = pts[j]
        if t <= 0 or t > bound:
            continue
        (t0, v0), (t1, v1) = [(Fraction(s), Fraction(w)) for s, w in (pts[j - 1], pts[j + 1])]
        exact_t, exact_v = Fraction(t), Fraction(v)
        q = exact_v / exact_t
        candidates.append((q, t, v))
        k_in = (exact_v - v0) / (exact_t - t0)
        k_out = (v1 - exact_v) / (t1 - exact_t)
        if k_in > q >= k_out:
            maxima.append((t, v / t))
    value = curve.value_at(bound)
    candidates.append((Fraction(value) / Fraction(bound), bound, value))
    _, sup_time, v = max(candidates, key=lambda c: c[0])  # the first of equal maxima
    return RatioReport(local_maxima=tuple(maxima), supremum=v / sup_time, sup_time=sup_time, valid_horizon=bound)


def outcome(f, *args):
    """``repr`` of the result, or the type and text of the error raised (a bound <= 0 is a ValueError)."""
    try:
        return repr(f(*args))
    except (ValueError, ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"


@st.composite
def ratio_curves(draw):
    """A nondecreasing curve of at most 12 breakpoints from t <= 0, of ints, Fractions, floats or a mix.

    Small steps make equal ratios common; the first segments may be flat,
    also from the origin, as under a head start.
    """
    kind = draw(st.sampled_from(["int", "fraction", "float", "mixed"]))
    denominator = 1 if kind == "int" else 3
    step = st.integers(0, 12 * denominator).map(lambda n: Fraction(n, denominator))
    t, v = (0, 0) if draw(st.booleans()) else (-draw(step), draw(step) - draw(step))
    flat = draw(st.integers(0, 2))
    points = [(t, v)]
    for i, (dt, dv) in enumerate(draw(st.lists(st.tuples(step.filter(bool), step), min_size=1, max_size=11))):
        t, v = t + dt, v + (0 if i < flat else dv)
        points.append((t, v))
    types = {"int": int, "fraction": Fraction, "float": float}
    size = 2 * len(points)
    if kind == "mixed":
        casts = draw(st.lists(st.sampled_from(list(types.values())), min_size=size, max_size=size))
    else:
        casts = [types[kind]] * size

    def cast(to, x):
        return x if to is int and x.denominator != 1 else to(x)

    cast_points = []
    for (t, v), to_t, to_v in zip(points, casts[::2], casts[1::2]):
        t, v = cast(to_t, t), cast(to_v, v)
        if cast_points and v < cast_points[-1][1]:  # a float rounded below the Fraction before it
            v = cast_points[-1][1]
        cast_points.append((t, v))
    return PiecewiseLinearCurve(cast_points)


@st.composite
def float_curves(draw):
    """A nondecreasing float curve and a bound, at a scale of 2**e whose products overflow, underflow or neither.

    A breakpoint on the ray v = c*t, rounded, makes Q nearly or exactly
    equal at two breakpoints, so that float products often tie.
    """
    unit = 2.0 ** draw(st.sampled_from([-1066, -1000, -540, 0, 540, 1000]))  # 2**-1070 steps are subnormal
    c = draw(st.sampled_from([0.1, 1 / 3, 0.7, 1.5]))
    t, v = (0.0, 0.0) if draw(st.booleans()) else (-draw(st.integers(1, 8)) * unit, draw(st.integers(-8, 8)) * unit)
    points = [(t, v)]
    for step, rise, on_ray in draw(st.lists(st.tuples(st.integers(1, 64), st.integers(0, 64), st.booleans()),
                                            min_size=1, max_size=11)):
        t += step * unit / 16
        v = max(v, c * t) if on_ray else v + rise * unit / 16
        points.append((t, v))
    bound = draw(st.sampled_from([None, *(t for t, _ in points[1:])]))
    return PiecewiseLinearCurve(points), bound if bound is None or draw(st.booleans()) else Fraction(bound) * 2 / 3


def exact_rises(a, b):
    """Whether Q rises from a to b, on the points' exact ints."""
    _, [[(t0, v0), (t1, v1)]] = _on_one_scale([a, b])
    return v1 * t0 > v0 * t1


BOUNDS = st.one_of(
    st.none(), st.integers(-2, 40), st.integers(-2, 40).map(float), st.fractions(-2, 40, max_denominator=6),
    st.floats(-2, 40),
)


class TestRatioScanMatchesTheDividingScan:
    @settings(max_examples=200, deadline=None)
    @given(ratio_curves(), BOUNDS)
    def test_random_curves(self, curve, bound):
        assert outcome(ratio_maxima, curve, bound) == outcome(reference_ratio_maxima, curve, bound)

    @pytest.mark.parametrize("points, bound, maxima, sup, sup_time", [
        # no local maxima, yet the supremum is at t = 1, not at the bound
        ([(0, 0), (1, 2), (3, 3)], None, (), 2.0, 1),
        ([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(2)), (Fraction(3), Fraction(3))], None,
         (), Fraction(2), Fraction(1)),
        # rounded float slopes and quotients disagree at t = 7, where Q has its exact local maximum
        ([(-2.0, -1.0), (0.0, 1.3333333333333333), (2.0, 1.3333333333333333), (7.0, 4.666666666666667),
          (8.0, 4.666666666666667), (13.0, 7.166666666666667), (14.0, 8.166666666666668),
          (15.0, 8.666666666666668)], None, ((7.0, 0.6666666666666667), (14.0, 0.5833333333333334)),
         0.6666666666666667, 7.0),
        # Q is 4/3 on the whole first segment: no local maximum, although 4 / 3 on ints rounds below 4/3
        ([(Fraction(0), Fraction(0)), (3, 4), (Fraction(6), Fraction(5))], None,
         (), 1.3333333333333333, 3),
        # Q rises through the last breakpoint before the bound; there Q(bound) only ties it
        ([(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)), (Fraction(2), Fraction(1)),
          (Fraction(3), Fraction(3))], 2.0, (), Fraction(1, 2), Fraction(2)),
    ])
    def test_pinned_curves(self, points, bound, maxima, sup, sup_time):
        curve = PiecewiseLinearCurve(points)
        report = ratio_maxima(curve, bound)
        assert repr(report) == repr(reference_ratio_maxima(curve, bound))
        assert [typed(x) for x in (report.supremum, report.sup_time)] == [typed(sup), typed(sup_time)]
        assert report.local_maxima == maxima

    @pytest.mark.parametrize("bound", [0, 0.0, Fraction(-1, 2), -1])
    def test_a_bound_at_or_before_the_origin_leaves_an_empty_range(self, bound):
        curve = PiecewiseLinearCurve([(-1, 0), (1, 1)])
        with pytest.raises(ValueError) as info:
            ratio_maxima(curve, bound)
        assert str(info.value) == (f"valid horizon {approx(bound)} leaves Q(t) = B(t)/t the empty range "
                                   f"(0, {approx(bound)}]")

    @settings(max_examples=300, deadline=None)
    @given(float_curves())
    def test_the_float_filter_decides_as_the_exact_ints(self, case):
        # every pair, as the supremum scan compares any two candidates; then the whole report
        curve, bound = case
        pairs = list(combinations(curve.points, 2))
        assert [_rises(a, b) for a, b in pairs] == [exact_rises(a, b) for a, b in pairs]
        assert outcome(ratio_maxima, curve, bound) == outcome(reference_ratio_maxima, curve, bound)

    @pytest.mark.parametrize("points, tie", [
        # the origin segment: both products are 0
        ([(0.0, 0.0), (1.0, 0.5), (2.0, 1.5)], ((0.0, 0.0), (1.0, 0.5))),
        # Q is exactly 1/2 at t = 1 and t = 2: the first of them is the supremum
        ([(0.0, 0.0), (1.0, 0.5), (2.0, 1.0), (3.0, 1.0)], ((1.0, 0.5), (2.0, 1.0))),
        # the products round to one float, yet Q(3) exceeds Q(1) = 0.1, and t = 3 is a local maximum
        ([(0.0, 0.0), (1.0, 0.1), (3.0, 0.30000000000000004), (4.0, 0.30000000000000004)],
         ((1.0, 0.1), (3.0, 0.30000000000000004))),
        # past 1e308: 1e110 * 1e200 is inf and decides a rise over 2e200; both products of the next pair are inf
        ([(0.0, 0.0), (1e200, 1.0), (2e200, 1e110), (3e200, 1e110)], ((2e200, 1e110), (3e200, 1e110))),
        # subnormal products: the tie above scaled by 2**-530 in t and in v
        ([(x * 2.0**-530, y * 2.0**-530) for x, y in [(0.0, 0.0), (1.0, 0.1), (3.0, 0.30000000000000004),
                                                          (4.0, 0.30000000000000004)]],
         ((2.0**-530, 0.1 * 2.0**-530), (3 * 2.0**-530, 0.30000000000000004 * 2.0**-530))),
    ], ids=["origin", "exact-tie", "rounded-tie", "overflow", "subnormal"])
    def test_pinned_float_curves(self, points, tie):
        (t0, v0), (t1, v1) = tie
        assert v1 * t0 == v0 * t1  # the float products tie: only the exact ints decide this pair
        curve = PiecewiseLinearCurve(points)
        pairs = list(combinations(points, 2))
        assert [_rises(a, b) for a, b in pairs] == [exact_rises(a, b) for a, b in pairs]
        assert repr(ratio_maxima(curve)) == repr(reference_ratio_maxima(curve))

    def test_improved_scheme_at_its_largest_cycle_count(self):
        # the breakpoints near the valid horizon (~6e305) would overflow any product of two of them
        system = build_improved(InterlacingParams(cycles=253))
        curve = consumption_curve(system).total
        (t0, _), (t1, _) = curve.points[-2:]
        for bound in (valid_horizon(system), (t0 + t1) / 2):  # B(t) inside the last segment is ~1e307
            assert repr(ratio_maxima(curve, bound)) == repr(reference_ratio_maxima(curve, bound))

    @pytest.mark.parametrize("head_start, cycles", [(1, 8), (Fraction(7, 3), 8), (1, 64)])
    def test_seventeen_ninths(self, head_start, cycles):
        system = build_seventeen_ninths(head_start, cycles=cycles)
        curve = consumption_curve(system).total
        for bound in (None, valid_horizon(system), curve.end / 3):
            assert repr(ratio_maxima(curve, bound)) == repr(reference_ratio_maxima(curve, bound))


# -- curves that keep their sweep's lattice ------------------------------------------


def bare(curves):
    """``curves`` rebuilt from bare copies of its curves, which keep no lattice."""
    return ConsumptionCurves(*(PiecewiseLinearCurve(c.points) for c in curves[:3]), curves.ks)


def value_key(curve, t):
    """``value_at(t)`` as its ``repr`` and type, or the error it raised."""
    try:
        return repr(typed(curve.value_at(t)))
    except ValueError as exc:
        return f"ValueError: {exc}"


def maxima_key(curve, bound):
    """``ratio_maxima``'s report as its ``repr`` and the type of every number in it, or the error it raised."""
    try:
        report = ratio_maxima(curve, bound)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return repr(report), [typed(x) for x in [x for pair in report.local_maxima for x in pair] + list(report[1:])]


def reference_intervals_document(curves, mode):
    """``intervals_to_document`` with every time rendered as ``render_number(_number(scale, n), mode)``."""
    doc = {}
    for side, ks in curves.ks.items():
        curve = getattr(curves, side)
        scale, ints, _ = curve._lattice or (None, curve.points, None)
        times = [render_number(_number(scale, n) if scale else n, mode) for n, _ in ints]
        doc[side] = [{"t_start": t0, "t_end": t1, "k": k} for k, t0, t1 in zip(ks, times, times[1:])]
    return doc


class TestCurvesKeepTheirLattice:
    @settings(max_examples=100, deadline=None)
    @given(rational_cases(), st.booleans())
    def test_lattice_points_are_the_public_points(self, case, floating):
        system, horizon = case
        if floating:
            system, horizon = as_float(system), float(horizon)
        curves = consumption_curve(system, horizon, truncated=True)
        for side in (RIGHT, LEFT, TOTAL):
            curve = getattr(curves, side)
            if floating:
                assert curve._lattice is None
                continue
            scale_, ints, ks = curve._lattice
            eager = [tuple(typed(Fraction(x) if scale_ == 1 else Fraction(x, scale_)) for x in point)
                     for point in ints]  # each lattice number made alone, Fraction(n) at scale 1
            assert repr([(typed(t), typed(v)) for t, v in curve.points]) == repr(eager)
            assert len(ks) == len(ints) - 1 and ks == curves.ks[side]
            assert all(v1 - v0 == k * (t1 - t0) for (t0, v0), (t1, v1), k in zip(ints, ints[1:], ks))

    def test_bare_and_float_curves_keep_no_lattice(self, sys17):
        assert PiecewiseLinearCurve([(0, 0), (1, 1)])._lattice is None
        assert consumption_curve(as_float(sys17)).total._lattice is None

    @settings(max_examples=150, deadline=None)
    @given(rational_cases(), BOUNDS)
    def test_ratio_maxima_on_the_lattice_equals_the_bare_scan(self, case, bound):
        system, horizon = case
        curve = consumption_curve(system, horizon, truncated=True).total
        assert maxima_key(curve, bound) == maxima_key(PiecewiseLinearCurve(curve.points), bound)

    @pytest.mark.parametrize("head_start", [1, Fraction(7, 3)])
    def test_ratio_maxima_on_the_lattice_equals_the_bare_scan_on_seventeen_ninths(self, head_start):
        system = build_seventeen_ninths(head_start, cycles=64)
        curve = consumption_curve(system).total
        copy = PiecewiseLinearCurve(curve.points)
        for bound in (None, valid_horizon(system), curve.end / 3, float(curve.end / 5)):
            assert maxima_key(curve, bound) == maxima_key(copy, bound)

    @pytest.mark.parametrize("bound", [None, 4, 12, Fraction(25, 2), 13, 30.0])
    def test_ratio_maxima_on_the_lattice_where_q_is_flat(self, bound):
        # zero head start: Q is 2 on the first segment, to (4, 8), and again from (12, 24) to (13, 26)
        curve = consumption_curve(rational(0, *STEPS), 30, truncated=True).total
        assert (curve.points[6], curve.points[7]) == ((12, 24), (13, 26))
        assert maxima_key(curve, bound) == maxima_key(PiecewiseLinearCurve(curve.points), bound)
        assert [t for t, _ in ratio_maxima(curve, bound).local_maxima] == ([] if bound == 4 else [9])  # not 4 or 13

    @settings(max_examples=50, deadline=None)
    @given(rational_cases())
    def test_csv_and_document_equal_those_of_bare_curves(self, case):
        system, horizon = case
        curves = consumption_curve(system, horizon, truncated=True)
        assert curve_to_csv(curves) == curve_to_csv(bare(curves))
        assert intervals_to_document(curves, RATIONAL) == intervals_to_document(bare(curves), RATIONAL)

    def test_csv_past_the_float_range_raises_as_on_bare_curves(self):
        curves = consumption_curve(build_seventeen_ninths(1, 300))
        with pytest.raises(OverflowError) as want:
            curve_to_csv(bare(curves))
        with pytest.raises(OverflowError) as got:
            curve_to_csv(curves)
        assert str(got.value) == str(want.value)

    def test_curves_of_two_scales_are_not_read_on_one(self):
        # the second system is the first scaled by 1/3: the same lattice ints over scales 1 and 3
        system = build_seventeen_ninths(1, cycles=4)
        ones, thirds = consumption_curve(system), consumption_curve(scale(system, Fraction(1, 3)))
        assert ones.total._lattice[1] == thirds.total._lattice[1]
        mixed = ConsumptionCurves(ones.total, thirds.left, ones.right, {TOTAL: ones.ks[TOTAL], LEFT: thirds.ks[LEFT]})
        assert curve_to_csv(mixed) == curve_to_csv(bare(mixed))
        assert intervals_to_document(mixed, RATIONAL) == intervals_to_document(bare(mixed), RATIONAL)

    def test_bare_curves_of_equal_times_keep_their_own_texts(self):
        ints, floats = PiecewiseLinearCurve([(0, 0), (1, 1)]), PiecewiseLinearCurve([(0.0, 0.0), (1.0, 1.0)])
        curves = ConsumptionCurves(ints, floats, ints, {TOTAL: (1,), LEFT: (1,)})
        assert intervals_to_document(curves, RATIONAL) == {
            TOTAL: [{"t_start": "0", "t_end": "1", "k": 1}], LEFT: [{"t_start": "0.0", "t_end": "1.0", "k": 1}],
        }

    @pytest.mark.parametrize("system, lattice_scale", [
        (build_seventeen_ninths(1, cycles=64), 1),
        (build_seventeen_ninths(Fraction(7, 3), cycles=64), 3),
        (build_seventeen_ninths(Fraction(1, 6), cycles=64), 6),
        (build_improved(InterlacingParams(cycles=8)), None),
    ], ids=["scale-1", "scale-3", "scale-6", "float"])
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_intervals_document_renders_each_time_as_the_reference(self, system, lattice_scale, mode):
        # rational text from the lattice int, float text through the Fraction; no curve's points are read
        curves = consumption_curve(system)
        assert (curves.total._lattice or (None,))[0] == lattice_scale
        got = json.dumps(intervals_to_document(curves, mode))
        assert got == json.dumps(reference_intervals_document(curves, mode))
        assert got == json.dumps(intervals_to_document(bare(curves), mode))

    def test_intervals_document_past_the_float_range_raises_as_the_reference_does(self):
        # float(int) would say "int too large to convert to float"
        curves = consumption_curve(build_seventeen_ninths(1, 300))
        assert json.dumps(intervals_to_document(curves, RATIONAL)) == json.dumps(
            reference_intervals_document(curves, RATIONAL))
        with pytest.raises(OverflowError) as want:
            reference_intervals_document(curves, FLOAT)
        with pytest.raises(OverflowError) as got:
            intervals_to_document(curves, FLOAT)
        assert str(got.value) == str(want.value) == "integer division result too large for a float"

    # fresh curves: the session fixtures' points are read by other tests
    @settings(max_examples=60, deadline=None)
    @given(rational_cases(), st.booleans(), BOUNDS)
    def test_the_readers_publish_no_points(self, case, floating, bound):
        system, horizon = case
        if floating:
            system, horizon = as_float(system), float(horizon)
        curves = consumption_curve(system, horizon, truncated=True)
        maxima_key(curves.total, bound)
        intervals_to_document(curves, system.mode)
        curve_to_csv(curves)
        for curve in curves[:3]:
            len(curve), curve.start, curve.value_at(curve.end)
        for curve in curves[:3]:
            if floating:  # the sweep's own floats, published as it made them
                assert curve._lattice is None and all(type(x) is float for point in curve._points for x in point)
            else:
                assert curve._points is None

    @settings(max_examples=40, deadline=None)
    @given(rational_cases(), st.lists(st.fractions(Fraction(-1, 10), Fraction(11, 10), max_denominator=60),
                                      min_size=1, max_size=3))
    def test_value_at_and_ratio_maxima_do_not_depend_on_a_read_of_the_points(self, case, shares):
        system, horizon = case
        fresh, read = (consumption_curve(system, horizon, truncated=True).total for _ in range(2))
        step = Fraction(1, 2 * read._lattice[0])  # half a lattice step: floor(t*scale) is not t*scale
        times = [t + dt for t, _ in read.points[1:] for dt in (0, -step)] + [share * read.end for share in shares]
        copy = PiecewiseLinearCurve(read.points)  # keeps no lattice
        for t in times:
            for x in (t, int(t), float(t)):
                assert value_key(fresh, x) == value_key(read, x) == value_key(copy, x)
                assert maxima_key(fresh, x) == maxima_key(read, x) == maxima_key(copy, x)
        assert fresh._points is None

    @settings(max_examples=80, deadline=None)
    @given(rational_cases())
    def test_lattice_reads_equal_those_of_the_bare_curve(self, case):
        # start, end and value_at read a kept lattice's ints and make one Fraction; a float time goes through _between
        system, horizon = case
        for curve in consumption_curve(system, horizon, truncated=True)[:3]:
            copy = PiecewiseLinearCurve(curve.points)
            assert (typed(curve.start), typed(curve.end)) == (typed(copy.start), typed(copy.end))
            times = [t for t, _ in copy.points]
            step = Fraction(1, 3 * curve._lattice[0])  # a third of a lattice step: off every breakpoint
            inside = times + [(t0 + t1) / 2 for t0, t1 in zip(times, times[1:])] + [times[0] + step, times[-1] - step]
            for t in inside + [times[0] - 1, times[0] - step, times[-1] + step, times[-1] + 1]:
                for x in (t, int(t), float(t)):
                    assert value_key(curve, x) == value_key(copy, x)

    @pytest.mark.parametrize("read", [False, True])
    def test_pickle_and_deepcopy_before_and_after_a_read(self, read):
        curve = consumption_curve(build_seventeen_ninths(Fraction(7, 3), cycles=4)).total
        if read:
            curve.points
        copies = [pickle.loads(pickle.dumps(curve)), deepcopy(curve)]
        for twin in copies:
            assert (twin._points is not None) == read and twin._lattice == curve._lattice
            assert maxima_key(twin, None) == maxima_key(curve, None)
            assert repr(twin.points) == repr(curve.points)

    def test_points_cannot_be_assigned(self):
        for curve in (PiecewiseLinearCurve([(0, 0), (1, 1)]), consumption_curve(build_seventeen_ninths(1, 3)).total):
            with pytest.raises(AttributeError):
                curve.points = ((0, 0), (1, 2))

    @pytest.mark.parametrize("bound", [math.nan, "5", True, False])  # a bool is no length, as in coerce_length
    @pytest.mark.parametrize("keeps_lattice", [True, False])
    def test_a_nan_or_non_numeric_valid_horizon_is_refused(self, sys17_curves, bound, keeps_lattice):
        curve = sys17_curves.total if keeps_lattice else PiecewiseLinearCurve(sys17_curves.total.points)
        assert (curve._lattice is not None) == keeps_lattice
        with pytest.raises(ValueError) as info:
            ratio_maxima(curve, bound)
        assert str(info.value) == f"valid horizon must be a real number other than a bool or nan, got {bound!r}"

    @pytest.mark.parametrize("keeps_lattice", [True, False])
    def test_a_numpy_int_time_reads_as_the_same_int(self, keeps_lattice):
        # ratio_maxima handed np.int64 to _rises, which found no as_integer_ratio; value_at made a Fraction of it,
        # whose numpy numerator overflowed in the multiply, a warning this suite turns into an error
        curve = consumption_curve(build_seventeen_ninths(Fraction(7, 3), cycles=40)).total
        curve = curve if keeps_lattice else PiecewiseLinearCurve(curve.points)
        for t in (20, 2**62):
            assert value_key(curve, np.int64(t)) == value_key(curve, t)
            assert maxima_key(curve, np.int64(t)) == maxima_key(curve, t)
        bare = PiecewiseLinearCurve([(0, 0), (10, 10), (40, 100)])
        assert value_key(bare, np.int64(15)) == value_key(bare, 15)
        assert maxima_key(bare, np.int64(20)) == maxima_key(bare, 20)
        assert value_key(bare, np.float64(15)) == repr(typed(np.float64(25.0)))  # a numpy float keeps the float path


# -- horizons read from the tops --------------------------------------------------------


def seventeen_ninths_thirds(mode):
    """17/9 at 3 cycles and head start 1/3: valid horizon 57, default horizon 1077."""
    system = build_seventeen_ninths(Fraction(1, 3), cycles=3)
    return system if mode == RATIONAL else as_float(system)


class TestHorizons:
    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("horizon, truncated, message", [
        (0, False, "horizon must be > 0, got {zero}"),
        ("-1/2", True, "horizon must be > 0, got {minus_half}"),
        (Fraction(400, 7), False, "horizon 57.1429 exceeds the valid horizon 57; "
                                  "pass truncated=True to simulate the truncated system anyway"),
    ])
    def test_refused_horizons(self, mode, horizon, truncated, message):
        system = seventeen_ninths_thirds(mode)
        zero, minus_half = ("0", "-1/2") if mode == RATIONAL else ("0.0", "-0.5")
        text = message.format(zero=zero, minus_half=minus_half)
        with pytest.raises(ValueError) as simulated:
            consumption_curve(system, horizon, truncated=truncated)
        with pytest.raises(ValueError) as checked:
            check_speed(system, 2, horizon, truncated=truncated)
        assert str(simulated.value) == str(checked.value) == text

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    def test_no_verticals_needs_a_horizon(self, mode):
        system = BarrierSystem(mode, 1, (), ())
        text = "system has no verticals; specify an explicit horizon"
        with pytest.raises(ValueError) as simulated:
            consumption_curve(system)
        with pytest.raises(ValueError) as checked:
            check_speed(system, 2)
        assert str(simulated.value) == str(checked.value) == text

    @pytest.mark.parametrize("mode, horizon, want", [
        (RATIONAL, None, Fraction(1077)),
        (RATIONAL, 50, Fraction(50)),
        (RATIONAL, "101/2", Fraction(101, 2)),
        (RATIONAL, Fraction(400, 7), Fraction(400, 7)),
        (FLOAT, None, 1077.0),
        (FLOAT, 50, 50.0),
        (FLOAT, "101/2", 50.5),
        (FLOAT, Fraction(400, 7), 57.142857142857146),
    ])
    def test_speed_check_horizon(self, mode, horizon, want):
        system = seventeen_ninths_thirds(mode)
        verdict = check_speed(system, 2, horizon, truncated=True)
        total = consumption_curve(system, horizon, truncated=True).total
        assert typed(verdict.horizon) == typed(total.end) == typed(want)

    @settings(max_examples=30, deadline=None)
    @given(rational_cases(), st.booleans())
    def test_valid_and_default_horizon_are_the_earliest_tops(self, case, floating):
        system = as_float(case[0]) if floating else case[0]
        tops = [top_arrival_times(system, side) for side in (RIGHT, LEFT)]
        tops = [times for times in tops if times]
        want_valid = min((times[-2] if len(times) > 1 else times[0] for times in tops), default=None)
        want_default = min((times[-1] for times in tops), default=None)
        assert typed(valid_horizon(system)) == typed(want_valid)
        assert typed(default_horizon(system)) == typed(want_default)
