"""Consumption curves, k-intervals, ratio maxima and speed feasibility."""

import json
import random
from fractions import Fraction
from itertools import accumulate

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
    KInterval,
    PiecewiseLinearCurve,
    build_flat,
    build_seventeen_ninths,
    check_speed,
    consumption_curve,
    curve_to_csv,
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
from firebreak.model import render_number
from firebreak.simulate import MERGE_RTOL, TOTAL, intervals_to_document

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
        curves, report = ratio_report(system, 5, speed=1, truncated=True)
        total = curves.total
        assert verdict.earliest_violation == report.earliest_violation == 0
        half = total.points[1][0] / 2
        assert total.value_at(half) > half

    def test_rejects_non_positive_speed(self, sys17):
        with pytest.raises(ValueError):
            check_speed(sys17, 0)


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


def reference_curves(system, horizon):
    """Side sweeps over face-profile ramps, then one value_at per total breakpoint."""
    zero = system.zero
    swept = {}
    for side in (RIGHT, LEFT):
        ramps = []
        for prof in face_arrival_profiles(system, side, horizon):
            if prof.kind == VERTICAL_RIGHT:
                continue
            pts = prof.points
            if prof.kind == GROUND:
                if pts[-1][0] <= system.head_start:
                    continue
                if pts[0][0] < system.head_start:
                    pts = ((system.head_start, pts[0][1] + (system.head_start - pts[0][0])),) + pts[1:]
            for (_, t0), (_, t1) in zip(pts, pts[1:]):
                if t0 != t1:
                    ramps.append((min(t0, t1), max(t0, t1)))
        events = sorted([(lo, 1) for lo, _ in ramps] + [(hi, -1) for _, hi in ramps], key=lambda e: e[0])
        merged = []
        for t, delta in events:
            if merged and (t == merged[-1][0] or (
                    system.mode == FLOAT and t - merged[-1][0] <= MERGE_RTOL * max(abs(t), 1.0))):
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
    total_iv = [KInterval(TOTAL, *iv) for iv in intervals]
    return ConsumptionCurves(total, left, right, tuple(right_iv + left_iv + total_iv))


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
    def test_ratio_report_speed_is_check_speed_over_the_valid_horizon(self, case, speed, floating):
        system, horizon = case
        if floating:
            system, horizon, speed = as_float(system), float(horizon), float(speed)
        curves, report = ratio_report(system, horizon, speed=speed, truncated=True)
        verdict = check_speed(system, speed, report.valid_horizon, truncated=True)
        got = (report.feasible_for, report.feasible, report.earliest_violation)
        want = (verdict.speed, verdict.feasible, verdict.earliest_violation)
        assert [typed(x) for x in got] == [typed(x) for x in want]
        # the scan of the longer curve up to the valid horizon agrees, bit for bit
        violation = reference_feasibility(curves.total.points, system.number(speed), report.valid_horizon)
        assert typed(report.earliest_violation) == typed(violation)

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
