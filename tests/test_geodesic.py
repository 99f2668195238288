"""Geodesic distances and face arrival profiles, cross-checked by the grid oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firebreak import (
    FLOAT,
    RATIONAL,
    BarrierSystem,
    ValidationError,
    build_scene,
    build_seventeen_ninths,
    default_horizon,
    face_arrival_profiles,
    geodesic_distance,
    grid_arrival,
    top_arrival_times,
)
from firebreak.oracle import arrival_at
from geodesic_reference import arrival, forced_descent


def rational(head_start, right=(), left=()):
    return BarrierSystem(mode=RATIONAL, head_start=head_start, right=right, left=left)


SINGLE = rational(1, right=((1, 17),))
TWO_BARRIER = rational(1, right=((1, 17), (34, 136)))

BIG = 10**5000
# repr of these raises past the digit limit: the refusal shows the int as approx does
PAST_THE_DIGIT_LIMIT = {(BIG, math.inf): "(1e+5000, inf)", (BIG, "a"): "(1e+5000, 'a')", (BIG, 1): "(1e+5000, 1)"}


def shown(point):
    return PAST_THE_DIGIT_LIMIT[point] if point in PAST_THE_DIGIT_LIMIT else repr(point)


class TestForcedDescent:
    def test_no_obstacles(self):
        assert forced_descent([], 0) == 0

    def test_single_obstacle_to_ground(self):
        assert forced_descent([17], 0) == 17

    def test_descending_pair(self):
        # descend 1 after the first peak, 2 after the second
        assert forced_descent([3, 2], 0) == 3

    def test_descending_pair_matches_grid_oracle(self):
        # two barriers of heights 3 and 2 at x = 1 and 2; query behind both
        system = rational("1/2", right=((1, 3), (1, 2)))
        scene = build_scene(system, 0.05, 12.0)
        arr = grid_arrival(scene)
        x, y = 3.0, 0.0
        observed = arrival_at(scene, arr, x, y)
        descent = (observed - x - y) / 2
        assert descent == pytest.approx(3.0, abs=1e-9)

    def test_terminal_height_absorbs_descent(self):
        assert forced_descent([5, 2], 3) == 2
        assert forced_descent([2, 5], 7) == 0

    def test_matches_suffix_maximum_form(self):
        rng = random.Random(3)
        for _ in range(200):
            heights = [Fraction(rng.randint(1, 60), 4) for _ in range(rng.randint(0, 6))]
            y = Fraction(rng.randint(0, 80), 4)
            expected = max(heights, default=Fraction(0)) - y
            if expected < 0:
                expected = Fraction(0)
            assert forced_descent(heights, y) == expected

    def test_rejects_negative_terminal(self):
        with pytest.raises(ValueError):
            forced_descent([1], -1)

    @pytest.mark.parametrize("heights, terminal, message", [
        # each gave an answer: 0, 2 and 3
        ([3, 2], math.nan, "terminal height must be a number >= 0, got nan"),
        ([3], True, "terminal height must be a number >= 0, got True"),
        ([3, math.nan], 0, "height nan is not a number"),
        ([math.nan, 3], 0, "height nan is not a number"),
        ([3, False], 0, "height False is not a number"),
    ])
    def test_rejects_a_nan_or_bool(self, heights, terminal, message):
        with pytest.raises(ValueError) as info:
            forced_descent(heights, terminal)
        assert str(info.value) == message


class TestGeodesicDistance:
    def test_top_of_first_barrier(self, sys17):
        assert geodesic_distance(sys17, (1, 17)) == 18

    def test_vertical_ray_above_origin(self, sys17):
        assert geodesic_distance(sys17, (0, 5)) == 5

    def test_ground_behind_single_barrier(self):
        assert geodesic_distance(SINGLE, (10, 0)) == 44

    def test_ground_behind_single_barrier_matches_grid(self):
        scene = build_scene(SINGLE, 0.25, 48.0)
        arr = grid_arrival(scene)
        assert arrival_at(scene, arr, 10, 0) == pytest.approx(44.0)

    def test_on_barrier_point_takes_face_minimum(self):
        # halfway up the first barrier: crawled from the foot, not over the top
        assert geodesic_distance(SINGLE, (1, 10)) == 11

    def test_left_side_mirrors(self):
        system = rational(1, left=((1, 17),))
        assert geodesic_distance(system, (-10, 0)) == 44

    def test_rejects_lower_half_plane(self, sys17):
        with pytest.raises(ValueError):
            geodesic_distance(sys17, (1, -1))

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("point", [(math.nan, 1.0), (math.inf, 1.0), (-math.inf, 0), (1, math.nan), (2, math.inf),
                                       (BIG, math.inf)])
    def test_rejects_a_coordinate_that_is_not_finite(self, mode, point, digit_limit):
        # such a point got a nan or infinite arrival time
        system = BarrierSystem(mode, 1, right=((1, 17),), left=((1, 34),))
        with pytest.raises(ValueError) as info:
            geodesic_distance(system, point)
        assert str(info.value) == f"point {shown(point)} has a coordinate that is not finite"

    @pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
    @pytest.mark.parametrize("point", [(True, 0), (0, False), ("1", 0), (None, 0), (1 + 0j, 0), (0, "1/2"), (BIG, "a")])
    def test_rejects_a_coordinate_that_is_not_a_real_number(self, mode, point, digit_limit):
        # (True, 0) was read as (1, 0); the others raised TypeError from a comparison
        system = BarrierSystem(mode, 1, right=((1, 17),), left=((1, 34),))
        with pytest.raises(ValueError) as info:
            geodesic_distance(system, point)
        assert str(info.value) == f"point {shown(point)} has a coordinate that is not a real number"

    @pytest.mark.parametrize("point", [(10**400, 0), (-(10**400), 0), (0, Fraction(10**400, 3)), (BIG, 1)])
    def test_a_float_system_rejects_a_coordinate_past_the_float_range(self, point, digit_limit):
        # it raised OverflowError: int too large to convert to float
        system = BarrierSystem(FLOAT, 1, right=((1, 17),), left=((1, 34),))
        with pytest.raises(ValueError) as info:
            geodesic_distance(system, point)
        assert str(info.value) == f"point {shown(point)} has a coordinate past the float range"

    @pytest.mark.parametrize("point, shown", [((Fraction(10**401), 0.5), "(1e+401, 0.5)"),
                                              ((0.5, Fraction(10**401)), "(0.5, 1e+401)")])
    def test_a_rational_system_refuses_a_float_point_whose_distance_is_past_the_float_range(self, point, shown):
        # the Fraction and float sums raised OverflowError: integer division result too large for a float
        system = BarrierSystem(RATIONAL, 1, right=((Fraction(10**400), 1),), left=())
        with pytest.raises(ValueError) as info:
            geodesic_distance(system, point)
        assert str(info.value) == f"point {shown} has a float coordinate, and its distance is past the float range"
        # an exact point past the float range and a float point inside it keep their types
        assert typed(geodesic_distance(system, (Fraction(10**401), 1))) == typed(Fraction(10**401 + 1))
        assert typed(geodesic_distance(system, (10**401, 0))) == typed(Fraction(10**401 + 2))
        assert typed(geodesic_distance(system, (2, 0.5))) == typed(2.5)

    @pytest.mark.parametrize("point, distance", [
        # (0, 5) gave the int 5: no system number entered its sum
        ((0, 5), Fraction(5)), ((10, 0), Fraction(44)), ((Fraction(1, 3), 2), Fraction(7, 3)), ((1, 17), Fraction(18)),
        ((-1, 10), Fraction(11)), ((10.0, 0), 44.0), ((0, 5.0), 5.0), ((Fraction(-1, 2), 0.5), 1.0),
    ])
    def test_result_type_on_a_rational_system(self, sys17, point, distance):
        assert typed(geodesic_distance(sys17, point)) == typed(distance)

    @pytest.mark.parametrize("point, distance", [
        ((0, 5), 5.0), ((10, 0), 44.0), ((Fraction(1, 2), Fraction(1, 4)), 0.75), ((1.0, 17.0), 18.0),
    ])
    def test_result_type_on_a_float_system(self, point, distance):
        system = BarrierSystem(FLOAT, 1, right=((1, 17),), left=((1, 34),))
        assert typed(geodesic_distance(system, point)) == typed(distance)

    def test_a_fraction_past_the_float_range_is_a_point(self):
        # math.isfinite would raise OverflowError on it
        assert geodesic_distance(SINGLE, (Fraction(10**400), 0)) == 10**400 + 34
        assert geodesic_distance(SINGLE, (-Fraction(10**400, 3), 1)) == Fraction(10**400, 3) + 1

    def test_points_before_at_and_past_each_foot_on_a_growing_lattice(self):
        # the rational path reads the pairs only up to the first foot at or past |x|, whose lattice grows with them
        right = ((Fraction(1, 3), 5), (Fraction(2, 5), Fraction(3, 7)), (Fraction(1, 7), Fraction(13, 2)), (7, 1))
        system = rational(1, right=right)
        feet = system.feet("right")
        xs = [f + d for f in (0, *feet) for d in (-Fraction(1, 11), 0, Fraction(1, 11)) if f + d >= 0]
        for x in xs + [feet[-1] * 10**30]:
            for y in (0, Fraction(3, 7), 5, Fraction(13, 2), 9):
                assert typed(geodesic_distance(system, (x, y))) == typed(Fraction(descent_distance(system, (x, y))))

    @pytest.mark.parametrize("point", [
        (Fraction(-7, 2), Fraction(5, 3)), (Fraction(-2), 0),  # a negative Fraction x: the left side
        (Fraction(5, 2), 0), (-3, 0), (0, 0),  # y = 0
        (4, 9), (-6, 2), (0, 7),  # int coordinates
        (2, 5), (2, 17), (Fraction(11, 3), 30), (-2, 10), (-2, 34), (2, 20),  # on a barrier, at its top, above it
    ])
    def test_an_exact_point_is_read_as_integer_ratios(self, point):
        # each sign is read from the numerator, and the lattice holds the point with its sign
        system = rational(Fraction(1, 2), right=((2, 17), (Fraction(5, 3), 40)), left=((2, 34),))
        assert typed(geodesic_distance(system, point)) == typed(Fraction(descent_distance(system, point)))

    @pytest.mark.parametrize("point, message", [
        ((Fraction(1, 2), True), "point (Fraction(1, 2), True) has a coordinate that is not a real number"),
        ((False, 3), "point (False, 3) has a coordinate that is not a real number"),
        ((Fraction(-1, 3), math.nan), "point (Fraction(-1, 3), nan) has a coordinate that is not finite"),
        ((math.nan, 2), "point (nan, 2) has a coordinate that is not finite"),
    ])
    def test_a_rational_system_refuses_a_bool_or_nan_beside_an_exact_coordinate(self, point, message):
        system = rational(Fraction(1, 2), right=((2, 17),), left=((2, 34),))
        with pytest.raises(ValueError) as info:
            geodesic_distance(system, point)
        assert str(info.value) == message

    def test_lipschitz_within_free_cell(self):
        rng = random.Random(5)
        system = BarrierSystem(
            mode="float", head_start=0.8, right=((1.0, 3.0), (2.5, 7.0)), left=((1.5, 4.0),)
        )
        for _ in range(200):
            x = rng.uniform(1.01, 3.49)  # strictly between the two right feet
            y = rng.uniform(0.0, 6.0)
            dx = rng.uniform(-0.2, 0.2)
            dy = rng.uniform(-0.2, 0.2)
            x2 = min(max(x + dx, 1.01), 3.49)
            y2 = max(y + dy, 0.0)
            d1 = geodesic_distance(system, (x, y))
            d2 = geodesic_distance(system, (x2, y2))
            assert abs(d1 - d2) <= abs(x - x2) + abs(y - y2) + 1e-9


class TestProfiles:
    def test_single_barrier_faces(self):
        profiles = face_arrival_profiles(SINGLE, "right", 100)
        near = next(p for p in profiles if p.kind == "vertical_left")
        far = next(p for p in profiles if p.kind == "vertical_right")
        assert near.points == ((0, 1), (17, 18))       # arrival(y) = 1 + y
        assert far.points == ((0, 35), (17, 18))       # arrival(y) = 35 - y
        assert arrival(near, 10) == 11
        assert arrival(far, 10) == 25

    def test_second_barrier_near_face_has_contact_vertex(self):
        profiles = face_arrival_profiles(TWO_BARRIER, "right", 300)
        near = [p for p in profiles if p.kind == "vertical_left"][1]
        # arrival(y) = 35 + max(y, 34 - y): fire arrives at the clearance height
        assert near.points == ((0, 69), (17, 52), (136, 171))
        assert arrival(near, 0) == 69
        assert arrival(near, 17) == 52
        assert arrival(near, 100) == 135

    def test_near_face_arrival_is_the_distance_on_the_face(self):
        # a point on a vertical below its top is reached first on the near face
        near = [p for p in face_arrival_profiles(TWO_BARRIER, "right", 300) if p.kind == "vertical_left"][1]
        for y in range(137):
            assert geodesic_distance(TWO_BARRIER, (35, y)) == arrival(near, y)

    @pytest.mark.parametrize("param", [-1, Fraction(35, 2), 100])
    def test_arrival_outside_the_face_rejected(self, param):
        near = next(p for p in face_arrival_profiles(SINGLE, "right", 100) if p.kind == "vertical_left")
        with pytest.raises(ValueError) as info:
            arrival(near, param)
        assert str(info.value) == f"parameter {param} outside [0, 17]"

    @pytest.mark.parametrize("horizon, shown", [(0, "0"), ("-1/2", "-1/2"), (-3, "-3")])
    def test_non_positive_horizon_rejected(self, horizon, shown):
        with pytest.raises(ValueError) as info:
            face_arrival_profiles(SINGLE, "right", horizon)
        assert str(info.value) == f"horizon must be > 0, got {shown}"

    def test_horizon_is_read_as_a_system_number(self):
        # as consumption_curve reads it: rational mode refuses a float, and an int or "p/q" lands as a Fraction
        system = build_seventeen_ninths(1, cycles=3)
        with pytest.raises(ValidationError) as info:
            face_arrival_profiles(system, "right", 100.5)
        assert str(info.value).startswith("horizon: float 100.5 not accepted in rational mode")
        for horizon in (100, "201/2"):
            points = [x for prof in face_arrival_profiles(system, "right", horizon) for pt in prof.points for x in pt]
            assert {type(x) for x in points} == {Fraction}
            assert Fraction(horizon) in points  # some face is cut at the horizon

    def test_face_reached_only_at_the_horizon_has_no_profile(self):
        # 17/9 at 3 cycles: the front reaches the top of right vertical 3 exactly at the default horizon
        system = build_seventeen_ninths(1, cycles=3)
        horizon = default_horizon(system)
        assert horizon == 3231
        profiles = {(p.kind, p.index): p.points for p in face_arrival_profiles(system, "right", horizon)}
        assert profiles[("vertical_left", 3)][-1] == (2176, 3231)
        assert ("vertical_right", 3) not in profiles

    def test_head_start_ground_arrival_is_distance(self, sys17):
        profiles = face_arrival_profiles(sys17, "right", 1000)
        ground0 = next(p for p in profiles if p.kind == "ground" and p.index == 0)
        assert ground0.points == ((0, 0), (1, 1))

    def test_all_slopes_unit(self, sys17):
        for side in ("right", "left"):
            for prof in face_arrival_profiles(sys17, side, 10**6):
                for (p0, t0), (p1, t1) in zip(prof.points, prof.points[1:]):
                    assert abs(t1 - t0) == abs(p1 - p0)

    def test_arrival_at_least_l1_distance(self):
        for prof in face_arrival_profiles(TWO_BARRIER, "right", 10**4):
            feet = TWO_BARRIER.feet("right")
            for p, t in prof.points:
                if prof.kind == "ground":
                    assert t >= p
                else:
                    assert t >= feet[prof.index - 1] + p

    def test_profiles_truncated_at_horizon(self):
        profiles = face_arrival_profiles(TWO_BARRIER, "right", 60)
        for prof in profiles:
            for _, t in prof.points:
                assert t <= 60
        # the tall barrier's near face is clipped around the contact vertex
        near2 = [p for p in profiles if p.kind == "vertical_left" and p.index == 2]
        assert near2 and near2[0].points[0][1] == 60

    def test_telescoping_top_arrivals(self, sys17):
        for side in ("right", "left"):
            feet = sys17.feet(side)
            heights = sys17.heights(side)
            tops = top_arrival_times(sys17, side)
            assert tops == tuple(f + h for f, h in zip(feet, heights))

    def test_far_face_never_earlier_than_near_face(self):
        # the simulator counts consumption from the near face only; this is
        # what makes that sound
        import random

        rng = random.Random(29)
        for _ in range(30):
            pairs = tuple(
                (Fraction(rng.randint(1, 200), 10), Fraction(rng.randint(1, 200), 10))
                for _ in range(rng.randint(1, 5))
            )
            system = rational(Fraction(rng.randint(0, 20), 10), right=pairs)
            profiles = face_arrival_profiles(system, "right", 10**6)
            near = {p.index: p for p in profiles if p.kind == "vertical_left"}
            far = {p.index: p for p in profiles if p.kind == "vertical_right"}
            for idx, nf in near.items():
                ff = far[idx]
                params = {p for p, _ in nf.points} | {p for p, _ in ff.points}
                for y in params:
                    assert arrival(ff, y) >= arrival(nf, y)


class TestGridAgreement:
    def test_random_systems_match_grid(self):
        # grid-aligned random scenes: BFS arrival equals the exact geodesic
        rng = random.Random(17)
        cell = 0.25
        for _ in range(50):
            def side():
                pairs = []
                for _ in range(rng.randint(0, 3)):
                    pairs.append(
                        (Fraction(rng.randint(1, 10), 4), Fraction(rng.randint(1, 12), 4))
                    )
                return tuple(pairs)

            system = rational(Fraction(rng.randint(0, 4), 4), right=side(), left=side())
            horizon = 14.0
            scene = build_scene(system, cell, horizon)
            arr = grid_arrival(scene)
            crossings = len(system.right) + len(system.left)
            tol = 2 * cell + cell * crossings
            for _ in range(30):
                x = Fraction(rng.randint(-40, 40), 4)
                y = Fraction(rng.randint(0, 40), 4)
                if any(
                    abs(x) == f and y < h
                    for s_ in ("right", "left")
                    for f, h in zip(system.feet(s_), system.heights(s_))
                ):
                    continue  # nodes inside barriers are blocked by design
                exact = geodesic_distance(system, (x, y))
                if exact > horizon:
                    continue
                observed = arrival_at(scene, arr, float(x), float(y))
                assert abs(observed - float(exact)) <= tol


# -- one recurrence behind profiles, top arrivals and distances ----------------------

NUMBERS = {
    RATIONAL: st.integers(min_value=0, max_value=2400).map(lambda n: Fraction(n, 12)),
    FLOAT: st.floats(min_value=0, max_value=200),
}
LENGTHS = {
    RATIONAL: st.integers(min_value=1, max_value=1200).map(lambda n: Fraction(n, 12)),
    FLOAT: st.floats(min_value=0.01, max_value=100),
}
MODES = pytest.mark.parametrize("mode", [RATIONAL, FLOAT])


@st.composite
def systems(draw, mode):
    side = st.lists(st.tuples(LENGTHS[mode], LENGTHS[mode]), max_size=6)
    return BarrierSystem(mode=mode, head_start=draw(NUMBERS[mode]), right=draw(side), left=draw(side))


def descent_distance(system, point):
    """The closed form |x| + y + 2 * forced_descent over the heights before |x|, min over faces."""
    x, y = point
    ax = x if x >= 0 else -x
    side = "right" if x >= 0 else "left"
    feet, heights = system.feet(side), system.heights(side)
    before = [h for pos, h in zip(feet, heights) if pos < ax]
    direct = ax + y + 2 * forced_descent(before, y)
    for pos, h in zip(feet, heights):
        if pos == ax and y <= h:
            over_the_top = pos + h + 2 * forced_descent(before, h) + (h - y)
            return direct if direct <= over_the_top else over_the_top
    return direct


def verticals(system):
    """(signed foot, height, top arrival) of every vertical."""
    return [
        (sign * foot, height, top)
        for side, sign in (("right", 1), ("left", -1))
        for foot, height, top in zip(system.feet(side), system.heights(side), top_arrival_times(system, side))
    ]


def typed(x):
    return type(x).__name__, x


@st.composite
def systems_with_top_horizons(draw, mode):
    """A system and a horizon at one of its top arrivals or its default horizon: breakpoints on the horizon."""
    system = draw(systems(mode))
    tops = [t for side in ("right", "left") for t in top_arrival_times(system, side)]
    default = default_horizon(system)
    return system, draw(st.sampled_from(tops + [default]) if default is not None else LENGTHS[mode])


class TestProfileContract:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from([RATIONAL, FLOAT]).flatmap(systems_with_top_horizons))
    @example((build_seventeen_ninths(1, cycles=3), Fraction(3231)))  # the top of right vertical 3
    def test_every_piece_changes_time_at_unit_slope(self, case):
        system, horizon = case
        for side in ("right", "left"):
            for prof in face_arrival_profiles(system, side, horizon):
                assert len(prof.points) >= 2
                assert all(t <= horizon for _, t in prof.points)
                for (p0, t0), (p1, t1) in zip(prof.points, prof.points[1:]):
                    assert t1 != t0
                    if system.mode == RATIONAL:
                        assert abs(t1 - t0) == abs(p1 - p0) > 0


class TestSingleRecurrence:
    @MODES
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_top_arrival_ends_the_near_face(self, mode, data):
        system = data.draw(systems(mode))
        horizon = data.draw(LENGTHS[mode]) * data.draw(st.sampled_from([1, 4, 20]))
        for side in ("right", "left"):
            near = {p.index: p for p in face_arrival_profiles(system, side, horizon) if p.kind == "vertical_left"}
            heights = system.heights(side)
            for i, (height, top) in enumerate(zip(heights, top_arrival_times(system, side)), start=1):
                if top < horizon or (top == horizon and max(heights[: i - 1], default=0) < height):
                    assert tuple(map(typed, near[i].points[-1])) == (typed(height), typed(top))
                elif top == horizon:  # met at its top, so reached only at the horizon: no profile
                    assert i not in near

    @MODES
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_distance_to_a_top_is_its_arrival(self, mode, data):
        system = data.draw(systems(mode))
        for x, height, top in verticals(system):
            assert typed(geodesic_distance(system, (x, height))) == typed(top)

    @MODES
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_distance_matches_forced_descent_form(self, mode, data):
        system = data.draw(systems(mode))
        on_vertical = [(x, height) for x, height, _ in verticals(system)]
        for _ in range(8):
            if on_vertical and data.draw(st.booleans()):
                x, height = data.draw(st.sampled_from(on_vertical))
                y = data.draw(st.sampled_from([system.zero, height]) | NUMBERS[mode])
            else:
                x = data.draw(NUMBERS[mode]) * data.draw(st.sampled_from([1, -1]))
                y = data.draw(NUMBERS[mode])
            got, want = geodesic_distance(system, (x, y)), descent_distance(system, (x, y))
            if mode == RATIONAL:
                assert typed(got) == typed(want)
            else:
                assert got == pytest.approx(want, rel=1e-15, abs=0)
