"""Grid oracle: arrival exactness against a queue BFS, sampled consumption, convergence."""

import math
import re
import warnings
from collections import Counter, deque
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from firebreak import (
    FLOAT,
    RATIONAL,
    BarrierSystem,
    GridScene,
    PiecewiseLinearCurve,
    SampledCurve,
    build_flat,
    build_scene,
    build_seventeen_ninths,
    compare,
    consumption_curve,
    consumption_tolerance,
    geodesic_distance,
    grid_arrival,
    grid_consumption,
    valid_horizon,
)
from firebreak.oracle import (
    _BYTES_PER_ROW, _BYTES_PER_SAMPLE, _count_vertical, _last_level, _levels, _run_levels, arrival_at,
)
from firebreak.simulate import _floats_at


def rational(head_start, right=(), left=()):
    return BarrierSystem(mode=RATIONAL, head_start=head_start, right=right, left=left)


SINGLE = rational(1, right=((1, 17),))


class TestGridArrival:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(-32, 32), st.integers(0, 32))
    def test_empty_scene_is_manhattan(self, qx, qy):
        scene = build_scene(build_flat(1), 0.25, 10)
        x, y = qx / 4, qy / 4
        assert arrival_at(scene, grid_arrival(scene), x, y) == abs(x) + y

    def test_single_barrier_detour(self):
        scene = build_scene(SINGLE, 0.25, 48)
        arr = grid_arrival(scene)
        assert arrival_at(scene, arr, 10, 0) == pytest.approx(44.0, abs=0.5)

    def test_ray_above_origin_unaffected(self):
        scene = build_scene(SINGLE, 0.25, 48)
        arr = grid_arrival(scene)
        assert arrival_at(scene, arr, 0, 5) == 5.0

    def test_barrier_interior_unreachable(self):
        scene = build_scene(SINGLE, 0.25, 30)
        arr = grid_arrival(scene)
        assert np.isinf(arrival_at(scene, arr, 1, 5))

    def test_bad_cell_rejected(self):
        with pytest.raises(ValueError):
            build_scene(SINGLE, 0, 10)

    def test_source_blocked_rejected(self):
        # a foot at 0.1 snaps to the origin column at this resolution
        hugging = rational("1/10", right=((Fraction(1, 10), 1),))
        with pytest.raises(ValueError, match="source"):
            build_scene(hugging, 0.25, 10)

    def test_vertical_past_the_float_range_blocks_its_column(self):
        tall = rational(1, right=((2, 10**340),))
        scene = build_scene(tall, 0.5, 10)
        arr = grid_arrival(scene)
        col = scene.col(2)
        assert scene.tops[col] == scene.rows and not scene.passable[:, col].any()
        assert np.isinf(arr[:, col:]).all() and np.isfinite(arr[:, :col]).all()

    def test_foot_past_the_float_range_is_outside_the_scene(self):
        far = rational(1, right=((1, 3), (10**340, 1)))
        near = rational(1, right=((1, 3),))
        assert build_scene(far, 0.5, 10).tops == build_scene(near, 0.5, 10).tops

    def test_seventeen_ninths_scene_matches_queue_bfs(self):
        # 17/9 at 3 cycles, cell 1, as in the oracle-grid benchmark and the CLI session
        system = build_seventeen_ninths(1, cycles=3)
        max_time = float(valid_horizon(system)) + 2
        scene = build_scene(system, 1.0, max_time - 2)
        assert np.array_equal(grid_arrival(scene, max_time=max_time), deque_arrival(scene, max_time))

    @pytest.mark.parametrize("top", [-1, 5, 1.5])
    def test_top_outside_the_column_refused(self, top):
        scene = GridScene(cell=1.0, tops=(0, 4, 0, top, 0), rows=4, source_col=2)
        with pytest.raises(ValueError, match=rf"column 3 of the scene has top row {top}, not an integer in \[0, 4\]"):
            grid_arrival(scene)

    def test_blocked_source_refused(self):
        scene = GridScene(cell=1.0, tops=(0, 0, 1, 0, 0), rows=4, source_col=2)
        with pytest.raises(ValueError, match=r"source node \(row 0, column 2\) is blocked"):
            grid_arrival(scene)

    def test_infinite_max_time_is_no_cut_off(self):
        scene = build_scene(SINGLE, 0.5, 20)
        assert np.array_equal(grid_arrival(scene, max_time=math.inf), grid_arrival(scene))
        assert np.array_equal(grid_arrival(scene, max_time=1e308), grid_arrival(scene))  # 1e308 / 0.5 is inf
        for past_the_float_range in (10**400, Fraction(10**400, 3)):
            assert np.array_equal(grid_arrival(scene, max_time=past_the_float_range), grid_arrival(scene))
        only_source = grid_arrival(scene, max_time=-math.inf)
        assert np.array_equal(only_source, grid_arrival(scene, max_time=-3))
        assert np.array_equal(only_source, grid_arrival(scene, max_time=-10**400))
        assert np.isfinite(only_source).sum() == 1

    def test_nan_max_time_refused(self):
        scene = build_scene(SINGLE, 0.5, 20)
        with pytest.raises(ValueError, match="max_time must be a number or None, got nan"):
            grid_arrival(scene, max_time=math.nan)

    @pytest.mark.parametrize("x, y", [(1e308, 0), (0, math.inf), (math.nan, 0), (-math.inf, 1), (0, 1e308)])
    def test_point_past_the_float_range_is_outside_the_scene(self, x, y):
        scene = build_scene(SINGLE, 0.25, 10)
        with pytest.raises(ValueError, match="outside the scene extent"):
            arrival_at(scene, grid_arrival(scene), x, y)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(-30, 30), st.integers(0, 30))
    def test_oracle_never_beats_exact_geodesic(self, qx, qy):
        # grid paths are a restricted class: arrival >= exact - 2h; the barrier's own nodes are unreachable
        scene = build_scene(SINGLE, 0.25, 40)
        x, y = qx / 4, qy / 4
        observed = arrival_at(scene, grid_arrival(scene), x, y)
        assert bool(np.isinf(observed)) == (x == 1.0 and y < 17)
        if not np.isinf(observed):
            assert observed >= float(geodesic_distance(SINGLE, (x, y))) - 2 * 0.25


class TestGridConsumption:
    def test_flat_system_m(self):
        sampled = grid_consumption(build_flat(1), 0.25, 5.0)
        exact = 2 * (5 - 1)
        assert sampled.values[-1] == pytest.approx(exact, abs=0.5)

    def test_single_barrier_right_side_at_crossing(self):
        sampled = grid_consumption(SINGLE, 0.25, 18.0, sides=("right",))
        assert sampled.values[-1] == pytest.approx(17.0, abs=1.0)

    def test_single_barrier_total_curve(self):
        sampled = grid_consumption(SINGLE, 0.125, 40.0)
        exact = consumption_curve(SINGLE, 40, truncated=True)
        result = compare(exact.total, sampled, consumption_tolerance(SINGLE, 0.125))
        assert result.passed

    @pytest.mark.parametrize("sides, message", [
        (("top",), "unknown side 'top'"),
        ("ri", "unknown side 'ri'"),
        (("right", "up"), "unknown side 'up'"),
        ((), "sides is empty"),
        ("", "unknown side ''"),
    ])
    def test_unknown_or_empty_sides_refused(self, sides, message):
        # each once gave a curve that is 0 everywhere
        with pytest.raises(ValueError, match=re.escape(message)):
            grid_consumption(build_seventeen_ninths(1, cycles=3), 1.0, 171.0, sides=sides)

    def test_seventeen_ninths_two_cycles(self):
        system = build_seventeen_ninths(1, cycles=2)
        cell = 0.125
        sampled = grid_consumption(system, cell, 40.0)
        exact = consumption_curve(system, 40, truncated=True)
        result = compare(exact.total, sampled, consumption_tolerance(system, cell))
        assert result.passed
        assert result.max_deviation <= 2 * cell * (4 + 2)


class TestCompare:
    def test_identical_curves_zero_deviation(self):
        curve = PiecewiseLinearCurve([(0, 0), (1, 0), (5, 8)])
        times = np.arange(0.0, 5.0, 0.25)
        values = np.array([0.0 if t <= 1 else 2 * (t - 1) for t in times])
        result = compare(curve, SampledCurve(times=times, values=values), 0.1)
        assert result.max_deviation == 0.0
        assert result.passed

    def test_shifted_curve_fails_at_first_sample(self):
        cell = 0.25
        curve = PiecewiseLinearCurve([(0, 0), (10, 20)])
        times = np.arange(0.0, 10.0, cell)
        values = 2 * times + 3 * cell  # deliberate 3-cell offset
        result = compare(curve, SampledCurve(times=times, values=values), 2 * cell)
        assert not result.passed
        assert result.first_exceedance == 0.0

    def test_sample_at_float_rounded_end_uses_exact_end(self):
        # 0.1 rounds above 1/10: the sample is compared against B(1/10) = 1
        curve = PiecewiseLinearCurve([(0, 0), (Fraction(1, 10), 1)])
        result = compare(curve, SampledCurve(times=np.array([0.1]), values=np.array([0.0])), 1)
        assert (result.max_deviation, result.at_time, result.passed) == (1.0, 0.1, True)

    def test_times_and_values_of_different_lengths_refused(self):
        # the unmatched time was dropped, and this passed with deviation 0.0
        exact = consumption_curve(build_seventeen_ninths(1, cycles=3), 171, truncated=True).total
        with pytest.raises(ValueError, match="^sampled curve has 2 times but 1 values$"):
            compare(exact, SampledCurve((0.0, 1.0), (0.0,)), 1.0)

    def test_nan_tolerance_refused(self):
        # no deviation exceeds nan: on 17/9 at 3 cycles, cell 1, the 5.0 deviation passed
        system = build_seventeen_ninths(1, cycles=3)
        exact = consumption_curve(system, 171, truncated=True).total  # over the valid horizon
        sampled = grid_consumption(system, 1.0, 171.0)
        assert compare(exact, sampled, consumption_tolerance(system, 1.0)).max_deviation == 5.0
        with pytest.raises(ValueError, match="^tolerance is nan; give a number$"):
            compare(exact, sampled, math.nan)

    @pytest.mark.parametrize("cell", [-1.0, 0, 0.0, -math.inf, math.inf, math.nan, "1", True, False])
    def test_tolerance_of_a_cell_that_is_not_a_finite_number_above_zero_refused(self, cell):
        # a cell of -1.0 gave the tolerance -16.0, which fails every compare, and True gave 8.0
        with pytest.raises(ValueError) as info:
            consumption_tolerance(SINGLE, cell)
        assert str(info.value) == f"cell size must be > 0 and finite, got {cell!r}"
        assert consumption_tolerance(SINGLE, 0.125) == 0.75 and consumption_tolerance(SINGLE, Fraction(1, 8)) == 0.75

    @pytest.mark.parametrize("points", [((0.0, -0.0), (1.0, -0.0), (2.0, 1.0)),
                                        ((0.0, -1e308), (1.0, 1e308), (2.0, 1e308))])
    def test_a_time_on_a_breakpoint_takes_its_value(self, points):
        # value_at's t == t0: the segment's line gives 0.0 for -0.0, and nan where the rise is inf times 0
        curve, times = PiecewiseLinearCurve(points), [0.0, 0.0, 0.5, 1.0, 1.5, 2.0]
        assert [bits(x) for x in _floats_at(curve, times)] == [bits(curve.value_at(t)) for t in times]

    @pytest.mark.parametrize("container", [tuple, np.array])
    @pytest.mark.parametrize("times", [[*map(float, range(10, -1, -1))], [0.0, 2.0, 1.0], [0.0, math.nan, 2.0],
                                       [math.nan]], ids=["reversed", "one-swap", "nan", "only-nan"])
    def test_times_that_are_not_sorted_or_are_nan_are_refused(self, container, times):
        # grid_consumption makes sorted times; a reversed copy was read in sorted order with each value put back
        curve = PiecewiseLinearCurve([(0, 0), (10, 10)])
        with pytest.raises(ValueError) as info:
            compare(curve, SampledCurve(container(times), container(times)), 2.0)
        assert str(info.value) == "sample times must be sorted, with no nan, as grid_consumption makes them"

    @pytest.mark.parametrize("container", [tuple, np.array])
    def test_sorted_times_report_the_first_worst_and_exceedance(self, container):
        curve = PiecewiseLinearCurve([(0, 0), (10, 10)])
        devs = [0, 3, 0, 5, 0, 5, 0, 3, 0, 0, 0]
        times = [0.0, *map(float, range(11)), 10.0]  # equal times are sorted
        values = [0.0, *(t + d for t, d in zip(range(11), devs)), 10.0]
        assert compare(curve, SampledCurve(container(times), container(values)), 2.0) == (5.0, 3.0, 2.0, False, 1.0)

    def test_numpy_samples_whose_rise_passes_the_float_range_compare_with_warnings_as_errors(self):
        # numpy scalars warned "overflow encountered in scalar multiply" at the evaluator's overflow test
        curve = PiecewiseLinearCurve([(0.0, 0.0), (1e200, 1e200)])
        times = np.array([0.0, 5e199, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert compare(curve, SampledCurve(times, times.copy()), 1.0) == (0.0, 0.0, 1.0, True, None)

    def test_disjoint_ranges_rejected(self):
        curve = PiecewiseLinearCurve([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            compare(curve, SampledCurve(times=np.array([5.0]), values=np.array([0.0])), 1)


def quarters(lo, hi):
    return st.builds(Fraction, st.integers(lo, hi), st.just(4))


class TestConvergence:
    @settings(max_examples=20, deadline=None)
    @given(quarters(1, 4), st.lists(st.tuples(quarters(1, 8), quarters(1, 10)), min_size=1, max_size=3))
    @example(Fraction(1, 4), [(Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 4), Fraction(1, 2))])
    def test_halving_cell_halves_deviation_on_random_scenes(self, head_start, pairs):
        # the claim is first-order: it holds once the coarse cell is at most half of every length; with
        # lengths of one cell, halving 0.25 can leave most of the deviation (the example: 0.75 -> 0.625)
        system = rational(head_start, right=tuple(pairs))
        horizon = 12
        exact = consumption_curve(system, horizon, truncated=True)
        coarse = 0.25 if min(head_start, *(x for pair in pairs for x in pair)) >= Fraction(1, 2) else 0.125
        devs = []
        for cell in (coarse, coarse / 2):
            sampled = grid_consumption(system, cell, float(horizon))
            devs.append(compare(exact.total, sampled, 1e9).max_deviation)
        # first-order convergence, with headroom for quantization jitter
        assert devs[1] <= 0.75 * devs[0] + 1e-9


class TestMemoryLimit:
    def test_scene_beyond_physical_memory_rejected_before_allocating(self):
        # 17/9 at 6 cycles has valid horizon 835551: ~1.4e12 nodes at cell 1
        system = build_seventeen_ninths(1, cycles=6)
        with pytest.raises(ValueError, match=r"1,396,300,138,278 nodes \(cell 1, horizon 835551\).*physical memory"):
            grid_arrival(build_scene(system, 1.0, float(valid_horizon(system))))

    def test_grid_consumption_charges_the_time_samples_alone(self, monkeypatch):
        # each vertical midpoint was charged as a sample, but midpoints are counted per piece and need about
        # nothing: with verticals the estimate was about 2.4 times the traced peak, against 1.4 on a flat system
        charged = []
        monkeypatch.setattr("firebreak.oracle._refuse_past_memory", lambda nbytes, *_: charged.append(nbytes))
        system = build_seventeen_ninths(1, cycles=3)
        scene, sampled = build_scene(system, 1.0, 100.0), grid_consumption(system, 1.0, 100.0)
        assert (scene.rows, len(sampled.times)) == (103, 101)
        assert charged[-1] == _BYTES_PER_ROW * 103 + _BYTES_PER_SAMPLE * 101 == 12992

    def test_non_finite_horizon_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            build_scene(SINGLE, 1.0, math.inf)

    @pytest.mark.parametrize("cell", [1e308, math.inf, 10.5])
    def test_cell_larger_than_horizon_rejected(self, cell):
        with pytest.raises(ValueError, match=re.escape(f"cell {cell:g} is larger than the horizon 10")):
            build_scene(SINGLE, cell, 10.0)

    @pytest.mark.parametrize("name, cell, horizon", [
        ("cell", True, 30.0), ("horizon", 0.5, True), ("cell", False, 30.0), ("cell", "0.5", 30.0),
        ("horizon", 0.5, "30"), ("cell", None, 30.0), ("horizon", 0.5, 30j)])
    def test_cell_or_horizon_that_is_a_bool_or_not_a_real_number_refused(self, name, cell, horizon):
        # a True cell sampled at cell 1 with int times, a True horizon ran at horizon 1, "0.5" raised a bare TypeError
        value = cell if name == "cell" else horizon
        for build in (build_scene, grid_consumption):
            with pytest.raises(ValueError) as info:
                build(SINGLE, cell, horizon)
            assert str(info.value) == f"{name} must be a real number, got {value!r}"

    @pytest.mark.parametrize("cell, horizon, floats", [
        (1, 30, (1.0, 30.0)), (Fraction(1, 4), Fraction(30), (0.25, 30.0)), (Fraction(1, 3), 30, (1 / 3, 30.0)),
        (np.float64(0.5), 30, (0.5, 30.0))])
    def test_int_and_fraction_cells_and_horizons_are_read_as_floats(self, cell, horizon, floats):
        # an int or Fraction cell gave int or Fraction times and values, sampled in Fraction arithmetic
        got = grid_consumption(SINGLE, cell, horizon)
        assert all(type(x) is float for x in (*got.times, *got.values))
        assert repr(got) == repr(grid_consumption(SINGLE, *floats))
        assert build_scene(SINGLE, cell, horizon) == build_scene(SINGLE, *floats)

    @pytest.mark.parametrize("cell, horizon, message", [
        (0.5, 10**400, "horizon 1e+400 is past the float range"),
        (10**400, 100, "cell 1e+400 is past the float range"),
        (Fraction(10**400, 3), 100, "cell 3.33333e+399 is past the float range")])
    def test_cell_or_horizon_past_the_float_range_refused(self, cell, horizon, message):
        # float() raised a bare OverflowError: "int too large to convert to float", or for the Fraction
        # "integer division result too large for a float"
        system = build_seventeen_ninths(1, cycles=3)
        for build in (build_scene, grid_consumption):
            with pytest.raises(ValueError) as info:
                build(system, cell, horizon)
            assert str(info.value) == message


# -- properties against plain reference implementations ---------------------------

# scenes for the vertical count, each (system, cell, horizon): at cell 1 every foot is its own column
# a flank that falls below the first vertical's top and rises above it: the minimum has a flat step at the valley
VALLEY = (rational(1, right=((2, 6), (2, 8))), 1.0, 30)
# verticals on adjacent columns: each is the other's flank, blocked below its top
FLANK_IS_A_VERTICAL = (rational(1, right=((2, 3), (1, 5))), 1.0, 20)
# the column past the vertical is fully blocked and cuts the side off
BESIDE_A_BLOCKED_COLUMN = (rational(1, right=((2, 5), (1, 4000))), 1.0, 20)
# taller than the horizon, in float mode
TALLER_THAN_THE_HORIZON = (BarrierSystem(FLOAT, 1, right=((2.0, 50.0),), left=((1.5, 12.5),)), 0.5, 10)
# behind a tall vertical every flank level is past the last sample time
LEVELS_PAST_THE_SAMPLES = (rational(1, right=((1, 9), (1, 9)), left=((1, 2), (3, 20))), 1.0, 12)


# dyadic cells, and cells whose multiples round: the row and column of a midpoint and the
# level counting of grid_consumption rest on float-rounding facts these exercise
CELLS = st.sampled_from([1.0, 0.5, 0.25, 0.1, 0.3, 1 / 3])
MAX_TIMES = st.one_of(st.none(), st.floats(min_value=0, max_value=16), st.just(1e6))


@st.composite
def small_systems(draw):
    """Rational or float systems with 0-4 verticals per side on the quarter grid.

    The first foot is at least 1, so no cell of the strategies rounds it onto
    the source.  Later gaps from a quarter up snap verticals onto the same or
    adjacent columns, and a height of 1000 stands taller than every scene.
    """
    mode = draw(st.sampled_from([RATIONAL, FLOAT]))
    quarters = (lambda n: Fraction(n, 4)) if mode == RATIONAL else (lambda n: n / 4)

    def side():
        n = draw(st.integers(0, 4))
        gaps = draw(st.lists(st.integers(1, 16), min_size=n, max_size=n))
        heights = draw(st.lists(st.one_of(st.integers(1, 24), st.just(4000)), min_size=n, max_size=n))
        gaps[:1] = [max(4, g) for g in gaps[:1]]
        return tuple((quarters(g), quarters(h)) for g, h in zip(gaps, heights))

    head_start = quarters(draw(st.integers(1, 8)))
    return BarrierSystem(mode=mode, head_start=head_start, right=side(), left=side())


def reference_mask(system, scene):
    """The scene's node mask built as a bool grid: all free, then each vertical's column blocked below its top row."""
    ny, nx = scene.shape
    mask = np.ones((ny, nx), dtype=bool)
    for side, sign in (("right", 1), ("left", -1)):
        for foot, height in zip(system.feet(side), system.heights(side)):
            if foot > 2 * scene.x_extent:
                continue
            col = scene.col(sign * float(foot))
            if 0 <= col < nx:
                top_row = ny if height > 2 * ny * scene.cell else int(np.floor(float(height) / scene.cell - 1e-9)) + 1
                mask[: min(top_row, ny), col] = False
    return mask


def deque_arrival(scene, max_time=None):
    """Textbook queue BFS over (row, col) nodes, nodes at max_level not expanded."""
    ny, nx = scene.shape
    passable = scene.passable.tolist()
    max_level = None if max_time is None else math.ceil(max_time / scene.cell) + 1
    level = {(0, scene.source_col): 0}
    queue = deque(level)
    while queue:
        r, c = queue.popleft()
        k = level[r, c]
        if max_level is not None and k >= max_level:
            continue
        for node in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
            if 0 <= node[0] < ny and 0 <= node[1] < nx and passable[node[0]][node[1]] and node not in level:
                level[node] = k + 1
                queue.append(node)
    out = np.full(scene.shape, np.inf)
    for (r, c), k in level.items():
        out[r, c] = k * scene.cell
    return out


def scalar_consumption(system, cell, horizon, sides):
    """Per-point loops: each barrier point at its earliest passable neighbour."""
    scene = build_scene(system, cell, horizon)
    arrival = grid_arrival(scene, max_time=horizon + 2 * cell)

    def earliest(rows, cols):
        return min(
            (arrival[r, c] for r in rows for c in cols if scene.in_bounds(r, c) and scene.passable[r, c]),
            default=np.inf,
        )

    consumed_at = []
    for side, sign in (("right", 1), ("left", -1)):
        if side not in sides:
            continue
        for foot, height in zip(system.feet(side), system.heights(side)):
            foot, height = float(foot), float(height)
            if foot >= horizon:
                continue
            col = scene.col(sign * foot)
            for j in range(max(1, int(round(min(height, horizon - foot) / cell)))):
                y_mid = (j + 0.5) * cell
                if y_mid > height:
                    break
                rows = (scene.row(y_mid - 0.5 * cell), scene.row(y_mid + 0.5 * cell))
                consumed_at.append(earliest(rows, (col - 1, col + 1)))
        head = float(system.head_start)
        x_max = min(horizon, scene.x_extent - cell)
        start = int(np.floor(head / cell))
        for j in range(start, start + max(0, int(np.floor((x_max - head) / cell))) + 1):
            x_mid = (j + 0.5) * cell
            if head <= x_mid <= x_max:
                cols = (scene.col(sign * (x_mid - 0.5 * cell)), scene.col(sign * (x_mid + 0.5 * cell)))
                consumed_at.append(earliest((0,), cols))
    consumed_at = np.sort(np.asarray(consumed_at, dtype=float))
    times = np.arange(0.0, horizon + 0.5 * cell, cell)
    return np.searchsorted(consumed_at, times, side="right") * cell


@st.composite
def scenes_of_tops(draw):
    """Hand-made scenes of 1-40 rows: each side runs of 1-4 equal tops, fully blocked columns among them."""
    rows = draw(st.integers(1, 40))
    top = st.one_of(st.integers(0, rows), st.just(0), st.just(rows))

    def side():
        return [t for t, n in draw(st.lists(st.tuples(top, st.integers(1, 4)), max_size=10)) for _ in range(n)]

    left = side()
    return GridScene(cell=1.0, tops=(*left[::-1], 0, *side()), rows=rows, source_col=len(left))


def list_form_runs(tops, rows):
    """The run form as one int list of levels per run (its first column), each made from the previous run's list."""
    bounds = [0] + [c for c in range(1, len(tops)) if tops[c] != tops[c - 1]] + [len(tops)]
    levels, runs = list(range(rows)), []
    for i, (a, b) in enumerate(zip(bounds, bounds[1:])):
        top = tops[a]
        if top == rows:
            break
        if i:
            prev = tops[bounds[i - 1]]
            run = [math.inf] * top + [level + a - bounds[i - 1] for level in levels[top:]]
            if top < prev:  # free lower down: fill downwards from the predecessor's top
                run[top:prev] = range(run[prev] + prev - top, run[prev], -1)
            levels = run
        runs.append((a, b, levels))
    return runs


def read_pieces(pieces, rows):
    """Levels less the column, row by row: from each piece's row up, until the next piece, inf below the first."""
    out = [math.inf] * rows
    for row, level, slope in pieces:
        out[row:] = [level + slope * (r - row) for r in range(row, rows)]
    return out


def assert_pieces(pieces, rows):
    assert 0 <= pieces[0][0] < rows and all(slope in (1, -1) for _, _, slope in pieces)
    assert all(r0 < r1 for (r0, _, _), (r1, _, _) in zip(pieces, pieces[1:]))


@st.composite
def curves(draw):
    """Rational or float piecewise-linear curves with 2-8 breakpoints."""
    n = draw(st.integers(2, 8))
    if draw(st.booleans()):
        step = st.fractions(min_value=Fraction(1, 48), max_value=10, max_denominator=48)
        t, v = draw(st.fractions(min_value=-5, max_value=5, max_denominator=48)), Fraction(0)
        rises = st.fractions(min_value=0, max_value=10, max_denominator=48)
    else:
        step = st.floats(min_value=1e-3, max_value=10)
        t, v = draw(st.floats(min_value=-5, max_value=5)), 0.0
        rises = st.floats(min_value=0, max_value=10)
    rises = st.one_of(st.just(0), rises)  # flat stretches give tied deviations
    points = [(t, v)]
    for _ in range(n - 1):
        t, v = t + draw(step), v + draw(rises)
        points.append((t, v))
    return PiecewiseLinearCurve(points)


def clamped_value(curve, t):
    """value_at, with a time past an exact end (a float-rounded end) taken at that end."""
    return curve.value_at(curve.start if t < curve.start else curve.end if t > curve.end else t)


def loop_compare(exact, sampled, tolerance):
    """One value_at per sample, first maximum and first exceedance kept in order."""
    lo, hi = float(exact.start), float(exact.end)
    mask = (sampled.times >= lo) & (sampled.times <= hi)
    worst, worst_t, first = -1.0, lo, None
    # read as Python floats, which overflow to inf where numpy scalars warn
    for t, v in zip(map(float, sampled.times[mask]), map(float, sampled.values[mask])):
        dev = abs(v - float(clamped_value(exact, t)))
        if dev > worst:
            worst, worst_t = dev, float(t)
        if first is None and dev > tolerance:
            first = float(t)
    return worst, worst_t, first


def vertical_by_rows(runs, col, k, n):
    """The count per level below n of a vertical's k midpoints, each the least level of rows j and j + 1 of its
    flank columns col -+ 1, read row by row from the pieces."""
    def column(c):
        pieces = next((pieces for a, b, pieces in runs if a <= c < b), None)
        return [math.inf] * (k + 1) if pieces is None else [level + c for level in read_pieces(pieces, k + 1)]

    rows = [min(a, b) for a, b in zip(column(col - 1), column(col + 1))]
    counts = Counter(min(a, b) for a, b in zip(rows, rows[1:]))
    return [counts[level] for level in range(n)]


def counted_vertical(runs, col, k, n):
    """``_count_vertical``'s count per level below n."""
    spans = [0] * (n + 1)
    _count_vertical(runs, col, k, spans, n)
    return list(accumulate(spans))[:n]


@st.composite
def flank_levels(draw):
    """A column's levels as pieces (row, level, slope) that meet end to end, blocked below the first row,
    never below 0, and rising from the last piece on, as above every top."""
    row, level, pieces = draw(st.integers(0, 12)), draw(st.integers(0, 30)), []
    for _ in range(draw(st.integers(0, 3))):
        slope, length = draw(st.sampled_from([1, -1])), draw(st.integers(1, 8))
        if slope < 0:
            length = min(length, level)
        if length:
            pieces.append((row, level, slope))
            row, level = row + length, level + slope * length
    return [*pieces, (row, level, 1)]


def bits(x):
    return None if x is None else float(x).hex()


def floats_or_error(*args):
    """``_floats_at``'s floats as hex, or the error it raised."""
    try:
        return [bits(x) for x in _floats_at(*args)]
    except OverflowError as exc:
        return repr(exc)


def nudged(f, ulps):
    """The float ``ulps`` floats above ``f``, or below it for a negative ``ulps``."""
    for _ in range(abs(ulps)):
        f = math.nextafter(f, math.copysign(math.inf, ulps))
    return f


@st.composite
def lattice_curves(draw):
    """A kept lattice as (scale, int points, sorted float times): times on the breakpoints' floats, 1-3 ulps either
    side of them and outside [start, end], some of them repeated."""
    scale = draw(st.sampled_from([1, 3, 10, 2, 2**10, 2**60, 10**12, 10**400]))
    t, v = draw(st.integers(-5 * scale, 5 * scale)), 0
    ints = [(t, v)]
    for _ in range(draw(st.integers(1, 7))):
        t, v = t + draw(st.integers(1, 10 * scale)), v + draw(st.one_of(st.just(0), st.integers(0, 10 * scale)))
        ints.append((t, v))
    floats = st.sampled_from([t / scale for t, _ in ints])
    outside = st.floats(min_value=ints[0][0] / scale - 2, max_value=ints[-1][0] / scale + 2)
    times = draw(st.lists(st.one_of(floats, st.builds(nudged, floats, st.integers(-3, 3)), outside), min_size=1,
                          max_size=40))
    times += draw(st.lists(st.sampled_from(times), max_size=5))
    return scale, ints, sorted(times)


def fraction_walls(system):
    """Each side's (foot, height) pairs in the system's own numbers, summed as ``system.feet`` sums them."""
    return {side: tuple(zip(system.feet(side), system.heights(side))) for side in ("right", "left")}


def fraction_scene(system, cell, horizon):
    """The scene as it was built on Fractions: bounds made exact, and every length made a float alone."""
    walls, exact = fraction_walls(system), type(system.zero)
    steps = math.ceil(horizon / cell) + 2
    nx, ny = 2 * steps + 1, steps + 1
    tops = [0] * nx
    far, tall = (exact(b) if b < math.inf else b for b in (2 * (steps * cell), 2 * ny * cell))
    for side, sign in (("right", 1), ("left", -1)):
        for foot, height in walls[side]:
            col = steps + round(sign * float(foot) / cell) if foot <= far else -1
            if 0 <= col < nx:
                top_row = ny if height > tall else math.floor(float(height) / cell - 1e-9) + 1
                tops[col] = max(tops[col], min(top_row, ny))
    return GridScene(cell=cell, tops=tuple(tops), rows=ny, source_col=steps)


def fraction_consumption(system, cell, horizon, sides):
    """``grid_consumption`` as it was on Fractions: the verticals' feet and heights compared with the exact horizon
    and each made a float alone, the ground and the counting as ``grid_consumption`` has them."""
    sides = (sides,) if isinstance(sides, str) else sides
    walls, bound, scene = fraction_walls(system), type(system.zero)(horizon), fraction_scene(system, cell, horizon)
    verticals = {side: [] for side in ("right", "left") if side in sides}
    for side, found in verticals.items():
        for foot, height in walls[side]:
            if foot < bound:
                foot, height = float(foot), float(min(height, bound))
                k = max(1, round(min(height, horizon - foot) / cell))
                while k and (k - 0.5) * cell > height:
                    k -= 1
                found.append((round(foot / cell), k))
    head = float(system.head_start)
    x_max = min(horizon, scene.x_extent - cell)
    lo = math.floor(head / cell)
    hi = lo + max(0, math.floor((x_max - head) / cell)) + 1
    while lo < hi and (lo + 0.5) * cell < head:
        lo += 1
    while lo < hi and (hi - 0.5) * cell > x_max:
        hi -= 1
    n = math.ceil((horizon + 0.5 * cell) / cell)
    spans = [0] * (n + 1)
    runs = dict(zip(("right", "left"), _run_levels(scene)))
    for side, found in verticals.items():
        for col, k in found:
            _count_vertical(runs[side], col, k, spans, n)
        ground = [(a, b, level if row == 0 else math.inf) for a, b, ((row, level, _), *_) in runs[side]]
        for (a, b, base), after in zip(ground, [base + a for a, _, base in ground[1:]] + [math.inf]):
            first, stop = max(a, lo), min(b - 1, hi)
            if first < stop and base < math.inf:
                spans[min(base + first, n)] += 1
                spans[min(base + stop, n)] -= 1
            if lo <= b - 1 < hi and (level := min(base + b - 1, after)) < math.inf:
                spans[min(level, n)] += 1
                spans[min(level + 1, n)] -= 1
    counts = list(accumulate(accumulate(spans)))[:n]
    return SampledCurve(times=tuple(i * cell for i in range(n)), values=tuple(c * cell for c in counts))


@st.composite
def lattice_systems(draw):
    """Rational or float systems with 0-4 verticals per side on a grid of 1/1, 1/3, 1/4 or 1/10, and a horizon.

    The first foot is at least 1; a height of 1000 stands taller than every
    scene, and one past the float range (rational only) blocks its column.
    The horizon is a whole number or a foot, so a foot can stand exactly on it.
    """
    mode, den = draw(st.sampled_from([RATIONAL, FLOAT])), draw(st.sampled_from([1, 3, 4, 10]))
    number = (lambda n: Fraction(n, den)) if mode == RATIONAL else (lambda n: n / den)
    tallest = [1000 * den] + ([10**340] if mode == RATIONAL else [])

    def side():
        n = draw(st.integers(0, 4))
        gaps = draw(st.lists(st.integers(1, 4 * den), min_size=n, max_size=n))
        heights = draw(st.lists(st.one_of(st.integers(1, 6 * den), st.sampled_from(tallest)), min_size=n, max_size=n))
        gaps[:1] = [max(den, g) for g in gaps[:1]]
        return tuple((number(g), number(h)) for g, h in zip(gaps, heights))

    system = BarrierSystem(mode=mode, head_start=number(draw(st.integers(1, 2 * den))), right=side(), left=side())
    feet = [float(foot) for side in ("right", "left") for foot in system.feet(side) if float(foot) <= 16]
    return system, draw(st.one_of(st.integers(1, 12).map(float), *([st.sampled_from(feet)] if feet else [])))


class TestOracleProperties:
    @settings(max_examples=120, deadline=None)
    @given(small_systems(), CELLS, st.integers(1, 12), MAX_TIMES)
    def test_grid_arrival_matches_queue_bfs(self, system, cell, horizon, max_time):
        scene = build_scene(system, cell, horizon)
        got = grid_arrival(scene, max_time=max_time)
        assert got.shape == scene.shape and got.dtype == np.float64
        assert np.array_equal(got, deque_arrival(scene, max_time))

    @settings(max_examples=120, deadline=None)
    @given(small_systems(), CELLS, st.integers(1, 12), MAX_TIMES)
    def test_run_form_matches_grid_arrival_at_every_node(self, system, cell, horizon, max_time):
        # each run's pieces, read row by row and as grid_consumption reads them with _levels (all rows or
        # the lower half), give grid_arrival's levels before its cut and scaling; the queue BFS pins
        # grid_arrival; a column past a side's cut-off reads inf
        scene = build_scene(system, cell, horizon)
        ny, source = scene.rows, scene.source_col
        levels = np.full(scene.shape, np.inf)
        for runs, sign in zip(_run_levels(scene), (1, -1)):
            assert [a for a, _, _ in runs] == [0] + [b for _, b, _ in runs[:-1]]
            for a, b, pieces in runs:
                assert_pieces(pieces, ny)
                first = read_pieces(pieces, ny)
                for c in range(a, b):
                    column = [level + c for level in first]
                    assert _levels(runs, c, ny) == column and _levels(runs, c, ny // 2) == column[: ny // 2]
                    levels[:, source + sign * c] = column
            for c in range(runs[-1][1], source + 2):
                assert _levels(runs, c, ny) == [math.inf] * ny
        cut = _last_level(max_time, cell)
        if cut is not None:
            levels[levels > cut] = np.inf
        assert np.array_equal(levels * cell, grid_arrival(scene, max_time=max_time))

    @settings(max_examples=200, deadline=None)
    @given(scenes_of_tops())
    # on the right: raised, lowered twice (one merged piece), raised, lowered, then cut off
    @example(GridScene(cell=1.0, tops=(0, 0, 3, 5, 2, 1, 4, 0, 6, 2), rows=6, source_col=1))
    def test_pieces_match_the_list_form(self, scene):
        # fully blocked columns cut a side off, raised tops cut a piece, lowered tops add or extend a slope -1
        # piece; each run's pieces, read row by row, are the list form's levels, and grid_arrival is a BFS
        ny, tops, source = scene.rows, scene.tops, scene.source_col
        for runs, side_tops in zip(_run_levels(scene), (tops[source:], tops[source::-1])):
            reference = list_form_runs(side_tops, ny)
            assert [(a, b) for a, b, _ in runs] == [(a, b) for a, b, _ in reference]
            for (a, _, pieces), (_, _, first) in zip(runs, reference):
                assert_pieces(pieces, ny)
                assert [level + a for level in read_pieces(pieces, ny)] == first
        assert np.array_equal(grid_arrival(scene), deque_arrival(scene))

    @settings(max_examples=80, deadline=None)
    @given(small_systems(), CELLS, st.integers(1, 12))
    @example(rational(1, right=((1, 8), (Fraction(1, 4), 1))), 1.0, 10)  # the taller of two on one column counts
    def test_scene_tops_match_a_reference_mask(self, system, cell, horizon):
        scene = build_scene(system, cell, horizon)
        mask = reference_mask(system, scene)
        assert scene.passable.shape == scene.shape == mask.shape
        assert np.array_equal(scene.passable, mask)
        assert np.array_equal(scene.rows - mask.sum(axis=0), scene.tops)  # a mask's tops, as README builds them

    @settings(max_examples=120, deadline=None)
    @given(small_systems(), CELLS, st.integers(1, 12),
           st.sampled_from([("right", "left"), ("right",), ("left",), "right", "left", ["left", "right"]]))
    @example(rational(1, right=((2, 4000),), left=((2, 3), (1, 6))), 0.5, 12, ("right", "left"))  # right cut off
    @example(rational(1, right=((1, 3),), left=((Fraction(3, 2), 5), (1, 2))), 0.25, 10, ("left",))
    @example(*VALLEY, "right")
    @example(*FLANK_IS_A_VERTICAL, "right")
    @example(*BESIDE_A_BLOCKED_COLUMN, "right")
    @example(*TALLER_THAN_THE_HORIZON, ("right", "left"))
    @example(*LEVELS_PAST_THE_SAMPLES, ("right", "left"))
    def test_grid_consumption_matches_scalar_sampling(self, system, cell, horizon, sides):
        got = grid_consumption(system, cell, float(horizon), sides=sides)
        assert np.array_equal(got.values, scalar_consumption(system, cell, float(horizon), sides))

    @settings(max_examples=100, deadline=None)
    @given(curves(), st.sampled_from([1, 10**160]), st.data())
    def test_compare_on_sorted_samples_matches_value_at_loop(self, curve, scale, data):
        # sorted samples, many per segment, on breakpoints and outside [start, end], nan values among them; scaled
        # by 1e160 a segment's rise overflows and takes _between's overflow form; in a tuple, list or numpy array
        curve = PiecewiseLinearCurve([(t * scale, v * scale) for t, v in curve])
        lo, hi = float(curve.start), float(curve.end)
        on_grid = st.sampled_from([float(t) for t, _ in curve] + [lo, hi])
        times = sorted(data.draw(st.lists(
            st.one_of(on_grid, st.floats(min_value=lo - scale, max_value=hi + scale)), min_size=20, max_size=120)))
        values = [v * scale for v in data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 1.0, math.nan]), st.floats(min_value=0, max_value=100)),
            min_size=len(times), max_size=len(times)))]
        tolerance = data.draw(st.floats(min_value=-1, max_value=20)) * scale
        inside = [t for t in times if lo <= t <= hi]
        if not inside:
            for container in (tuple, list, np.array):
                with pytest.raises(ValueError, match="^curves share no common time range$"):
                    compare(curve, SampledCurve(container(times), container(values)), tolerance)
            return
        reference = [float(clamped_value(curve, t)) for t in inside]
        assert [bits(x) for x in _floats_at(curve, inside)] == [bits(x) for x in reference]
        expected = loop_compare(curve, SampledCurve(np.array(times), np.array(values)), tolerance)
        for container in (tuple, list, np.array):
            result = compare(curve, SampledCurve(container(times), container(values)), tolerance)
            assert (bits(result.max_deviation), bits(result.at_time), bits(result.first_exceedance)) == tuple(
                bits(x) for x in expected)
            assert result.passed is (expected[2] is None)

    @settings(max_examples=150, deadline=None)
    @given(lattice_systems(), CELLS)
    @example((rational(1, right=((1, 3), (10**340, 1))), 10.0), 0.5)  # a foot past the float range
    @example((rational(1, right=((2, 10**340),)), 10.0), 0.5)  # a height past the float range
    @example((rational(1, right=((Fraction(1, 3), 5), (Fraction(29, 3), 2))), 10.0), 1 / 3)  # a foot at the horizon
    @example((rational(1, right=((2, 26), (1, 27)), left=((2, Fraction(79, 3)),)), 10.0), 1.0)  # a height at 2 rows
    @example((rational(1, right=((Fraction(3, 10), 5), (Fraction(27, 10), 6))), 3.0), 0.3)  # non-dyadic cell
    def test_scene_and_consumption_match_the_fraction_reference(self, system_and_horizon, cell):
        # lattice ints against each length made a float alone and compared with exact bounds, in both modes
        system, horizon = system_and_horizon
        assert build_scene(system, cell, horizon) == fraction_scene(system, cell, horizon)
        for sides in (("right", "left"), "right", "left"):
            assert repr(grid_consumption(system, cell, horizon, sides)) == repr(
                fraction_consumption(system, cell, horizon, sides))

    @settings(max_examples=300, deadline=None)
    @given(lattice_curves())
    @example((1, [(0, 0), (1, 10**400)], [0.5]))  # a rise past the float range
    @example((10**400, [(0, 0), (10**800, 1)], [1.0]))  # an end time past the float range
    @example((10**400, [(-1, 0), (1, 0)], [-0.0]))  # a run below the smallest float: it divided by 0.0
    @example((10**400, [(-1, 0), (1, 10**400), (3, 10**400)], [-0.0, 0.0, 5e-324]))  # the same, with a rise
    def test_lattice_operands_match_the_fraction_operands(self, curve):
        # the lattice path reads n / scale with one int division each and no Fraction, bit for bit or the same error
        scale, ints, times = curve
        fractions = [(Fraction(t, scale), Fraction(v, scale)) for t, v in ints]
        got = floats_or_error(PiecewiseLinearCurve._checked(ints, scale, ()), times)
        assert got == floats_or_error(PiecewiseLinearCurve(fractions), times)
        if isinstance(got, list):
            assert got == [bits(clamped_value(PiecewiseLinearCurve(fractions), t)) for t in times]

    @settings(max_examples=60, deadline=None)
    @given(small_systems(), CELLS, st.integers(1, 12), st.integers(1, 60))
    @example(*VALLEY, 40)
    @example(*FLANK_IS_A_VERTICAL, 30)
    @example(*BESIDE_A_BLOCKED_COLUMN, 30)
    @example(*TALLER_THAN_THE_HORIZON, 25)
    @example(*LEVELS_PAST_THE_SAMPLES, 3)
    def test_vertical_count_matches_the_row_by_row_loop(self, system, cell, horizon, n):
        # every column of both sides as a vertical's, up to the top row and past it; levels from n on are clamped
        scene = build_scene(system, cell, horizon)
        for runs in _run_levels(scene):
            for col in range(1, scene.source_col + 2):
                for k in (0, 1, scene.rows - 1, scene.rows + 2):
                    assert counted_vertical(runs, col, k, n) == vertical_by_rows(runs, col, k, n)

    @settings(max_examples=200, deadline=None)
    @given(flank_levels(), st.one_of(st.none(), flank_levels()), st.integers(0, 40), st.integers(1, 60))
    # the right flank falls through the left, which rises, with levels of one parity apart: a flat step at 4
    @example([(0, 0, 1)], [(0, 10, -1), (10, 0, 1)], 14, 30)
    # blocked below row 5 on the left, falling then rising on the right
    @example([(5, 5, 1)], [(0, 9, -1), (3, 6, 1)], 12, 30)
    def test_vertical_count_on_any_flanks(self, left, right, k, n):
        # flank columns that no sweep makes (a falling right flank under a rising left one), or a cut-off right
        # flank (None), as pieces of levels that meet end to end
        runs = [(0, 1, left), (1, 2, [(0, 0, 1)])] + ([] if right is None else [(2, 3, right)])
        runs = [(a, b, [(row, level - a, slope) for row, level, slope in pieces]) for a, b, pieces in runs]
        assert counted_vertical(runs, 1, k, n) == vertical_by_rows(runs, 1, k, n)

    @settings(max_examples=150, deadline=None)
    @given(curves(), st.data())
    def test_compare_matches_value_at_loop(self, curve, data):
        lo, hi = float(curve.start), float(curve.end)
        on_grid = st.sampled_from([float(t) for t, _ in curve] + [lo, hi])
        times = np.sort(data.draw(st.lists(
            st.one_of(on_grid, st.floats(min_value=lo - 1, max_value=hi + 1)), min_size=1, max_size=30)))
        values = np.array(data.draw(st.lists(
            st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0, max_value=100)),
            min_size=times.size, max_size=times.size)))
        tolerance = data.draw(st.floats(min_value=0, max_value=20))
        sampled = SampledCurve(times=times, values=values)
        mask = (times >= lo) & (times <= hi)
        expected = loop_compare(curve, sampled, tolerance)
        reference = [float(clamped_value(curve, t)) for t in times[mask]]
        if not mask.any():
            with pytest.raises(ValueError):
                compare(curve, sampled, tolerance)
            return
        result = compare(curve, sampled, tolerance)
        assert [bits(x) for x in _floats_at(curve, times[mask])] == [bits(x) for x in reference]
        assert (bits(result.max_deviation), bits(result.at_time), bits(result.first_exceedance)) == tuple(
            bits(x) for x in expected)
        assert result.passed is (expected[2] is None)
