"""Brute-force grid validation of the exact geodesics and consumption curves.

The upper half-plane is discretized with nodes at integer multiples of the
cell size; the fire source sits at the origin node.  All edges of the
4-neighbour grid weigh one cell, so the number of steps from the source
reproduces L1 distances exactly.  A vertical barrier blocks every node
strictly below its top on its grid column (equivalently: every edge incident
to an interior barrier node), which realizes zero-thickness segments: paths
may graze the top node but cannot pass through the column below it.  Nodes
on the ground row stay passable because the fire travels along the upper
face of the horizontal barrier.

When barrier coordinates are integer multiples of the cell size the grid
arrival times at free nodes agree with the exact geodesic; otherwise
barriers snap to the nearest column (within half a cell).

Since each column is blocked only from the ground up, some shortest grid
path is x-monotone on each side of the source, so arrivals come from one
sweep over the columns per side instead of a breadth-first search; they
equal that search's bit for bit.  In a run of columns with equal tops each
column is its predecessor plus one, so the sweep keeps one level column per
run: the run form, runs x rows floats.  A scene is each column's first free
row.  ``grid_arrival`` expands the run form into the full rows x columns
grid; ``grid_consumption`` never builds that grid and reads the nodes next
to each barrier point from the run form, at O(runs x rows + samples), so
17/9 at 5 cycles (5.4e9 grid nodes at cell 1) is checked in a fraction of a
second.  Each of ``build_scene`` (one int per column), ``grid_arrival`` (the
grid) and ``grid_consumption`` (the run form and the samples) refuses,
before allocating, what would not fit in physical memory.  ``compare``
evaluates the exact curve at all sample times at once.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .model import LEFT, RIGHT, BarrierSystem, approx
from .simulate import PiecewiseLinearCurve

# bytes per node of grid_arrival's grid: float arrival (8), headroom (8)
_BYTES_PER_NODE = 16
# grid_consumption's bytes per row, for each vertical and each side: the float levels of the two runs
# a vertical can start (16), the sample times and the range checks over the two columns per row (32);
# and per barrier sample: four neighbour nodes with their indices, masks, runs and arrivals, and headroom
_BYTES_PER_RUN_ROW = 48
_BYTES_PER_SAMPLE = 512
# columns of the arrival grid that grid_arrival cuts and scales at a time, so no temporary is grid-sized
_SLAB = 64


class GridScene(NamedTuple):
    """Discretized upper half-plane: each column blocked from the ground up to its first free row."""

    cell: float
    tops: np.ndarray          # int first free row per column; ``rows`` blocks the whole column
    rows: int                 # row 0 is the ground
    source_col: int           # column index of x = 0

    @property
    def shape(self):
        return self.rows, self.tops.size

    @property
    def x_extent(self) -> float:  # the scene covers [-x_extent, x_extent]
        return self.source_col * self.cell

    @property
    def passable(self) -> np.ndarray:  # the bool node mask, built on each read
        return np.arange(self.rows)[:, None] >= self.tops

    def col(self, x: float) -> int:
        return self.source_col + int(round(x / self.cell))

    def row(self, y: float) -> int:
        return int(round(y / self.cell))

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.rows and 0 <= col < self.tops.size


def _refuse_past_memory(nbytes: int, nodes: int, cell: float, horizon: float) -> None:
    """Refuse ``nbytes`` past physical memory, naming the grid of ``nodes`` at this cell and horizon."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        gib = Fraction(nbytes, 2**30)  # a cell of 1e-300 needs 600 digits of nodes
        count, gib = (f"{nodes:,}", f"{float(gib):,.1f}") if nodes < 10**15 else (approx(nodes), approx(gib))
        raise ValueError(
            f"a grid of {count} nodes (cell {cell:g}, horizon {horizon:g}) needs about {gib} GiB, more than the "
            f"{memory / 2**30:,.1f} GiB of physical memory; use a coarser cell or a shorter horizon"
        )


def build_scene(system: BarrierSystem, cell: float, horizon: float) -> GridScene:
    """Scene covering everything reachable within the horizon plus a margin."""
    if not (cell > 0 and 0 < horizon < np.inf):
        raise ValueError("cell size and horizon must be > 0 and the horizon finite")
    if cell > horizon:
        raise ValueError(f"cell {cell:g} is larger than the horizon {horizon:g}")
    cell = float(cell)
    horizon = float(horizon)
    ratio = horizon / cell  # past the float range (a cell of 5e-324) the exact ratio sizes the refusal
    steps = math.ceil(ratio if ratio < math.inf else Fraction(horizon) / Fraction(cell)) + 2  # 2-cell margin
    nx = 2 * steps + 1
    ny = steps + 1
    _refuse_past_memory(nx * np.dtype(np.intp).itemsize, nx * ny, cell, horizon)
    scene = GridScene(cell=cell, tops=np.zeros(nx, dtype=np.intp), rows=ny, source_col=steps)
    # lengths compare exactly before they become floats, so lengths past the
    # float range only mean a foot outside the scene or a fully blocked column
    for side, sign in ((RIGHT, 1), (LEFT, -1)):
        for foot, height in zip(system.feet(side), system.heights(side)):
            if foot > 2 * scene.x_extent:
                continue
            col = scene.col(sign * float(foot))
            if not 0 <= col < nx:
                continue
            # block nodes strictly below the top; the top node stays open
            top_row = ny if height > 2 * ny * cell else int(np.floor(float(height) / cell - 1e-9)) + 1
            scene.tops[col] = max(scene.tops[col], min(top_row, ny))
    if scene.tops[steps]:  # a foot within half a cell of the origin rounds onto it
        firsts = (sign * f for side, sign in ((RIGHT, 1), (LEFT, -1)) for f in system.feet(side)[:1])
        x = float(min(firsts, key=abs))
        raise ValueError(
            f"cell {cell:g} rounds the vertical at x={x:g} onto the source node; use a cell below {2 * abs(x):g}"
        )
    return scene


def _last_level(max_time, cell: float) -> int | None:
    """The search's last level, ceil(max_time / cell) + 1, or None for no cut-off, as ``grid_arrival`` reads it."""
    try:
        steps = math.inf if max_time is None else max_time / cell
    except OverflowError:  # an int or Fraction past the float range
        steps = math.inf if max_time > 0 else -math.inf
    if math.isnan(steps):
        raise ValueError(f"max_time must be a number or None, got {max_time!r}")
    # a max_time of -cell or less leaves only the source
    return None if steps == math.inf else math.ceil(max(steps, -1)) + 1


def _run_levels(scene: GridScene) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """The sweep's levels in run form, right side (columns source_col..nx-1) then left (source_col..0).

    Per side: the side-local start of each run of equal tops; a (runs, rows)
    float array with each run's first column, np.inf below its top; and the
    side-local column where a fully blocked column cuts off the rest of the
    side (the side's length if none does).  Column ``start + k`` of a run is
    its first column plus k.  Column tops outside [0, rows] and a blocked
    source are refused.
    """
    ny = scene.rows
    top = scene.tops
    bad = np.flatnonzero((top < 0) | (top > ny) | (top % 1 != 0))
    if bad.size:
        raise ValueError(f"column {bad[0]} of the scene has top row {top[bad[0]]}, not an integer in [0, {ny}]")
    source = scene.source_col
    if top[source]:
        raise ValueError(f"the source node (row 0, column {source}) is blocked")
    sides = []
    for tops in (top[source:], top[source::-1]):
        starts = np.flatnonzero(np.diff(tops, prepend=-1))
        heads = tops[starts].astype(np.intp)
        end = tops.size
        blocked = np.flatnonzero(heads == ny)
        if blocked.size:  # a fully blocked column cuts off the rest of this side
            end = int(starts[blocked[0]])
            starts, heads = starts[: blocked[0]], heads[: blocked[0]]
        first = np.full((starts.size, ny), np.inf)
        first[0] = np.arange(ny)  # the source column
        a, row = starts.tolist(), heads.tolist()
        for i in range(1, len(a)):
            # a column takes its predecessor's levels plus one on the rows both
            # share; the predecessor is the previous run's first column plus its offset
            np.add(first[i - 1, row[i] :], a[i] - a[i - 1], out=first[i, row[i] :])
            prev = row[i - 1]
            if row[i] < prev:  # free lower down: fill downwards from the predecessor's top
                first[i, row[i] : prev] = first[i, prev] + np.arange(prev - row[i], 0, -1)
        sides.append((starts, first, end))
    return sides


def grid_arrival(scene: GridScene, max_time: float | None = None) -> np.ndarray:
    """Shortest-path arrival time per node on the 4-neighbour grid (np.inf
    where unreachable), equal bit for bit to a breadth-first search.

    Every column is blocked from the ground up to a top row and free above
    it, so a path that leaves a column and comes back can take the free
    vertical segment between its two visits instead, which is no longer.
    Some shortest path is therefore x-monotone on each side of the source,
    and one sweep per side computes the levels: a column takes its
    predecessor's levels plus one on the rows both share, and the rows where
    it is free lower down fill downwards from its predecessor's top row.  A
    run of columns with equal tops adds 1, 2, ... to its first column, so
    the sweep keeps one column per run, a few numpy calls per run,
    O(verticals); this function writes each run out into the rows x columns
    grid, which it refuses before allocating when it cannot fit in physical
    memory.
    With ``max_time`` levels past ceil(max_time / cell) + 1, where the search
    would stop, are np.inf.  An infinite ``max_time`` or one past the float
    range is no cut-off when positive, as None is, and leaves only the source
    when negative; nan is refused, and so are column tops outside [0, rows].
    """
    cut = _last_level(max_time, scene.cell)
    ny, nx = scene.shape
    # the horizon build_scene was given, in whole cells
    _refuse_past_memory(nx * ny * _BYTES_PER_NODE, nx * ny, scene.cell, (scene.source_col - 2) * scene.cell)
    runs = _run_levels(scene)
    levels = np.empty((nx, ny))  # column-major, so each column is contiguous
    source = scene.source_col
    for (starts, first, end), side in zip(runs, (levels[source:], levels[source::-1])):
        bounds = [*starts.tolist(), end]
        for run, a, b in zip(first, bounds, bounds[1:]):
            # written in place: a temporary block would raise the peak memory
            np.add(run, np.arange(b - a)[:, None], out=side[a:b])
        side[end:] = np.inf
    for slab in np.split(levels, range(_SLAB, nx, _SLAB)):
        if cut is not None:
            slab[slab > cut] = np.inf
        slab *= scene.cell
    return levels.T


def _arrivals_at(scene: GridScene, rows: np.ndarray, cols: np.ndarray, max_time: float | None) -> np.ndarray:
    """``grid_arrival(scene, max_time)[rows, cols]`` bit for bit, read from the run form without the grid.

    Every node must lie inside the scene.  Levels are integers below 2**53,
    so a run's first column plus the offset is exact, and the cut and the
    scaling are grid_arrival's float operations.
    """
    cut = _last_level(max_time, scene.cell)
    j = cols - scene.source_col
    right = j >= 0
    j = np.abs(j)  # the side-local column
    levels = np.empty(j.shape)
    for (starts, first, end), on_side in zip(_run_levels(scene), (right, ~right)):
        col = j[on_side]
        run = np.searchsorted(starts, col, side="right") - 1
        levels[on_side] = np.where(col < end, first[run, rows[on_side]] + (col - starts[run]), np.inf)
    if cut is not None:
        levels[levels > cut] = np.inf
    return levels * scene.cell


def arrival_at(scene: GridScene, arrival: np.ndarray, x: float, y: float) -> float:
    try:
        row, col = scene.row(y), scene.col(x)
    except (OverflowError, ValueError):  # inf, nan or past the float range has no grid node
        row = col = -1
    if not scene.in_bounds(row, col):
        raise ValueError(f"point ({x}, {y}) outside the scene extent")
    return float(arrival[row, col])


class SampledCurve(NamedTuple):
    """Consumption curve sampled on the grid: values[i] estimates B(times[i])."""

    times: np.ndarray
    values: np.ndarray


def _grid_index(coords: np.ndarray, cell: float) -> np.ndarray:
    """Nearest grid offsets, rounding halves to even as ``GridScene.row``/``col`` do."""
    return np.rint(coords / cell).astype(np.intp)


def grid_consumption(
    system: BarrierSystem, cell: float, horizon: float, sides=(RIGHT, LEFT)
) -> SampledCurve:
    """Sampled consumption curve: barrier points spaced one cell apart, the
    head-start stretch excluded, each consumed at its minimum adjacent-node
    arrival; B is sampled at the cell size in t.  ``sides`` restricts the
    tally to one side for side-resolved comparisons.

    The arrivals are read from the sweep's run form, never from the rows x
    columns grid, so the cost is O(runs x rows + samples); they equal
    ``grid_arrival``'s at every node bit for bit.  What that needs is
    refused before allocating when it cannot fit in physical memory.
    """
    scene = build_scene(system, cell, horizon)
    head = float(system.head_start)
    half = 0.5 * cell
    tallied = [(side, sign) for side, sign in ((RIGHT, 1), (LEFT, -1)) if side in sides]
    # vertical barriers: midpoints along the height, flanked by both columns;
    # points with arrival beyond the horizon can never be counted, and
    # arrival >= foot + y, so the sampled stretch is capped accordingly; no
    # sample lies above the horizon, so a taller vertical is cut there
    verticals = []
    for side, sign in tallied:
        for foot, height in zip(system.feet(side), system.heights(side)):
            if foot < horizon:
                foot, height = float(foot), float(min(height, horizon))
                midpoints = max(1, int(round(min(height, horizon - foot) / cell)))
                verticals.append((scene.col(sign * foot), height, midpoints))
    # ground: midpoints from the head-start boundary out to the horizon, on row 0
    x_max = min(horizon, scene.x_extent - cell)
    start = int(np.floor(head / cell))
    n_ground = max(0, int(np.floor((x_max - head) / cell))) + 1
    ny, nx = scene.shape
    samples = sum(n for *_, n in verticals) + n_ground * len(tallied)
    run_rows = ny * (len(system.right) + len(system.left) + 2)
    _refuse_past_memory(_BYTES_PER_RUN_ROW * run_rows + _BYTES_PER_SAMPLE * samples, nx * ny, cell, horizon)

    # each barrier point is consumed from the nodes at two rows x two columns
    rows = [np.empty((0, 2), dtype=np.intp)]
    cols = [np.empty((0, 2), dtype=np.intp)]
    for col, height, midpoints in verticals:
        y_mid = (np.arange(midpoints) + 0.5) * cell
        y_mid = y_mid[y_mid <= height]
        rows.append(np.stack([_grid_index(y_mid - half, cell), _grid_index(y_mid + half, cell)], 1))
        cols.append(np.broadcast_to([col - 1, col + 1], (y_mid.size, 2)))
    x_mid = (np.arange(start, start + n_ground) + 0.5) * cell
    x_mid = x_mid[(x_mid >= head) & (x_mid <= x_max)]
    for side, sign in tallied:
        rows.append(np.zeros((x_mid.size, 2), dtype=np.intp))
        cols.append(scene.source_col + np.stack(
            [_grid_index(sign * (x_mid - half), cell), _grid_index(sign * (x_mid + half), cell)], 1))

    r = np.concatenate(rows)[:, [0, 0, 1, 1]]
    c = np.concatenate(cols)[:, [0, 1, 0, 1]]
    inside = (r >= 0) & (r < ny) & (c >= 0) & (c < nx)  # negative indices would wrap
    adjacent = np.full(r.shape, np.inf)  # a node outside the scene is never reached; a blocked one reads np.inf
    adjacent[inside] = _arrivals_at(scene, r[inside], c[inside], max_time=horizon + 2 * cell)
    consumed_at = np.sort(adjacent.min(axis=1))
    times = np.arange(0.0, horizon + 0.5 * cell, cell)
    counts = np.searchsorted(consumed_at, times, side="right")
    return SampledCurve(times=times, values=counts * cell)


def consumption_tolerance(system: BarrierSystem, cell: float) -> float:
    """Acceptance bound for |sampled - exact|: two cells per face plus two."""
    faces = len(system.right) + len(system.left)
    return 2.0 * cell * (faces + 2)


class OracleComparison(NamedTuple):
    max_deviation: float
    at_time: float
    tolerance: float
    passed: bool
    first_exceedance: float | None = None


def _values_at(curve: PiecewiseLinearCurve, times: np.ndarray) -> np.ndarray:
    """``float(curve.value_at(t))`` for every t in ``times``, bit for bit.

    Segments are found among the breakpoint times rounded to float.  Rounding
    is monotone, so that search only misplaces a sample equal to a rounded
    breakpoint time; those few samples go through ``value_at`` itself.  The
    rest use value_at's formula and operand order with each exact difference
    rounded once, as Python's mixed Fraction/float arithmetic does.  A time
    that equals a float-rounded end but lies past the exact end is evaluated
    at that end.
    """
    pts = curve.points
    t_at = np.array([float(t) for t, _ in pts])
    v_at = np.array([float(v) for _, v in pts])
    dt = np.array([float(t1 - t0) for (t0, _), (t1, _) in zip(pts, pts[1:])])
    dv = np.array([float(v1 - v0) for (_, v0), (_, v1) in zip(pts, pts[1:])])
    seg = np.clip(np.searchsorted(t_at, times, side="right") - 1, 0, len(pts) - 2)
    values = v_at[seg] + dv[seg] * (times - t_at[seg]) / dt[seg]
    for i in np.flatnonzero(np.isin(times, t_at)):
        t = times[i]
        t = curve.start if t < curve.start else curve.end if t > curve.end else t
        values[i] = float(curve.value_at(t))
    return values


def compare(exact: PiecewiseLinearCurve, sampled: SampledCurve, tolerance: float) -> OracleComparison:
    """Max |sampled - exact| over the common sample times, judged against ``tolerance``."""
    lo = float(exact.start)
    hi = float(exact.end)
    mask = (sampled.times >= lo) & (sampled.times <= hi)
    if not mask.any():
        raise ValueError("curves share no common time range")
    times = sampled.times[mask]
    devs = np.abs(sampled.values[mask] - _values_at(exact, times))
    i = int(np.argmax(np.where(np.isnan(devs), -1.0, devs)))  # a nan never counts as the worst
    worst, worst_t = (devs[i], float(times[i])) if devs[i] >= 0 else (-1.0, lo)
    over = np.flatnonzero(devs > tolerance)
    first_exceedance = float(times[over[0]]) if over.size else None
    return OracleComparison(
        max_deviation=worst,
        at_time=worst_t,
        tolerance=tolerance,
        passed=first_exceedance is None,
        first_exceedance=first_exceedance,
    )
