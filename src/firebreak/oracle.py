"""Brute-force grid validation of the exact geodesics and consumption curves.

The upper half-plane is discretized with nodes at integer multiples of the
cell size; the fire source sits at the origin node.  All edge weights equal
the cell size, so breadth-first search reproduces L1 distances exactly and no
priority queue is needed.  A vertical barrier blocks every node strictly
below its top on its grid column (equivalently: every edge incident to an
interior barrier node), which realizes zero-thickness segments: paths may
graze the top node but cannot pass through the column below it.  Nodes on
the ground row stay passable because the fire travels along the upper face
of the horizontal barrier.

When barrier coordinates are integer multiples of the cell size the BFS
arrival times at free nodes agree with the exact geodesic; otherwise
barriers snap to the nearest column (within half a cell).

The scene allocates the full rectangle of nodes within the horizon, and
``build_scene`` refuses one that cannot fit in physical memory.  Past that
allocation every stage costs what it touches: the BFS keeps an explicit
frontier of node indices, O(nodes reached + levels); sampling gathers the
nodes next to each barrier point with index arrays; ``compare`` evaluates
the exact curve at all sample times at once.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .model import LEFT, RIGHT, BarrierSystem
from .simulate import PiecewiseLinearCurve

# bytes per grid node: passable and free masks (2), float arrival grid (8), headroom (7)
_BYTES_PER_NODE = 17


@dataclass(frozen=True)
class GridScene:
    """Discretized upper half-plane: passability mask plus indexing metadata."""

    cell: float
    x_extent: float           # covers [-x_extent, x_extent]
    passable: np.ndarray      # bool, shape (ny, nx), row 0 is the ground
    source_col: int           # column index of x = 0

    @property
    def shape(self):
        return self.passable.shape

    def col(self, x: float) -> int:
        return self.source_col + int(round(x / self.cell))

    def row(self, y: float) -> int:
        return int(round(y / self.cell))

    def in_bounds(self, row: int, col: int) -> bool:
        ny, nx = self.passable.shape
        return 0 <= row < ny and 0 <= col < nx


def build_scene(system: BarrierSystem, cell: float, horizon: float) -> GridScene:
    """Scene covering everything reachable within the horizon plus a margin."""
    if not (cell > 0 and 0 < horizon < np.inf):
        raise ValueError("cell size and horizon must be > 0 and the horizon finite")
    if cell > horizon:
        raise ValueError(f"cell {cell:g} is larger than the horizon {horizon:g}")
    cell = float(cell)
    horizon = float(horizon)
    steps = int(np.ceil(horizon / cell)) + 2  # margin of two cells all around
    nx = 2 * steps + 1
    ny = steps + 1
    nodes = nx * ny
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nodes * _BYTES_PER_NODE > memory:
        raise ValueError(
            f"a grid of {nodes:,} nodes (cell {cell:g}, horizon {horizon:g}) needs about "
            f"{nodes * _BYTES_PER_NODE / 2**30:,.1f} GiB, more than the "
            f"{memory / 2**30:,.1f} GiB of physical memory; use a coarser cell or a shorter horizon"
        )
    passable = np.ones((ny, nx), dtype=bool)
    scene = GridScene(
        cell=cell,
        x_extent=steps * cell,
        passable=passable,
        source_col=steps,
    )
    for side, sign in ((RIGHT, 1), (LEFT, -1)):
        for foot, height in zip(system.feet(side), system.heights(side)):
            col = scene.col(sign * float(foot))
            if not 0 <= col < nx:
                continue
            # block nodes strictly below the top; the top node stays open
            top_row = int(np.floor(float(height) / cell - 1e-9)) + 1
            passable[: min(top_row, ny), col] = False
    if not passable[0, scene.source_col]:
        raise ValueError("source node is blocked by a barrier")
    return scene


def grid_arrival(scene: GridScene, max_time: float | None = None) -> np.ndarray:
    """BFS arrival time per node (np.inf where unreachable).

    Frontier-list BFS on the flat indices of the scene padded with a blocked
    border, so the neighbour steps +-1 and +-width never wrap.  Each level
    gathers the frontier's neighbours that are still free and stamps them;
    the cost is O(nodes reached + levels) beyond allocating the grid.  With
    ``max_time`` the search stops after level ceil(max_time / cell) + 1.
    """
    free = np.pad(scene.passable, 1, constant_values=False)
    arrival = np.full(free.shape, np.inf)
    width = free.shape[1]
    free, flat = free.reshape(-1), arrival.reshape(-1)
    source = width + scene.source_col + 1
    free[source] = False
    flat[source] = 0.0
    steps = np.array([1, -1, width, -width])
    frontier = np.array([source])
    max_level = None if max_time is None else int(np.ceil(max_time / scene.cell)) + 1
    level = 0
    while frontier.size:
        if max_level is not None and level >= max_level:
            break
        level += 1
        reached = (frontier[:, None] + steps).ravel()
        reached = reached[free[reached]]
        # dedupe by scatter: of the copies of a node, exactly one reads its own stamp back
        order = np.arange(reached.size)
        flat[reached] = order
        frontier = reached[flat[reached] == order]
        free[frontier] = False
        flat[frontier] = level * scene.cell
    return arrival[1:-1, 1:-1]


def arrival_at(scene: GridScene, arrival: np.ndarray, x: float, y: float) -> float:
    row, col = scene.row(y), scene.col(x)
    if not scene.in_bounds(row, col):
        raise ValueError(f"point ({x}, {y}) outside the scene extent")
    return float(arrival[row, col])


@dataclass(frozen=True)
class SampledCurve:
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
    tally to one side for side-resolved comparisons."""
    scene = build_scene(system, cell, horizon)
    arrival = grid_arrival(scene, max_time=horizon + 2 * cell)
    head = float(system.head_start)
    half = 0.5 * cell
    # each barrier point is consumed from the nodes at two rows x two columns
    rows = [np.empty((0, 2), dtype=np.intp)]
    cols = [np.empty((0, 2), dtype=np.intp)]

    for side, sign in ((RIGHT, 1), (LEFT, -1)):
        if side not in sides:
            continue
        # vertical barriers: midpoints along the height, flanked by both columns;
        # points with arrival beyond the horizon can never be counted, and
        # arrival >= foot + y, so the sampled stretch is capped accordingly
        for foot, height in zip(system.feet(side), system.heights(side)):
            foot, height = float(foot), float(height)
            if foot >= horizon:
                continue
            col = scene.col(sign * foot)
            reachable = min(height, horizon - foot)
            y_mid = (np.arange(max(1, int(round(reachable / cell)))) + 0.5) * cell
            y_mid = y_mid[y_mid <= height]
            rows.append(np.stack([_grid_index(y_mid - half, cell), _grid_index(y_mid + half, cell)], 1))
            cols.append(np.broadcast_to([col - 1, col + 1], (y_mid.size, 2)))
        # ground: midpoints from the head-start boundary out to the horizon, on row 0
        x_max = min(horizon, scene.x_extent - cell)
        n_ground = int(np.floor((x_max - head) / cell))
        start = int(np.floor(head / cell))
        x_mid = (np.arange(start, start + max(0, n_ground) + 1) + 0.5) * cell
        x_mid = x_mid[(x_mid >= head) & (x_mid <= x_max)]
        rows.append(np.zeros((x_mid.size, 2), dtype=np.intp))
        cols.append(scene.source_col + np.stack(
            [_grid_index(sign * (x_mid - half), cell), _grid_index(sign * (x_mid + half), cell)], 1))

    r = np.concatenate(rows)[:, :, None]
    c = np.concatenate(cols)[:, None, :]
    ny, nx = scene.shape
    inside = (r >= 0) & (r < ny) & (c >= 0) & (c < nx)
    r, c = np.where(inside, r, 0), np.where(inside, c, 0)
    adjacent = np.where(inside & scene.passable[r, c], arrival[r, c], np.inf)
    consumed_at = np.sort(adjacent.min(axis=(1, 2)))
    times = np.arange(0.0, horizon + 0.5 * cell, cell)
    counts = np.searchsorted(consumed_at, times, side="right")
    return SampledCurve(times=times, values=counts * cell)


def consumption_tolerance(system: BarrierSystem, cell: float) -> float:
    """Acceptance bound for |sampled - exact|: two cells per face plus two."""
    faces = len(system.right) + len(system.left)
    return 2.0 * cell * (faces + 2)


@dataclass(frozen=True)
class OracleComparison:
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
