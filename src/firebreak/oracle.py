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
equal that search's bit for bit.  A level less its column stays the same
from one column to the next on the rows both share, so a run of columns
with equal tops is one level column, and that column is a few pieces of
slope +1 or -1 over the rows: the run form, a short list of
(row, level, slope) pieces per run, made from the run before in
O(pieces), so the sweep is O(runs**2) whatever the rows.  A scene is each
column's first free row.  ``grid_consumption`` never builds the rows x
columns grid: it reads row 0 of every run, and each vertical's two flank
columns piece by piece, where the consumed levels between two piece rows
are one rising and one falling range; it counts them by level as +1/-1
pairs, so Python does O(runs**2) work and only the running sums over the
levels, in C, are O(samples): 17/9 at 6 cycles (1.4e12 grid nodes, 835 552
samples at cell 1) is counted in about 0.3 s.  It and ``compare``, which
hands the exact curve to the simulator's float evaluator, one bisect per
breakpoint over the sample times, run in pure Python; ``compare`` takes the
times sorted, as ``grid_consumption`` makes them.  The cell and
horizon are read as floats, refused by name past the float range; a rational
system's lengths are read as lattice ints over one scale, compared with
bounds made ints once, and each float is one int true division, as
``float(Fraction)`` makes it, so no ``Fraction`` is made in a loop.  Only
``grid_arrival``, which writes the run form out into the full grid, and
``GridScene.passable``, the bool node mask, import numpy, when called.
Each of ``build_scene`` (the column tops), ``grid_arrival`` (the grid) and
``grid_consumption`` (the column tops and the time samples) refuses,
before allocating, what would not fit in physical memory.
"""

from __future__ import annotations

import math
import numbers
import os
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate, chain, compress, count, repeat
from operator import eq, gt, itemgetter, le, mul, sub
from typing import NamedTuple

from .model import FLOAT, LEFT, RIGHT, BarrierSystem, _on_one_scale, approx
from .simulate import PiecewiseLinearCurve, _floats_at

# bytes per column of build_scene: the list the tops are set in and the tuple they end in
_BYTES_PER_COLUMN = 16
# bytes per node of grid_arrival's grid: float arrival (8), the cut's bool mask (1) and headroom (7)
_BYTES_PER_NODE = 16
# grid_consumption's bytes per row of the scene: its column tops, in the scene's tuple and in the list or the
# two side slices beside it (the run form has no per-row part); and per time sample: its time, value, level
# count and span, int and float objects included (barrier points are counted per piece or range and need about
# nothing).  Peaks traced with tracemalloc were 0.69-0.70 of this estimate, on a flat system (cell 1, horizon
# 1e5) as with verticals (17/9 at 4 and 5 cycles at cell 1, the improved scheme at 4 and 5 cycles at cell 0.25)
_BYTES_PER_ROW = 32
_BYTES_PER_SAMPLE = 96


def _numpy(what: str):
    """numpy, imported on first use; without it, a one-line ModuleNotFoundError that names ``what``."""
    try:
        import numpy
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise ModuleNotFoundError(
            f"{what} needs numpy, which is not installed; install the grid extra: pip install 'firebreak[grid]'",
            name="numpy",
        ) from None
    return numpy


class GridScene(NamedTuple):
    """Discretized upper half-plane: each column blocked from the ground up to its first free row."""

    cell: float
    tops: tuple[int, ...]     # first free row per column; ``rows`` blocks the whole column
    rows: int                 # row 0 is the ground
    source_col: int           # column index of x = 0

    @property
    def shape(self):
        return self.rows, len(self.tops)

    @property
    def x_extent(self) -> float:  # the scene covers [-x_extent, x_extent]
        return self.source_col * self.cell

    @property
    def passable(self):  # the bool node mask, a numpy array built on each read
        np = _numpy("GridScene.passable")
        return np.arange(self.rows)[:, None] >= np.array(self.tops)

    def col(self, x: float) -> int:
        return self.source_col + int(round(x / self.cell))

    def row(self, y: float) -> int:
        return int(round(y / self.cell))

    def in_bounds(self, row: int, col: int) -> bool:
        return 0 <= row < self.rows and 0 <= col < len(self.tops)


def _refuse_past_memory(nbytes: int, nodes: int, cell: float, horizon: float, what: str) -> None:
    """Refuse ``nbytes`` past physical memory, naming the grid of ``nodes`` at this cell and horizon and ``what``."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        gib = Fraction(nbytes, 2**30)  # a cell of 1e-300 needs 600 digits of nodes
        count = f"{nodes:,}" if nodes < 10**15 else approx(nodes)
        gib = f"{float(gib):,.1f}" if gib < 10**15 else approx(gib)
        raise ValueError(
            f"a grid of {count} nodes (cell {cell:g}, horizon {horizon:g}): {what} need about {gib} GiB, more "
            f"than the {memory / 2**30:,.1f} GiB of physical memory; use a coarser cell or a shorter horizon"
        )


def build_scene(system: BarrierSystem, cell: float, horizon: float) -> GridScene:
    """Scene covering everything reachable within the horizon plus a margin."""
    return _scene(*_walls(system), *_floats(cell, horizon))


def _floats(cell, horizon) -> tuple[float, float]:
    """The cell and the horizon read as floats, once; a bool, what is not a real number and what is past the float
    range are refused, by name."""
    floats = []
    for name, x in (("cell", cell), ("horizon", horizon)):
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {x!r}")
        try:
            floats.append(float(x))
        except OverflowError:  # an int or a Fraction
            raise ValueError(f"{name} {approx(x)} is past the float range") from None
    return tuple(floats)


def _walls(system: BarrierSystem) -> tuple[int | None, dict[str, tuple]]:
    """Each side's (foot, height) pairs, read once, and their scale: a rational system's as ints on one lattice
    over that scale, a float system's as floats with the scale None."""
    pairs = system.right, system.left
    scale, sides = (None, pairs) if system.mode == FLOAT else _on_one_scale(*pairs)
    return scale, {side: tuple(zip(accumulate(g for g, _ in pairs), (h for _, h in pairs)))
                   for side, pairs in zip((RIGHT, LEFT), sides)}


def _scene(scale: int | None, walls: dict[str, tuple], cell: float, horizon: float) -> GridScene:
    """``build_scene`` from ``_walls`` and a float cell and horizon; a rational system's lengths are lattice ints."""
    if not (cell > 0 and 0 < horizon < math.inf):
        raise ValueError("cell size and horizon must be > 0 and the horizon finite")
    if cell > horizon:
        raise ValueError(f"cell {cell:g} is larger than the horizon {horizon:g}")
    ratio = horizon / cell  # past the float range (a cell of 5e-324) the exact ratio sizes the refusal
    steps = math.ceil(ratio if ratio < math.inf else Fraction(horizon) / Fraction(cell)) + 2  # 2-cell margin
    nx = 2 * steps + 1
    ny = steps + 1
    _refuse_past_memory(nx * _BYTES_PER_COLUMN, nx * ny, cell, horizon, "its column tops")
    tops = [0] * nx
    # lengths compare exactly before they become floats, so lengths past the float range only mean a foot
    # outside the scene or a fully blocked column: lattice ints with the bounds made ints once, as n / scale > b
    # iff n > floor(b x scale) (an inf stays a float), and each float is one int true division, as float(Fraction)
    far, tall = (b if not scale or b == math.inf else math.floor(Fraction(b) * scale)
                 for b in (2 * (steps * cell), 2 * ny * cell))
    scale = scale or 1  # a float divided by 1 is itself
    for side, sign in ((RIGHT, 1), (LEFT, -1)):
        for foot, height in walls[side]:
            if foot > far:
                continue
            col = steps + round(sign * foot / scale / cell)
            if not 0 <= col < nx:
                continue
            # block nodes strictly below the top; the top node stays open
            top_row = ny if height > tall else math.floor(height / scale / cell - 1e-9) + 1
            tops[col] = max(tops[col], min(top_row, ny))
    if tops[steps]:  # a foot within half a cell of the origin rounds onto it
        firsts = (sign * foot for side, sign in ((RIGHT, 1), (LEFT, -1)) for foot, _ in walls[side][:1])
        x = min(firsts, key=abs) / scale
        raise ValueError(
            f"cell {cell:g} rounds the vertical at x={x:g} onto the source node; use a cell below {2 * abs(x):g}"
        )
    return GridScene(cell=cell, tops=tuple(tops), rows=ny, source_col=steps)


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


def _run_levels(scene: GridScene) -> list[list[tuple[int, int, list]]]:
    """The sweep's levels in run form, right side (columns source_col..nx-1) then left (source_col..0).

    Per side, its runs of equal tops, each as (start, stop, pieces): the
    side-local columns start..stop-1, where column c's level at row r is
    level + slope x (r - row) + c, for the last piece (row, level, slope)
    with row <= r, and inf below the first piece's row, the run's top.  A
    level minus its column stays the same from a column to the next on the
    rows both share, so the pieces change only at a run's first column: its
    rows below a higher top are dropped, or its rows below the predecessor's
    top, free lower down, fill downwards from that top in one piece of slope
    -1.  So a run adds at most one piece, and the sweep is O(runs**2).  A
    fully blocked column cuts off the rest of the side, so the runs stop
    before it.  Column tops outside [0, rows] and a blocked source are
    refused.
    """
    ny, tops, source = scene.rows, scene.tops, scene.source_col
    bad = [col for col in compress(range(len(tops)), tops) if not (0 <= tops[col] <= ny and tops[col] % 1 == 0)]
    if bad:
        raise ValueError(f"column {bad[0]} of the scene has top row {tops[bad[0]]}, not an integer in [0, {ny}]")
    if tops[source]:
        raise ValueError(f"the source node (row 0, column {source}) is blocked")
    return [_side_runs(tops[source:], ny), _side_runs(tops[source::-1], ny)]


def _side_runs(tops, ny: int) -> list[tuple[int, int, list]]:
    """One side's runs for ``_run_levels``, from its side-local ``tops`` (the source column first)."""
    # a top changes only at one of the few columns with a top above 0, or just past one
    edges = sorted({col + d for col in compress(range(len(tops)), tops) for d in (0, 1)})
    bounds = [0, *(col for col in edges if col < len(tops) and tops[col] != tops[col - 1]), len(tops)]
    pieces, runs = [(0, 0, 1)], []  # the source column, whose top is 0: row r at level r
    for a, b in zip(bounds, bounds[1:]):
        top, (prev, level, slope) = int(tops[a]), pieces[0]
        if top == ny:
            break
        if top > prev:  # blocked higher up: cut the piece the top is on
            i = sum(row <= top for row, _, _ in pieces) - 1
            row, level, slope = pieces[i]
            pieces = [(top, level + slope * (top - row), slope), *pieces[i + 1:]]
        elif top < prev:  # free lower down: one piece down from the predecessor's top, which a slope -1 piece continues
            pieces = [(top, level + prev - top, -1), *pieces[slope < 0:]]
        runs.append((a, b, pieces))
    return runs


def _levels(runs: list, col: int, n: int) -> list:
    """Rows 0..n-1 (n <= rows) of side-local column ``col`` of one side's ``runs``, each piece expanded as a
    range: inf where blocked or cut off."""
    lines = _lines(runs, col)
    levels = [math.inf] * min(lines[0][0], n) if lines else [math.inf] * n
    for (row, base, slope), end in zip(lines, [*(row for row, _, _ in lines[1:]), n]):
        if row >= n:
            break
        levels += range(base + slope * row, base + slope * min(end, n), slope)
    return levels


def _lines(runs: list, col: int) -> list[tuple[int, int, int]]:
    """Side-local column ``col`` of one side's ``runs`` as (row, base, slope) per piece: its level at row r is
    base + slope x r from the piece's row up to the next piece's; none past the cut-off."""
    if col >= runs[-1][1]:
        return []
    pieces = runs[bisect_right(runs, col, key=itemgetter(0)) - 1][2]
    return [(row, level + col - slope * row, slope) for row, level, slope in pieces]


def _count_vertical(runs: list, col: int, k: int, spans: list, n: int) -> None:
    """Add to ``spans`` the levels at which the k midpoints of the vertical on side-local column ``col`` are
    consumed, a range of levels first..stop-1 as +1 at first and -1 at stop, clamped at ``n``.

    Midpoint j, between rows j and j + 1, is consumed at c_j = min(L(j), R(j),
    L(j + 1), R(j + 1)) of its flank columns L and R (col -+ 1).  A column's
    pieces meet end to end (each piece's line reaches the next piece's first
    level), so on j from one piece's row to the next both of its rows j and
    j + 1 lie on the piece's line: a slope +1 line base + r is least at r = j,
    base + j, and a slope -1 line base - r at r = j + 1, base - 1 - j.  Just
    below a column's top (j = top - 1) only row j + 1 = top is free, so there
    the column gives its level at the top, a line of slope +1 in j for that
    one j.  So between two consecutive piece rows of the flanks
    c_j = min(P + j, M - j), P and M the least of the bases of slope +1 and
    of slope -1: one rising range of levels, then one falling range.
    """
    steps = []  # (first j, flank, base, slope) of min(level(j), level(j + 1)) per flank
    for flank, c in enumerate((col - 1, col + 1)):
        lines = _lines(runs, c)
        if lines:
            row, base, slope = lines[0]
            steps.append((row - 1, flank, base + slope * row - row + 1, 1))
            steps += [(row, flank, base if slope > 0 else base - 1, slope) for row, base, slope in lines]
    steps.sort()
    plus, minus = [math.inf, math.inf], [math.inf, math.inf]
    for (first, flank, base, slope), (stop, *_) in zip(steps, [*steps[1:], (k,)]):
        plus[flank], minus[flank] = (base, math.inf) if slope > 0 else (math.inf, base)
        first, stop = max(first, 0), min(stop, k)
        if first >= stop:
            continue
        p, m = min(plus), min(minus)
        turn = stop if m == math.inf else first if p == math.inf else min(stop, max(first, (m - p) // 2 + 1))
        if first < turn:  # p + first .. p + turn - 1
            spans[min(p + first, n)] += 1
            spans[min(p + turn, n)] -= 1
        if turn < stop:  # m - stop + 1 .. m - turn
            spans[min(m - stop + 1, n)] += 1
            spans[min(m - turn + 1, n)] -= 1


def grid_arrival(scene: GridScene, max_time: float | None = None):
    """Shortest-path arrival time per node on the 4-neighbour grid, a rows x
    columns numpy array (np.inf where unreachable), equal bit for bit to a
    breadth-first search.

    Every column is blocked from the ground up to a top row and free above
    it, so a path that leaves a column and comes back can take the free
    vertical segment between its two visits instead, which is no longer.
    Some shortest path is therefore x-monotone on each side of the source,
    and one sweep per side computes the levels: a column takes its
    predecessor's levels plus one on the rows both share, and the rows where
    it is free lower down fill downwards from its predecessor's top row.  A
    run of columns with equal tops adds 1, 2, ... to its first column, so
    the sweep keeps one column per run, as pieces of slope +1 or -1
    (``_run_levels``); this function writes each run out into the rows x
    columns grid, which it refuses before allocating when it cannot fit in
    physical memory.
    With ``max_time`` levels past ceil(max_time / cell) + 1, where the search
    would stop, are np.inf.  An infinite ``max_time`` or one past the float
    range is no cut-off when positive, as None is, and leaves only the source
    when negative; nan is refused, and so are column tops outside [0, rows].
    """
    np = _numpy("grid_arrival")
    cut = _last_level(max_time, scene.cell)
    ny, nx = scene.shape
    # the horizon build_scene was given, in whole cells
    _refuse_past_memory(nx * ny * _BYTES_PER_NODE, nx * ny, scene.cell, (scene.source_col - 2) * scene.cell,
                        "its arrival times")
    runs = _run_levels(scene)
    levels = np.empty((nx, ny))  # column-major, so each column is contiguous
    source = scene.source_col
    for side_runs, side in zip(runs, (levels[source:], levels[source::-1])):
        end = 0
        for a, end, _ in side_runs:
            # written in place: a temporary block would raise the peak memory
            np.add(np.array(_levels(side_runs, a, ny), dtype=float), np.arange(end - a)[:, None], out=side[a:end])
        side[end:] = np.inf
    if cut is not None:
        levels[levels > cut] = np.inf
    levels *= scene.cell
    return levels.T


def arrival_at(scene: GridScene, arrival, x: float, y: float) -> float:
    try:
        row, col = scene.row(y), scene.col(x)
    except (OverflowError, ValueError):  # inf, nan or past the float range has no grid node
        row = col = -1
    if not scene.in_bounds(row, col):
        raise ValueError(f"point ({x}, {y}) outside the scene extent")
    return float(arrival[row, col])


class SampledCurve(NamedTuple):
    """Consumption curve sampled on the grid: values[i] estimates B(times[i])."""

    times: tuple[float, ...]
    values: tuple[float, ...]


def grid_consumption(
    system: BarrierSystem, cell: float, horizon: float, sides=(RIGHT, LEFT)
) -> SampledCurve:
    """Sampled consumption curve: barrier points spaced one cell apart, the
    head-start stretch excluded, each consumed at its minimum adjacent-node
    arrival; B is sampled at the cell size in t.  ``sides`` restricts the
    tally to one side for side-resolved comparisons: one side's name, or a
    non-empty collection of them; anything else is refused.

    The arrivals are read from the sweep's run form, never from the rows x
    columns grid: row 0 of each run, and each vertical's flank columns piece
    by piece (``_count_vertical``), so the Python work is O(runs**2) and
    only the running sums over the levels are O(samples); they equal
    ``grid_arrival``'s at every node bit for bit.  A point consumed at
    level L counts at time times[i] = fl(i x cell) exactly when L <= i,
    because rounding is monotone and the levels that count are far below
    2**52; so the points are counted by level, and ``grid_arrival``'s cut at
    horizon + 2 cells, past every counted level, is never needed.
    What this needs is refused before allocating when it cannot fit in
    physical memory.  The cell and the horizon are read as floats, a bool
    or what is not a real number refused, and a rational system's lengths
    as lattice ints (``_walls``).
    """
    sides = (sides,) if isinstance(sides, str) else tuple(sides)
    unknown = [side for side in sides if side not in (RIGHT, LEFT)]
    if unknown or not sides:
        raise ValueError(f"unknown side {unknown[0]!r}: sides are 'right' and 'left'" if unknown
                         else "sides is empty: give 'right', 'left' or both")
    cell, horizon = _floats(cell, horizon)
    scale, walls = _walls(system)
    scene = _scene(scale, walls, cell, horizon)
    head = float(system.head_start)
    # vertical barriers: midpoints y = (j + 0.5) cell along the height, the
    # point between rows j and j + 1 of the two flanking columns; points with
    # arrival beyond the horizon can never be counted, and arrival >= foot + y,
    # so the sampled stretch is capped accordingly; no sample lies above the
    # horizon, so a taller vertical is cut there; the midpoints below the
    # float height are a prefix of the j.  Lattice ints compare with the
    # horizon made ints once: n / scale < horizon iff n < ceil(horizon x scale)
    # and n / scale <= horizon iff n <= floor(horizon x scale)
    below = within = horizon
    if scale:
        bound = Fraction(horizon) * scale
        below, within = math.ceil(bound), math.floor(bound)
    scale = scale or 1
    verticals = {side: [] for side in (RIGHT, LEFT) if side in sides}  # side-local column, midpoint count
    for side, found in verticals.items():
        for foot, height in walls[side]:
            if foot < below:
                foot, height = foot / scale, height / scale if height <= within else horizon
                k = max(1, round(min(height, horizon - foot) / cell))
                while k and (k - 0.5) * cell > height:
                    k -= 1
                found.append((round(foot / cell), k))
    # ground: midpoints x = (j + 0.5) cell from the head-start boundary out to
    # the horizon, between the side-local columns j and j + 1 of row 0
    x_max = min(horizon, scene.x_extent - cell)
    lo = math.floor(head / cell)
    hi = lo + max(0, math.floor((x_max - head) / cell)) + 1
    while lo < hi and (lo + 0.5) * cell < head:
        lo += 1
    while lo < hi and (hi - 0.5) * cell > x_max:
        hi -= 1
    n = math.ceil((horizon + 0.5 * cell) / cell)  # the sample times, as np.arange(0, horizon + cell / 2, cell)
    ny, nx = scene.shape
    _refuse_past_memory(_BYTES_PER_ROW * ny + _BYTES_PER_SAMPLE * n, nx * ny, cell, horizon,
                        "its column tops and samples")

    # the consumed points per level, a range of levels first..stop-1 as +1 at
    # first and -1 at stop; levels past the last sample time never count
    spans = [0] * (n + 1)
    runs = dict(zip((RIGHT, LEFT), _run_levels(scene)))
    for side, found in verticals.items():
        for col, k in found:
            _count_vertical(runs[side], col, k, spans, n)
        # ground point j lies between columns j and j + 1: inside a run it
        # takes the run's level at j, a range of levels; at a run's last
        # column it also reads the next run's first (none past the cut-off);
        # a run's level at row 0, less its column, is its first piece's if
        # that piece starts on the ground, else inf
        ground = [(a, b, level if row == 0 else math.inf) for a, b, ((row, level, _), *_) in runs[side]]
        afters = [base + a for a, _, base in ground[1:]] + [math.inf]
        for (a, b, base), after in zip(ground, afters):
            first, stop = max(a, lo), min(b - 1, hi)
            if first < stop and base < math.inf:
                spans[min(base + first, n)] += 1
                spans[min(base + stop, n)] -= 1
            if lo <= b - 1 < hi and (level := min(base + b - 1, after)) < math.inf:
                spans[min(level, n)] += 1
                spans[min(level + 1, n)] -= 1
    counts = accumulate(accumulate(spans))
    return SampledCurve(times=tuple(map(mul, range(n), repeat(cell))), values=tuple(map(mul, counts, repeat(cell, n))))


def consumption_tolerance(system: BarrierSystem, cell: float) -> float:
    """Acceptance bound for |sampled - exact|: two cells per face plus two."""
    if isinstance(cell, bool) or not (isinstance(cell, numbers.Real) and 0 < cell < math.inf):
        raise ValueError(f"cell size must be > 0 and finite, got {cell!r}")
    faces = len(system.right) + len(system.left)
    return 2.0 * cell * (faces + 2)


class OracleComparison(NamedTuple):
    max_deviation: float
    at_time: float
    tolerance: float
    passed: bool
    first_exceedance: float | None = None


def compare(exact: PiecewiseLinearCurve, sampled: SampledCurve, tolerance: float) -> OracleComparison:
    """Max |sampled - exact| over the common sample times, judged against ``tolerance``.

    The times must be sorted, with no nan, as ``grid_consumption`` makes
    them; other times are refused.  Their common range is cut out as one
    slice, so ``at_time`` and ``first_exceedance`` are the first in time.  A
    nan deviation is never the worst and never exceeds.  A sampled curve
    whose times and values differ in length, and a nan tolerance, which no
    deviation exceeds, are refused.  The curve is read by ``simulate``'s
    float evaluator, whatever its storage, and numpy samples as Python
    floats.
    """
    if len(sampled.times) != len(sampled.values):
        raise ValueError(f"sampled curve has {len(sampled.times)} times but {len(sampled.values)} values")
    if tolerance != tolerance:
        raise ValueError("tolerance is nan; give a number")
    lo, hi = float(exact.start), float(exact.end)
    # numpy samples are read as Python floats, whose products go to inf where numpy's scalars warn
    times, values = (xs if isinstance(xs, (tuple, list)) else [*map(float, xs)] for xs in sampled)
    if not all(map(le, chain((-math.inf,), times), chain(times, (math.inf,)))):
        raise ValueError("sample times must be sorted, with no nan, as grid_consumption makes them")
    common = slice(bisect_left(times, lo), bisect_right(times, hi))
    times, values = times[common], values[common]
    if not times:
        raise ValueError("curves share no common time range")
    devs = [*map(abs, map(sub, values, _floats_at(exact, times)))]
    worst = max(compress(devs, map(eq, devs, devs)), default=-1.0)  # a nan never counts as the worst
    worst_t = float(times[devs.index(worst)]) if worst >= 0 else lo
    # no deviation exceeds the tolerance unless the worst does: a nan neither exceeds nor is the worst
    first = next(compress(count(), map(gt, devs, repeat(tolerance))), None) if worst > tolerance else None
    first_exceedance = None if first is None else float(times[first])
    return OracleComparison(
        max_deviation=worst,
        at_time=worst_t,
        tolerance=tolerance,
        passed=first_exceedance is None,
        first_exceedance=first_exceedance,
    )
