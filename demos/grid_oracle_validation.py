"""Cross-check the exact simulator against the brute-force grid oracle.

The oracle discretizes the upper half-plane and takes each node's number of
grid steps from the source (exact for L1).  Every column is blocked only from
the ground up, so some shortest grid path is x-monotone on each side, and one
sweep over the columns per side gives the same arrivals as a breadth-first
search, keeping each run of equal column tops as a few pieces of slope +1 or
-1 over the rows.  The oracle then tallies consumed barrier samples, reading
their arrivals from those pieces instead of the full grid, so it reaches
17/9 at six cycles.
Deviations from the exact curve shrink linearly with the cell size.
"""

from firebreak import (
    build_seventeen_ninths,
    compare,
    consumption_curve,
    consumption_tolerance,
    geodesic_distance,
    grid_arrival,
    grid_consumption,
    valid_horizon,
)
from firebreak.oracle import arrival_at, build_scene

system = build_seventeen_ninths(head_start=1, cycles=2)
horizon = 40

print("point queries: exact geodesic vs grid")
scene = build_scene(system, 0.125, horizon)
arrivals = grid_arrival(scene)
for point in ((1, 17), (10, 0), (-5, 3), (20, 0), (-1, 34)):
    exact = float(geodesic_distance(system, point))
    observed = arrival_at(scene, arrivals, *point)
    print(f"  {str(point):>10}: exact {exact:7.3f}   grid {observed:7.3f}")

print("\nconsumption curve comparison at shrinking cell sizes")
exact_curves = consumption_curve(system, horizon, truncated=True)
print(f"{'cell':>8} {'max deviation':>14} {'tolerance':>10}  verdict")
previous = None
for cell in (0.25, 0.125, 0.0625):
    sampled = grid_consumption(system, cell, float(horizon))
    tolerance = consumption_tolerance(system, cell)
    result = compare(exact_curves.total, sampled, tolerance)
    note = ""
    if previous is not None:
        note = f"  ({result.max_deviation / previous:.2f}x the previous deviation)"
    print(f"{cell:>8} {result.max_deviation:>14.4f} {tolerance:>10.3f}  "
          f"{'PASS' if result.passed else 'FAIL'}{note}")
    previous = result.max_deviation

print("\n17/9 at five cycles over its valid horizon (5.4e9 grid nodes at cell 1)")
deep = build_seventeen_ninths(head_start=1, cycles=5)
deep_horizon = valid_horizon(deep)
deep_curves = consumption_curve(deep, deep_horizon, truncated=True)
for cell in (1.0, 0.5):
    result = compare(deep_curves.total, grid_consumption(deep, cell, float(deep_horizon)),
                     consumption_tolerance(deep, cell))
    print(f"{cell:>8} {result.max_deviation:>14.4f} {result.tolerance:>10.3f}  "
          f"{'PASS' if result.passed else 'FAIL'}")

print("\nthe sampled curve double-checks every face profile, the head-start")
print("exclusion, and the idle stretches where nothing burns")
