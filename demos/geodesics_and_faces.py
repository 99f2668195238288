"""How the fire actually reaches a barrier: geodesics and face profiles.

Distances in this scene class reduce to horizontal length plus height plus
twice the descent forced by the clearance: the tallest barrier in between.
The arrival profile along a vertical barrier is V-shaped: the front hits
the face at the clearance height and spreads both ways at unit speed.
"""

from firebreak import (
    BarrierSystem,
    consumption_curve,
    face_arrival_profiles,
    geodesic_distance,
    side_intervals,
)

system = BarrierSystem(mode="rational", head_start=1,
                       right=((1, 17), (34, 136)), left=((1, 34),))

print("point distances:")
for point in ((1, 17), (0, 5), (10, 0), (35, 136), (-3, 0)):
    print(f"  {str(point):>10} -> {geodesic_distance(system, point)}")
print("  (behind a barrier of height 17 the ground is 10 + 0 + 2 * 17 = 44 away:")
print("   the path climbs over the clearance and comes down again)")

print("\nface arrival profiles on the right, truncated at t = 200:")
for prof in face_arrival_profiles(system, "right", 200):
    chain = "  ".join(f"({float(p):g}, {float(t):g})" for p, t in prof.points)
    print(f"  {prof.kind:>14} #{prof.index}: {chain}")

print("\nthe second barrier's near face is hit at height 17 (the clearance")
print("of the first barrier) at t = 52, and burns both ways from there:")
for y in (0, 10, 17, 30, 100):
    print(f"  height {y:>3}: consumed at t = {geodesic_distance(system, (35, y))}")

print("\nthose profiles are exactly what the simulator integrates:")
curves = consumption_curve(system, 200, truncated=True)
for iv in side_intervals(curves, "right"):
    print(f"  [{str(iv.t_start):>3}, {str(iv.t_end):>3}]  k = {iv.k}")
