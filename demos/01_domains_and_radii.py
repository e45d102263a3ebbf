"""Volume-one domains and their radii.

Every integration domain in this library has Lebesgue volume one: the
unit cube, or an lp ball rescaled until its volume is one.  What
distinguishes them is how fast their Euclidean radius grows with the
dimension.  Domains whose radius stays below sqrt(2/(pi e)) * sqrt(d)
have "small radius": neighborhoods of point hulls inside them occupy
exponentially little room, which is the engine behind every lower
bound in this package.
"""

import math

from curselab import (
    DomainSpec,
    SMALL_RADIUS_THRESHOLD,
    lp_normalized_radius,
    lp_unit_ball_volume,
    radius_limit_ratio,
    solve_p_star,
)

print("Unit-ball volumes (before normalization):")
for p in (1, 2, 4, math.inf):
    print(f"  p={p!s:>4}: V(d=2)={lp_unit_ball_volume(p, 2):.6f}  "
          f"V(d=10)={lp_unit_ball_volume(p, 10):.6e}")

print("\nEuclidean radius of the volume-one lp ball, divided by sqrt(d):")
print(f"{'p':>8} {'d=10':>10} {'d=100':>10} {'d=10000':>10} {'limit':>10}")
for p in (1.5, 2, 5, 50, 200, math.inf):
    ratios = [lp_normalized_radius(p, d) / math.sqrt(d) for d in (10, 100, 10_000)]
    limit = radius_limit_ratio(p)
    print(f"{p!s:>8} " + " ".join(f"{r:10.4f}" for r in ratios) + f" {limit:10.4f}")

print(f"\nSmall-radius threshold sqrt(2/(pi e)) = {SMALL_RADIUS_THRESHOLD:.6f}")
print("Balls with p < 2 blow up; p = 2 sits comfortably below the threshold.")

p_star = solve_p_star()
print(f"\nThe radius limit crosses the threshold at p* = {p_star:.4f}:")
for p in (100, p_star - 1, p_star + 1, 1000):
    side = "small" if radius_limit_ratio(p) < SMALL_RADIUS_THRESHOLD else "large"
    print(f"  p={p:9.4f}: limit ratio {radius_limit_ratio(p):.6f}  ({side} radius)")

print("\nSampling respects the geometry exactly; every draw lies inside:")
import numpy as np

dom = DomainSpec.lp_ball(3, 8)
pts = dom.sample(np.random.default_rng(0), 5)
print(f"  lp(3) ball in d=8, radius {dom.radius:.4f}; sample norms:",
      np.round(np.linalg.norm(pts, axis=1), 4))
