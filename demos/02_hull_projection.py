"""Projecting onto the convex hull of sample points.

The minimum-norm-point method of Wolfe finds the nearest point of
conv{x_1, ..., x_n} together with the convex weights that express it.
Everything downstream (neighborhood distances, fooling functions,
Monte Carlo volume estimates) reduces to this primitive.
"""

import math

import numpy as np

from curselab import PointSet, elekes_cover_check, project_batch, project_onto_hull
from curselab.hull import slide_toward

rng = np.random.default_rng(7)
points = rng.random((6, 3))
ps = PointSet(points)
print(f"{ps}")

query = np.array([1.5, 1.5, 1.5])
proj = project_onto_hull(query, ps)
print(f"\nquery {query} projects to {np.round(proj.nearest, 4)}")
print(f"distance {proj.distance:.6f}")
print(f"active support {proj.support.tolist()} with weights "
      f"{np.round(proj.weights, 4).tolist()} (sum {proj.weights.sum():.6f})")

# The projection is optimal: no convex combination comes closer.
for _ in range(3):
    w = rng.dirichlet(np.ones(ps.n))
    candidate = w @ ps.points
    print(f"random hull point at distance {np.linalg.norm(query - candidate):.6f}"
          f"  (optimal {proj.distance:.6f})")

# Neighborhoods rescale distances by sqrt(d).  A query outside the
# r-neighborhood slides from its hull projection toward itself until it
# is r away from the hull; a query inside is its own nearest point.
delta = 0.1
r = delta * math.sqrt(ps.d)
batch = project_batch(ps, query[None, :])
nearest, distance = batch.nearest[0], batch.distance[0]
print(f"\ndistance to the delta*sqrt(d) neighborhood (delta={delta}):",
      f"{max(0.0, distance - r):.6f}")
moved = query if distance <= r else slide_toward(nearest, distance, query, r)
print("nearest neighborhood point:", np.round(moved, 4))

# Elekes cover: the hull of points within r of z is covered by the n
# balls of radius r/2 centered at the midpoints (z + x_i)/2.
z = points.mean(axis=0)
r = float(np.linalg.norm(points - z, axis=1).max()) * 1.01
ok = elekes_cover_check(ps, z, r, m=10_000, seed=1)
print(f"\nmidpoint cover verified on 10^4 random hull points: {ok}")
