"""Worst-case integrands that vanish where an algorithm looks.

A quadrature rule that saw zeros at all its sample points cannot tell
the zero function from a function that is one on most of the domain.
These constructions realize that adversary: zero on a neighborhood of
the convex hull of the sample points, one a little further out, with
certified Lipschitz constants that scale as 1/sqrt(d) and 1/d.
"""

import math

import numpy as np

from curselab import (
    DomainSpec,
    PointSet,
    fooling_c0,
    fooling_c1,
    profile_eval,
)

d, n, delta = 6, 8, 0.05
dom = DomainSpec.cube(d)
rng = np.random.default_rng(11)
ps = PointSet(dom.sample(rng, n), domain=dom)

print("The scalar ramp behind the C^1 construction:")
t2 = delta * delta * d  # p reaches one here; linear up to t2 / 4
t1 = t2 / 4.0
for t in (0.0, t1 / 2, t1, (t1 + t2) / 2, t2, 1.5 * t2):
    v, dv = profile_eval(delta, d, t)
    print(f"  p({t:.6f}) = {v:.4f}   p'({t:.6f}) = {dv:.2f}")

f0 = fooling_c0(ps, lipschitz=1.0 / math.sqrt(d))
f1 = fooling_c1(ps, delta)
print(f"\ncertified constants at d={d}:")
print(f"  c0: Lip(f) <= {f0.certificate.value(0, d):.4f}")
print(f"  c1: Lip(f) <= {f1.certificate.value(0, d):.4f}, "
      f"Lip(grad f) <= {f1.certificate.value(1, d):.2f}")

print("\nvalues along a ray leaving the hull:")
center = ps.points.mean(axis=0)
direction = np.ones(d) / math.sqrt(d)
r = delta * math.sqrt(d)
for step in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0):
    x = center + direction * step * r
    v0 = f0(x[None, :])[0]
    v1, g1 = f1.gradient(x)
    print(f"  {step:.1f} r: c0 = {v0:.4f}   c1 = {v1:.4f}   |grad c1| = "
          f"{np.linalg.norm(g1):.2f}")

print("\nthe c1 function is identically 0 on K_delta and 1 outside K_{2 delta},")
print("so sampling it on the hull tells an integration rule nothing.")

hull_values = f1(ps.points)
print(f"values at the sample points themselves: {hull_values.tolist()}")
