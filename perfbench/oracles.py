"""Independent reference values the benchmark checks curselab's outputs against.

Nothing in this module imports curselab.  Each oracle recomputes its
quantity from the definition with numpy, ``scipy.optimize.nnls`` or
``math``, so a fault in the library cannot hide in its own reference.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import nnls

#: Weight of the sum-to-one row appended to the nnls system.
_SUM_WEIGHT = 1e4


def hull_distance_bracket(points: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """Lower and upper bounds on the distance from ``x`` to conv(points).

    Solves ``min ||Q w||`` over ``w >= 0`` with ``sum(w) = 1`` (``Q`` the
    points shifted by ``x``) as a non-negative least-squares problem with
    a heavily weighted sum row, then renormalises the weights so that
    ``z = Q w`` is a point of the shifted hull.  ``||z||`` is an upper
    bound on the distance; the support function in the direction of
    ``z``, ``min_i <z, q_i> / ||z||``, is a lower bound.
    """
    q = (np.asarray(points, dtype=float) - np.asarray(x, dtype=float)).T
    n = q.shape[1]
    a = np.vstack([q, np.full((1, n), _SUM_WEIGHT)])
    b = np.zeros(q.shape[0] + 1)
    b[-1] = _SUM_WEIGHT
    w, _ = nnls(a, b, maxiter=50 * n)
    w /= w.sum()
    z = q @ w
    upper = float(np.linalg.norm(z))
    if upper == 0.0:
        return 0.0, 0.0
    lower = max(0.0, float(np.min(z @ q)) / upper)
    return lower, upper


def within_verdict(points: np.ndarray, x: np.ndarray, r: float, tol: float = 1e-7):
    """True/False if dist(x, conv(points)) <= r is certain, None if within ``tol`` of r."""
    lower, upper = hull_distance_bracket(points, x)
    slack = tol * (1.0 + r)
    if upper <= r - slack:
        return True
    if lower > r + slack:
        return False
    return None


def c1_ramp(dist: float, delta: float, d: int) -> float:
    """Value of the C^1 fooling function at hull distance ``dist``.

    Zero within ``r = delta sqrt(d)`` of the hull; otherwise
    ``p(t)`` with ``t = (dist - r)^2``, where ``p`` rises linearly
    (slope ``2 / (delta^2 d)``) up to ``delta^2 d / 4``, then blends as
    ``-2t/(delta^2 d) + 4 sqrt(t)/(delta sqrt(d)) - 1`` to one at
    ``delta^2 d``.
    """
    r = delta * math.sqrt(d)
    if dist <= r:
        return 0.0
    t = (dist - r) ** 2
    t2 = delta * delta * d
    if t <= t2 / 4.0:
        return 2.0 * t / t2
    if t >= t2:
        return 1.0
    return -2.0 * t / t2 + 4.0 * math.sqrt(t) / (delta * math.sqrt(d)) - 1.0


def sine_integral(a: np.ndarray, b: float, amplitude: float) -> float:
    """Integral of ``amplitude * sin(<a, x> + b)`` over the unit cube.

    Each coordinate contributes ``int_0^1 e^{i a_k x} dx
    = sin(a_k)/a_k + i (1 - cos(a_k))/a_k``; the integral is the
    imaginary part of ``e^{ib}`` times their product.
    """
    a = np.asarray(a, dtype=float)
    factors = np.where(
        a == 0.0,
        1.0 + 0.0j,
        (np.sin(a) + 1j * (1.0 - np.cos(a))) / np.where(a == 0.0, 1.0, a),
    )
    return amplitude * float((np.exp(1j * b) * np.prod(factors)).imag)


def ball_volume(d: int, radius: float) -> float:
    """Volume of the Euclidean d-ball of the given radius, via lgamma."""
    log_v = 0.5 * d * math.log(math.pi) + d * math.log(radius) - math.lgamma(0.5 * d + 1.0)
    return math.exp(log_v)


def taylor_terms(d: int, j: int) -> int:
    """Number of multi-indices with even entries and order at most j: C(d + j//2, d)."""
    return math.comb(d + j // 2, d)


def stencil_nodes(d: int, j: int) -> int:
    """Distinct points the finite-difference Taylor rule evaluates.

    The order-s central stencils, all with step h_s, jointly cover the
    integer offset vectors v with ``2 * sum|v_i| <= s``: the lattice
    points of an l1 ball of radius ``m = s/2``, of which there are
    ``sum_k 2^k C(d, k) C(m, k)``.  Steps differ between orders, so only
    the centre is shared; it is counted once.
    """
    total = 1
    for m in range(1, j // 2 + 1):
        ball = sum(2**k * math.comb(d, k) * math.comb(m, k) for k in range(min(d, m) + 1))
        total += ball - 1
    return total
