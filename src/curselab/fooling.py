"""Worst-case integrands vanishing on hull neighborhoods.

Each construction is one :class:`FoolingFunction`, built by its
constructor together with its declared smoothness certificate; every
value and gradient comes from :func:`fooling_eval_batch` on that object.
Four constructions, in increasing smoothness:

* ``c0``: ``min{1, L * dist(x, K)}``, Lipschitz with constant L.
* ``c1``: a C^1 ramp of the squared distance to the ``delta*sqrt(d)``
  neighborhood ``K_delta``; zero on ``K_delta``, one outside
  ``K_{2 delta}``, with ``Lip(f) <= 2/(delta sqrt(d))`` and
  ``Lip(grad f) <= 40/(delta^2 d)``.
* ``smoothed``: the c1 function convolved with ``k`` normalized ball
  indicators of radii ``alpha_j * delta * sqrt(d)``; gains one degree
  of smoothness per kernel while keeping the Lipschitz constant, and
  stays zero on K and one outside ``K_{3 delta}``.
* ``cinf_truncated``: the infinite convolution with the power weights
  ``alpha_j = j^{-1-eta} / zeta(1+eta)``, truncated at ``k`` kernels;
  the truncation error is at most ``Lip(f) * delta * sqrt(d)`` times
  the weight tail.

Convolutions are realized as Monte Carlo expectations over the kernel
shifts (:func:`smoothed_eval`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import zeta

from .bounds import SmoothnessProfile, TailRule
from .hull import (
    BatchProjection,
    PointSet,
    bracket,
    project_batch,
    slide_toward,
)
from .rng import _BLOCK_ENTRIES, mc_mean

__all__ = [
    "profile_eval",
    "AlphaSequence",
    "make_alpha_sequence",
    "FoolingFunction",
    "fooling_c0",
    "fooling_c1",
    "fooling_smoothed",
    "fooling_cinf",
    "FoolingValues",
    "fooling_eval_batch",
    "fooling_c1_eval",
    "smoothed_eval",
]


# ---------------------------------------------------------------------------
# The scalar ramp profile


def profile_eval(delta: float, d: int, t):
    """Value and derivative of the C^1 ramp p; accepts scalars or arrays.

    p(0) = 0 and p = 1 beyond delta^2 d.  Piecewise: linear up to
    delta^2 d / 4, then a square-root blend to one at delta^2 d.  The two
    pieces match in value and derivative at the breakpoints, so p is
    continuously differentiable; the second derivative jumps there.
    sup 2 sqrt(t) p'(t) = 2/(delta sqrt(d)) and Lip(p') <= 8/(delta^4 d^2).
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if d < 1:
        raise ValueError("d must be a positive integer")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be non-negative")
    t2 = delta * delta * d
    slope = 2.0 / t2
    value = np.empty_like(t_arr)
    deriv = np.empty_like(t_arr)

    low = t_arr <= t2 / 4.0
    high = t_arr >= t2
    mid = ~(low | high)
    value[low] = slope * t_arr[low]
    deriv[low] = slope
    value[high] = 1.0
    deriv[high] = 0.0
    if np.any(mid):
        tm = t_arr[mid]
        root = np.sqrt(tm)
        value[mid] = -slope * tm + 4.0 * root / (delta * math.sqrt(d)) - 1.0
        deriv[mid] = -slope + 2.0 / (delta * math.sqrt(d) * root)
    if np.isscalar(t) or t_arr.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


# ---------------------------------------------------------------------------
# Kernel weight sequences


@dataclass(frozen=True)
class AlphaSequence:
    """Positive kernel weights with partial sums at most one.

    ``uniform``: alpha_j = 1/k for j = 1..k.  ``power``: the infinite
    sequence alpha_j = j^{-1-eta} / zeta(1+eta), which sums to one.
    """

    kind: str  # "uniform" | "power"
    k: int | None = None
    eta: float | None = None
    c_eta: float | None = None

    def values(self, k: int) -> np.ndarray:
        """The first k weights."""
        if self.kind == "uniform":
            if k > self.k:
                raise ValueError(f"uniform sequence has only {self.k} terms")
            return np.full(k, 1.0 / self.k)
        return np.array([self.c_eta * j ** (-1.0 - self.eta) for j in range(1, k + 1)])

    def tail_sum(self, k: int) -> float:
        """Sum of the weights beyond index k (zero for uniform sequences)."""
        if self.kind == "uniform":
            return 0.0
        return float(self.c_eta * (zeta(1.0 + self.eta) - sum(
            j ** (-1.0 - self.eta) for j in range(1, k + 1)
        )))


def make_alpha_sequence(kind: str, k: int | None = None, eta: float | None = None) -> AlphaSequence:
    if kind == "uniform":
        if k is None or k < 1:
            raise ValueError("uniform sequences need k >= 1")
        return AlphaSequence(kind="uniform", k=int(k))
    if kind == "power":
        if eta is None or eta <= 0.0:
            raise ValueError("power sequences need eta > 0")
        return AlphaSequence(kind="power", eta=float(eta), c_eta=1.0 / float(zeta(1.0 + eta)))
    raise ValueError(f"unknown sequence kind {kind!r}")


# ---------------------------------------------------------------------------
# Fooling functions


@dataclass(frozen=True)
class FoolingFunction:
    """One worst-case integrand: its construction, parameters and certificate.

    The object is the only encoding of a construction.  ``variant`` is
    ``c0`` (with ``lipschitz``), or ``c1``, ``smoothed`` or
    ``cinf_truncated`` (with ``delta``; the last two add ``kernels``
    convolutions with weights ``seq``).  The constructors below validate
    the parameters and build the declared ``certificate``; every value
    and gradient comes from :func:`fooling_eval_batch` on this object.
    """

    variant: str  # "c0" | "c1" | "smoothed" | "cinf_truncated"
    hull: PointSet
    certificate: SmoothnessProfile
    delta: float | None = None
    lipschitz: float | None = None
    seq: AlphaSequence | None = None
    kernels: int = 0

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Pointwise values; for smoothed variants this is the c1 base."""
        return fooling_eval_batch(self, points, gradients=False).values

    def gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and gradient of the c1 base at x (a batch of one)."""
        if self.variant == "c0":
            raise ValueError("the c0 variant has no gradient")
        out = fooling_eval_batch(self, np.asarray(x, dtype=float).ravel())
        return float(out.values[0]), out.gradients[0]

    def smoothed_estimate(
        self, x: np.ndarray, n_samples: int, seed: int
    ) -> tuple[float, float]:
        """Monte Carlo value of the convolved function at x."""
        if self.variant not in ("smoothed", "cinf_truncated"):
            raise ValueError("smoothed estimates need a smoothed variant")
        return smoothed_eval(
            self, self.seq, self.kernels, self.delta, x, n_samples, seed
        )

    def truncation_bound(self) -> float:
        """Uniform gap to the full convolution: Lip(f) delta sqrt(d) = 2 times the weight tail."""
        if self.variant != "cinf_truncated":
            return 0.0
        return 2.0 * self.seq.tail_sum(self.kernels)

    def to_json_dict(self) -> dict:
        """The certificate's JSON form, tagged with the variant and delta."""
        payload = self.certificate.to_json_dict(self.hull.d)
        payload["variant"] = self.variant
        payload["delta"] = self.delta
        return payload


def fooling_c0(hull: PointSet, lipschitz: float) -> FoolingFunction:
    """min{1, L dist(x, hull)}; its one certified level is L sqrt(d) d^{-1/2}."""
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    cert = SmoothnessProfile.finite([(lipschitz * math.sqrt(hull.d), -0.5)])
    return FoolingFunction(variant="c0", hull=hull, certificate=cert, lipschitz=lipschitz)


def _ramp_levels(delta: float, k: int) -> list[tuple[float, float]]:
    """Certified levels 0..k of the c1 ramp smoothed by k-1 uniform kernels.

    L_0 = 2/(delta sqrt(d)) and L_j = 40/(delta^2 d) ((k-1)/delta)^{j-1}
    for j = 1..k, as (constant, d exponent) pairs; k = 1 is the c1
    certificate, and k = 0 leaves L_0 alone.  A delta so small that a
    constant leaves the float range raises :class:`FloatingPointError`.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    overflow = f"delta = {delta:g} puts a certified constant beyond the float range"
    try:
        base = 40.0 / (delta * delta)
        levels = [(2.0 / delta, -0.5)] + [
            (base * ((k - 1) / delta) ** (j - 1), -1.0) for j in range(1, k + 1)
        ]
    except (ZeroDivisionError, OverflowError):
        raise FloatingPointError(overflow) from None
    if not all(math.isfinite(c) for c, _ in levels):
        raise FloatingPointError(overflow)
    return levels


def fooling_c1(hull: PointSet, delta: float) -> FoolingFunction:
    cert = SmoothnessProfile.finite(_ramp_levels(delta, 1))
    return FoolingFunction(variant="c1", hull=hull, certificate=cert, delta=delta)


def fooling_smoothed(hull: PointSet, delta: float, k: int) -> FoolingFunction:
    """Class-order-k construction: the c1 base plus k-1 uniform kernels."""
    if k < 1:
        raise ValueError("class order k must be at least 1")
    kernels = k - 1
    seq = make_alpha_sequence("uniform", k=kernels) if kernels else None
    return FoolingFunction(
        variant="smoothed",
        hull=hull,
        certificate=SmoothnessProfile.finite(_ramp_levels(delta, k)),
        delta=delta,
        seq=seq,
        kernels=kernels,
    )


def fooling_cinf(
    hull: PointSet, delta: float, eta: float = 1.0, k: int = 16
) -> FoolingFunction:
    """Truncated infinite convolution with power weights (defaults k=16, eta=1).

    Certified levels: L_0 as for c1, and for j >= 1
    L_j = 40/d * delta^{-1-j} c_eta^{1-j} ((j-1)!)^{1+eta}.
    """
    seq = make_alpha_sequence("power", eta=eta)
    (level0,) = _ramp_levels(delta, 0)
    tail = TailRule(
        log_constant=math.log(40.0 * seq.c_eta / delta),
        log_base=math.log(1.0 / (delta * seq.c_eta)),
        factorial_power=1.0 + eta,
        factorial_shift=1,
        d_exponent_base=1.0,
    )
    return FoolingFunction(
        variant="cinf_truncated",
        hull=hull,
        certificate=SmoothnessProfile.infinite(level0, tail),
        delta=delta,
        seq=seq,
        kernels=k,
    )


class FoolingValues(NamedTuple):
    """Values at a batch of points, c1 gradients, and the hull projection.

    ``projection`` holds the exact solver's results for the rows listed
    in ``projected`` (ascending), one projection row per listed row; its
    size is how many rows the evaluation sent to :func:`project_batch`.
    """

    values: np.ndarray  # (m,)
    gradients: np.ndarray | None  # (m, d); None for c0 or when not asked for
    projection: BatchProjection
    projected: np.ndarray  # (p,) row indices; every row for c0


def fooling_eval_batch(
    f: FoolingFunction, points: np.ndarray, gradients: bool = True
) -> FoolingValues:
    """Values (and c1 gradients) of the fooling function ``f`` at each row.

    The c0 variant is min{1, L * dist(x, hull)}, from one batched hull
    projection of every row.  Every other variant evaluates its c1 base:
    with phi(x) = dist(x, K_delta)^2 the value is p(phi(x)) and the
    gradient is p'(phi(x)) * 2 (x - P_{K_delta}(x)), computed unless
    ``gradients`` is false.  One call of the hull's distance verdict
    (:func:`curselab.hull.bracket`) at ``r`` and ``2r`` settles the rows
    within K_delta or beyond K_{2 delta}, which take 0 or 1 with a zero
    gradient, exactly what the projection would give them, and projects
    the rows in between, in one batch.
    """
    hull = f.hull
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if f.variant == "c0":
        proj = project_batch(hull, points)
        values = np.minimum(1.0, f.lipschitz * proj.distance)
        return FoolingValues(values, None, proj, np.arange(points.shape[0]))
    r = f.delta * math.sqrt(hull.d)
    _, one, rows, proj = bracket(hull, points, r, 2.0 * r)
    values = np.zeros(points.shape[0])
    values[one] = 1.0
    ramp = np.flatnonzero(proj.distance - r > 0.0)
    gap = proj.distance[ramp] - r
    value, deriv = profile_eval(f.delta, hull.d, gap * gap)
    values[rows[ramp]] = value
    if not gradients:
        return FoolingValues(values, None, proj, rows)
    grads = np.zeros(points.shape)
    moving = deriv != 0.0
    at = ramp[moving]  # projection rows with a nonzero gradient
    x = points[rows[at]]
    # Nearest point of K_delta: slide from the hull projection toward x.
    nearest_nb = slide_toward(proj.nearest[at], proj.distance[at], x, r)
    grads[rows[at]] = 2.0 * deriv[moving, None] * (x - nearest_nb)
    return FoolingValues(values, grads, proj, rows)


def fooling_c1_eval(
    hull: PointSet, delta: float, x: np.ndarray
) -> tuple[float, np.ndarray]:
    """Value and gradient of the C^1 construction at x (a batch of one)."""
    return fooling_c1(hull, delta).gradient(x)


def smoothed_eval(
    base,
    seq: AlphaSequence | None,
    kernels: int,
    delta: float,
    x: np.ndarray,
    n_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of the k-fold ball convolution at x.

    Averages ``base(x - U_1 - ... - U_k)`` over uniform draws U_j from
    the centered balls of radius ``alpha_j * delta * sqrt(d)``; ``base``
    is any batch-callable, so constant and affine test hooks can stand
    in for the fooling function.  The draws go through
    :func:`curselab.rng.mc_mean`, so the chunks run on every available
    core with the same result as on one.  Each chunk is drawn in row
    blocks of at most ``2**17 // d`` rows (1 MiB per array), and
    ``base`` sees one block at a time, possibly from several threads at
    once; within a block the stream holds, for each kernel, the
    directions and then the radii.  Returns the mean and the 95% normal
    half-width.  ``kernels = 0`` evaluates the base itself exactly.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    x = np.asarray(x, dtype=float).ravel()
    d = x.shape[0]
    if kernels == 0:
        value = float(np.asarray(base(x[None, :])).ravel()[0])
        return value, 0.0
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    if seq is None:
        raise ValueError("a weight sequence is required when kernels >= 1")
    alphas = seq.values(kernels)
    if alphas.sum() > 1.0 + 1e-12:
        raise ValueError("kernel weights must sum to at most one")
    radii = alphas * delta * math.sqrt(d)
    block = max(1, _BLOCK_ENTRIES // d)

    def draw(rng, size):
        values = np.empty(size)
        for start in range(0, size, block):
            rows = min(block, size - start)
            shift = np.zeros((rows, d))
            for r in radii:
                direction = rng.standard_normal((rows, d))
                direction /= np.linalg.norm(direction, axis=1, keepdims=True)
                direction *= r * rng.random((rows, 1)) ** (1.0 / d)
                shift += direction
            values[start:start + rows] = np.ravel(base(x[None, :] - shift))
        return values

    est = mc_mean(draw, seed, n_samples)
    return est.mean, est.half_width_95
