"""Worst-case integrands vanishing on hull neighborhoods.

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
shifts; every construction carries a declared smoothness certificate.
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
from .rng import mc_mean

__all__ = [
    "ProfileP",
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
    "certificate",
]


# ---------------------------------------------------------------------------
# The scalar ramp profile


@dataclass(frozen=True)
class ProfileP:
    """C^1 ramp p with p(0)=0 and p=1 beyond delta^2 d.

    Piecewise: linear up to delta^2 d / 4, then a square-root blend to
    one at delta^2 d.  The two pieces match in value and derivative at
    the breakpoints, so p is continuously differentiable; the second
    derivative jumps there.  sup 2 sqrt(t) p'(t) = 2/(delta sqrt(d))
    and Lip(p') <= 8/(delta^4 d^2).
    """

    delta: float
    d: int

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("delta must be positive")
        if self.d < 1:
            raise ValueError("d must be a positive integer")

    @property
    def breakpoints(self) -> tuple[float, float]:
        t2 = self.delta * self.delta * self.d
        return (t2 / 4.0, t2)

    def __call__(self, t):
        return profile_eval(self, t)


def profile_eval(pp: ProfileP, t):
    """Value and derivative of the ramp; accepts scalars or arrays."""
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0):
        raise ValueError("t must be non-negative")
    t1, t2 = pp.breakpoints
    slope = 2.0 / t2
    value = np.empty_like(t_arr)
    deriv = np.empty_like(t_arr)

    low = t_arr <= t1
    high = t_arr >= t2
    mid = ~(low | high)
    value[low] = slope * t_arr[low]
    deriv[low] = slope
    value[high] = 1.0
    deriv[high] = 0.0
    if np.any(mid):
        tm = t_arr[mid]
        root = np.sqrt(tm)
        value[mid] = -slope * tm + 4.0 * root / (pp.delta * math.sqrt(pp.d)) - 1.0
        deriv[mid] = -slope + 2.0 / (pp.delta * math.sqrt(pp.d) * root)
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

    def alpha(self, j: int) -> float:
        if j < 1:
            raise ValueError("indices start at 1")
        if self.kind == "uniform":
            if j > self.k:
                raise ValueError(f"uniform sequence has only {self.k} terms")
            return 1.0 / self.k
        return self.c_eta * j ** (-1.0 - self.eta)

    def values(self, k: int) -> np.ndarray:
        return np.array([self.alpha(j) for j in range(1, k + 1)])

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
# Declared smoothness certificates


def certificate(
    variant: str,
    delta: float,
    d: int,
    k: int | None = None,
    eta: float | None = None,
    lipschitz: float | None = None,
) -> SmoothnessProfile:
    """Declared Lipschitz bounds for a fooling-function variant.

    ``c0``: the single constant supplied by the caller.  ``c1``:
    L0 = 2/(delta sqrt(d)), L1 = 40/(delta^2 d).  ``smoothed`` of class
    order k (built from k-1 kernels of weight 1/(k-1)):
    L_j = 40/(delta^2 d) ((k-1)/delta)^{j-1}.  ``cinf``:
    L_j = 40/d * delta^{-1-j} c_eta^{1-j} ((j-1)!)^{1+eta}.
    """
    if variant == "c0":
        if lipschitz is None or lipschitz <= 0.0:
            raise ValueError("c0 certificates need a positive Lipschitz constant")
        return SmoothnessProfile.finite([(lipschitz * math.sqrt(d), -0.5)])
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    l0 = (2.0 / delta, -0.5)
    if variant == "c1":
        return SmoothnessProfile.finite([l0, (40.0 / (delta * delta), -1.0)])
    if variant == "smoothed":
        if k is None or k < 1:
            raise ValueError("smoothed certificates need the class order k >= 1")
        levels = [l0]
        base = 40.0 / (delta * delta)
        for j in range(1, k + 1):
            factor = ((k - 1) / delta) ** (j - 1) if j > 1 else 1.0
            levels.append((base * factor, -1.0))
        return SmoothnessProfile.finite(levels)
    if variant == "cinf":
        if eta is None or eta <= 0.0:
            raise ValueError("cinf certificates need eta > 0")
        c_eta = 1.0 / float(zeta(1.0 + eta))
        tail = TailRule(
            log_constant=math.log(40.0 * c_eta / delta),
            log_base=math.log(1.0 / (delta * c_eta)),
            factorial_power=1.0 + eta,
            factorial_shift=1,
            d_exponent_base=1.0,
            d_exponent_slope=0.0,
        )
        return SmoothnessProfile.infinite(l0, tail)
    raise ValueError(f"unknown variant {variant!r}")


# ---------------------------------------------------------------------------
# Fooling functions


@dataclass(frozen=True)
class FoolingFunction:
    """Evaluable worst-case integrand with a declared smoothness certificate."""

    variant: str  # "c0" | "c1" | "smoothed" | "cinf_truncated"
    hull: PointSet
    certificate: SmoothnessProfile
    delta: float | None = None
    lipschitz: float | None = None
    seq: AlphaSequence | None = None
    kernels: int = 0

    def __call__(self, points: np.ndarray) -> np.ndarray:
        """Pointwise values; for smoothed variants this is the c1 base."""
        return fooling_eval_batch(
            self.hull, points, delta=self.delta, lipschitz=self.lipschitz,
            gradients=False,
        ).values

    def gradient(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self.variant == "c0":
            raise ValueError("the c0 variant has no gradient")
        return fooling_c1_eval(self.hull, self.delta, x)

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
        """Uniform gap between the truncated and the full convolution."""
        if self.variant != "cinf_truncated":
            return 0.0
        lip = 2.0 / (self.delta * math.sqrt(self.hull.d))
        return lip * self.delta * math.sqrt(self.hull.d) * self.seq.tail_sum(self.kernels)

    def certificate_json(self) -> dict:
        payload = self.certificate.to_json_dict(self.hull.d)
        payload["variant"] = self.variant
        payload["delta"] = self.delta
        return payload


def fooling_c0(hull: PointSet, lipschitz: float) -> FoolingFunction:
    if lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    cert = certificate("c0", 0.0, hull.d, lipschitz=lipschitz)
    return FoolingFunction(variant="c0", hull=hull, certificate=cert, lipschitz=lipschitz)


def fooling_c1(hull: PointSet, delta: float) -> FoolingFunction:
    cert = certificate("c1", delta, hull.d)
    return FoolingFunction(variant="c1", hull=hull, certificate=cert, delta=delta)


def fooling_smoothed(hull: PointSet, delta: float, k: int) -> FoolingFunction:
    """Class-order-k construction: the c1 base plus k-1 uniform kernels."""
    if k < 1:
        raise ValueError("class order k must be at least 1")
    kernels = k - 1
    seq = make_alpha_sequence("uniform", k=kernels) if kernels else None
    cert = certificate("smoothed", delta, hull.d, k=k)
    return FoolingFunction(
        variant="smoothed",
        hull=hull,
        certificate=cert,
        delta=delta,
        seq=seq,
        kernels=kernels,
    )


def fooling_cinf(
    hull: PointSet, delta: float, eta: float = 1.0, k: int = 16
) -> FoolingFunction:
    """Truncated infinite convolution with power weights (defaults k=16, eta=1)."""
    seq = make_alpha_sequence("power", eta=eta)
    cert = certificate("cinf", delta, hull.d, eta=eta)
    return FoolingFunction(
        variant="cinf_truncated",
        hull=hull,
        certificate=cert,
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
    hull: PointSet,
    points: np.ndarray,
    *,
    delta: float | None = None,
    lipschitz: float | None = None,
    gradients: bool = True,
) -> FoolingValues:
    """The c0 (``lipschitz`` given) or c1 (``delta`` given) construction at each row.

    c0: min{1, L * dist(x, hull)}, from one batched hull projection of
    every row.  c1: with phi(x) = dist(x, K_delta)^2 the value is
    p(phi(x)) and the gradient is p'(phi(x)) * 2 (x - P_{K_delta}(x)),
    computed unless ``gradients`` is false.  One call of the hull's
    distance verdict (:func:`curselab.hull.bracket`) at ``r`` and
    ``2r`` settles the rows within K_delta or beyond K_{2 delta}, which
    take 0 or 1 with a zero gradient, exactly what the projection would
    give them, and projects the rows in between, in one batch.
    """
    if (delta is None) == (lipschitz is None):
        raise ValueError("give exactly one of delta (c1) and lipschitz (c0)")
    if lipschitz is not None and lipschitz <= 0.0:
        raise ValueError("lipschitz must be positive")
    if delta is not None and delta <= 0.0:
        raise ValueError("delta must be positive")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if lipschitz is not None:
        proj = project_batch(hull, points)
        values = np.minimum(1.0, lipschitz * proj.distance)
        return FoolingValues(values, None, proj, np.arange(points.shape[0]))
    r = delta * math.sqrt(hull.d)
    _, one, rows, proj = bracket(hull, points, r, 2.0 * r)
    values = np.zeros(points.shape[0])
    values[one] = 1.0
    ramp = np.flatnonzero(proj.distance - r > 0.0)
    gap = proj.distance[ramp] - r
    value, deriv = profile_eval(ProfileP(delta, hull.d), gap * gap)
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
    x = np.asarray(x, dtype=float).ravel()
    out = fooling_eval_batch(hull, x, delta=delta)
    return float(out.values[0]), out.gradients[0]


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
    :func:`curselab.rng.mc_mean`, so ``base`` sees at most one chunk of
    rows at a time.  Returns the mean and the 95% normal half-width.
    ``kernels = 0`` evaluates the base itself exactly.
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

    def draw(rng, size):
        # Stream layout: for each kernel, a block of directions, then one of radii.
        shift = np.zeros((size, d))
        for a in alphas:
            direction = rng.standard_normal((size, d))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            radius = a * delta * math.sqrt(d) * rng.random((size, 1)) ** (1.0 / d)
            shift += direction * radius
        return np.ravel(base(x[None, :] - shift))

    est = mc_mean(draw, seed, n_samples)
    return est.mean, est.half_width_95
