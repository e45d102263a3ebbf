"""Hull-neighborhood volume: analytic bounds and Monte Carlo estimates.

Two closed-form bounds are provided for the volume of the
``delta*sqrt(d)``-neighborhood of the convex hull of ``n`` points:

* the small-radius bound ``n ((R_d + 2 delta) sqrt(pi e / 2))^d`` valid
  for any volume-one domain with radius ratio ``R_d``, and
* the cube bound ``n (d+1) gamma~(delta)^d`` valid for ``delta < 1/12``,
  where ``gamma~(delta)`` comes from a one-dimensional minimization of a
  Chernoff-type integral.

Monte Carlo estimators check these bounds empirically.  They count hits
through :func:`curselab.rng.mc_mean`, so results are bit-identical for
any worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy.special import dawsn, erf, log_ndtr

from .bounds import exp_or_inf
from .geometry import SQRT_HALF_PI_E, DomainSpec
from .hull import PointSet, within_distance
from .rng import Z95, mc_mean

__all__ = [
    "GammaConstant",
    "VolumeEstimate",
    "profile_integral",
    "gamma_constant",
    "gamma_tilde_cube",
    "small_radius_hull_bound",
    "cube_hull_bound",
    "mc_hull_neighborhood_volume",
    "binomial_half_width",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _log_erfc(t: float) -> float:
    """ln erfc(t), stable for large positive t."""
    return math.log(2.0) + float(log_ndtr(-t * math.sqrt(2.0)))


def profile_integral(alpha: float, delta: float, eta: float) -> float:
    """The Chernoff integral I(alpha) behind the cube slice bound.

    I(alpha) = int_0^1 exp{alpha (delta^2 - (1/2+eta)^2 + 2x(1/2+eta) - x^2)} dx.

    Evaluated in log domain through the error function after completing
    the square; the result is ``inf`` once its log exceeds the float
    range.  Negative ``alpha`` is supported (via Dawson's integral, the
    scaled erfi) so derivatives at zero can be taken centrally.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if eta < 0.0:
        raise ValueError("eta must be non-negative")
    alpha = float(alpha)
    if alpha == 0.0:
        return 1.0
    c = 0.5 + eta
    if alpha > 0.0:
        sa = math.sqrt(alpha)
        if c <= 1.0:
            s = float(erf((1.0 - c) * sa) + erf(c * sa))
            log_s = math.log(s)
        else:
            # Both erf arguments saturate at 1: difference of erfc terms.
            la = _log_erfc((c - 1.0) * sa)
            lb = _log_erfc(c * sa)
            log_s = la + math.log1p(-math.exp(lb - la))
        log_i = (
            alpha * delta * delta
            + 0.5 * math.log(math.pi)
            - math.log(2.0)
            - 0.5 * math.log(alpha)
            + log_s
        )
    else:
        # erfi(t) = 2/sqrt(pi) exp(t^2) D(t) with Dawson's integral D;
        # factoring out exp(b^2), the larger of the two, keeps both in range.
        beta = -alpha
        a, b = (1.0 - c) * math.sqrt(beta), c * math.sqrt(beta)
        log_i = (
            beta * (c * c - delta * delta)
            - 0.5 * math.log(beta)
            + math.log(float(dawsn(b) + math.exp(a * a - b * b) * dawsn(a)))
        )
    return exp_or_inf(log_i)


@dataclass(frozen=True)
class GammaConstant:
    """Infimum over alpha of the Chernoff integral, with its minimizer.

    ``value`` lies in [0, 1]; it dips below one exactly when the slope of
    I at alpha = 0, which equals delta^2 - eta^2 - 1/12, is negative.
    ``alpha_star`` is ``inf`` when no finite alpha attains the infimum:
    for ``delta <= eta - 1/2`` I decreases to 0 as alpha -> inf.
    """

    delta: float
    eta: float
    value: float
    alpha_star: float
    slope_at_zero: float


def gamma_constant(delta: float, eta: float) -> GammaConstant:
    """Minimize I(alpha) over alpha >= 0 by golden section.

    When ``delta^2 >= eta^2 + 1/12`` the infimum is attained in the
    limit alpha -> 0 and equals one.  When ``delta <= eta - 1/2`` the
    exponent delta^2 - (1/2 + eta - x)^2 is at most 0 on [0, 1], so the
    infimum is 0, the limit alpha -> inf.  Otherwise the bracket is found
    by doubling and the section search runs down to a width of
    ``max(1e-8, 1e-12 * hi)``, which floats can resolve at any alpha.
    A slope beyond the float range raises :class:`FloatingPointError`.
    """
    slope = delta * delta - eta * eta - 1.0 / 12.0
    if not math.isfinite(slope):
        raise FloatingPointError(
            f"the slope at alpha = 0, delta^2 - eta^2 - 1/12, is {slope} "
            f"at delta = {delta:g}, eta = {eta:g}"
        )
    if slope >= -1e-14:  # boundary up to rounding: infimum is 1 at alpha -> 0
        return GammaConstant(delta, eta, 1.0, 0.0, slope)
    if 0.0 < delta <= eta - 0.5:
        return GammaConstant(delta, eta, 0.0, math.inf, slope)

    hi = 1.0
    f_hi = profile_integral(hi, delta, eta)
    while True:
        f_next = profile_integral(2.0 * hi, delta, eta)
        if f_next > f_hi or hi > 2.0**60:
            hi = 2.0 * hi
            break
        hi *= 2.0
        f_hi = f_next

    lo = 0.0
    a = hi - _GOLDEN * (hi - lo)
    b = lo + _GOLDEN * (hi - lo)
    f_a = profile_integral(a, delta, eta)
    f_b = profile_integral(b, delta, eta)
    while hi - lo > max(1e-8, 1e-12 * hi):
        if f_a <= f_b:
            hi, b, f_b = b, a, f_a
            a = hi - _GOLDEN * (hi - lo)
            f_a = profile_integral(a, delta, eta)
        else:
            lo, a, f_a = a, b, f_b
            b = lo + _GOLDEN * (hi - lo)
            f_b = profile_integral(b, delta, eta)
    alpha_star = 0.5 * (lo + hi)
    value = min(profile_integral(alpha_star, delta, eta), f_a, f_b)
    return GammaConstant(delta, eta, value, alpha_star, slope)


@lru_cache(maxsize=128)
def gamma_tilde_cube(delta: float) -> GammaConstant:
    """Cube-specific constant: gamma(1/4 + delta, 1/4) for delta < 1/12."""
    if delta >= 1.0 / 12.0:
        raise ValueError("delta must be below 1/12 for the cube bound")
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    return gamma_constant(0.25 + delta, 0.25)


def small_radius_hull_bound(n: int, d: int, radius_ratio: float, delta: float) -> float:
    """ln of the neighborhood-volume bound n((R_d + 2 delta) sqrt(pi e/2))^d.

    Valid for the hull of n points in any volume-one domain whose radius
    is ``radius_ratio * sqrt(d)``.  Decreasing in d exactly when
    ``R_d + 2 delta < sqrt(2/(pi e))``.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    if radius_ratio <= 0.0:
        raise ValueError("radius_ratio must be positive")
    if delta < 0.0:
        raise ValueError("delta must be non-negative")
    base = (radius_ratio + 2.0 * delta) * SQRT_HALF_PI_E
    return math.log(n) + d * math.log(base)


def cube_hull_bound(n: int, d: int, delta: float) -> float:
    """ln of the cube neighborhood-volume bound n (d+1) gamma~(delta)^d."""
    if n < 1 or d < 1:
        raise ValueError("n and d must be positive")
    gc = gamma_tilde_cube(delta)
    return math.log(n) + math.log(d + 1.0) + d * math.log(gc.value)


def binomial_half_width(successes: int, samples: int) -> float:
    """95% half-width for a binomial proportion.

    Normal approximation by default.  Below 10 successes, the regime the
    tiny hull-neighborhood volumes live in, it is the distance from the
    observed proportion up to the Wilson upper limit.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    p = successes / samples
    if successes < 10:
        z2_n = Z95 * Z95 / samples
        spread = Z95 * math.sqrt(p * (1.0 - p) / samples + z2_n / (4.0 * samples))
        return (p + z2_n / 2.0 + spread) / (1.0 + z2_n) - p
    return Z95 * math.sqrt(p * (1.0 - p) / samples)


@dataclass(frozen=True)
class VolumeEstimate:
    """Monte Carlo volume estimate next to its analytic comparator."""

    mean: float
    half_width_95: float
    bound_log: float
    bound_source: str  # "small_radius" | "cube"

    @property
    def bound(self) -> float:
        """The bound itself; ``inf`` where it exceeds the float range."""
        return exp_or_inf(self.bound_log)

    @property
    def passed(self) -> bool:
        """mean <= bound + 3 half-widths, compared in log domain."""
        excess = self.mean - 3.0 * self.half_width_95
        return excess <= 0.0 or math.log(excess) <= self.bound_log


def mc_hull_neighborhood_volume(
    ps: PointSet,
    dom: DomainSpec,
    delta: float,
    n_samples: int,
    seed: int,
    threads: int | None = None,
) -> VolumeEstimate:
    """Estimate the volume of the hull neighborhood inside the domain.

    Draws ``n_samples`` uniform points and counts the fraction within
    Euclidean distance ``delta*sqrt(d)`` of the hull.  Chunks are keyed
    by ``(seed, chunk_index)`` and reduced in chunk order by
    :func:`mc_mean`, on every available core unless ``threads`` says
    otherwise, so the result is identical for every ``threads`` value.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    if delta < 0.0:
        raise ValueError("delta must be non-negative")
    if dom.d != ps.d:
        raise ValueError("domain dimension does not match the point set")
    if dom.kind == "cube" and delta < 1.0 / 12.0 and delta > 0.0:
        bound_log = cube_hull_bound(ps.n, dom.d, delta)
        source = "cube"
    else:
        bound_log = small_radius_hull_bound(ps.n, dom.d, dom.radius_ratio, delta)
        source = "small_radius"
    r = delta * math.sqrt(dom.d)

    def draw(rng, size):
        return within_distance(ps, dom.sample(rng, size), r)

    # Boolean draws sum exactly, and the mean is within n * 2^-52 of
    # hits / n, so rounding recovers the integer count.
    hits = round(mc_mean(draw, seed, n_samples, threads).mean * n_samples)
    half = binomial_half_width(hits, n_samples)
    return VolumeEstimate(hits / n_samples, half, bound_log, source)

