"""Geometry of the normalized integration domains.

The supported domains all have Lebesgue volume one: the open unit cube
``(0,1)^d`` and the rescaled ``lp`` balls.  This module provides exact
log-domain volume and radius formulas, the large-``d`` limit of the
radius-to-sqrt(d) ratio, the critical exponent ``p*`` separating the
small-radius balls from the large ones, and uniform samplers for both
domain kinds.

Everything Gamma-valued is computed through ``gammaln`` so that results
stay finite far beyond ``d = 170``; linear values are exponentiated on
return and the ``*_log`` variants expose the raw logarithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .bounds import exp_or_inf

__all__ = [
    "DomainSpec",
    "lp_unit_ball_volume",
    "lp_unit_ball_volume_log",
    "lp_normalized_radius",
    "radius_limit_ratio",
    "solve_p_star",
    "p_star_lhs",
    "SMALL_RADIUS_THRESHOLD",
    "SQRT_HALF_PI_E",
]

#: Ratio threshold below which hull neighborhoods shrink exponentially:
#: sqrt(2 / (pi * e)) ~ 0.4839.
SMALL_RADIUS_THRESHOLD = math.sqrt(2.0 / (math.pi * math.e))

#: sqrt(pi e / 2) ~ 2.0664: the small-radius bound's base factor, p*'s target.
SQRT_HALF_PI_E = math.sqrt(math.pi * math.e / 2.0)


def _check_p(p: float) -> float:
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise ValueError(f"p must lie in [1, inf], got {p}")
    return p


def _check_d(d: int) -> int:
    if int(d) != d or d < 1:
        raise ValueError(f"dimension must be a positive integer, got {d}")
    return int(d)


def lp_unit_ball_volume_log(p: float, d: int) -> float:
    """ln of the volume of the unit ball of the lp norm in dimension d."""
    p = _check_p(p)
    d = _check_d(d)
    if math.isinf(p):
        return d * math.log(2.0)
    return d * math.log(2.0) + d * gammaln(1.0 + 1.0 / p) - gammaln(1.0 + d / p)


def lp_unit_ball_volume(p: float, d: int) -> float:
    """Volume of the unit lp ball; 2^d Gamma(1+1/p)^d / Gamma(1+d/p).

    ``inf`` where it exceeds the float range, as it does at p = inf, d = 2000.
    """
    return exp_or_inf(lp_unit_ball_volume_log(p, d))


def _lp_scale_log(p: float, d: int) -> float:
    """ln of the lp-norm scaling factor that makes the lp ball volume one."""
    if math.isinf(p):
        return -math.log(2.0)
    return (gammaln(1.0 + d / p) / d) - math.log(2.0) - gammaln(1.0 + 1.0 / p)


def lp_normalized_radius(p: float, d: int) -> float:
    """Euclidean radius R_d of the lp ball rescaled to volume one.

    The scaling factor in the lp norm is Gamma(1+d/p)^(1/d) / (2 Gamma(1+1/p));
    the farthest point of the scaled ball from the origin lies a factor
    d^{max(0, 1/2 - 1/p)} further away in the Euclidean norm.  R_d / sqrt(d)
    is the ratio whose large-d limit :func:`radius_limit_ratio` gives.
    """
    p = _check_p(p)
    d = _check_d(d)
    if math.isinf(p):
        return math.sqrt(d) / 2.0
    return math.exp(_lp_scale_log(p, d) + max(0.0, 0.5 - 1.0 / p) * math.log(d))


def radius_limit_ratio(p: float) -> float:
    """Limit of radius/sqrt(d) for the volume-one lp balls as d grows.

    Infinite for p in [1,2); ``1 / p_star_lhs(p)`` = 1/(2 (p e)^{1/p}
    Gamma(1+1/p)) for p in [2,inf], which is 1/2 at p = inf.
    """
    if _check_p(p) < 2.0:
        return math.inf
    return 1.0 / p_star_lhs(p)


def p_star_lhs(p: float) -> float:
    """2 (p e)^{1/p} Gamma(1+1/p), the reciprocal of the limit ratio."""
    p = _check_p(p)
    if math.isinf(p):
        return 2.0
    return 2.0 * (p * math.e) ** (1.0 / p) * math.exp(gammaln(1.0 + 1.0 / p))


def solve_p_star() -> float:
    """Critical exponent where the limit radius ratio crosses the decay threshold.

    Solves 2 (p e)^{1/p} Gamma(1+1/p) = sqrt(pi e / 2) on (2, 1e6) by
    bisection until no float lies between the bracket ends (65 steps),
    then returns the end with the smaller residual, which must be below
    1e-10.
    """
    def residual(p: float) -> float:
        return p_star_lhs(p) - SQRT_HALF_PI_E

    lo, hi = 2.0, 1e6
    f_lo, f_hi = residual(lo), residual(hi)
    if f_lo * f_hi >= 0.0:
        raise RuntimeError("bracketing interval [2, 1e6] does not change sign")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = residual(mid)
        if f_lo * f_mid <= 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    root, f_root = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    if abs(f_root) >= 1e-10:
        raise RuntimeError(f"root residual {f_root:.3e} exceeds 1e-10")
    return root


@dataclass(frozen=True)
class DomainSpec:
    """A volume-one integration domain: open unit cube or rescaled lp ball.

    ``radius`` is the Euclidean radius (distance from the center to the
    farthest point of the domain); ``radius_ratio`` divides it by sqrt(d).
    ``lp_scale`` is the ball's radius in its own lp norm, the factor
    that makes its volume one (zero for the cube).
    ``p`` is only meaningful for the ball kind and may be ``math.inf``,
    which is handled by explicit branches rather than inf arithmetic.
    """

    kind: str  # "cube" | "lp_ball"
    d: int
    p: float | None = None
    center: np.ndarray = field(repr=False, default=None)
    radius: float = 0.0
    lp_scale: float = 0.0

    @staticmethod
    def cube(d: int) -> "DomainSpec":
        d = _check_d(d)
        return DomainSpec(
            kind="cube",
            d=d,
            p=None,
            center=np.full(d, 0.5),
            radius=math.sqrt(d) / 2.0,
        )

    @staticmethod
    def lp_ball(p: float, d: int) -> "DomainSpec":
        p = _check_p(p)
        d = _check_d(d)
        return DomainSpec(
            kind="lp_ball",
            d=d,
            p=p,
            center=np.zeros(d),
            radius=lp_normalized_radius(p, d),
            lp_scale=0.5 if math.isinf(p) else math.exp(_lp_scale_log(p, d)),
        )

    @property
    def radius_ratio(self) -> float:
        return self.radius / math.sqrt(self.d)

    def contains(self, x: np.ndarray) -> np.ndarray:
        """Boolean mask of rows of ``x`` lying in the closed domain, up to 1e-12."""
        slack = 1e-12
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.d:
            raise ValueError(f"points have dimension {x.shape[1]}, expected {self.d}")
        if self.kind == "cube":
            return np.all((x >= -slack) & (x <= 1.0 + slack), axis=1)
        if math.isinf(self.p):
            return np.all(np.abs(x) <= self.lp_scale + slack, axis=1)
        norms = np.sum(np.abs(x) ** self.p, axis=1) ** (1.0 / self.p)
        return norms <= self.lp_scale + slack

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` points uniformly from the domain.

        The cube uses i.i.d. uniforms.  The lp ball uses the radial
        construction: coordinates with density proportional to
        exp(-|t|^p) (signed Gamma(1/p) powers), normalized to the lp
        sphere, then scaled by U^{1/d} times the ball radius.  This is
        exact for every p and has no rejection cost in high dimension.
        """
        if n < 0:
            raise ValueError("n must be non-negative")
        if self.kind == "cube":
            return rng.random((n, self.d))
        scale = self.lp_scale
        if math.isinf(self.p):
            return (rng.random((n, self.d)) - 0.5) * (2.0 * scale)
        if self.p == 2.0:
            g = rng.standard_normal((n, self.d))
            norms = np.linalg.norm(g, axis=1, keepdims=True)
        else:
            g = rng.gamma(1.0 / self.p, size=(n, self.d)) ** (1.0 / self.p)
            g *= rng.choice([-1.0, 1.0], size=(n, self.d))
            norms = np.sum(np.abs(g) ** self.p, axis=1, keepdims=True) ** (1.0 / self.p)
        radii = scale * rng.random((n, 1)) ** (1.0 / self.d)
        return g * (radii / norms)
