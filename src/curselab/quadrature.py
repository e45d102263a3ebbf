"""One-point and Taylor quadrature rules with honest cost accounting.

The one-point rule evaluates the integrand at the domain center (the
cube midpoint or the ball origin, which is also the centroid).  The
Taylor rule integrates the order-j Taylor polynomial at the cube
center: odd moments vanish, so only multi-indices with all components
even contribute, and the derivative of each surviving term comes either
from an analytic oracle or from tensor-product central differences on a
shared, exactly-keyed stencil cache.  ``evaluations_used`` counts the
distinct points actually evaluated, so the binomial cost claims can be
checked exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import DomainSpec
from .rng import mc_mean

__all__ = [
    "Integrand",
    "QuadratureResult",
    "StencilOutsideDomainError",
    "UnsupportedDomainError",
    "quad_one_point",
    "cube_moment",
    "fd_partial",
    "quad_taylor",
    "reference_integral",
    "make_sine_integrand",
    "sine_integral_cube",
]


class StencilOutsideDomainError(ValueError):
    """A finite-difference stencil node left the integration domain."""


class UnsupportedDomainError(ValueError):
    """The requested rule has no closed moments on this domain."""


@dataclass
class Integrand:
    """A function on a volume-one domain, with optional exact structure.

    ``eval`` maps an (m, d) array to m values.  ``analytic_partial`` maps
    ``(x, beta)`` to the exact partial derivative D^beta f(x); it is
    what lets the Taylor rule spend one evaluation per multi-index
    instead of a stencil.  ``exact_integral`` is used by test families
    with closed-form integrals.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    analytic_partial: Callable[[np.ndarray, tuple[int, ...]], float] | None = None
    exact_integral: float | None = None

    def value_at(self, x: np.ndarray) -> float:
        return float(np.asarray(self.eval(np.atleast_2d(x))).ravel()[0])


@dataclass
class QuadratureResult:
    value: float
    evaluations_used: int
    algorithm: str  # "one_point" | "taylor(j)"
    error_bound: float | None = None

    def to_json_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "value": self.value,
            "evaluations_used": self.evaluations_used,
            "error_bound": self.error_bound,
        }


def quad_one_point(f: Integrand, dom: DomainSpec) -> QuadratureResult:
    """Evaluate f at the domain center; one function value."""
    return QuadratureResult(
        value=f.value_at(dom.center), evaluations_used=1, algorithm="one_point"
    )


def cube_moment(b: int) -> float:
    """int_0^1 (x - 1/2)^b dx: zero for odd b, (1/2)^b / (b+1) for even b."""
    if b < 0:
        raise ValueError("moment order must be non-negative")
    if b % 2 == 1:
        return 0.0
    return 0.5**b / (b + 1.0)


def _central_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets (in units of h) and weights of the order-b central difference."""
    m = np.arange(order + 1)
    offsets = order / 2.0 - m
    coeffs = np.array([(-1) ** int(i) * math.comb(order, int(i)) for i in m], dtype=float)
    return offsets, coeffs


def _stencil(beta: tuple[int, ...], h: float):
    """Tensor stencil for D^beta: yields (offset vector, coefficient)."""
    per_coord = [_central_nodes(b) for b in beta]
    d = len(beta)
    for combo in itertools.product(*(range(b + 1) for b in beta)):
        offset = np.zeros(d)
        coeff = 1.0
        for i, m in enumerate(combo):
            offs, cs = per_coord[i]
            offset[i] = offs[m]
            coeff *= cs[m]
        yield offset * h, coeff


def fd_partial(
    f: Integrand,
    x: np.ndarray,
    beta: tuple[int, ...],
    h: float,
    dom: DomainSpec | None = None,
    cache: dict | None = None,
) -> float:
    """Estimate D^beta f(x) by tensor-product central differences.

    Each coordinate i applies the beta_i-th central difference with
    step h, for prod(beta_i + 1) stencil nodes; nodes shared with other
    multi-indices are reused through ``cache``.  With ``dom`` given,
    stencil nodes outside the domain raise
    :class:`StencilOutsideDomainError` naming the offending coordinate.
    """
    x = np.asarray(x, dtype=float).ravel()
    beta = tuple(int(b) for b in beta)
    if len(beta) != x.shape[0]:
        raise ValueError("multi-index length must match the dimension")
    if any(b < 0 for b in beta):
        raise ValueError("multi-index entries must be non-negative")
    total = sum(beta)
    if total > 8:
        raise ValueError("|beta| above the practical cap of 8")
    if h <= 0.0:
        raise ValueError("h must be positive")
    if cache is None:
        cache = {}
    acc = 0.0
    for offset, coeff in _stencil(beta, h):
        node = x + offset
        key = tuple(node.tolist())
        if key not in cache:
            if dom is not None and not bool(dom.contains(node[None, :])[0]):
                bad = int(np.argmax((node < 0.0) | (node > 1.0))) if dom.kind == "cube" else -1
                raise StencilOutsideDomainError(
                    f"stencil node leaves the domain (coordinate {bad}, value {node[bad]:.6g})"
                    if bad >= 0
                    else "stencil node leaves the domain"
                )
            cache[key] = f.value_at(node)
        acc += coeff * cache[key]
    return acc / h**total


def _even_multi_indices(d: int, j: int):
    """All beta with every component even and |beta| <= j, lexicographic."""
    result = []
    _append_even(result, [], d, j // 2)
    result.sort()
    return result


def _append_even(result, prefix, remaining, budget):
    # A module-level function, not a self-referencing closure: a closure
    # would form a reference cycle that keeps ``result`` (C(d + j/2, d)
    # tuples, 13 MB at d=30, j=8) alive until the cyclic collector runs.
    if remaining == 0:
        result.append(tuple(2 * g for g in prefix))
        return
    for g in range(budget + 1):
        _append_even(result, prefix + [g], remaining - 1, budget - g)


def default_fd_step(order: int) -> float:
    """Bias/round-off balanced step for an order-|beta| central difference."""
    return float(np.finfo(float).eps ** (1.0 / (order + 2)))


def quad_taylor(
    f: Integrand, dom: DomainSpec, j: int, h: float | None = None
) -> QuadratureResult:
    """Integrate the order-j Taylor polynomial of f at the cube center.

    Q = sum over multi-indices |beta| <= j of
    D^beta f(x*) / beta! * prod_i cube_moment(beta_i).  Terms with any
    odd component have zero moment and cost nothing.  The derivative
    source is the analytic oracle when present, otherwise shared-cache
    central differences; the summation order is fixed (lexicographic).
    """
    if dom.kind != "cube":
        raise UnsupportedDomainError(
            "Taylor quadrature needs the cube (closed-form moments)"
        )
    if not 0 <= j <= 8:
        raise ValueError("order j must lie in [0, 8]")
    x_star = dom.center
    analytic = f.analytic_partial is not None
    cache: dict = {}
    value = 0.0
    oracle_calls = 0
    for beta in _even_multi_indices(dom.d, j):
        moment = 1.0
        for b in beta:
            moment *= cube_moment(b)
        fact = 1.0
        for b in beta:
            fact *= math.factorial(b)
        if analytic:
            deriv = float(f.analytic_partial(x_star, beta))
            oracle_calls += 1
        else:
            order = sum(beta)
            step = h if h is not None else default_fd_step(order)
            deriv = fd_partial(f, x_star, beta, step, dom=dom, cache=cache)
        value += deriv / fact * moment
    used = oracle_calls if analytic else len(cache)
    return QuadratureResult(
        value=value, evaluations_used=used, algorithm=f"taylor({j})"
    )


def reference_integral(
    f: Integrand, dom: DomainSpec, n_samples: int, seed: int
) -> tuple[float, float]:
    """Plain Monte Carlo integral with a 95% half-width.

    Used as ground truth when no exact integral is available; the draws
    go through :func:`curselab.rng.mc_mean`.
    """
    if n_samples < 1000:
        raise ValueError("n_samples must be at least 1000")
    est = mc_mean(lambda rng, size: f.eval(dom.sample(rng, size)), seed, n_samples)
    return est.mean, est.half_width_95


def make_sine_integrand(a: np.ndarray, b: float, amplitude: float = 0.1) -> Integrand:
    """The oscillatory family amplitude * sin(<a, x> + b) on the cube.

    Carries exact partial derivatives (each derivative multiplies by
    a_i and advances the phase by pi/2) and the closed-form integral
    amplitude * Im(e^{ib} prod_k (e^{i a_k} - 1) / (i a_k)).
    Lip(f^(j)) = amplitude * ||a||^(j+1).
    """
    a = np.asarray(a, dtype=float).ravel()

    def evaluate(points: np.ndarray) -> np.ndarray:
        return amplitude * np.sin(np.atleast_2d(points) @ a + b)

    def partial(x: np.ndarray, beta: tuple[int, ...]) -> float:
        order = sum(beta)
        coeff = amplitude
        for ai, bi in zip(a, beta):
            coeff *= ai**bi
        return coeff * math.sin(float(np.dot(a, x)) + b + order * math.pi / 2.0)

    return Integrand(
        eval=evaluate,
        analytic_partial=partial,
        exact_integral=sine_integral_cube(a, b, amplitude),
    )


def sine_integral_cube(a: np.ndarray, b: float, amplitude: float = 0.1) -> float:
    """Closed form of the cube integral of amplitude * sin(<a,x> + b)."""
    a = np.asarray(a, dtype=float).ravel()
    prod = complex(math.cos(b), math.sin(b))
    for ak in a:
        if ak == 0.0:
            continue
        prod *= (complex(math.cos(ak), math.sin(ak)) - 1.0) / complex(0.0, ak)
    return amplitude * prod.imag
