"""One-point and Taylor quadrature rules with honest cost accounting.

The one-point rule evaluates the integrand at the domain center (the
cube midpoint or the ball origin, which is also the centroid).  The
Taylor rule integrates the order-j Taylor polynomial at the cube
center: odd moments vanish, so only multi-indices with all components
even contribute.  They are enumerated once, as an (m, d) int8 array in
lexicographic order, and their weights prod_i cube_moment(beta_i) /
beta_i! come from per-component lookup tables.  The derivatives come
either from a batched analytic oracle, called once with the whole
array, or from tensor-product central differences on a shared,
exactly-keyed stencil cache.  ``evaluations_used`` counts the distinct
points actually evaluated, so the binomial cost claims can be checked
exactly, and an evaluation budget can refuse a rule before it runs.
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
    "EvaluationBudgetError",
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


class EvaluationBudgetError(ValueError):
    """A rule's predicted number of evaluations exceeds the budget."""


@dataclass
class Integrand:
    """A function on a volume-one domain, with optional exact structure.

    ``eval`` maps an (m, d) array to m values.  ``analytic_partial`` is
    batched: it maps ``(x, betas)``, with ``betas`` an (m, d) integer
    array of multi-indices, to the m exact partial derivatives
    D^beta f(x); it is what lets the Taylor rule spend one evaluation
    per multi-index instead of a stencil.  ``exact_integral`` is used by
    test families with closed-form integrals.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    analytic_partial: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    exact_integral: float | None = None

    def value_at(self, x: np.ndarray) -> float:
        return float(np.asarray(self.eval(np.atleast_2d(x))).ravel()[0])


@dataclass
class QuadratureResult:
    """A rule's value, the distinct points it evaluated, and the count it
    predicted before running: exact for the one-point rule and the
    analytic Taylor path, the stencil bound with finite differences."""

    value: float
    evaluations_used: int
    evaluations_cap: int


def quad_one_point(f: Integrand, dom: DomainSpec) -> QuadratureResult:
    """Evaluate f at the domain center; one function value."""
    return QuadratureResult(
        value=f.value_at(dom.center), evaluations_used=1, evaluations_cap=1
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


def _even_multi_indices(d: int, j: int) -> np.ndarray:
    """All beta with every component even and |beta| <= j, lexicographic.

    Returns an (m, d) int8 array, m = C(d + j//2, d), stored column by
    column.  Each column is filled in one pass: every prefix so far has
    a remaining half-budget r, column i splits it into r + 1 children
    (component 2g, g = 0..r), and each child's component is repeated
    once per completion of the later columns: C(d - i - 1 + s, s) rows
    for the child's remaining half-budget s = r - g.
    """
    k = j // 2
    columns = np.empty((d, math.comb(d + k, d)), dtype=np.int8)
    remaining = np.array([k], dtype=np.int8)
    for i in range(d):
        children = remaining + 1
        first_child = np.cumsum(children, dtype=np.int64) - children
        g = (np.arange(int(children.sum())) - np.repeat(first_child, children)).astype(np.int8)
        remaining = np.repeat(remaining, children) - g
        completions = np.array([math.comb(d - i - 1 + r, r) for r in range(k + 1)])
        columns[i] = np.repeat(2 * g, completions[remaining])
    return columns.T


# Per-component factors of the Taylor weights, indexed by beta_i <= 8.
_MOMENTS = np.array([cube_moment(b) for b in range(9)])
_FACTORIALS = np.array([float(math.factorial(b)) for b in range(9)])


def _column_product(tables, betas: np.ndarray, start: float = 1.0) -> np.ndarray:
    """start * prod_i tables[i][betas[:, i]] per row, multiplied in coordinate order."""
    out = np.full(len(betas), start, dtype=float)
    for table, column in zip(tables, betas.T):
        out *= table[column]
    return out


def _stencil_bound(betas: np.ndarray) -> int:
    """sum over rows of prod_i (beta_i + 1): stencil nodes before sharing."""
    sizes = np.ones(len(betas), dtype=np.int64)
    for column in betas.T:
        sizes *= column.astype(np.int64) + 1
    return int(sizes.sum())


def default_fd_step(order: int) -> float:
    """Bias/round-off balanced step for an order-|beta| central difference."""
    return float(np.finfo(float).eps ** (1.0 / (order + 2)))


def quad_taylor(
    f: Integrand,
    dom: DomainSpec,
    j: int,
    h: float | None = None,
    max_evals: int | None = None,
) -> QuadratureResult:
    """Integrate the order-j Taylor polynomial of f at the cube center.

    Q = sum over multi-indices |beta| <= j of
    D^beta f(x*) / beta! * prod_i cube_moment(beta_i).  Terms with any
    odd component have zero moment and cost nothing.  The derivative
    source is the analytic oracle when present (one batched call over
    all multi-indices), otherwise shared-cache central differences; the
    terms are summed one by one in lexicographic order.

    The predicted cost, reported as ``evaluations_cap``, is the number
    of multi-indices, or on the finite-difference path the stencil bound
    sum_beta prod_i (beta_i + 1).  With ``max_evals`` given,
    :class:`EvaluationBudgetError` is raised before any evaluation when
    the prediction exceeds it; the multi-index count is checked before
    the enumeration.
    """
    if dom.kind != "cube":
        raise UnsupportedDomainError(
            "Taylor quadrature needs the cube (closed-form moments)"
        )
    if not 0 <= j <= 8:
        raise ValueError("order j must lie in [0, 8]")
    analytic = f.analytic_partial is not None
    terms = math.comb(dom.d + j // 2, dom.d)
    if max_evals is not None and terms > max_evals:
        raise EvaluationBudgetError(
            f"the order-{j} Taylor rule in d={dom.d} needs {terms} derivative "
            f"evaluations, above the budget of {max_evals}"
        )
    betas = _even_multi_indices(dom.d, j)
    cap = terms if analytic else _stencil_bound(betas)
    # On the analytic path cap == terms, checked above.
    if max_evals is not None and cap > max_evals:
        raise EvaluationBudgetError(
            f"the order-{j} finite-difference Taylor rule in d={dom.d} needs up to "
            f"{cap} stencil evaluations, above the budget of {max_evals}"
        )
    x_star = dom.center
    if analytic:
        derivs = np.asarray(f.analytic_partial(x_star, betas), dtype=float)
        used = terms
    else:
        cache: dict = {}
        derivs = np.empty(terms)
        for row, beta in enumerate(betas.tolist()):
            step = h if h is not None else default_fd_step(sum(beta))
            derivs[row] = fd_partial(f, x_star, beta, step, dom=dom, cache=cache)
        used = len(cache)
    fact = _column_product(itertools.repeat(_FACTORIALS), betas)
    moment = _column_product(itertools.repeat(_MOMENTS), betas)
    value = 0.0
    for term in (derivs / fact * moment).tolist():
        value += term
    return QuadratureResult(value=value, evaluations_used=used, evaluations_cap=cap)


def reference_integral(
    f: Integrand, dom: DomainSpec, n_samples: int, seed: int
) -> tuple[float, float]:
    """Plain Monte Carlo integral with a 95% half-width.

    Used as ground truth when no exact integral is available.  The draws
    go through :func:`curselab.rng.mc_mean`, so the chunks run on every
    available core with the same result as on one; ``f.eval`` must
    therefore be safe to call from several threads at once.
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

    def partial(x: np.ndarray, betas: np.ndarray) -> np.ndarray:
        # Lookup tables of the scalar a_i ** b and of sin(<a, x> + b + o pi/2)
        # per order o, so each value equals the one-index formula's.
        betas = np.asarray(betas)
        orders = betas.sum(axis=1)
        exponents = range(int(betas.max(initial=0)) + 1)
        powers = [np.array([ai**bi for bi in exponents]) for ai in a]
        coeff = _column_product(powers, betas, amplitude)
        phase0 = float(np.dot(a, x)) + b
        phase = np.array(
            [math.sin(phase0 + o * math.pi / 2.0) for o in range(int(orders.max(initial=0)) + 1)]
        )
        return coeff * phase[orders]

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
