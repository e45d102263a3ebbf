"""One-point and Taylor quadrature rules with honest cost accounting.

The one-point rule evaluates the integrand at the domain center (the
cube midpoint or the ball origin, which is also the centroid).  The
Taylor rule integrates the order-j Taylor polynomial at the cube
center: odd moments vanish, so only multi-indices with all components
even contribute.  They are enumerated once, as an (m, d) int8 array in
lexicographic order, and their weights prod_i cube_moment(beta_i) /
beta_i! come from per-component lookup tables.  The derivatives come
either from a batched analytic oracle, called once with the whole
array, or from tensor-product central differences.  Their stencils are
built in numpy a block of multi-indices at a time, checked against the
domain in one call per block, and shared across multi-indices: each
distinct node is evaluated once.  ``evaluations_used`` counts the
distinct points actually evaluated, so the binomial cost claims can be
checked exactly, and an evaluation budget can refuse a rule before it
runs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import DomainSpec
from .rng import _BLOCK_ENTRIES, mc_mean

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


def fd_partial(
    f: Integrand,
    x: np.ndarray,
    beta: tuple[int, ...],
    h: float,
    dom: DomainSpec | None = None,
) -> float:
    """Estimate D^beta f(x) by tensor-product central differences.

    Each coordinate i applies the beta_i-th central difference with
    step h, for prod(beta_i + 1) stencil nodes.  With ``dom`` given,
    stencil nodes outside the domain raise
    :class:`StencilOutsideDomainError` naming the offending coordinate.
    It is the Taylor rule's stencil build for a single multi-index.
    """
    x = np.asarray(x, dtype=float).ravel()
    beta = tuple(int(b) for b in beta)
    if len(beta) != x.shape[0]:
        raise ValueError("multi-index length must match the dimension")
    if any(b < 0 for b in beta):
        raise ValueError("multi-index entries must be non-negative")
    if sum(beta) > 8:
        raise ValueError("|beta| above the practical cap of 8")
    return _fd_derivatives(f, x, np.array([beta]), h, dom, {})[0]


# _CENTRAL_WEIGHTS[b, m] = (-1)^m C(b, m): the order-b central difference's
# weight on its node at offset (b/2 - m) h, for b, m <= 8.
_CENTRAL_WEIGHTS = np.array(
    [[(-1) ** m * math.comb(b, m) for m in range(9)] for b in range(9)], dtype=float
)


def _stencil_sizes(betas: np.ndarray) -> np.ndarray:
    """prod_i (beta_i + 1) per row: the nodes of each tensor stencil."""
    sizes = np.ones(len(betas), dtype=np.int64)
    for column in betas.T:
        sizes *= column.astype(np.int64) + 1
    return sizes


def _stencil_block(x: np.ndarray, betas: np.ndarray, steps: np.ndarray):
    """Every tensor-stencil node of the rows of ``betas``, row after row.

    Row r's nodes are enumerated as ``itertools.product`` enumerates the
    per-coordinate indices m_i in range(beta_i + 1), the last coordinate
    fastest: node index t has the mixed-radix digits
    m_i = t // prod_{k>i} (beta_k + 1) % (beta_i + 1).  The node is
    x_i + (beta_i / 2 - m_i) * steps[r] in coordinate i, and its
    coefficient prod_i (-1)^m_i C(beta_i, m_i) is multiplied in
    coordinate order.  Returns (nodes, coeffs, row, t): the (n, d) nodes,
    their coefficients, and each node's row and index in its stencil.
    """
    radix = betas.astype(np.int64) + 1
    after = np.ones_like(radix)  # after[r, i] = prod_{k>i} radix[r, k]
    after[:, :-1] = np.cumprod(radix[:, :0:-1], axis=1)[:, ::-1]
    sizes = radix[:, 0] * after[:, 0]
    row = np.repeat(np.arange(len(betas)), sizes)
    t = np.arange(len(row)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    h = steps[row]
    nodes = np.empty((len(row), len(x)))
    coeffs = np.ones(len(row))
    for i in range(len(x)):
        b = betas[row, i]
        m = t // after[row, i] % radix[row, i]
        nodes[:, i] = x[i] + (b / 2.0 - m) * h
        coeffs *= _CENTRAL_WEIGHTS[b, m]
    return nodes, coeffs, row, t


def _node_keys(nodes: np.ndarray, x_bits: np.ndarray, slots: int) -> list:
    """Each node's cache key: see :func:`_fd_derivatives`."""
    n, d = nodes.shape
    bits = nodes.view(np.uint64)
    # Row-major order lists each node's moved coordinates in ascending order.
    moved = np.flatnonzero(bits != x_bits)
    node, column = np.divmod(moved, d)
    counts = np.bincount(node, minlength=n)
    slot = np.arange(len(moved)) - np.repeat(np.cumsum(counts) - counts, counts)
    keys = np.zeros(2 * slots * n, dtype=np.uint64)  # an unused slot stays (0, 0)
    at = 2 * (node * slots + slot)
    keys[at] = column + 1
    keys[at + 1] = bits.ravel()[moved]
    return keys.view(np.dtype((np.void, 16 * slots))).tolist()


def _fd_derivatives(
    f: Integrand,
    x: np.ndarray,
    betas: np.ndarray,
    h: float | None,
    dom: DomainSpec | None,
    cache: dict,
) -> np.ndarray:
    """Central-difference estimates of D^beta f(x), one per row of ``betas``.

    Row r uses step h, or ``default_fd_step(|beta_r|)`` when h is None.
    The stencils are built in blocks of rows, at most ``_BLOCK_ENTRIES``
    node coordinates each.  With ``dom`` given, a block with a node
    outside the domain raises :class:`StencilOutsideDomainError` for its
    first such node.  ``cache`` maps a node's key to its value, so every
    distinct node is evaluated once, through ``f.value_at`` and in
    enumeration order, and ``len(cache)`` counts them.  A node differs
    from x + 0.0 only where its beta is nonzero, so its key holds just
    the coordinates whose bits differ from those of x + 0.0, as (index
    + 1, bits) slots in index order, padded with (0, 0) to the most
    nonzero entries of any beta: two nodes share a key exactly when they
    are bitwise equal.
    Each row's terms coeff * value are summed one by one in stencil
    order and divided by step ** |beta|.
    """
    if h is not None and h <= 0.0:
        raise ValueError("h must be positive")
    d = len(x)
    orders = betas.sum(axis=1, dtype=np.int64)
    steps = [h if h is not None else default_fd_step(o) for o in range(9)]
    row_steps = np.array(steps)[orders]
    sizes = _stencil_sizes(betas)
    rows = max(1, _BLOCK_ENTRIES // (d * int(sizes.max(initial=1))))
    # Key slots: the most nonzero entries of any beta, at least one.
    slots = max(1, int(np.count_nonzero(betas, axis=1).max(initial=0)))
    # A coordinate where beta is zero is x_i + 0.0, as are those that do not move.
    x_bits = (x + 0.0).view(np.uint64)
    derivs = np.empty(len(betas))
    for start in range(0, len(betas), rows):
        block = slice(start, start + rows)
        block_orders = orders[block]
        nodes, coeffs, row, t = _stencil_block(x, betas[block], row_steps[block])
        if dom is not None:
            inside = dom.contains(nodes)
            if not inside.all():
                node = nodes[np.argmin(inside)]
                bad = int(np.argmax((node < 0.0) | (node > 1.0))) if dom.kind == "cube" else -1
                raise StencilOutsideDomainError(
                    f"stencil node leaves the domain (coordinate {bad}, value {node[bad]:.6g})"
                    if bad >= 0
                    else "stencil node leaves the domain"
                )
        values = []
        for i, key in enumerate(_node_keys(nodes, x_bits, slots)):
            value = cache.get(key)
            if value is None:
                # A copy, so an integrand that writes to its input cannot alter the block.
                value = cache[key] = f.value_at(nodes[i].copy())
            values.append(value)
        terms = np.zeros((len(block_orders), int(sizes[block].max())))
        terms[row, t] = coeffs * np.array(values)
        acc = np.zeros(len(terms))
        for column in terms.T:
            acc += column
        # Python's float power: numpy's power may run SIMD code that rounds differently.
        powers = [steps[o] ** o for o in range(int(block_orders.max()) + 1)]
        derivs[block] = acc / np.array(powers)[block_orders]
    return derivs


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
    cap = terms if analytic else int(_stencil_sizes(betas).sum())
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
        derivs = _fd_derivatives(f, x_star, betas, h, dom, cache)
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
