"""Statistical verification suites for the fooling and quadrature claims.

Each suite draws seeded samples, measures the quantity a construction
certifies (Lipschitz quotients, exact zero/one regions, convolution
behavior, quadrature error against its bound) and reports measured
values, the certified bounds, and pass flags.  Each float figure, and
each float in a list of figures, is returned as a ``{"value",
"provenance"}`` pair built by :func:`tagged`: ``formula`` for a closed
form or certified bound, ``monte_carlo`` for a sampled measurement.
Counts, flags, names and the certificate stay bare.  The CLI exposes
the suites as subcommands and the acceptance tests call them directly.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import ub_one_point_c0, ub_taylor
from .fooling import (
    fooling_c0,
    fooling_c1,
    fooling_eval_batch,
    fooling_smoothed,
    smoothed_eval,
)
from .geometry import DomainSpec
from .hull import PointSet, project_batch, within_distance
from .quadrature import (
    Integrand,
    make_sine_integrand,
    quad_one_point,
    quad_taylor,
    reference_integral,
)
from .rng import substream

__all__ = [
    "tagged",
    "random_point_set",
    "fool_check_c0",
    "fool_check_c1",
    "smooth_check",
    "quad_check_sine",
    "one_point_check_c0",
]

#: Substream index reserved for drawing hull points, far from the
#: low indices used by Monte Carlo chunk loops.
POINTS_STREAM = 1 << 32

#: Points at which the c1 suite compares the gradient with central
#: differences, and point pairs at which the smoothing suite compares
#: smoothed means with the Lipschitz certificate.
_GRAD_POINTS = 40
_LIP_PAIRS = 4


def tagged(provenance: str, **figures) -> dict:
    """Each figure as a ``{"value", "provenance"}`` pair, a list as a list of
    pairs; None, which is no figure, stays None."""
    def tag(value):
        if isinstance(value, list):
            return [tag(v) for v in value]
        return None if value is None else {"value": value, "provenance": provenance}

    return {key: tag(value) for key, value in figures.items()}


def random_point_set(dom: DomainSpec, n: int, seed: int) -> PointSet:
    """n domain points drawn from the dedicated substream of ``seed``."""
    rng = substream(seed, POINTS_STREAM)
    return PointSet(dom.sample(rng, n), domain=dom)


def _sample_hull_neighborhood(
    rng: np.random.Generator, ps: PointSet, radius: float, count: int
) -> np.ndarray:
    """Points of the hull neighborhood: convex combos plus interior shifts."""
    w = rng.dirichlet(np.ones(ps.n), size=count)
    base = w @ ps.points
    direction = rng.standard_normal((count, ps.d))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    # Stay strictly interior so solver tolerance cannot flip the sign.
    radii = 0.99 * radius * rng.random((count, 1)) ** (1.0 / ps.d)
    return base + direction * radii


def _certified_far_points(
    rng: np.random.Generator,
    ps: PointSet,
    dom: DomainSpec,
    threshold: float,
    count: int,
) -> np.ndarray:
    """Domain points whose hull distance certifiably exceeds ``threshold``.

    A candidate qualifies when its solver distance exceeds the threshold
    by a relative 1e-6, the verdict :func:`within_distance` gives.
    """
    cut = threshold * (1.0 + 1e-6)
    out = []
    attempts = 0
    while len(out) < count and attempts < 200:
        attempts += 1
        cand = dom.sample(rng, max(64, count))
        far = ~within_distance(ps, cand, cut)
        out.extend(cand[far][: count - len(out)])
    if len(out) < count:
        raise RuntimeError("could not find enough points far from the hull")
    return np.asarray(out)


def _require_count(name: str, count: int) -> None:
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")


def _with_pass(results: dict) -> dict:
    """``results`` with ``pass`` set to the conjunction of its ``*_pass`` keys."""
    results["pass"] = all(v for k, v in results.items() if k.endswith("_pass"))
    return results


def fool_check_c0(
    d: int, n: int, lipschitz: float, pairs: int, seed: int
) -> dict:
    """Sampled Lipschitz quotients and range of the c0 construction."""
    _require_count("pairs", pairs)
    dom = DomainSpec.cube(d)
    ps = random_point_set(dom, n, seed)
    f = fooling_c0(ps, lipschitz)
    rng = substream(seed, 1)
    x = dom.sample(rng, pairs)
    y = dom.sample(rng, pairs)
    fx = f(x)
    fy = f(y)
    gaps = np.linalg.norm(x - y, axis=1)
    quotients = np.abs(fx - fy) / np.maximum(gaps, 1e-300)
    max_q = float(quotients.max())
    in_range = bool(np.all((fx >= 0.0) & (fx <= 1.0) & (fy >= 0.0) & (fy <= 1.0)))
    bound = f.certificate.value(0, d)
    return _with_pass({
        "variant": "c0",
        "certificate": f.to_json_dict(),
        **tagged("monte_carlo", max_lipschitz_quotient=max_q),
        **tagged("formula", lipschitz_bound=bound),
        "lipschitz_pass": max_q <= bound * (1.0 + 1e-8),
        "range_pass": in_range,
    })


def fool_check_c1(
    d: int,
    n: int,
    delta: float,
    pairs: int,
    seed: int,
    samples: int = 1000,
) -> dict:
    """The full C^1 construction suite.

    Checks, at the given dimension: sampled Lipschitz quotient against
    2/(delta sqrt(d)); sampled gradient-Lipschitz quotient against
    40/(delta^2 d); exact zero at ``samples`` sampled neighborhood
    points; exact one at ``samples`` points certified beyond the double
    neighborhood; and agreement of the analytic gradient with central
    differences away from the ramp breakpoints and from changes of the
    hull face (relative error at most 1e-5 at step 1e-5 sqrt(d)).
    """
    _require_count("pairs", pairs)
    _require_count("samples", samples)
    dom = DomainSpec.cube(d)
    ps = random_point_set(dom, n, seed)
    f = fooling_c1(ps, delta)
    l0 = f.certificate.value(0, d)
    l1 = f.certificate.value(1, d)
    r = delta * math.sqrt(d)

    rng = substream(seed, 1)
    x = dom.sample(rng, pairs)
    y = dom.sample(rng, pairs)
    # Uniform pairs rarely meet the ramp in high dimension, so a quarter
    # of the pairs straddle it: both points near the hull, a fraction of
    # the ramp width apart.  That is where the quotients approach the
    # certified constants.
    extra = max(1, pairs // 4)
    w = rng.dirichlet(np.ones(ps.n), size=extra)
    base = w @ ps.points
    u = rng.standard_normal((extra, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x_ramp = base + u * (r * rng.uniform(0.5, 3.5, size=(extra, 1)))
    step = rng.standard_normal((extra, d))
    step /= np.linalg.norm(step, axis=1, keepdims=True)
    y_ramp = x_ramp + step * (r * rng.uniform(0.05, 1.0, size=(extra, 1)))
    x = np.vstack([x, x_ramp])
    y = np.vstack([y, y_ramp])

    vals_x, grads_x = fooling_eval_batch(f, x)[:2]
    vals_y, grads_y = fooling_eval_batch(f, y)[:2]
    gaps = np.maximum(np.linalg.norm(x - y, axis=1), 1e-300)
    max_q = float((np.abs(vals_x - vals_y) / gaps).max())
    max_gq = float((np.linalg.norm(grads_x - grads_y, axis=1) / gaps).max())
    range_pass = bool(np.all((vals_x >= 0.0) & (vals_x <= 1.0)))

    rng_zero = substream(seed, 2)
    zeros = _sample_hull_neighborhood(rng_zero, ps, r, samples)
    zero_vals = f(zeros)
    zeros_exact = int(np.count_nonzero(zero_vals == 0.0))

    rng_one = substream(seed, 3)
    fars = _certified_far_points(rng_one, ps, dom, 2.0 * r, samples)
    one_vals = f(fars)
    ones_exact = int(np.count_nonzero(one_vals == 1.0))

    # Gradient versus central differences.  Test points sit mid-ramp: the
    # ramp profile is only piecewise smooth, and near its inner boundary
    # the hull-distance curvature (order 1/r) makes the truncation error
    # of the pinned step exceed the tolerance even for an exact gradient.
    # A stencil must also stay on one piece of the ramp and on one face of
    # the hull: moving by the step changes the distance by at most the
    # step, so points within a step of a breakpoint gap (sqrt(t1) = r/2,
    # sqrt(t2) = r) are excluded, and so are points whose stencil changes
    # the projection's active set, since the hull distance's second
    # derivative jumps there.
    rng_grad = substream(seed, 4)
    step = 1e-5 * math.sqrt(d)
    root_breaks = np.array([r / 2.0, r])
    offsets = step * np.vstack([np.eye(d), -np.eye(d)])
    checked = 0
    max_rel = 0.0
    near_breakpoint = 0
    support_changes = 0
    attempts = 0
    while checked < _GRAD_POINTS and attempts < 50:
        attempts += 1
        # Anchor on the projection of a far point: every point of the
        # segment between a query and its hull projection projects to the
        # same point, so sliding along the ray sets the distance exactly.
        anchors = dom.sample(rng_grad, 4 * _GRAD_POINTS)
        targets = r * (1.0 + rng_grad.uniform(0.3, 0.7, size=4 * _GRAD_POINTS))
        proj = project_batch(ps, anchors)
        far = proj.distance > targets
        u = (anchors[far] - proj.nearest[far]) / proj.distance[far, None]
        points = proj.nearest[far] + targets[far, None] * u
        # Distances and active sets come from the evaluations' own
        # projections, indexed by projection row; mid-ramp points are
        # never settled by the distance bracket, so they are all there.
        centre = fooling_eval_batch(f, points)
        gap = centre.projection.distance - r
        on_ramp = np.flatnonzero((0.25 * r <= gap) & (gap <= 0.8 * r))
        breaks = np.abs(gap[on_ramp, None] - root_breaks).min(axis=1) <= step
        kept = on_ramp[~breaks]
        stencil_rows = centre.projected[kept]
        nodes = (points[stencil_rows, None, :] + offsets).reshape(-1, d)
        stencil = fooling_eval_batch(f, nodes, gradients=False)
        values = stencil.values.reshape(-1, 2, d)
        fd = (values[:, 0] - values[:, 1]) / (2.0 * step)
        grad = centre.gradients[stencil_rows]
        rel = np.linalg.norm(fd - grad, axis=1) / np.maximum(
            np.linalg.norm(grad, axis=1), 1e-300
        )
        # A node the bracket settled has left the ramp: no active set,
        # so its stencil counts as a change of face.
        active = np.zeros((len(nodes), ps.n), dtype=bool)
        active[stencil.projected] = stencil.projection.active
        same_face = np.all(
            active.reshape(-1, 2 * d, ps.n) == centre.projection.active[kept, None, :],
            axis=(1, 2),
        )
        # Visit the candidates in draw order until enough are checked.
        k = 0
        for excluded in breaks:
            if excluded:
                near_breakpoint += 1
                continue
            if not same_face[k]:
                support_changes += 1
            else:
                max_rel = max(max_rel, float(rel[k]))
                checked += 1
                if checked == _GRAD_POINTS:
                    break
            k += 1

    return _with_pass({
        "variant": "c1",
        "certificate": f.to_json_dict(),
        **tagged("monte_carlo", max_lipschitz_quotient=max_q, max_gradient_quotient=max_gq,
                 grad_fd_max_rel_err=max_rel),
        **tagged("formula", lipschitz_bound=l0, gradient_bound=l1),
        "lipschitz_pass": max_q <= l0 * (1.0 + 1e-8),
        "gradient_pass": max_gq <= l1 * (1.0 + 1e-6),
        "zeros_exact": zeros_exact,
        "zeros_total": samples,
        "zeros_pass": zeros_exact == samples,
        "ones_exact": ones_exact,
        "ones_total": samples,
        "ones_pass": ones_exact == samples,
        "grad_fd_points": checked,
        "grad_fd_near_breakpoint": near_breakpoint,
        "grad_fd_support_changes": support_changes,
        "grad_fd_pass": checked > 0 and max_rel <= 1e-5,
        "range_pass": range_pass,
    })


def smooth_check(
    d: int,
    n: int,
    delta: float,
    k: int,
    samples: int,
    seed: int,
) -> dict:
    """Convolution-smoothing suite on the class-order-(k+1) construction.

    Runs :func:`fooling_smoothed` with order k + 1, the c1 ramp
    convolved with k uniform ball kernels, and takes every smoothed mean
    from that object.  Verifies the normalized-kernel hooks (a constant
    base reproduces the constant exactly, an affine base matches up to
    Monte Carlo error) with the same kernels, the exact-zero and
    exact-one regions of the smoothed construction, and the Lipschitz
    quotient of smoothed means on common random numbers against the
    certified Lipschitz constant.
    """
    _require_count("k", k)
    dom = DomainSpec.cube(d)
    ps = random_point_set(dom, n, seed)
    f = fooling_smoothed(ps, delta, k + 1)
    r = delta * math.sqrt(d)
    lip = f.certificate.value(0, d)
    rng = substream(seed, 1)
    x0 = dom.sample(rng, 1)[0]

    const_value = 0.375
    mean_c, _ = smoothed_eval(
        lambda pts: np.full(len(np.atleast_2d(pts)), const_value),
        f.seq, f.kernels, f.delta, x0, samples, seed + 1,
    )
    const_pass = mean_c == const_value

    a_vec = rng.standard_normal(d)
    b_off = float(rng.random())
    mean_a, hw_a = smoothed_eval(
        lambda pts: np.atleast_2d(pts) @ a_vec + b_off,
        f.seq, f.kernels, f.delta, x0, samples, seed + 1,
    )
    target = float(a_vec @ x0 + b_off)
    affine_pass = abs(mean_a - target) <= 3.0 * hw_a

    w = rng.dirichlet(np.ones(ps.n), size=4)
    hull_pts = w @ ps.points
    zero_means = [f.smoothed_estimate(point, samples, seed + 2)[0] for point in hull_pts]
    zero_pass = all(m == 0.0 for m in zero_means)

    far = _certified_far_points(substream(seed, 3), ps, dom, 3.0 * r, 4)
    one_means = [f.smoothed_estimate(point, samples, seed + 2)[0] for point in far]
    one_pass = all(m == 1.0 for m in one_means)

    # Lipschitz of smoothed means: pairs straddling the ramp, common seed.
    max_quotient = 0.0
    max_allowance = 0.0
    lip_pass = True
    pair_rng = substream(seed, 4)
    for i in range(_LIP_PAIRS):
        base = pair_rng.dirichlet(np.ones(ps.n)) @ ps.points
        direction = pair_rng.standard_normal(d)
        direction /= np.linalg.norm(direction)
        xa = base + direction * (r * (1.0 + 0.3 * pair_rng.random()))
        xb = base + direction * (r * (1.3 + 0.9 * pair_rng.random()))
        ma, ha = f.smoothed_estimate(xa, samples, seed + 5 + i)
        mb, hb = f.smoothed_estimate(xb, samples, seed + 5 + i)
        gap = float(np.linalg.norm(xa - xb))
        quotient = abs(ma - mb) / gap
        allowance = 3.0 * math.sqrt(ha * ha + hb * hb) / gap
        if quotient > max_quotient:
            max_quotient, max_allowance = quotient, allowance
        if quotient > lip + allowance:
            lip_pass = False

    return _with_pass({
        **tagged("monte_carlo", constant_hook=mean_c, affine_mean=mean_a,
                 zero_means=zero_means, one_means=one_means, max_mean_quotient=max_quotient,
                 mean_quotient_allowance=max_allowance),
        **tagged("formula", affine_target=target, lipschitz_bound=lip),
        "constant_pass": const_pass,
        "affine_pass": affine_pass,
        "zero_pass": zero_pass,
        "one_pass": one_pass,
        "mean_lipschitz_pass": lip_pass,
    })


def quad_check_sine(
    d: int,
    j: int,
    seed: int,
    amplitude: float = 0.1,
    a_norm: float = 1.0,
    use_fd: bool = False,
    h: float | None = None,
    max_evals: int | None = None,
) -> dict:
    """Taylor rule against the closed-form sine integral and its bound.

    ``cost_pass`` compares the evaluations used with the count the rule
    predicted before running (``evaluations_cap``).  ``max_evals`` is
    passed to :func:`quad_taylor`, which refuses the rule before
    evaluating when that prediction exceeds it.  A value, error or bound
    that is not finite raises :class:`FloatingPointError`: such a run is
    a numerical failure, never a pass.
    """
    dom = DomainSpec.cube(d)
    rng = substream(seed, 0)
    a = rng.standard_normal(d)
    a *= a_norm / np.linalg.norm(a)
    b = float(rng.random() * 2.0 * math.pi)
    f = make_sine_integrand(a, b, amplitude)
    if use_fd:
        f = Integrand(eval=f.eval, exact_integral=f.exact_integral)
    with np.errstate(all="ignore"):  # a result that is not finite is refused below
        result = quad_taylor(f, dom, j, h=h, max_evals=max_evals)
        err = abs(result.value - f.exact_integral)
    try:
        # Every order-(j+1) directional derivative is at most |amplitude| ||a||^(j+1).
        lip_j = abs(amplitude) * abs(a_norm) ** (j + 1)
        bound = ub_taylor(j, lip_j, d, 0.5).extras["value"]
        fd_slack = 0.0 if not use_fd else 1e-5 * abs(amplitude) * (1.0 + abs(a_norm)) ** (j + 1)
    except OverflowError:
        bound = fd_slack = math.inf
    if not all(math.isfinite(v) for v in (result.value, err, bound + fd_slack)):
        raise FloatingPointError(
            f"Taylor rule value {result.value}, error {err} or bound "
            f"{bound + fd_slack} is not finite"
        )
    return _with_pass({
        # No figure of the rule is sampled.
        **tagged("formula", value=result.value, exact=f.exact_integral, error=err,
                 error_bound=bound, fd_slack=fd_slack),
        "evaluations_used": result.evaluations_used,
        "evaluations_cap": result.evaluations_cap,
        "error_pass": err <= bound + fd_slack,
        "cost_pass": result.evaluations_used <= result.evaluations_cap,
    })


def one_point_check_c0(
    d: int, lipschitz: float, samples: int, seed: int
) -> dict:
    """One-point rule versus Monte Carlo for the distance fooling function.

    The hull is the single cube center, so the rule returns zero and the
    error bound R L sqrt(d) with R = 1/2 and zero tail applies.
    """
    dom = DomainSpec.cube(d)
    ps = PointSet(dom.center[None, :], domain=dom)
    f = fooling_c0(ps, lipschitz)
    integrand = Integrand(eval=f)
    result = quad_one_point(integrand, dom)
    ref, half = reference_integral(integrand, dom, samples, seed)
    bound = ub_one_point_c0(lipschitz, d, 0.5, 0.0)
    err = abs(ref - result.value)
    return {
        **tagged("formula", one_point_value=result.value, error_bound=bound.extras["value"]),
        **tagged("monte_carlo", reference_mean=ref, reference_half_width=half, error=err),
        "pass": err <= bound.extras["value"] + 3.0 * half,
    }
