"""Convex hulls of point sets: projections, distances, neighborhoods.

The central primitive is :func:`project_batch`: the minimum-norm-point
method of Wolfe, run on the sample points shifted by each query, in
lockstep over blocks of queries.  Each round does one batched KKT solve
over the queries' active sets; the major step then either adds a
query's best vertex or retires the query, once the duality gap
``||z||^2 - min_j <z, q_j> <= _TOL * (1 + ||z||)`` certifies its nearest
point.  Every query gets its nearest point, distance, dense convex
weights, active set, cycle count, final gap and a stall flag.  A query
may start from a given active set instead of its nearest vertex: a point
next to one whose projection is known (a finite-difference node next to
its centre, a point on the segment from a query to its projection)
starts on that projection's face and converges in a cycle or two.
:func:`project_onto_hull` is a batch of one; :func:`slide_toward` turns
projections into nearest points of a hull neighborhood; the fooling
functions and the check suites all go through the same solver.

Many callers only need to know on which side of a radius a query's
hull distance lies.  One verdict, :func:`bracket`, answers that for
the whole library: cheap certified bounds (nearest-vertex upper bound,
support-function lower bound, a vectorized Gilbert refinement) settle
most queries, and the solver projects the rest in the same call.  With
n <= d points the hull lies in their affine hull, a flat of dimension
n - 1 whose orthonormal basis the point set holds, and each query's
distance to it, one d x (n - 1) product, first settles the queries far
from that flat.  The next round's bounds come from the products
``queries @ points.T`` that find each query's nearest vertex and from
the point set's Gram matrix, so only the queries it leaves open are
gathered.  Every cut is widened by the solver's own slack, so a settled
query gets the verdict the solver would give it.
:func:`within_distance` (the Monte Carlo volume estimators and the
far-point sampler of the checks) asks it at one radius; the c1 fooling
values ask it at ``r`` and ``2r``, since they are exactly 0 or 1
outside that ramp.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rng import _BLOCK_ENTRIES, substream

__all__ = [
    "PointSet",
    "HullProjection",
    "BatchProjection",
    "HullIterationError",
    "project_batch",
    "project_onto_hull",
    "slide_toward",
    "within_distance",
    "elekes_cover_check",
]


class HullIterationError(RuntimeError):
    """The Wolfe solver hit its iteration cap (numerical degeneracy)."""


class PointSet:
    """Immutable set of n points in R^d with their squared norms and Gram matrix.

    Exact duplicate rows are removed on construction (bitwise equality
    only); affinely dependent points are fine.  If ``domain`` is given,
    membership of every point is checked.  Nothing is mutated after
    construction, so sharing one instance across threads is safe.

    With n - 1 < d the hull lies in the affine hull of the points, a
    flat of dimension at most n - 1: an orthonormal basis of the span of
    ``p_j - p_0`` (d x (n - 1), Householder QR, every column kept
    whatever the rank) and the largest ``||p_j - p_0||`` are stored for
    :func:`bracket`'s first cut.  With n - 1 >= d the flat is all of
    R^d and nothing is stored.
    """

    def __init__(self, points: np.ndarray, domain=None):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        if pts.ndim != 2 or pts.size == 0:
            raise ValueError("points must be a non-empty n x d array")
        _, keep = np.unique(pts, axis=0, return_index=True)
        pts = pts[np.sort(keep)]
        self.points = pts
        self.points.setflags(write=False)
        self.n, self.d = pts.shape
        if domain is not None:
            if domain.d != self.d:
                raise ValueError("point dimension does not match domain")
            inside = domain.contains(pts)
            if not bool(np.all(inside)):
                bad = int(np.argmin(inside))
                raise ValueError(f"point {bad} lies outside the domain")
        self._norms2 = np.einsum("ij,ij->i", pts, pts)
        self._gram = pts @ pts.T
        self._flat = None
        if self.n - 1 < self.d:
            spread = pts[1:] - pts[0]
            reach = float(np.sqrt(np.einsum("ij,ij->i", spread, spread).max(initial=0.0)))
            self._flat = (np.linalg.qr(spread.T)[0], reach)

    @staticmethod
    def from_csv(path, domain=None) -> "PointSet":
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if line:
                    rows.append([float(tok) for tok in line.split(",")])
        return PointSet(np.asarray(rows, dtype=float), domain=domain)

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, d={self.d})"


@dataclass(frozen=True)
class HullProjection:
    """Nearest hull point, its distance, and the supporting convex weights.

    ``iterations`` counts major and minor cycles; ``gap`` is the final
    duality gap; ``stalled`` is set when the solver stopped because its
    best improving vertex was already active, so ``gap`` may exceed the
    tolerance.
    """

    nearest: np.ndarray
    distance: float
    weights: np.ndarray
    support: np.ndarray
    iterations: int
    gap: float
    stalled: bool

    def __post_init__(self):
        self.nearest.setflags(write=False)


@dataclass(frozen=True)
class BatchProjection:
    """Per-query results of :func:`project_batch`, one row per query.

    ``weights`` are dense convex weights over all n ``points``, zero off
    the final ``active`` set; ``iterations``, ``gap`` and ``stalled``
    mean what they mean in :class:`HullProjection`.  ``nearest`` is
    formed on first access, so callers that need only distances never
    hold an m x d array.
    """

    points: np.ndarray  # (n, d), the point set
    distance: np.ndarray  # (m,)
    weights: np.ndarray  # (m, n)
    active: np.ndarray  # (m, n) bool
    iterations: np.ndarray  # (m,) int
    gap: np.ndarray  # (m,)
    stalled: np.ndarray  # (m,) bool

    @cached_property
    def nearest(self) -> np.ndarray:
        """(m, d) nearest hull points."""
        return self.weights @ self.points


#: Queries solved in lockstep per block, and the cap on block size times
#: n * d (the gathered active points); together they bound the solver's
#: working memory.
_BLOCK = 512
_BLOCK_ELEMENTS = 1 << 20

#: Gilbert refinement rounds :func:`bracket` runs before it hands the
#: queries it could not decide to the exact solver, cold and with a
#: starting active set (a warm solve costs less than the Gilbert tail).
_REFINE_ITERS = 64
_WARM_REFINE_ITERS = 8

#: Duality-gap tolerance of :func:`project_batch`.
_TOL = 1e-10

#: Major and minor cycles a query may take, per entry of the n x d points.
_CYCLES_PER_ENTRY = 50


def _affine_minimizers(pts: np.ndarray, x: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Affine minimizers of every row's active set, dense and zero off it.

    The active columns of each row are gathered into one (m+1)-square
    KKT system per row, m the largest active count; padding rows are
    identity rows, so their coefficients come out as zero.  The rows
    whose solve fails or is not finite are solved again, in one call,
    by the pseudoinverse of their systems: the least-squares solution
    of least norm, as ``lstsq(rcond=None)`` gives it.
    """
    b, n = active.shape
    m = int(active.sum(axis=1).max())
    order = np.argsort(~active, axis=1, kind="stable")[:, :m]
    row = np.arange(b)[:, None]
    valid = active[row, order]
    q = pts[order] - x[:, None, :]
    q[~valid] = 0.0
    kkt = np.zeros((b, m + 1, m + 1))
    kkt[:, :m, :m] = q @ q.transpose(0, 2, 1)
    diag = np.arange(m)
    kkt[:, diag, diag] += ~valid
    kkt[:, :m, m] = valid
    kkt[:, m, :m] = valid
    rhs = np.zeros((b, m + 1, 1))
    rhs[:, m, 0] = 1.0
    try:
        sol = np.linalg.solve(kkt, rhs)
        redo = ~np.all(np.isfinite(sol[:, :m, 0]), axis=1)
    except np.linalg.LinAlgError:
        sol = np.empty_like(rhs)
        redo = np.ones(b, dtype=bool)
    if redo.any():
        sol[redo] = np.linalg.pinv(kkt[redo], hermitian=True, rtol=None) @ rhs[redo]
    a = np.zeros((b, n))
    a[row, order] = np.where(valid, sol[:, :m, 0], 0.0)
    return a


def _minor_cycles(pts, queries, weights, active, iterations, rows, max_iter) -> None:
    """Move ``rows`` to their affine minimizers, dropping vertices whose
    coefficient would turn negative; updates the state in place."""
    while rows.size:
        iterations[rows] += 1
        if int(iterations[rows].max()) > max_iter:
            raise HullIterationError(
                f"no convergence after {max_iter} cycles (minor loop)"
            )
        a = _affine_minimizers(pts, queries[rows], active[rows])
        neg = a < -1e-12
        blocked = np.any(neg, axis=1)
        done = rows[~blocked]
        w = np.clip(a[~blocked], 0.0, None)
        weights[done] = w / w.sum(axis=1, keepdims=True)
        rows, a, neg = rows[blocked], a[blocked], neg[blocked]
        if not rows.size:
            break
        w = weights[rows]
        ratio = np.full(w.shape, np.inf)
        ratio[neg] = w[neg] / (w[neg] - a[neg])
        theta = ratio.min(axis=1, keepdims=True)
        w = w + theta * (a - w)
        w[neg & (w < 1e-14)] = 0.0
        drop = np.argmin(np.where(neg, w, np.inf), axis=1)
        w[np.arange(rows.size), drop] = 0.0
        active[rows, drop] = False
        w = np.clip(w, 0.0, None)
        weights[rows] = w / w.sum(axis=1, keepdims=True)


def _wolfe_block(ps: PointSet, queries: np.ndarray, max_iter: int, start):
    """Wolfe's method in lockstep over one block of queries, from the rows
    of the ``start`` mask; without one, from each query's nearest vertex."""
    pts = ps.points
    b = queries.shape[0]
    iterations = np.zeros(b, dtype=np.int64)
    gap = np.zeros(b)
    stalled = np.zeros(b, dtype=bool)
    if start is None:
        start = np.zeros((b, ps.n), dtype=bool)
        start[np.arange(b), np.argmin(ps._norms2 - 2.0 * (queries @ pts.T), axis=1)] = True
    # The barycentre gives every vertex of its set a positive weight, as
    # the minor cycles' ratio test needs; they carry it to the set's affine
    # minimizer, dropping vertices until that is convex: the state Wolfe's
    # major cycle expects.  A single vertex is its own affine minimizer.
    active = start.copy()
    count = active.sum(axis=1, keepdims=True)
    weights = active / count
    _minor_cycles(pts, queries, weights, active, iterations,
                  np.flatnonzero(count > 1), max_iter)

    rows = np.arange(b)
    while rows.size:
        # Major cycle: the vertex minimizing <z, q_j> certifies optimality
        # (gap <= _TOL (1 + ||z||)) or joins the active set.
        x = queries[rows]
        z = weights[rows] @ pts - x
        zz = np.einsum("ij,ij->i", z, z)
        t = z @ pts.T - np.einsum("ij,ij->i", x, z)[:, None]
        j = np.argmin(t, axis=1)
        gap[rows] = zz - t[np.arange(rows.size), j]
        converged = gap[rows] <= _TOL * (1.0 + np.sqrt(np.maximum(zz, 0.0)))
        # The best improving vertex is already active: numerical stall,
        # the affine solve cannot improve further.
        stuck = ~converged & active[rows, j]
        stalled[rows[stuck]] = True
        go = ~(converged | stuck)
        rows, j = rows[go], j[go]
        if not rows.size:
            break
        iterations[rows] += 1
        worst = int(np.argmax(iterations[rows]))
        if iterations[rows[worst]] > max_iter:
            raise HullIterationError(
                f"no convergence after {max_iter} cycles (gap {gap[rows[worst]]:.3e})"
            )
        active[rows, j] = True
        _minor_cycles(pts, queries, weights, active, iterations, rows, max_iter)

    distance = np.linalg.norm(queries - weights @ pts, axis=1)
    return distance, weights, active, iterations, gap, stalled


def _as_queries(ps: PointSet, queries) -> np.ndarray:
    """``queries`` as an (m, d) float array; one point is a batch of one."""
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    if queries.ndim != 2 or queries.shape[1] != ps.d:
        raise ValueError(
            f"queries have dimension {queries.shape[-1]}, expected {ps.d}"
        )
    return queries


def project_batch(ps: PointSet, queries: np.ndarray, start=None) -> BatchProjection:
    """Project every row of ``queries`` onto the hull of ``ps``.

    Wolfe's minimum-norm-point method on the shifted points
    ``q_i = p_i - x``, run in lockstep over blocks of queries: each round
    does one batched KKT solve over the active sets, then a major step
    either adds each query's best vertex or retires the query once its
    duality gap is below ``_TOL * (1 + distance)``.  Raises
    :class:`HullIterationError` when a query exceeds
    ``_CYCLES_PER_ENTRY * n * d`` major/minor cycles.

    A query starts from its nearest vertex, or, given ``start`` (a bool
    mask over the n points: one row for every query, or one row per
    query), from the barycentre of its row, moved to that set's affine
    minimizer by minor cycles before the first major cycle; one vertex
    needs none.  A start changes the path, not the stopping rule: a start
    on the query's optimal face converges in one cycle, a wrong one costs
    cycles only.  An empty start row is refused.
    """
    queries = _as_queries(ps, queries)
    if start is not None:
        start = np.broadcast_to(np.asarray(start, dtype=bool), (len(queries), ps.n))
        if not start.any(axis=1).all():
            raise ValueError("every start set needs at least one point")
    max_iter = _CYCLES_PER_ENTRY * ps.n * ps.d
    block = max(1, min(_BLOCK, _BLOCK_ELEMENTS // (ps.n * ps.d)))
    # At least one block, so that zero queries give empty outputs of the right shapes.
    parts = [_wolfe_block(ps, queries[lo:lo + block], max_iter,
                          None if start is None else start[lo:lo + block])
             for lo in range(0, max(len(queries), 1), block)]
    return BatchProjection(ps.points, *map(np.concatenate, zip(*parts)))


def project_onto_hull(x: np.ndarray, ps: PointSet) -> HullProjection:
    """Project ``x`` onto the convex hull of ``ps``: a batch of one."""
    res = project_batch(ps, np.ravel(x))
    support = np.flatnonzero(res.active[0])
    return HullProjection(
        nearest=res.nearest[0],
        distance=float(res.distance[0]),
        weights=res.weights[0, support],
        support=support,
        iterations=int(res.iterations[0]),
        gap=float(res.gap[0]),
        stalled=bool(res.stalled[0]),
    )


def slide_toward(nearest, distance, x, r) -> np.ndarray:
    """Points at distance ``r`` from hull projections, toward their queries.

    Every point of the segment from a query ``x`` to its hull projection
    ``nearest`` has that projection, so for ``distance > r`` this is the
    nearest point of the r-neighborhood of the hull.  Accepts one query
    or a batch (rows of ``x`` and ``nearest``, entries of ``distance``
    and of ``r``, or one ``r`` for all).
    """
    scale = r / np.asarray(distance, dtype=float)
    return nearest + scale[..., None] * (x - nearest)


def _solver_slack(r: float) -> float:
    """Room around ``r`` inside which the bracket defers to the exact solver.

    The distance W that :func:`project_batch` reports is that of a hull
    point, so W >= D, the true distance.  A query it retires by its
    stopping rule has a duality gap at most ``_TOL * (1 + W)``, and that
    gap is at least ``W * (W - D)``; so ``D <= r - _TOL * (1 + r) / r``
    gives ``W <= r``.  The slack is twice that: the second half covers
    rounding in the bracket's bounds.  The nearest-vertex bound and the
    first round's lower bound are both formed from expanded products
    (``||x||^2 + ||p||^2 - 2 <x, p>`` and, with the Gram matrix, its kin
    for ``<x - p_b, x - p_k>``), so each loses about
    ``1e-16 * (||x||^2 + ||p||^2) / r``, far below ``_TOL / r`` on this
    package's domains; the lower bound is capped at the nearest-vertex
    distance, so it certifies a row beyond r only where that distance,
    the divisor of its rounding, exceeds r as well.  A query whose
    solver stalled is not covered.  At ``r = 0`` the slack is zero and
    no bound is exact enough to certify a distance of zero (a query
    1e-12 from a vertex can get a nearest-vertex distance of 0), so
    :func:`bracket` certifies no row within an inner cut of zero and
    forms its first bounds without the expanded products there.

    The cut from the points' affine hull (:func:`_beyond_flat`) has a
    margin of its own, and at ``r = 0`` it is the only one.  Let u be the
    unit roundoff, eps = 2u, k = n - 1 < d, M = max_j ||p_j - p_0||, and
    v = x - p_0; bounds are to first order in u.  LAPACK's Householder
    QR (Higham, *Accuracy and Stability of Numerical Algorithms*, 2002,
    Lemma 19.3 and Theorem 19.4) applies k reflectors to the rounded
    differences a_j, each formed and applied with one inner product and
    one update of length d, so with a relative error of about 2(d + 2)u:
    there is an exactly orthonormal Q' with ``||Q - Q'||_F <= 2 k^{1/2}
    k (d + 2) u`` and every a_j within ``2k(d + 2)u ||a_j||`` of span Q',
    so every p_j, and with them the whole hull (the distance to a flat
    is convex), lies within ``(1 + 2k(d + 2)) u M`` of the flat F' =
    p_0 + span Q'.  No column is dropped, whatever the rank: Q'R
    reproduces dependent columns too, and a truncated basis would leave
    points off the flat, a wrong bound rather than a weak one.  The
    residual ``||v - Q(Q^T v)||`` then differs from dist(x, F') by at
    most ``u ||v||`` (rounding v), ``2 k^{1/2} 2k(d + 2) u ||v||`` (Q for
    Q'), ``k^{1/2} (d + k) u ||v||`` (the two products, as ``|| |Q| ||
    <= k^{1/2}``) and ``(d/2 + 2) u ||v||`` (the difference and the
    norm).  The coefficients of ||v|| sum to at most gamma eps, and so
    does that of M, for gamma = ``2 (d + 2) (k + 1)^{3/2}``; so
    ``dist(x, hull) >= residual - gamma eps (||v|| + M)``, and a row is
    certified beyond ``r`` only where the right side exceeds it.  At
    n = 1 (k = 0) the residual is the computed distance to the single
    vertex and gamma = 2(d + 2).
    """
    return 2.0 * _TOL * (1.0 + r) / r if r > 0.0 else 0.0


def _beyond_flat(ps: PointSet, queries: np.ndarray, r: float) -> np.ndarray:
    """Mask of the rows whose distance to the affine hull of ``ps``, less
    the rounding margin derived at :func:`_solver_slack`, exceeds ``r``:
    a certified lower bound on the hull distance, one d x k product per
    row.  Only for point sets that store a basis (n - 1 < d).  Rows go
    in blocks of ``_BLOCK_ENTRIES // d`` (1 MiB per array), so the
    temporaries are reused, not paged in afresh for every call."""
    basis, reach = ps._flat
    gamma = 2.0 * (ps.d + 2) * (basis.shape[1] + 1) ** 1.5 * np.finfo(float).eps
    block = max(1, _BLOCK_ENTRIES // ps.d)
    beyond = np.empty(len(queries), dtype=bool)
    for lo in range(0, len(queries), block):
        v = queries[lo:lo + block] - ps.points[0]
        margin = gamma * (np.sqrt(np.einsum("ij,ij->i", v, v)) + reach)
        v -= (v @ basis) @ basis.T
        beyond[lo:lo + block] = np.sqrt(np.einsum("ij,ij->i", v, v)) - margin > r
    return beyond


def bracket(
    ps: PointSet, queries: np.ndarray, r_in: float, r_out: float, start=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, BatchProjection]:
    """The hull-distance verdict: within ``r_in``, beyond ``r_out``, or projected.

    Returns ``(inside, outside, rows, projection)``: masks of the rows
    certified within ``r_in`` and beyond ``r_out`` of the hull (no row
    is in both), the ascending indices of the rows in neither, and the
    solver's projection of those rows, one projection row per listed
    row.  Both cuts are first widened by ``_solver_slack(r_in)``, so
    every certified row is one the solver would put on the same side.
    At ``r_in = 0`` no row is certified within, and round one's bounds
    are formed from the differences themselves, so the solver decides
    every row the outer cut leaves.
    When ``ps`` stores the basis of its affine hull (n - 1 < d), every
    row's distance to that flat, a lower bound on its hull distance, is
    taken first (:func:`_beyond_flat`): the rows it certifies beyond
    ``r_out``, with a rounding margin of its own, skip the rounds below.
    The nearest-vertex distance is an upper bound; the support function
    in the direction of the current residual is a lower bound; a
    Gilbert-type line search tightens both for up to ``_REFINE_ITERS``
    rounds.  The first round, from the nearest vertex, reads both bounds
    off the products that found that vertex.  A row stops refining once
    neither verdict can be reached (lower bound above the inner cut,
    upper bound at most the outer).
    Given ``start`` (a starting active set for every row, or one per
    row, as :func:`project_batch` takes it), the projected rows start
    from their sets, and every row refines for at most
    ``_WARM_REFINE_ITERS`` rounds: a warm solve is cheaper than the
    Gilbert tail.  Verdicts do not change, only which rows the solver
    decides.
    """
    exact = r_in <= 0.0
    slack = _solver_slack(r_in)
    r_in, r_out = -np.inf if exact else r_in - slack, r_out + slack
    pts = ps.points
    m = queries.shape[0]
    inside = np.zeros(m, dtype=bool)
    if ps._flat is None:
        outside = np.zeros(m, dtype=bool)
        alive, first = np.arange(m), queries
    else:
        outside = _beyond_flat(ps, queries, r_out)
        alive = np.flatnonzero(~outside)
        first = queries[alive]

    # Nearest vertex b: d2[i, k] = ||x_i - p_k||^2.  Round one reads off
    # these products: with z = x - p_b, ||z||^2 = d2[:, b], <z, x> =
    # q2 - cross[:, b] and <z, p_k> = cross[:, k] - G[b, k].  Only the rows
    # it leaves undecided gather their x and y.
    cross = first @ pts.T
    q2 = np.einsum("ij,ij->i", first, first)
    d2 = q2[:, None] + ps._norms2[None, :] - 2.0 * cross
    best = np.argmin(d2, axis=1)
    if exact:
        # A cut of zero is below the products' rounding: round one forms
        # z = x - p_b itself, which is zero only at the vertex.
        x, y = first, pts[best]
    else:
        row = np.arange(len(alive))
        zn = np.sqrt(np.maximum(d2[row, best], 0.0))
        zx = q2 - cross[row, best]
        zp = cross
        zp -= ps._gram[best]
        x = y = None
    for _ in range(_REFINE_ITERS if start is None else _WARM_REFINE_ITERS):
        if not alive.size:
            break
        if x is not None:
            z = x - y
            zn = np.sqrt(np.einsum("ij,ij->i", z, z))
            zp = z @ pts.T
            zx = np.einsum("ij,ij->i", z, x)
        # Support function bound: dist >= min_k <z, x - p_k> / ||z||.  It
        # never exceeds ||z||, as y lies in the hull; capping it there keeps
        # round one's expanded products, whose rounding is large over a
        # small ||z||, from certifying a row beyond r_out.
        sup_idx = np.argmax(zp, axis=1)
        lb = (zx - zp[np.arange(len(alive)), sup_idx]) / np.maximum(zn, 1e-300)
        lb = np.minimum(lb, zn)
        is_in = zn <= r_in
        is_out = lb > r_out
        inside[alive[is_in]] = True
        outside[alive[is_out]] = True
        keep = ~(is_in | is_out | ((lb > r_in) & (zn <= r_out)))
        alive = alive[keep]
        if x is None:
            x = queries[alive]
            y = pts[best[keep]]
        else:
            x = x[keep]
            y = y[keep]
        s = pts[sup_idx[keep]]
        w = s - y
        wn2 = np.einsum("ij,ij->i", w, w)
        step = np.einsum("ij,ij->i", x - y, w) / np.maximum(wn2, 1e-300)
        step = np.clip(step, 0.0, 1.0)
        y = y + step[:, None] * w
    rows = np.flatnonzero(~(inside | outside))
    if start is None:
        return inside, outside, rows, project_batch(ps, queries[rows])
    start = np.broadcast_to(start, (m, ps.n))[rows]
    return inside, outside, rows, project_batch(ps, queries[rows], start)


def within_distance(ps: PointSet, queries: np.ndarray, r: float) -> np.ndarray:
    """Boolean mask: dist(query, hull) <= r, batched.

    :func:`bracket` settles what its bounds can and projects the rest,
    so the mask agrees with the solver (:func:`project_batch`) on every
    query it did not stall on.
    """
    queries = _as_queries(ps, queries)
    if r < 0.0:
        raise ValueError("r must be non-negative")
    inside, _, rows, proj = bracket(ps, queries, r, r)
    inside[rows] = proj.distance <= r
    return inside


def elekes_cover_check(
    ps: PointSet, z: np.ndarray, r: float, m: int, seed: int
) -> bool:
    """Check that random hull points lie in the union of midpoint balls.

    With every sample point within distance ``r`` of ``z``, the hull is
    covered by the balls of radius ``r/2`` centered at the midpoints
    ``(z + p_i) / 2``.  Draws ``m`` Dirichlet(1,...,1) convex
    combinations and verifies membership up to 1e-12 slack.
    """
    if m < 1:
        raise ValueError("m must be at least 1")
    z = np.asarray(z, dtype=float).ravel()
    if z.shape[0] != ps.d:
        raise ValueError("center dimension mismatch")
    dists = np.linalg.norm(ps.points - z, axis=1)
    if np.any(dists > r + 1e-12):
        raise ValueError("precondition violated: a point lies farther than r from z")
    rng = substream(seed)
    w = rng.dirichlet(np.ones(ps.n), size=m)
    samples = w @ ps.points
    centers = 0.5 * (z + ps.points)
    c2 = np.einsum("ij,ij->i", centers, centers)
    s2 = np.einsum("ij,ij->i", samples, samples)
    d2 = s2[:, None] + c2[None, :] - 2.0 * samples @ centers.T
    nearest = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
    return bool(np.all(nearest <= 0.5 * r + 1e-12))
