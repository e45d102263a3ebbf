import itertools
import math

import numpy as np
import pytest
from scipy.optimize import nnls

from curselab import geometry as geo
from curselab import hull


def _scalar_wolfe(x, points, tol=1e-10):
    """Reference: the one-query Wolfe solver the batched one replaced.

    Keeps the support in insertion order and the shifted Gram matrix of
    the support, as the scalar solver did; returns (nearest, distance).
    """
    n = points.shape[0]
    norms2 = np.einsum("ij,ij->i", points, points)
    px = points @ x
    xx = float(x @ x)
    start = int(np.argmin(norms2 - 2.0 * px))
    support = [start]
    weights = np.array([1.0])
    q_gram = np.array([[norms2[start] - 2.0 * px[start] + xx]])

    def affine(gram):
        m = gram.shape[0]
        kkt = np.zeros((m + 1, m + 1))
        kkt[:m, :m] = gram
        kkt[:m, m] = kkt[m, :m] = 1.0
        rhs = np.zeros(m + 1)
        rhs[m] = 1.0
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0]
        return sol[:m]

    for _ in range(50 * n * points.shape[1]):
        z = weights @ points[support] - x
        zz = float(z @ z)
        t = points @ z - float(x @ z)
        j = int(np.argmin(t))
        if zz - t[j] <= tol * (1.0 + math.sqrt(zz)) or j in support:
            break
        row = points[support] @ points[j] - px[support] - px[j] + xx
        m = len(support)
        grown = np.empty((m + 1, m + 1))
        grown[:m, :m] = q_gram
        grown[:m, m] = grown[m, :m] = row
        grown[m, m] = norms2[j] - 2.0 * px[j] + xx
        q_gram = grown
        support.append(j)
        weights = np.append(weights, 0.0)
        while True:
            a = affine(q_gram)
            if np.min(a) >= -1e-12:
                weights = np.clip(a, 0.0, None)
                weights /= weights.sum()
                break
            neg = a < -1e-12
            theta = np.min(weights[neg] / (weights[neg] - a[neg]))
            weights = weights + theta * (a - weights)
            weights[neg & (weights < 1e-14)] = 0.0
            drop = int(np.argmin(np.where(neg, weights, np.inf)))
            keep = np.arange(len(support)) != drop
            support = [s for s, k in zip(support, keep) if k]
            weights = np.clip(weights[keep], 0.0, None)
            weights /= weights.sum()
            q_gram = q_gram[np.ix_(keep, keep)]
    nearest = weights @ points[support]
    return nearest, float(np.linalg.norm(x - nearest))


def _nnls_distance(points, x, weight=1e4):
    """Independent reference: nnls with a heavily weighted sum-to-one row."""
    q = (points - x).T
    a = np.vstack([q, np.full((1, points.shape[0]), weight)])
    b = np.zeros(q.shape[0] + 1)
    b[-1] = weight
    w, _ = nnls(a, b, maxiter=50 * points.shape[0])
    return float(np.linalg.norm(q @ (w / w.sum())))


def test_projection_of_a_vertex_is_zero():
    ps = hull.PointSet(np.array([[0.2, 0.3], [0.8, 0.1], [0.5, 0.9]]))
    proj = hull.project_onto_hull(ps.points[0], ps)
    assert proj.distance <= 1e-10


def test_projection_onto_segment():
    ps = hull.PointSet(np.array([[0.0, -1.0], [0.0, 1.0]]))
    proj = hull.project_onto_hull(np.array([2.0, 0.0]), ps)
    assert proj.distance == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(proj.nearest, [0.0, 0.0], atol=1e-10)
    assert proj.weights.sum() == pytest.approx(1.0)
    assert np.all(proj.weights >= 0.0)


def test_projection_of_interior_point():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    ps = hull.PointSet(pts)
    proj = hull.project_onto_hull(pts.mean(axis=0), ps)
    assert proj.distance <= 1e-10


def test_projection_weights_reconstruct_nearest():
    rng = np.random.default_rng(3)
    ps = hull.PointSet(rng.random((6, 4)))
    x = rng.random(4) * 3.0
    proj = hull.project_onto_hull(x, ps)
    rebuilt = proj.weights @ ps.points[proj.support]
    assert np.allclose(rebuilt, proj.nearest, atol=1e-12)


def _grid_min_distance(points: np.ndarray, x: np.ndarray, steps: int) -> float:
    """Brute force: min ||x - sum w_i p_i|| over a simplex weight grid."""
    n = points.shape[0]
    best = math.inf
    for combo in itertools.product(range(steps + 1), repeat=n - 1):
        if sum(combo) > steps:
            continue
        w = np.array(list(combo) + [steps - sum(combo)], dtype=float) / steps
        best = min(best, float(np.linalg.norm(x - w @ points)))
    return best


@pytest.mark.parametrize("d,n,seed", [(2, 3, 0), (3, 4, 1), (1, 2, 2), (3, 3, 3)])
def test_projection_matches_grid_search(d, n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    ps = hull.PointSet(pts)
    x = rng.random(d) + 1.0
    proj = hull.project_onto_hull(x, ps)
    steps = 40
    grid = _grid_min_distance(pts, x, steps)
    spread = float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max())
    resolution = spread * n / steps
    assert grid >= proj.distance - 1e-9  # grid candidates are feasible
    assert grid - proj.distance <= 2.0 * resolution


def test_projection_nonexpansive():
    rng = np.random.default_rng(9)
    ps = hull.PointSet(rng.random((6, 4)))
    tol = 1e-10  # the solver's default
    for _ in range(200):
        x = rng.random(4) * 4.0 - 1.5
        y = rng.random(4) * 4.0 - 1.5
        px = hull.project_onto_hull(x, ps).nearest
        py = hull.project_onto_hull(y, ps).nearest
        lhs = np.linalg.norm(px - py)
        rhs = np.linalg.norm(x - y) * (1.0 + 10.0 * tol)
        assert lhs <= rhs + 1e-12


def test_projection_beats_random_hull_points():
    rng = np.random.default_rng(13)
    ps = hull.PointSet(rng.random((5, 3)))
    for _ in range(100):
        x = rng.random(3) * 3.0
        proj = hull.project_onto_hull(x, ps)
        w = rng.dirichlet(np.ones(ps.n))
        candidate = w @ ps.points
        assert proj.distance <= np.linalg.norm(x - candidate) + 1e-10


def test_neighborhood_distance_identity():
    # A query slid to distance r from its hull projection lies on the
    # boundary of the r-neighborhood: its own hull distance is r.
    rng = np.random.default_rng(21)
    ps = hull.PointSet(rng.random((4, 3)))
    r = 0.07 * math.sqrt(3)
    x = rng.random((50, 3)) * 2.0
    proj = hull.project_batch(ps, x)
    out = proj.distance > r
    moved = hull.slide_toward(proj.nearest[out], proj.distance[out], x[out], r)
    assert out.sum() > 25
    assert np.allclose(hull.project_batch(ps, moved).distance, r, atol=1e-10)


def test_neighborhood_distance_examples():
    ps = hull.PointSet(np.array([[0.3], [0.5]]))
    proj = hull.project_batch(ps, np.array([[0.4], [0.7]]))
    assert proj.distance[0] == 0.0
    assert proj.distance[1] == pytest.approx(0.2, abs=1e-10)
    moved = hull.slide_toward(proj.nearest[1], proj.distance[1], np.array([0.7]), 0.1)
    assert moved[0] == pytest.approx(0.6, abs=1e-10)


def test_neighborhood_projection_inside_returns_query():
    # Inside the r-neighborhood a query is its own nearest point: the
    # projection puts it within r, and sliding it to its own distance
    # leaves it in place.
    ps = hull.PointSet(np.array([[0.5, 0.5]]))
    x = np.array([0.5, 0.52])
    proj = hull.project_batch(ps, x[None, :])
    assert proj.distance[0] <= 0.1 * math.sqrt(2)
    out = hull.slide_toward(proj.nearest[0], proj.distance[0], x, proj.distance[0])
    assert np.allclose(out, x, rtol=0.0, atol=1e-15)


def test_neighborhood_projection_one_dimensional():
    ps = hull.PointSet(np.array([[0.0]]))
    proj = hull.project_batch(ps, np.array([[3.0]]))
    out = hull.slide_toward(proj.nearest, proj.distance, np.array([[3.0]]), 1.0)
    assert out[0, 0] == pytest.approx(1.0, abs=1e-10)


def test_neighborhood_projection_distance_consistency():
    # The slide moves a query by its hull distance minus r, for a batch
    # and for each query alone.
    rng = np.random.default_rng(31)
    ps = hull.PointSet(rng.random((5, 4)))
    r = 0.1 * math.sqrt(4)
    x = rng.random((25, 4)) * 3.0
    proj = hull.project_batch(ps, x)
    assert np.all(proj.distance > r)
    moved = hull.slide_toward(proj.nearest, proj.distance, x, r)
    assert np.allclose(np.linalg.norm(x - moved, axis=1), proj.distance - r, atol=1e-8)
    for i in range(len(x)):
        alone = hull.slide_toward(proj.nearest[i], proj.distance[i], x[i], r)
        assert np.array_equal(alone, moved[i])


def test_within_distance_agrees_with_wolfe():
    rng = np.random.default_rng(41)
    ps = hull.PointSet(rng.random((8, 5)))
    queries = rng.random((300, 5)) * 2.0 - 0.5
    exact = np.array(
        [hull.project_onto_hull(q, ps).distance for q in queries]
    )
    for r in (0.1, 0.3, 0.6):
        mask = hull.within_distance(ps, queries, r)
        assert np.array_equal(mask, exact <= r)


def test_within_distance_zero_radius():
    ps = hull.PointSet(np.array([[0.5, 0.5]]))
    queries = np.array([[0.5, 0.5], [0.6, 0.5]])
    mask = hull.within_distance(ps, queries, 0.0)
    assert mask.tolist() == [True, False]


def test_elekes_single_point_always_covered():
    ps = hull.PointSet(np.array([[0.4, 0.4]]))
    assert hull.elekes_cover_check(ps, np.array([0.0, 0.0]), 1.0, 50, seed=1)


def test_elekes_one_dimensional_cover():
    # Points {-1, 1} within r=1 of z=0: the midpoint balls are
    # [-1, 0] and [0, 1], so every hull point is covered.
    ps = hull.PointSet(np.array([[-1.0], [1.0]]))
    assert hull.elekes_cover_check(ps, np.array([0.0]), 1.0, 2000, seed=5)


def test_elekes_random_instance_large_sample():
    rng = np.random.default_rng(7)
    d = 6
    z = rng.random(d)
    raw = rng.standard_normal((12, d))
    raw /= np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1.0)
    ps = hull.PointSet(z + 0.9 * raw)
    assert hull.elekes_cover_check(ps, z, 1.0, 10**4, seed=9)


def test_elekes_precondition_violation():
    ps = hull.PointSet(np.array([[2.0, 0.0]]))
    with pytest.raises(ValueError):
        hull.elekes_cover_check(ps, np.array([0.0, 0.0]), 1.0, 10, seed=0)


def test_point_set_deduplicates_exact_copies():
    pts = np.array([[0.1, 0.2], [0.1, 0.2], [0.3, 0.4]])
    ps = hull.PointSet(pts)
    assert ps.n == 2


def test_point_set_domain_validation():
    dom = geo.DomainSpec.cube(2)
    with pytest.raises(ValueError):
        hull.PointSet(np.array([[1.5, 0.5]]), domain=dom)
    ps = hull.PointSet(np.array([[0.5, 0.5]]), domain=dom)
    assert ps.n == 1


def test_point_set_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    ps = hull.PointSet(rng.random((7, 3)))
    path = tmp_path / "points.csv"
    path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in ps.points))
    back = hull.PointSet.from_csv(path)
    assert np.array_equal(back.points, ps.points)


def test_projection_dimension_mismatch():
    ps = hull.PointSet(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError):
        hull.project_onto_hull(np.array([1.0, 2.0, 3.0]), ps)


# ---------------------------------------------------------------------------
# The batched projection


def _batch_case(d, n, seed):
    """Points with duplicates and affinely dependent rows, and queries on
    vertices, inside the hull and far from it."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, d))
    if n >= 2:
        pts = np.vstack([pts, pts[:1], 0.5 * (pts[0] + pts[1])])  # duplicate, midpoint
    if n >= 8:
        pts = np.vstack([pts, pts[2] + 0.25 * (pts[3] - pts[2])])  # collinear
    ps = hull.PointSet(pts)
    inside = rng.dirichlet(np.ones(ps.n), size=20) @ ps.points
    far = rng.standard_normal((20, d)) * 2.0 + 0.5
    near = rng.random((40, d)) * 1.4 - 0.2
    return ps, np.vstack([ps.points, inside, far, near])


BATCH_CASES = [(d, n) for d in (1, 2, 5, 20) for n in (1, 2, 8, 16)]


@pytest.mark.parametrize("d,n", BATCH_CASES)
def test_project_batch_matches_scalar_and_nnls(d, n):
    ps, queries = _batch_case(d, n, seed=100 * d + n)
    res = hull.project_batch(ps, queries)
    assert res.nearest.shape == queries.shape
    assert res.weights.shape == res.active.shape == (len(queries), ps.n)
    for i, x in enumerate(queries):
        nearest, distance = _scalar_wolfe(x, ps.points)
        assert abs(res.distance[i] - distance) <= 1e-12
        assert np.max(np.abs(res.nearest[i] - nearest)) <= 1e-12
        assert abs(res.distance[i] - _nnls_distance(ps.points, x)) <= 1e-7
    # Convex weights, zero off the active set, reproducing the nearest point.
    assert np.all(res.weights >= 0.0)
    assert np.all(res.weights[~res.active] == 0.0)
    assert np.allclose(res.weights.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.allclose(res.weights @ ps.points, res.nearest, rtol=0.0, atol=1e-12)
    assert np.allclose(
        np.linalg.norm(queries - res.nearest, axis=1), res.distance, rtol=0.0, atol=1e-12
    )
    # Converged queries meet the stopping rule.
    ok = ~res.stalled
    assert np.all(res.gap[ok] <= 1e-10 * (1.0 + res.distance[ok]) * (1.0 + 1e-9))


@pytest.mark.parametrize("d,n", [(2, 8), (5, 16), (20, 16)])
def test_project_batch_blocking_does_not_change_results(monkeypatch, d, n):
    ps, queries = _batch_case(d, n, seed=7 * d + n)
    whole = hull.project_batch(ps, queries)
    for block in (1, 7, 64):
        monkeypatch.setattr(hull, "_BLOCK", block)
        part = hull.project_batch(ps, queries)
        assert np.max(np.abs(part.distance - whole.distance)) <= 1e-12
        assert np.max(np.abs(part.nearest - whole.nearest)) <= 1e-12
        assert np.max(np.abs(part.weights - whole.weights)) <= 1e-12


def test_project_batch_reports_stalls_and_gaps(monkeypatch):
    # With a tolerance no rounding error can meet, queries whose nearest
    # point lies inside a face end on the stall exit.
    rng = np.random.default_rng(3)
    ps = hull.PointSet(rng.random((8, 5)))
    queries = rng.random((200, 5)) * 3.0 - 1.0
    normal = hull.project_batch(ps, queries)
    monkeypatch.setattr(hull, "_TOL", 1e-300)
    strict = hull.project_batch(ps, queries)
    assert strict.stalled.any() and not normal.stalled.any()
    assert np.all(strict.gap[strict.stalled] > 1e-300)
    assert np.all(np.isfinite(strict.gap)) and np.all(strict.iterations >= 0)
    assert np.max(np.abs(strict.distance - normal.distance)) <= 1e-12
    i = int(np.argmax(strict.stalled))
    one = hull.project_batch(ps, queries[i:i + 1])
    assert one.stalled[0] and one.gap[0] == strict.gap[i]
    assert one.iterations[0] == strict.iterations[i]


def test_project_onto_hull_is_a_batch_of_one():
    ps, queries = _batch_case(5, 8, seed=11)
    for x in queries[::5]:
        one = hull.project_onto_hull(x, ps)
        res = hull.project_batch(ps, x[None, :])
        assert np.array_equal(one.nearest, res.nearest[0])
        assert one.distance == res.distance[0]
        assert np.array_equal(one.support, np.flatnonzero(res.active[0]))
        assert np.array_equal(one.weights, res.weights[0, one.support])
        assert (one.iterations, one.gap, one.stalled) == (
            res.iterations[0], res.gap[0], res.stalled[0]
        )


def test_project_batch_iteration_cap(monkeypatch):
    ps, queries = _batch_case(5, 8, seed=12)
    # A cap of one cycle per query.
    monkeypatch.setattr(hull, "_CYCLES_PER_ENTRY", 1.0 / (ps.n * ps.d))
    with pytest.raises(hull.HullIterationError):
        hull.project_batch(ps, queries)


def test_project_batch_validation():
    ps = hull.PointSet(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        hull.project_batch(ps, np.zeros((3, 3)))
    empty = hull.project_batch(ps, np.zeros((0, 2)))
    assert empty.distance.shape == (0,) and empty.weights.shape == (0, 2)


@pytest.mark.parametrize("d,n,seed,scale", [(5, 8, 41, 2.0), (3, 12, 5, 1.2), (5, 8, 7, 1.0)])
def test_within_distance_matches_scalar_reference(monkeypatch, d, n, seed, scale):
    rng = np.random.default_rng(seed)
    ps = hull.PointSet(rng.random((n, d)))
    queries = rng.random((300, d)) * scale - 0.5 * (scale - 1.0)
    exact = np.array([_scalar_wolfe(q, ps.points)[1] for q in queries])
    original = hull.project_batch
    fallback = []

    def counting(ps_, x):
        fallback.append(len(x))
        return original(ps_, x)

    monkeypatch.setattr(hull, "project_batch", counting)
    monkeypatch.setattr(hull, "_REFINE_ITERS", 4)
    for r in (0.05, 0.1, 0.3, 0.6):
        mask = hull.within_distance(ps, queries, r)
        assert np.array_equal(mask, exact <= r)
    assert sum(fallback) > 0  # the exact fallback was exercised


def _near_cut_case(kind):
    """A point set, far points and a radius r = 0.05 sqrt(d) (0.18 sqrt(d) on one vertex)."""
    if kind == "ball":
        dom, n, delta = geo.DomainSpec.lp_ball(2, 50), 16, 0.05
    elif kind == "cube":
        dom, n, delta = geo.DomainSpec.cube(200), 8, 0.05
    else:
        dom, n, delta = geo.DomainSpec.lp_ball(2, 10), 1, 0.18
    rng = np.random.default_rng(23)
    ps = hull.PointSet(dom.sample(rng, n), domain=dom)
    return ps, dom.sample(rng, 300), delta * math.sqrt(dom.d)


@pytest.mark.parametrize("kind", ["ball", "cube", "one_vertex"])
def test_within_distance_matches_the_solver_at_the_cut(kind):
    # Queries at hull distance r (1 +- f): at f = 1e-9 they sit at the edge
    # of the bracket's certified cuts, so its first round, read off the
    # nearest-vertex products, is checked where its rounding matters.
    ps, far, r = _near_cut_case(kind)
    proj = hull.project_batch(ps, far)
    keep = proj.distance > 0.0
    nearest, distance, far = proj.nearest[keep], proj.distance[keep], far[keep]
    decided = 0
    for f in (1e-9, 1e-6):
        queries = np.vstack([hull.slide_toward(nearest, distance, far, r * (1.0 + s * f))
                             for s in (-1.0, 1.0)])
        solver = hull.project_batch(ps, queries)
        fine = ~solver.stalled
        assert fine.mean() > 0.9
        mask = hull.within_distance(ps, queries, r)
        assert np.array_equal(mask[fine], (solver.distance <= r)[fine])
        inside, outside, _, _ = hull.bracket(ps, queries, r, r)
        decided += int(inside.sum() + outside.sum())
    assert decided > 0  # the bracket, not only the solver, gave verdicts


def test_within_distance_next_to_a_vertex_at_tiny_radii():
    # Queries 1e-12 from a vertex: the expanded products give their
    # nearest-vertex distance as rounding noise, and at these radii the
    # bracket's inner cut is negative, so only the cap of the lower bound
    # at that distance keeps them from being certified beyond r.
    rng = np.random.default_rng(5)
    ps = hull.PointSet(rng.random((8, 20)) * 3.0)
    u = rng.standard_normal((400, 20))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    queries = ps.points[rng.integers(0, 8, 400)] + 1e-12 * u
    for r in (1e-6, 1e-9):
        assert hull.within_distance(ps, queries, r).all()


def test_within_distance_at_zero_radius_agrees_with_the_solver():
    # Queries 1e-12 from a vertex have a nearest-vertex distance that the
    # expanded products round to 0, and the vertices themselves one that
    # they round above 0: at r = 0 the mask must still be the solver's.
    rng = np.random.default_rng(5)
    ps = hull.PointSet(rng.random((8, 20)) * 3.0)
    u = rng.standard_normal((400, 20))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    queries = np.vstack([ps.points[rng.integers(0, 8, 400)] + 1e-12 * u, ps.points])
    solver = hull.project_batch(ps, queries)
    fine = ~solver.stalled
    assert fine.all()
    mask = hull.within_distance(ps, queries, 0.0)
    assert np.array_equal(mask[fine], (solver.distance <= 0.0)[fine])
    assert mask[400:].all() and not mask[:400].any()
