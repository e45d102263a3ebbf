import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curselab import fooling, geometry, hull


@pytest.fixture
def small_hull():
    rng = np.random.default_rng(42)
    dom = geometry.DomainSpec.cube(4)
    return hull.PointSet(0.25 + 0.5 * rng.random((5, 4)), domain=dom)


# ---------------------------------------------------------------------------
# Ramp profile


def _breakpoints(delta, d):
    """Where the ramp's linear piece ends and where it reaches one."""
    t2 = delta * delta * d
    return t2 / 4.0, t2


def test_profile_boundary_values():
    t1, t2 = _breakpoints(0.3, 2)
    assert (t1, t2) == (0.3**2 * 2 / 4, 0.3**2 * 2)
    v0, d0 = fooling.profile_eval(0.3, 2, 0.0)
    assert v0 == 0.0
    assert d0 == pytest.approx(2.0 / (0.3**2 * 2))
    v2, d2 = fooling.profile_eval(0.3, 2, t2)
    assert (v2, d2) == (1.0, 0.0)


def test_profile_pieces_agree_at_first_breakpoint():
    t1, t2 = _breakpoints(0.2, 5)
    v, d = fooling.profile_eval(0.2, 5, t1)
    assert v == pytest.approx(0.5, rel=1e-12)
    assert d == pytest.approx(2.0 / t2, rel=1e-12)
    # Evaluate the middle piece just above the breakpoint by hand.
    t = t1 * (1.0 + 1e-9)
    v_mid = -2.0 * t / t2 + 4.0 * math.sqrt(t) / (0.2 * math.sqrt(5)) - 1.0
    assert fooling.profile_eval(0.2, 5, t)[0] == pytest.approx(v_mid, rel=1e-12)


def test_profile_gradient_speed_bound():
    # sup over t of 2 sqrt(t) p'(t) equals 2 / (delta sqrt(d)).
    t1, t2 = _breakpoints(0.17, 7)
    grid = np.concatenate([
        np.linspace(0.0, t1, 300),
        np.linspace(t1, t2, 600),
        np.linspace(t2, 2.0 * t2, 100),
    ])
    _, derivs = fooling.profile_eval(0.17, 7, grid)
    speeds = 2.0 * np.sqrt(grid) * derivs
    bound = 2.0 / (0.17 * math.sqrt(7))
    assert float(speeds.max()) <= bound * (1.0 + 1e-12)
    assert float(speeds.max()) == pytest.approx(bound, rel=1e-9)


def test_profile_derivative_lipschitz_bound():
    t1, t2 = _breakpoints(0.25, 3)
    grid = np.linspace(1e-9, 1.5 * t2, 4000)
    _, derivs = fooling.profile_eval(0.25, 3, grid)
    quotients = np.abs(np.diff(derivs)) / np.diff(grid)
    assert float(quotients.max()) <= 8.0 / (0.25**4 * 9) * (1.0 + 1e-6)


def test_profile_rejects_negative_argument():
    with pytest.raises(ValueError):
        fooling.profile_eval(0.3, 2, -0.1)


@given(t=st.floats(0.0, 1.0), delta=st.floats(0.05, 0.5), d=st.integers(1, 30))
@settings(max_examples=100, deadline=None)
def test_profile_range_and_monotone(t, delta, d):
    v, dv = fooling.profile_eval(delta, d, t)
    assert 0.0 <= v <= 1.0
    assert dv >= 0.0


# ---------------------------------------------------------------------------
# c0 and c1 evaluation


def test_c0_zero_on_hull(small_hull):
    f = fooling.fooling_c0(small_hull, 3.0)
    assert f(small_hull.points).max() == 0.0


def test_c0_clamp_and_linear_region():
    ps = hull.PointSet(np.array([[0.0, 0.0]]))
    lip = 2.0
    f = fooling.fooling_c0(ps, lip)
    assert f(np.array([3.0, 0.0]))[0] == 1.0
    assert f(np.array([0.25, 0.0]))[0] == pytest.approx(0.5, abs=1e-10)


def test_c1_zero_inside_neighborhood(small_hull):
    delta = 0.05
    value, grad = fooling.fooling_c1_eval(small_hull, delta, small_hull.points[0])
    assert value == 0.0
    assert np.all(grad == 0.0)


def test_c1_one_far_away(small_hull):
    delta = 0.02
    far = np.full(4, 4.0)
    value, grad = fooling.fooling_c1_eval(small_hull, delta, far)
    assert value == 1.0
    assert np.all(grad == 0.0)


def test_c1_one_dimensional_hand_value():
    ps = hull.PointSet(np.array([[0.0]]))
    value, grad = fooling.fooling_c1_eval(ps, 0.3, np.array([0.45]))
    assert value == pytest.approx(0.5, rel=1e-9)
    assert grad[0] == pytest.approx(2.0 / 0.3, rel=1e-9)


def test_c1_gradient_matches_finite_differences(small_hull):
    delta = 0.08
    rng = np.random.default_rng(0)
    r = delta * 2.0
    step = 1e-6
    checked = 0
    for _ in range(40):
        w = rng.dirichlet(np.ones(small_hull.n))
        base = w @ small_hull.points
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        x = base + direction * r * rng.uniform(1.2, 1.8)
        value, grad = fooling.fooling_c1_eval(small_hull, delta, x)
        if not 0.05 < value < 0.95:
            continue
        fd = np.empty(4)
        for axis in range(4):
            e = np.zeros(4)
            e[axis] = step
            fd[axis] = (
                fooling.fooling_c1_eval(small_hull, delta, x + e)[0]
                - fooling.fooling_c1_eval(small_hull, delta, x - e)[0]
            ) / (2.0 * step)
        assert np.linalg.norm(fd - grad) <= 1e-5 * max(np.linalg.norm(grad), 1e-9)
        checked += 1
    assert checked >= 5


def test_c1_sampled_lipschitz_quotients(small_hull):
    delta = 0.05
    d = small_hull.d
    l0 = 2.0 / (delta * math.sqrt(d))
    l1 = 40.0 / (delta * delta * d)
    rng = np.random.default_rng(77)
    xs = rng.random((400, d)) * 1.5 - 0.25
    ys = rng.random((400, d)) * 1.5 - 0.25
    for x, y in zip(xs, ys):
        vx, gx = fooling.fooling_c1_eval(small_hull, delta, x)
        vy, gy = fooling.fooling_c1_eval(small_hull, delta, y)
        gap = np.linalg.norm(x - y)
        if gap < 1e-9:
            continue
        assert abs(vx - vy) / gap <= l0 * (1.0 + 1e-8)
        assert np.linalg.norm(gx - gy) / gap <= l1 * (1.0 + 1e-6)
        assert 0.0 <= vx <= 1.0


def test_batch_evaluator_matches_one_row_calls(small_hull):
    delta = 0.08
    r = delta * 2.0
    rng = np.random.default_rng(5)
    base = rng.dirichlet(np.ones(small_hull.n), size=60) @ small_hull.points
    u = rng.standard_normal((60, 4))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    pts = np.vstack([
        small_hull.points,
        base + u * (r * rng.uniform(0.0, 3.5, size=(60, 1))),  # all three ramp pieces
        rng.random((40, 4)) * 2.0 - 0.5,
    ])
    f1 = fooling.fooling_c1(small_hull, delta)
    out = fooling.fooling_eval_batch(f1, pts)
    assert np.array_equal(f1(pts), out.values)
    values_only = fooling.fooling_eval_batch(f1, pts, gradients=False)
    assert values_only.gradients is None
    assert np.array_equal(values_only.values, out.values)
    assert 0 < np.count_nonzero((out.values > 0.0) & (out.values < 1.0)) < len(pts)
    for x, value, grad in zip(pts, out.values, out.gradients):
        one_value, one_grad = fooling.fooling_c1_eval(small_hull, delta, x)
        assert abs(one_value - value) <= 1e-12
        assert np.allclose(one_grad, grad, rtol=0.0, atol=1e-9)
    f0 = fooling.fooling_c0(small_hull, 3.0)
    c0 = fooling.fooling_eval_batch(f0, pts)
    assert c0.gradients is None
    assert np.array_equal(c0.projected, np.arange(len(pts)))
    assert np.array_equal(c0.values, np.minimum(1.0, 3.0 * c0.projection.distance))
    for x, value in zip(pts[::10], c0.values[::10]):
        assert abs(f0(x)[0] - value) <= 1e-12


def _full_projection_c1(ps, points, delta):
    """The c1 evaluator without the distance bracket: every row is projected."""
    proj = hull.project_batch(ps, points)
    r = delta * math.sqrt(ps.d)
    values = np.zeros(len(points))
    ramp = np.flatnonzero(proj.distance - r > 0.0)
    gap = proj.distance[ramp] - r
    value, deriv = fooling.profile_eval(delta, ps.d, gap * gap)
    values[ramp] = value
    grads = np.zeros(points.shape)
    moving = deriv != 0.0
    rows = ramp[moving]
    nearest_nb = hull.slide_toward(proj.nearest[rows], proj.distance[rows], points[rows], r)
    grads[rows] = 2.0 * deriv[moving, None] * (points[rows] - nearest_nb)
    return values, grads


def _on_rays(ps, rng, distances):
    """Points at the given hull distances, on rays from hull projections."""
    anchors = 3.0 * rng.random((len(distances), ps.d)) - 1.0
    proj = hull.project_batch(ps, anchors)
    u = (anchors - proj.nearest) / proj.distance[:, None]
    return proj.nearest + distances[:, None] * u


@pytest.mark.parametrize("delta", [0.005, 0.05, 0.2])
def test_bracket_first_c1_matches_full_projection_bit_for_bit(delta):
    rng = np.random.default_rng(17)
    d = 5
    ps = hull.PointSet(0.25 + 0.5 * rng.random((8, d)))
    r = delta * math.sqrt(d)
    band = np.linspace(-1e-6, 1e-6, 101)
    distances = np.concatenate([
        np.linspace(0.0, 3.0 * r, 601),
        r * (1.0 + band),
        2.0 * r * (1.0 + band),
    ])
    points = _on_rays(ps, rng, distances)
    out = fooling.fooling_eval_batch(fooling.fooling_c1(ps, delta), points)
    values, grads = _full_projection_c1(ps, points, delta)
    assert np.array_equal(out.values, values)
    assert np.array_equal(out.gradients, grads)
    # Both paths ran: the bracket settled some rows and the solver the rest,
    # and the projection covers exactly the rows it lists.
    assert 0 < out.projected.size < len(points)
    assert out.projection.distance.shape == out.projected.shape
    settled = np.setdiff1d(np.arange(len(points)), out.projected)
    assert set(np.unique(out.values[settled])) == {0.0, 1.0}
    assert not np.any(out.gradients[settled])
    # within_distance gives the solver's verdict on the same points, the
    # bands around r and 2r included.
    exact = hull.project_batch(ps, points).distance
    for cut in (r, 2.0 * r):
        assert np.array_equal(hull.within_distance(ps, points, cut), exact <= cut)


def test_ramp_points_near_the_bracket_cuts_keep_ramp_values(small_hull):
    delta = 0.08
    r = delta * 2.0
    points = _on_rays(small_hull, np.random.default_rng(3), r * np.array([1.01, 1.99]))
    values = fooling.fooling_c1(small_hull, delta)(points)
    assert values[0] > 0.0
    assert values[1] < 1.0


# ---------------------------------------------------------------------------
# Weight sequences


def test_uniform_sequence():
    seq = fooling.make_alpha_sequence("uniform", k=4)
    assert np.allclose(seq.values(4), 0.25)
    assert seq.values(4).sum() == pytest.approx(1.0)
    assert seq.tail_sum(4) == 0.0


def test_power_sequence_constant():
    seq = fooling.make_alpha_sequence("power", eta=1.0)
    assert seq.c_eta == pytest.approx(6.0 / math.pi**2, rel=1e-12)


@given(k=st.integers(1, 200), eta=st.floats(0.2, 3.0))
@settings(max_examples=60, deadline=None)
def test_power_partial_sums_at_most_one(k, eta):
    seq = fooling.make_alpha_sequence("power", eta=eta)
    head = seq.values(k).sum()
    assert head <= 1.0 + 1e-12
    assert seq.tail_sum(k) >= -1e-12
    assert head + seq.tail_sum(k) == pytest.approx(1.0, abs=1e-9)


def test_sequence_validation():
    with pytest.raises(ValueError):
        fooling.make_alpha_sequence("uniform")
    with pytest.raises(ValueError):
        fooling.make_alpha_sequence("power", eta=-1.0)
    with pytest.raises(ValueError):
        fooling.make_alpha_sequence("geometric")


# ---------------------------------------------------------------------------
# Certificates


def _hull(d):
    return hull.PointSet(np.full((1, d), 0.5))


def test_certificate_c1_paper_constants():
    cert = fooling.fooling_c1(_hull(25), 1.0 / 200.0).certificate
    assert cert.value(0, 25) == pytest.approx(400.0 / math.sqrt(25), rel=1e-12)
    assert cert.value(1, 25) == pytest.approx(16.0e5 / 25.0, rel=1e-12)


def test_certificate_smoothed_first_order_matches_c1():
    delta, d = 0.02, 9
    cert = fooling.fooling_smoothed(_hull(d), delta, k=5).certificate
    assert cert.value(1, d) == pytest.approx(40.0 / (delta * delta * d), rel=1e-12)
    # Geometric growth by (k-1)/delta per extra order.
    for j in range(2, 6):
        ratio = cert.value(j, d) / cert.value(j - 1, d)
        assert ratio == pytest.approx(4.0 / delta, rel=1e-12)


def test_certificate_smoothed_single_order():
    cert = fooling.fooling_smoothed(_hull(4), 0.1, k=1).certificate
    assert cert.value(1, 4) == pytest.approx(40.0 / (0.01 * 4), rel=1e-12)


def test_certificate_cinf_hand_value():
    cert = fooling.fooling_cinf(_hull(1), 1.0, eta=1.0).certificate
    assert cert.value(2, 1) == pytest.approx(40.0 * math.pi**2 / 6.0, rel=1e-12)
    assert cert.value(0, 1) == pytest.approx(2.0, rel=1e-12)


def test_certificate_cinf_general_formula():
    delta, d, eta = 0.3, 6, 0.7
    cert = fooling.fooling_cinf(_hull(d), delta, eta=eta).certificate
    from scipy.special import zeta

    c_eta = 1.0 / float(zeta(1.0 + eta))
    for j in (1, 2, 3, 5):
        expected = (
            40.0
            / d
            * delta ** (-1.0 - j)
            * c_eta ** (1.0 - j)
            * math.factorial(j - 1) ** (1.0 + eta)
        )
        assert cert.value(j, d) == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# Convolution smoothing


def test_smoothed_constant_hook_exact(small_hull):
    seq = fooling.make_alpha_sequence("uniform", k=3)
    mean, half = fooling.smoothed_eval(
        lambda pts: np.full(len(np.atleast_2d(pts)), 0.625),
        seq, 3, 0.05, np.array([0.5] * 4), 1024, seed=21,
    )
    assert mean == 0.625
    assert half == 0.0


def test_smoothed_affine_hook_unbiased(small_hull):
    seq = fooling.make_alpha_sequence("uniform", k=3)
    a = np.array([0.4, -0.3, 0.2, 0.1])
    x = np.array([0.5, 0.4, 0.6, 0.5])
    mean, half = fooling.smoothed_eval(
        lambda pts: np.atleast_2d(pts) @ a + 0.05,
        seq, 3, 0.05, x, 6000, seed=22,
    )
    assert abs(mean - (a @ x + 0.05)) <= 3.0 * half


def test_smoothed_zero_at_hull_point(small_hull):
    f = fooling.fooling_c1(small_hull, 0.05)
    seq = fooling.make_alpha_sequence("uniform", k=3)
    mean, _ = fooling.smoothed_eval(f, seq, 3, 0.05, small_hull.points[2], 1000, seed=23)
    assert mean == 0.0


def test_smoothed_one_far_from_hull(small_hull):
    f = fooling.fooling_c1(small_hull, 0.05)
    seq = fooling.make_alpha_sequence("uniform", k=3)
    far = np.full(4, 3.0)  # distance certifiably above 3 delta sqrt(d)
    mean, half = fooling.smoothed_eval(f, seq, 3, 0.05, far, 1000, seed=24)
    assert mean == 1.0
    assert half == 0.0


def test_smoothed_lipschitz_of_means_common_randomness(small_hull):
    delta = 0.05
    f = fooling.fooling_c1(small_hull, delta)
    seq = fooling.make_alpha_sequence("uniform", k=3)
    lip = 2.0 / (delta * 2.0)
    rng = np.random.default_rng(3)
    for trial in range(3):
        base = rng.dirichlet(np.ones(small_hull.n)) @ small_hull.points
        direction = rng.standard_normal(4)
        direction /= np.linalg.norm(direction)
        xa = base + direction * delta * 2.0 * 1.1
        xb = base + direction * delta * 2.0 * 1.9
        ma, ha = fooling.smoothed_eval(f, seq, 3, delta, xa, 3000, seed=100 + trial)
        mb, hb = fooling.smoothed_eval(f, seq, 3, delta, xb, 3000, seed=100 + trial)
        gap = float(np.linalg.norm(xa - xb))
        assert abs(ma - mb) / gap <= lip + 3.0 * math.hypot(ha, hb) / gap


def test_smoothed_eval_passes_base_one_chunk_at_a_time():
    seq = fooling.make_alpha_sequence("uniform", k=2)
    rows = []

    def base(pts):
        rows.append(len(pts))
        return pts[:, 0]

    mean, _ = fooling.smoothed_eval(base, seq, 2, 0.05, np.full(3, 0.5), 50_000, seed=8)
    assert sum(rows) == 50_000
    assert max(rows) <= 1 << 14
    assert abs(mean - 0.5) < 0.01


def _single_stream_smoothed_mean(base, seq, kernels, delta, x, n_samples, seed):
    # The estimator before chunking: one stream, every shift in memory.
    d = x.shape[0]
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    shift = np.zeros((n_samples, d))
    for a in seq.values(kernels):
        direction = rng.standard_normal((n_samples, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        shift += direction * (a * delta * math.sqrt(d) * rng.random((n_samples, 1)) ** (1.0 / d))
    values = np.asarray(base(x[None, :] - shift), dtype=float).ravel()
    centered = values - values[0]
    return float(values[0]) + float(centered.mean())


def test_smoothed_eval_single_chunk_matches_single_stream(small_hull):
    f = fooling.fooling_c1(small_hull, 0.05)
    seq = fooling.make_alpha_sequence("uniform", k=3)
    x = small_hull.points[0] + 0.12
    expected = _single_stream_smoothed_mean(f, seq, 3, 0.05, x, 2000, 31)
    mean, _ = fooling.smoothed_eval(f, seq, 3, 0.05, x, 2000, seed=31)
    assert 0.0 < mean < 1.0
    assert mean == expected


def _blocked_smoothed_values(base, seq, kernels, delta, x, n_samples, seed):
    # One chunk, drawn in blocks of at most 2**17 // d rows; each block
    # holds, per kernel, its directions and then its radii.
    d = x.shape[0]
    block = (1 << 17) // d
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
    values = []
    for start in range(0, n_samples, block):
        rows = min(block, n_samples - start)
        shift = np.zeros((rows, d))
        for a in seq.values(kernels):
            direction = rng.standard_normal((rows, d))
            direction /= np.linalg.norm(direction, axis=1, keepdims=True)
            shift += direction * (a * delta * math.sqrt(d) * rng.random((rows, 1)) ** (1.0 / d))
        values.append(np.asarray(base(x[None, :] - shift), dtype=float).ravel())
    values = np.concatenate(values)
    centered = values - values[0]
    return float(values[0]) + float(centered.sum()) / n_samples


def _affine_base(d):
    a = np.random.default_rng(5).standard_normal(d)
    return lambda pts: np.atleast_2d(pts) @ a + 0.25


def test_smoothed_eval_blocks_match_oracle_at_d50():
    d = 50
    base = _affine_base(d)
    rows = []

    def counting(pts):
        rows.append(len(pts))
        return base(pts)

    seq = fooling.make_alpha_sequence("uniform", k=3)
    x = np.full(d, 0.5)
    expected = _blocked_smoothed_values(base, seq, 3, 0.05, x, 6000, 41)
    mean, _ = fooling.smoothed_eval(counting, seq, 3, 0.05, x, 6000, seed=41)
    assert rows == [2621, 2621, 758]
    assert mean == expected


@pytest.mark.parametrize("d", [50, 300])
def test_smoothed_eval_base_rows_bounded_by_block(d):
    rows = []

    def base(pts):
        rows.append(len(pts))
        return pts[:, 0]

    seq = fooling.make_alpha_sequence("uniform", k=2)
    fooling.smoothed_eval(base, seq, 2, 0.05, np.full(d, 0.5), 40_000, seed=9)
    assert sum(rows) == 40_000
    assert max(rows) <= min(1 << 14, (1 << 17) // d)


def test_smoothed_eval_same_on_one_and_four_cpus(report_cpus, small_hull):
    f = fooling.fooling_c1(small_hull, 0.05)
    seq = fooling.make_alpha_sequence("uniform", k=3)
    x = small_hull.points[0] + 0.12
    runs = []
    for cpus in (1, 4):
        report_cpus(cpus)
        runs.append(fooling.smoothed_eval(f, seq, 3, 0.05, x, 40_000, seed=12))
        runs.append(fooling.smoothed_eval(_affine_base(50), seq, 3, 0.05,
                                          np.full(50, 0.5), 40_000, seed=13))
    assert runs[:2] == runs[2:]


def test_smoothed_eval_memory_stays_bounded(report_cpus):
    # Without row blocks each worker held three 16,384 x 50 float64 arrays.
    report_cpus(2)
    seq = fooling.make_alpha_sequence("uniform", k=3)
    base = _affine_base(50)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fooling.smoothed_eval(base, seq, 3, 0.05, np.full(50, 0.5), 50_000, seed=14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_smoothed_eval_weight_guard(small_hull):
    # Uniform weights over fewer kernels than requested would exceed sum one.
    seq = fooling.make_alpha_sequence("uniform", k=2)
    with pytest.raises(ValueError):
        fooling.smoothed_eval(
            lambda pts: np.zeros(len(np.atleast_2d(pts))),
            seq, 3, 0.05, np.zeros(4), 1000, seed=1,
        )


def test_cinf_truncation_bound(small_hull):
    f = fooling.fooling_cinf(small_hull, 0.05, eta=1.0, k=16)
    seq = f.seq
    expected = (2.0 / (0.05 * 2.0)) * 0.05 * 2.0 * seq.tail_sum(16)
    assert f.truncation_bound() == pytest.approx(expected, rel=1e-12)
    # More kernels, smaller gap.
    f2 = fooling.fooling_cinf(small_hull, 0.05, eta=1.0, k=64)
    assert f2.truncation_bound() < f.truncation_bound()


def test_cinf_estimate_runs(small_hull):
    f = fooling.fooling_cinf(small_hull, 0.05, eta=1.0, k=8)
    mean, half = f.smoothed_estimate(small_hull.points[0], 1000, seed=5)
    assert mean == 0.0
    far = np.full(4, 3.0)
    mean, _ = f.smoothed_estimate(far, 1000, seed=5)
    assert mean == 1.0


def test_smoothed_variant_via_factory(small_hull):
    f = fooling.fooling_smoothed(small_hull, 0.05, k=4)
    assert f.kernels == 3
    assert f.certificate.k == 4
    mean, _ = f.smoothed_estimate(small_hull.points[1], 1000, seed=9)
    assert mean == 0.0
