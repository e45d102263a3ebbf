import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from curselab import geometry as geo
from curselab import hull, volume


def _integral_by_quadrature(alpha, delta, eta):
    c = 0.5 + eta

    def integrand(x):
        return math.exp(alpha * (delta * delta - (x - c) ** 2))

    val, _ = quad(integrand, 0.0, 1.0, epsabs=1e-13, limit=300)
    return val


def test_profile_integral_at_zero_is_one():
    assert volume.profile_integral(0.0, 0.3, 0.1) == 1.0


@pytest.mark.parametrize(
    "alpha,delta,eta",
    [
        (0.5, 0.2, 0.1),
        (4.5, 0.26, 0.25),
        (12.0, 0.4, 0.9),  # eta > 1/2 exercises the erfc branch
        (-3.0, 0.3, 0.2),  # negative alpha exercises the erfi branch
        (250.0, 0.05, 0.25),
    ],
)
def test_profile_integral_matches_quadrature(alpha, delta, eta):
    closed = volume.profile_integral(alpha, delta, eta)
    numeric = _integral_by_quadrature(alpha, delta, eta)
    assert closed == pytest.approx(numeric, rel=1e-10)


def test_profile_integral_paper_witness():
    # alpha = 9/2 certifies the 7/8 bound at (1/4 + 1/100, 1/4).
    assert volume.profile_integral(4.5, 0.26, 0.25) < 7.0 / 8.0


def test_profile_integral_quad_fallback_consistent():
    delta, eta = 0.05, 0.25
    alpha = 700.0 / (0.75**2) * 1.05  # just over the fallback threshold
    fallback = volume.profile_integral(alpha, delta, eta)
    numeric = _integral_by_quadrature(alpha, delta, eta)
    assert fallback == pytest.approx(numeric, rel=1e-9)


@pytest.mark.parametrize("alpha,delta,eta", [(1e5, 0.25, 0.75), (1e6, 0.01, 0.25)])
def test_profile_integral_closed_form_at_large_alpha(alpha, delta, eta):
    # The integrand is negligible beyond a few dozen widths 1/sqrt(alpha)
    # of its peak; quadrature on that window, scaled by the peak value.
    c = 0.5 + eta
    x_peak = min(c, 1.0)
    peak = alpha * (delta * delta - (x_peak - c) ** 2)
    half = 30.0 / math.sqrt(alpha)
    scaled, _ = quad(
        lambda x: math.exp(alpha * (delta * delta - (x - c) ** 2) - peak),
        max(0.0, x_peak - half), min(1.0, x_peak + half),
        epsabs=0.0, epsrel=1e-12, limit=300,
    )
    numeric = math.exp(peak) * scaled
    assert volume.profile_integral(alpha, delta, eta) == pytest.approx(numeric, rel=1e-9)


def test_profile_integral_beyond_float_range_is_inf():
    assert volume.profile_integral(2000.0, 1.0, 0.0) == math.inf
    # Negative alpha: erfi overflows while exp(alpha delta^2) underflows.
    assert volume.profile_integral(-1e5, 0.26, 0.25) == math.inf
    assert volume.profile_integral(-2000.0, 0.26, 0.25) == math.inf


@pytest.mark.parametrize("delta,eta", [(0.001, 0.75), (0.1, 0.75)])
def test_gamma_constant_infimum_at_infinity(delta, eta):
    # delta <= eta - 1/2: the integrand is at most one, so I decreases to 0.
    # (Inputs that used to hang are in the CLI test, which has a timeout.)
    gc = volume.gamma_constant(delta, eta)
    assert (gc.value, gc.alpha_star) == (0.0, math.inf)
    assert volume.profile_integral(1e4, delta, eta) < volume.profile_integral(1e3, delta, eta)


def test_slope_identity_random_draws():
    rng = np.random.default_rng(123)
    h = 1e-6
    count = 0
    while count < 20:
        delta = rng.uniform(0.05, 0.5)
        eta = rng.uniform(0.0, 0.6)
        if delta * delta >= eta * eta + 1.0 / 12.0:
            continue
        count += 1
        slope_fd = (
            volume.profile_integral(h, delta, eta)
            - volume.profile_integral(-h, delta, eta)
        ) / (2.0 * h)
        slope = delta * delta - eta * eta - 1.0 / 12.0
        assert slope_fd == pytest.approx(slope, abs=1e-6)


def test_gamma_constant_paper_case():
    gc = volume.gamma_constant(0.26, 0.25)
    assert gc.value < 7.0 / 8.0
    assert gc.value <= volume.profile_integral(4.5, 0.26, 0.25) + 1e-12
    assert gc.slope_at_zero == pytest.approx(0.26**2 - 0.25**2 - 1.0 / 12.0)


def test_gamma_constant_boundary_case():
    eta = 0.25
    delta = math.sqrt(eta * eta + 1.0 / 12.0)
    gc = volume.gamma_constant(delta, eta)
    assert gc.value == 1.0
    assert gc.alpha_star == 0.0


def test_gamma_constant_infimum_property():
    gc = volume.gamma_constant(0.2, 0.25)
    for alpha in (0.5, 1.0, 2.0, 5.0, 10.0):
        assert gc.value <= volume.profile_integral(alpha, 0.2, 0.25) + 1e-10


@given(
    alpha1=st.floats(0.0, 30.0),
    alpha2=st.floats(0.0, 30.0),
    lam=st.floats(0.01, 0.99),
    delta=st.floats(0.05, 0.45),
    eta=st.floats(0.0, 0.45),
)
@settings(max_examples=80, deadline=None)
def test_profile_integral_convex_in_alpha(alpha1, alpha2, lam, delta, eta):
    mid = lam * alpha1 + (1.0 - lam) * alpha2
    lhs = volume.profile_integral(mid, delta, eta)
    rhs = lam * volume.profile_integral(alpha1, delta, eta) + (
        1.0 - lam
    ) * volume.profile_integral(alpha2, delta, eta)
    assert lhs <= rhs + 1e-10


def test_gamma_tilde_cube_bound_and_domain():
    gt = volume.gamma_tilde_cube(0.01)
    assert gt.value < 7.0 / 8.0
    with pytest.raises(ValueError):
        volume.gamma_tilde_cube(1.0 / 12.0)


def test_small_radius_bound_unit_base():
    # (R + 2 delta) sqrt(pi e / 2) = 1 makes the log bound equal ln n.
    delta = 0.01
    ratio = 1.0 / math.sqrt(math.pi * math.e / 2.0) - 2.0 * delta
    assert volume.small_radius_hull_bound(1, 1, ratio, delta) == pytest.approx(
        0.0, abs=1e-12
    )


def test_small_radius_bound_decay_condition():
    threshold = math.sqrt(2.0 / (math.pi * math.e))
    for ratio, delta in [(0.2, 0.05), (0.3, 0.09), (0.4, 0.05)]:
        grows = volume.small_radius_hull_bound(
            1, 11, ratio, delta
        ) > volume.small_radius_hull_bound(1, 10, ratio, delta)
        assert grows == (ratio + 2.0 * delta > threshold)


def test_small_radius_bound_hand_value():
    # Direct arithmetic from the formula: ln 16 + 20 ln((0.242+0.1) sqrt(pi e/2)).
    expected = math.log(16.0) + 20.0 * math.log(
        (0.242 + 2.0 * 0.05) * math.sqrt(math.pi * math.e / 2.0)
    )
    got = volume.small_radius_hull_bound(16, 20, 0.242, 0.05)
    assert got == pytest.approx(expected, rel=1e-14)


def test_cube_bound_formula_instantiation():
    gt = volume.gamma_tilde_cube(0.01)
    got = volume.cube_hull_bound(1, 1, 0.01)
    assert got == pytest.approx(math.log(2.0) + math.log(gt.value), rel=1e-12)
    with pytest.raises(ValueError):
        volume.cube_hull_bound(1, 10, 0.1)


def test_cube_bound_crossing_dimension():
    # The n=32, delta=1/100 bound drops below one at a finite dimension.
    gt = volume.gamma_tilde_cube(0.01)
    crossing = None
    for d in range(1, 400):
        if volume.cube_hull_bound(32, d, 0.01) < 0.0:
            crossing = d
            break
    assert crossing is not None
    # Consistency with the closed form n(d+1) gamma^d evaluated directly.
    assert 32 * (crossing + 1) * gt.value**crossing < 1.0
    assert 32 * crossing * gt.value ** (crossing - 1) >= 1.0


def _interval_neighborhood_length(points: np.ndarray, delta: float) -> float:
    lo = max(0.0, points.min() - delta)
    hi = min(1.0, points.max() + delta)
    return max(0.0, hi - lo)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mc_volume_one_dimensional_oracle(seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((rng.integers(1, 6), 1))
    ps = hull.PointSet(pts, domain=geo.DomainSpec.cube(1))
    delta = float(rng.uniform(0.02, 0.2))
    est = volume.mc_hull_neighborhood_volume(
        ps, geo.DomainSpec.cube(1), delta, 50_000, seed=seed
    )
    exact = _interval_neighborhood_length(pts, delta)
    assert abs(est.mean - exact) <= 3.0 * max(est.half_width_95, 1e-4)


def test_mc_volume_single_point_ball_oracle():
    d = 5
    dom = geo.DomainSpec.cube(d)
    ps = hull.PointSet(dom.center[None, :], domain=dom)
    delta = 0.15  # ball of radius 0.15 sqrt(5) ~ 0.335 stays inside the cube
    est = volume.mc_hull_neighborhood_volume(ps, dom, delta, 100_000, seed=11)
    exact = math.exp(geo.lp_unit_ball_volume_log(2, d) + d * math.log(delta * math.sqrt(d)))
    assert abs(est.mean - exact) <= 3.0 * est.half_width_95


def test_mc_volume_zero_delta_single_point():
    dom = geo.DomainSpec.cube(3)
    ps = hull.PointSet(np.array([[0.2, 0.4, 0.6]]), domain=dom)
    est = volume.mc_hull_neighborhood_volume(ps, dom, 0.0, 10_000, seed=5)
    assert est.mean == 0.0


def test_mc_volume_deterministic_and_thread_invariant():
    dom = geo.DomainSpec.lp_ball(2, 6)
    rng = np.random.default_rng(8)
    ps = hull.PointSet(dom.sample(rng, 5), domain=dom)
    one = volume.mc_hull_neighborhood_volume(ps, dom, 0.1, 30_000, seed=4, threads=1)
    two = volume.mc_hull_neighborhood_volume(ps, dom, 0.1, 30_000, seed=4, threads=1)
    four = volume.mc_hull_neighborhood_volume(ps, dom, 0.1, 30_000, seed=4, threads=4)
    assert one == two == four


def test_mc_volume_defaults_to_every_core(pool_workers, report_cpus):
    report_cpus(4)
    dom = geo.DomainSpec.cube(3)
    ps = hull.PointSet(np.array([[0.2, 0.4, 0.6], [0.7, 0.1, 0.3]]), domain=dom)
    pooled = volume.mc_hull_neighborhood_volume(ps, dom, 0.1, 3 * (1 << 14), seed=6)
    assert pool_workers == [3]  # every core, clamped to the three chunks
    alone = volume.mc_hull_neighborhood_volume(ps, dom, 0.1, 3 * (1 << 14), seed=6, threads=1)
    assert pool_workers == [3] and pooled == alone


def test_mc_volume_monotone_in_delta():
    dom = geo.DomainSpec.cube(4)
    rng = np.random.default_rng(10)
    ps = hull.PointSet(rng.random((6, 4)), domain=dom)
    means = [
        volume.mc_hull_neighborhood_volume(ps, dom, delta, 20_000, seed=3).mean
        for delta in (0.02, 0.05, 0.1, 0.2)
    ]
    assert all(a <= b for a, b in zip(means, means[1:]))


def test_mc_volume_bound_sources():
    dom_ball = geo.DomainSpec.lp_ball(2, 5)
    ps = hull.PointSet(dom_ball.sample(np.random.default_rng(0), 4), domain=dom_ball)
    est = volume.mc_hull_neighborhood_volume(ps, dom_ball, 0.05, 2000, seed=1)
    assert est.bound_source == "small_radius"

    dom_cube = geo.DomainSpec.cube(5)
    ps = hull.PointSet(np.random.default_rng(0).random((4, 5)), domain=dom_cube)
    est = volume.mc_hull_neighborhood_volume(ps, dom_cube, 0.05, 2000, seed=1)
    assert est.bound_source == "cube"
    est = volume.mc_hull_neighborhood_volume(ps, dom_cube, 0.2, 2000, seed=1)
    assert est.bound_source == "small_radius"


def test_volume_estimate_passes_below_bound():
    est = volume.VolumeEstimate(
        mean=0.25,
        half_width_95=0.01,
        bound_log=math.log(0.5),
        bound_source="cube",
    )
    assert est.passed is True
    assert est.bound == pytest.approx(0.5)


def test_binomial_half_width_branches():
    # Normal approximation for common counts.
    n, k = 1000, 250
    p = k / n
    expected = 1.959963984540054 * math.sqrt(p * (1 - p) / n)
    assert volume.binomial_half_width(k, n) == pytest.approx(expected, rel=1e-12)
    # Wilson for rare counts: positive even at zero successes.
    assert volume.binomial_half_width(0, 1000) > 0.0
    assert volume.binomial_half_width(2, 1000) > 1.959963984540054 * math.sqrt(
        0.002 * 0.998 / 1000
    )


def test_binomial_half_width_reaches_wilson_upper_limit():
    z = 1.959963984540054
    for k, n in ((0, 200_000), (3, 1000), (9, 50_000)):
        p = k / n
        centre = (p + z * z / (2 * n)) / (1 + z * z / n)
        spread = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
        assert volume.binomial_half_width(k, n) == pytest.approx(centre + spread - p, rel=1e-12)
    assert volume.binomial_half_width(0, 200_000) == pytest.approx(1.92e-5, rel=1e-3)

