import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curselab import geometry as geo


def test_lp_volume_disk_is_pi():
    assert geo.lp_unit_ball_volume(2, 2) == pytest.approx(math.pi, rel=1e-12)


def test_lp_volume_sup_norm_is_power_of_two():
    assert geo.lp_unit_ball_volume(math.inf, 5) == pytest.approx(32.0, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_lp_volume_cross_polytope(d):
    # Oracle: the l1 unit ball has volume 2^d / d!.
    expected = 2.0**d / math.factorial(d)
    assert geo.lp_unit_ball_volume(1, d) == pytest.approx(expected, rel=1e-12)


def test_normalized_radius_cube_examples():
    assert geo.lp_normalized_radius(math.inf, 9) == pytest.approx(1.5, rel=1e-12)
    assert geo.lp_normalized_radius(2, 1) == pytest.approx(0.5, rel=1e-12)


def test_normalized_radius_euclidean_limit():
    ratio = geo.lp_normalized_radius(2, 200) / math.sqrt(200)
    limit = 1.0 / math.sqrt(2.0 * math.pi * math.e)
    assert abs(ratio - limit) < 0.01


def test_radius_limit_ratio_branches():
    assert geo.radius_limit_ratio(1.5) == math.inf
    # Plug p = 2 into the closed form by hand.
    by_hand = 1.0 / (2.0 * math.sqrt(2.0 * math.e) * math.gamma(1.5))
    assert geo.radius_limit_ratio(2) == pytest.approx(by_hand, rel=1e-14)
    assert geo.radius_limit_ratio(2) == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi * math.e), rel=1e-14
    )
    assert geo.radius_limit_ratio(math.inf) == 0.5


@pytest.mark.parametrize("p", [2.0, 5.0, 50.0])
def test_radius_ratio_converges_to_limit(p):
    ratio = geo.lp_normalized_radius(p, 10**4) / math.sqrt(10**4)
    assert abs(ratio - geo.radius_limit_ratio(p)) < 1e-3


def test_p_star_value_and_residual():
    root = geo.solve_p_star()
    assert 170.50 <= root <= 170.53
    target = math.sqrt(math.pi * math.e / 2.0)
    assert abs(geo.p_star_lhs(root) - target) < 1e-10


def test_p_star_bracket_signs():
    target = math.sqrt(math.pi * math.e / 2.0)
    at_two = 2.0 * math.sqrt(2.0 * math.e) * math.gamma(1.5)
    assert geo.p_star_lhs(2.0) == pytest.approx(at_two, rel=1e-14)
    assert at_two > target > 2.0
    assert geo.p_star_lhs(1e6) < target


def test_p_star_deterministic():
    a = geo.solve_p_star()
    b = geo.solve_p_star()
    assert a == b  # bit-identical


def _ball_volume_bounds_log(d, delta):
    """ln of (exact, crude, refined) for the ball of radius delta*sqrt(d).

    The exact value is the unit l2 ball's, scaled; the paper bounds it by
    ``crude = (delta sqrt(2 pi e))^d`` and
    ``refined = (3 delta sqrt(2 e pi))^d / sqrt(pi d)``.
    """
    exact = geo.lp_unit_ball_volume_log(2, d) + d * math.log(delta * math.sqrt(d))
    crude = d * math.log(delta * math.sqrt(2.0 * math.pi * math.e))
    refined = d * math.log(3.0 * delta * math.sqrt(2.0 * math.e * math.pi)) - 0.5 * math.log(
        math.pi * d
    )
    return exact, crude, refined


def test_ball_volume_bounds_disk():
    exact, crude, refined = map(math.exp, _ball_volume_bounds_log(2, 1.0 / math.sqrt(2.0)))
    assert exact == pytest.approx(math.pi, rel=1e-12)
    assert exact < crude and exact < refined


def test_ball_volume_bounds_interval():
    exact, crude, _ = map(math.exp, _ball_volume_bounds_log(1, 1.0))
    assert exact == pytest.approx(2.0, rel=1e-12)
    assert crude == pytest.approx(math.sqrt(2.0 * math.pi * math.e), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2, 5, 10, 50, 200, 1000])
@pytest.mark.parametrize("delta", [0.01, 0.1, 0.5, 1.0])
def test_ball_volume_exact_below_bounds(d, delta):
    exact, crude, refined = _ball_volume_bounds_log(d, delta)
    assert exact < crude
    assert exact < refined


@given(
    p=st.one_of(st.floats(1.0, 100.0), st.just(math.inf)),
    d=st.integers(1, 400),
)
@settings(max_examples=60, deadline=None)
def test_rescaled_ball_has_unit_volume(p, d):
    # The normalized radius must rescale the unit-ball volume to exactly one:
    # log V_p(d) + d * log(scale) = 0 in log-domain.
    log_vol = geo.lp_unit_ball_volume_log(p, d)
    if math.isinf(p):
        log_scale = -math.log(2.0)
    else:
        radius = geo.lp_normalized_radius(p, d)
        log_scale = math.log(radius) - max(0.0, 0.5 - 1.0 / p) * math.log(d)
    residual = log_vol + d * log_scale
    assert abs(residual) <= 1e-12 * max(1.0, abs(log_vol))


def test_domain_cube_fields():
    dom = geo.DomainSpec.cube(4)
    assert dom.radius == pytest.approx(1.0)
    assert np.allclose(dom.center, 0.5)


def test_domain_ball_fields():
    dom = geo.DomainSpec.lp_ball(2, 2)
    assert dom.radius == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-12)
    assert np.allclose(dom.center, 0.0)


@pytest.mark.parametrize("spec", ["cube", "lp:2", "lp:1", "lp:7.5", "lp:inf"])
def test_domain_samples_lie_inside(spec):
    if spec == "cube":
        dom = geo.DomainSpec.cube(6)
    else:
        token = spec[3:]
        dom = geo.DomainSpec.lp_ball(math.inf if token == "inf" else float(token), 6)
    rng = np.random.default_rng(11)
    pts = dom.sample(rng, 500)
    assert pts.shape == (500, 6)
    assert bool(np.all(dom.contains(pts)))


def test_domain_sampling_deterministic():
    dom = geo.DomainSpec.lp_ball(3, 4)
    a = dom.sample(np.random.default_rng(5), 64)
    b = dom.sample(np.random.default_rng(5), 64)
    assert np.array_equal(a, b)


def test_ball_sampler_mean_radius_matches_uniformity():
    # Under uniformity E ||x||_p^p-ish radius fraction is d/(d+1) of the scale.
    dom = geo.DomainSpec.lp_ball(2, 3)
    rng = np.random.default_rng(17)
    pts = dom.sample(rng, 40000)
    fractions = np.linalg.norm(pts, axis=1) / dom.radius
    assert abs(fractions.mean() - 3.0 / 4.0) < 5e-3


def test_domain_errors():
    with pytest.raises(ValueError):
        geo.lp_unit_ball_volume(0.5, 3)
    with pytest.raises(ValueError):
        geo.lp_unit_ball_volume(2, 0)
    with pytest.raises(ValueError):
        geo.lp_normalized_radius(0.99, 3)
    with pytest.raises(ValueError):
        geo.radius_limit_ratio(0.5)
