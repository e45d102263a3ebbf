import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curselab import bounds
from curselab.bounds import SmoothnessProfile, TailRule


# ---------------------------------------------------------------------------
# Lower bounds


def test_lb_lipschitz_unit_base():
    # With a L sqrt(d) = 3 sqrt(2 e pi) the base is one.
    d = 9
    lip = 3.0 * math.sqrt(2.0 * math.e * math.pi) / math.sqrt(d)
    report = bounds.lb_lipschitz(0.3, d, lip, a=1.0)
    assert report.log_value == pytest.approx(math.log(0.7), rel=1e-12)


def test_lb_lipschitz_base_two():
    d = 12
    lip = 6.0 * math.sqrt(2.0 * math.e * math.pi) / math.sqrt(d)
    report = bounds.lb_lipschitz(0.5, d, lip, a=1.0)
    assert report.log_value == pytest.approx(
        math.log(0.5) + d * math.log(2.0), rel=1e-12
    )


def test_lb_lipschitz_precondition_failure():
    report = bounds.lb_lipschitz(0.6, 5, 1.0, a=2.0)
    assert not report.preconditions_met
    assert report.log_value == -math.inf


def test_lb_gradient_cube_spot_value():
    # Hand-computed: (1/2) / 8 * (8/7)^7, compared in log-domain to 1e-12.
    report = bounds.lb_lipschitz_gradient_cube(0.5, 7)
    expected = math.log(0.5) - math.log(8.0) + 7.0 * math.log(8.0 / 7.0)
    assert report.log_value == pytest.approx(expected, rel=1e-12)


def test_lb_gradient_cube_eps_limits():
    assert bounds.lb_lipschitz_gradient_cube(1.0 - 1e-16, 4).log_value < -30
    near_zero = bounds.lb_lipschitz_gradient_cube(1e-300, 4)
    boundary = -math.log(5.0) + 4.0 * math.log(8.0 / 7.0)
    assert near_zero.log_value == pytest.approx(boundary, rel=1e-12)


def test_lb_higher_matches_cube_case_up_to_dimension_factor():
    eps, d = 0.4, 11
    higher = bounds.lb_higher_smoothness(eps, d, 8.0 / 7.0)
    cube = bounds.lb_lipschitz_gradient_cube(eps, d)
    assert higher.log_value - cube.log_value == pytest.approx(
        math.log(d + 1.0), rel=1e-12
    )


def test_lb_higher_derived_value():
    report = bounds.lb_higher_smoothness(0.9, 100, 1.01)
    expected = math.log(0.1) + 100.0 * math.log(1.01)
    assert report.log_value == pytest.approx(expected, rel=1e-12)
    assert math.exp(report.log_value) == pytest.approx(0.1 * 1.01**100, rel=1e-12)


def test_lb_higher_rejects_unit_growth():
    assert not bounds.lb_higher_smoothness(0.5, 10, 1.0).preconditions_met


def test_log_domain_never_overflows():
    report = bounds.lb_higher_smoothness(0.5, 10**4, 8.0 / 7.0)
    assert math.isfinite(report.log_value)
    assert report.log_value > 1000.0  # (8/7)^10000 is astronomically large


# ---------------------------------------------------------------------------
# Upper bounds


def test_ub_one_point_c0_cases():
    assert bounds.ub_one_point_c0(0.2, 16, 0.5, 0.0).extras["value"] == pytest.approx(
        0.2 * 4.0 * 0.5
    )
    assert bounds.ub_one_point_c0(0.0, 16, 0.5, 0.01).extras["value"] == pytest.approx(
        0.02
    )


def test_ub_one_point_c1_variants():
    assert bounds.ub_one_point_c1(0.3, 2.0).extras["value"] == pytest.approx(1.2)
    eps = 0.05
    diam = 3.0
    assert bounds.ub_one_point_c1(eps / diam**2, diam).extras["value"] == pytest.approx(
        eps
    )
    ball = bounds.ub_one_point_c1(0.1, 0.0, big_r=0.5, tail=0.01, d=8)
    assert ball.extras["value"] == pytest.approx(0.25 * 0.1 * 8 + 0.02)
    assert bounds.ub_one_point_c1(0.0, 5.0).extras["value"] == 0.0


def test_ub_taylor_reduces_to_one_point_at_order_zero():
    lip, d = 0.7, 9
    taylor = bounds.ub_taylor(0, lip, d, 0.5)
    one_point = bounds.ub_one_point_c0(lip, d, 0.5, 0.0)
    assert taylor.log_value == pytest.approx(one_point.log_value, rel=1e-12)


def test_ub_taylor_derived_value():
    # (1/2)^3 / 2! * (96 / d^{3/2}) * d^{3/2} = 6 for every d.
    for d in (4, 25, 100):
        report = bounds.ub_taylor(2, 96.0 / d**1.5, d, 0.5)
        assert report.extras["value"] == pytest.approx(6.0, rel=1e-12)


def test_ub_taylor_zero_lipschitz():
    assert bounds.ub_taylor(3, 0.0, 5, 0.5).log_value == -math.inf


def test_qpt_bound_order_selection():
    report = bounds.quasi_poly_cost_bound(math.exp(-3.0), 7, 1.0, math.e)
    assert report.extras["k_eps"] == 3
    assert report.log_value == pytest.approx(3.0 * (1.0 + math.log(7.0)), rel=1e-12)


def test_qpt_order_is_exact_where_c_over_eps_is_a_power_of_a():
    # The float quotient of logs lands just above the integer in each case.
    assert bounds.quasi_poly_cost_bound(2.0**-25, 5, 0.5, 2.0).extras["k_eps"] == 24
    assert bounds.quasi_poly_cost_bound(2.0**-28, 5, 2.0, 2.0).extras["k_eps"] == 29
    assert bounds.quasi_poly_cost_bound(0.008, 5, 1.0, 5.0).extras["k_eps"] == 3
    # Here 1/eps exceeds 3^1 exactly, so the ceiling stays at 2.
    eps = math.nextafter(1.0 / 3.0, 0.0)
    assert bounds.quasi_poly_cost_bound(eps, 5, 1.0, 3.0).extras["k_eps"] == 2


def test_qpt_order_is_the_true_ceiling_on_powers_of_two():
    for t in (1, 2, 3):
        for i in range(-3, 4):
            for j in range(1, 61):
                report = bounds.quasi_poly_cost_bound(2.0**-j, 5, 2.0**i, 2.0**t)
                assert report.extras["k_eps"] == max(0, -(-(i + j) // t)), (t, i, j)


def test_qpt_bound_easy_accuracy_needs_single_point():
    report = bounds.quasi_poly_cost_bound(0.9, 7, 0.5, 2.0)
    assert report.extras["k_eps"] == 0
    assert report.log_value == 0.0  # one evaluation minimum


def test_qpt_envelope_monotone_in_dimension():
    values = [
        bounds.quasi_poly_cost_bound(0.01, d, 2.0, 1.5).extras["envelope"]
        for d in (2, 5, 20, 100)
    ]
    assert values == sorted(values)


def test_unit_class_bound_cube_nine():
    eps = 0.01
    rad = 1.5
    report = bounds.unit_derivative_cost_bound(eps, 9, rad)
    expected = (1.0 + math.log(9.0)) * max(math.e**2 * rad, math.log(rad / eps))
    assert report.log_value == pytest.approx(expected, rel=1e-12)


def test_unit_class_bound_accuracy_branch_dominates_eventually():
    rad = 1.5
    report = bounds.unit_derivative_cost_bound(1e-30, 9, rad)
    assert report.extras["accuracy_branch"] > report.extras["curvature_branch"]
    report = bounds.unit_derivative_cost_bound(0.5, 9, rad)
    assert report.extras["curvature_branch"] > report.extras["accuracy_branch"]


def test_unit_class_bound_branch_continuity():
    # At the epsilon where both branches tie, the bound is continuous.
    rad = 1.5
    eps_tie = rad * math.exp(-(math.e**2) * rad)
    below = bounds.unit_derivative_cost_bound(eps_tie * (1 + 1e-9), 9, rad)
    above = bounds.unit_derivative_cost_bound(eps_tie * (1 - 1e-9), 9, rad)
    assert below.log_value == pytest.approx(above.log_value, rel=1e-6)


# ---------------------------------------------------------------------------
# Uniform-weak-tractability witness


def test_uwt_witness_m_one_alpha_one():
    # Both denominator terms are linear in d: limit ln 2 / (1 + 2).
    report = bounds.non_uniform_weak_witness(1.0, 1, 1.0)
    assert report.extras["limit"] == pytest.approx(math.log(2.0) / 3.0, rel=1e-12)
    assert report.preconditions_met


def test_uwt_witness_critical_alpha_general_m():
    report = bounds.non_uniform_weak_witness(4.0, 2, 0.25)
    assert report.extras["limit"] == pytest.approx(
        math.log(2.0) / 2.0**0.25, rel=1e-12
    )


def test_uwt_witness_subcritical_alpha_diverges():
    report = bounds.non_uniform_weak_witness(2.0, 1, 0.25)
    assert report.extras["limit"] == math.inf


def test_uwt_witness_inconclusive_branch():
    report = bounds.non_uniform_weak_witness(2.0, 1, 0.9)
    assert not report.preconditions_met
    assert report.extras["limit"] == 0.0


def test_uwt_witness_alpha_validation():
    assert not bounds.non_uniform_weak_witness(3.0, 1, 0.0).preconditions_met
    assert not bounds.non_uniform_weak_witness(3.0, 1, 1.5).preconditions_met


# ---------------------------------------------------------------------------
# Classifier


def test_classify_lipschitz_dichotomy():
    curse = SmoothnessProfile.finite([(2.5, -0.5)])
    assert bounds.classify(curse, "convex_P").verdict == "curse"
    free = SmoothnessProfile.finite([(2.5, -0.51)])
    assert bounds.classify(free, "convex_P").verdict == "no_curse"


def test_classify_gradient_dichotomy():
    free = SmoothnessProfile.finite([(1.0, -0.5), (1.0, -1.2)])
    assert bounds.classify(free, "small_radius").verdict == "no_curse"
    curse = SmoothnessProfile.finite([(1.0, -0.5), (1.0, -1.0)])
    assert bounds.classify(curse, "small_radius").verdict == "curse"


def test_classify_unit_derivatives_weakly_tractable():
    profile = SmoothnessProfile.infinite((1.0, 0.0), TailRule(log_constant=0.0))
    assert bounds.classify(profile, "cube").verdict == "WT"


def test_classify_order_two_gap():
    profile = SmoothnessProfile.finite([(1.0, -0.5), (1.0, -1.0), (1.0, -1.2)])
    assert bounds.classify(profile, "cube").verdict == "indeterminate_gap"


def test_classify_complementary_pairs():
    for e0, e1 in [(-0.5, -1.0), (-0.4, -0.8), (-0.6, -1.0), (-0.5, -1.3)]:
        profile = SmoothnessProfile.finite([(1.0, e0), (1.0, e1)])
        verdict = bounds.classify(profile, "cube").verdict
        expected = "curse" if (e0 >= -0.5 and e1 >= -1.0) else "no_curse"
        assert verdict == expected


def test_classify_higher_order_curse_and_no_curse():
    curse = SmoothnessProfile.finite([(1.0, -0.5), (1.0, -1.0), (1.0, -1.0)])
    assert bounds.classify(curse, "cube").verdict == "curse"
    free = SmoothnessProfile.finite([(1.0, -0.5), (1.0, -1.0), (1.0, -1.6)])
    assert bounds.classify(free, "cube").verdict == "no_curse"


def test_classify_infinite_curse_condition():
    tail = TailRule(log_constant=0.0, factorial_power=1.5, d_exponent_base=1.0)
    profile = SmoothnessProfile.infinite((1.0, -0.5), tail)
    verdict = bounds.classify(profile, "cube")
    assert verdict.verdict == "curse"
    assert "gamma" in verdict.witness or "base" in verdict.witness


def test_classify_infinite_qpt_condition():
    tail = TailRule(
        log_constant=0.0,
        log_base=math.log(1.9),
        factorial_power=1.0,
        d_exponent_base=0.5,
        d_exponent_slope=0.5,
    )
    profile = SmoothnessProfile.infinite((1.0, 0.0), tail)
    assert bounds.classify(profile, "cube").verdict == "QPT"
    # Base two or larger leaves the known conditions.
    tail_wide = TailRule(
        log_constant=0.0,
        log_base=math.log(2.0),
        factorial_power=1.0,
        d_exponent_base=0.5,
        d_exponent_slope=0.5,
    )
    wide = SmoothnessProfile.infinite((1.0, 0.0), tail_wide)
    assert bounds.classify(wide, "cube").verdict != "QPT"


def test_classify_infinite_factorial_band_is_indeterminate():
    # Between (j!)^{1-eta} upper and (j!)^{1+eta} lower conditions with no
    # d-decay: nothing applies.
    tail = TailRule(log_constant=0.0, log_base=math.log(3.0), factorial_power=1.0)
    profile = SmoothnessProfile.infinite((1.0, -0.5), tail)
    assert bounds.classify(profile, "cube").verdict == "indeterminate_gap"


def test_classify_partial_embedding_shifts_thresholds():
    # Partial profiles keep lower bounds but need d^{j+1/2} decay upstream.
    curse = SmoothnessProfile.finite(
        [(1.0, -0.5), (1.0, -1.0)], derivative_kind="partial"
    )
    assert bounds.classify(curse, "cube").verdict == "curse"
    gap = SmoothnessProfile.finite(
        [(1.0, -0.5), (1.0, -1.2)], derivative_kind="partial"
    )
    assert bounds.classify(gap, "cube").verdict == "indeterminate_gap"
    free = SmoothnessProfile.finite(
        [(1.0, -0.5), (1.0, -1.6)], derivative_kind="partial"
    )
    assert bounds.classify(free, "cube").verdict == "no_curse"


def test_classify_gradient_dichotomy_needs_hull_family():
    profile = SmoothnessProfile.finite([(1.0, -0.5), (1.0, -1.0)])
    verdict = bounds.classify(profile, "convex")
    assert (verdict.verdict, verdict.rule) == ("indeterminate_gap", "none")


def test_classify_infinite_fast_decay_beats_taylor_threshold_on_any_convex():
    profile = SmoothnessProfile.infinite((1.0, 0.0), TailRule(0.0, d_exponent_base=2.0))
    verdict = bounds.classify(profile, "convex")
    assert (verdict.verdict, verdict.rule) == ("no_curse", "taylor_upper")


def test_classify_curse_witness_constants():
    profile = SmoothnessProfile.finite([(2.5, -0.5)])
    verdict = bounds.classify(profile, "cube")
    assert verdict.witness["gamma"] > 0.0
    assert 0.0 < verdict.witness["eps0"] < 1.0
    assert verdict.witness["c"] > 0.0


@given(
    e0=st.floats(-1.5, 0.5),
    e1=st.floats(-2.5, 0.0),
    scale=st.floats(1.0, 1e6),
)
@settings(max_examples=80, deadline=None)
def test_classify_scaling_consistency(e0, e1, scale):
    profile = SmoothnessProfile.finite([(1.0, e0), (1.0, e1)])
    scaled = SmoothnessProfile.finite([(scale, e0), (scale, e1)])
    assert (
        bounds.classify(profile, "cube").verdict
        == bounds.classify(scaled, "cube").verdict
    )


def test_classify_rejects_unknown_family():
    profile = SmoothnessProfile.finite([(1.0, -0.5)])
    with pytest.raises(ValueError):
        bounds.classify(profile, "torus")


# ---------------------------------------------------------------------------
# Profile plumbing


def test_profile_log_values_match_closed_form():
    profile = SmoothnessProfile.finite([(3.0, -0.5), (7.0, -1.0)])
    assert profile.value(0, 16) == pytest.approx(3.0 / 4.0, rel=1e-12)
    assert profile.value(1, 16) == pytest.approx(7.0 / 16.0, rel=1e-12)


def test_profile_tail_log_values():
    tail = TailRule(
        log_constant=math.log(5.0),
        log_base=math.log(2.0),
        factorial_power=1.5,
        factorial_shift=1,
        d_exponent_base=1.0,
    )
    profile = SmoothnessProfile.infinite((1.0, -0.5), tail)
    expected = 5.0 * 2.0**3 * math.factorial(2) ** 1.5 / 10.0
    assert profile.value(3, 10) == pytest.approx(expected, rel=1e-12)


def test_profile_validation():
    with pytest.raises(ValueError):
        SmoothnessProfile(derivative_kind="directional", levels=())
    with pytest.raises(ValueError):
        SmoothnessProfile(derivative_kind="directional", levels=(), tail=TailRule(0.0))
    with pytest.raises(ValueError):
        SmoothnessProfile(derivative_kind="directional", levels=((0.0, 0.0),) * 2,
                          tail=TailRule(0.0))
    with pytest.raises(ValueError):
        SmoothnessProfile.finite([(1.0, 0.0)], derivative_kind="sideways")


def test_profile_serialization():
    profile = SmoothnessProfile.finite([(1.0, -0.5), (2.0, -1.0)])
    payload = profile.to_json_dict(d=4)
    assert payload["k"] == 1
    assert set(payload["log_bounds"]) == {"0", "1"}


def test_consistency_lower_bound_below_achieved_cost():
    # Whenever the one-point rule certifies error below eps, the class
    # complexity is one, so the lower bound cannot exceed one.
    checked = 0
    for d in (2, 5, 10):
        for lip in (0.05, 0.2, 1.0):
            upper = bounds.ub_one_point_c0(lip, d, 0.5, 0.0).extras["value"]
            eps = upper * 1.01
            if eps >= 1.0:
                continue
            lower = bounds.lb_lipschitz(eps, d, lip, a=1.0)
            assert lower.preconditions_met
            assert lower.log_value <= math.log(1.0) + 1e-12
            checked += 1
    assert checked >= 4
