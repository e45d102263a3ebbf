"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from curselab import bounds, fooling, geometry, hull, quadrature, volume
from curselab.bounds import SmoothnessProfile, TailRule
from curselab.checks import (
    fool_check_c1,
    one_point_check_c0,
    quad_check_sine,
    random_point_set,
    smooth_check,
)
from curselab.cli import main


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:2d}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_gamma_constant_below_seven_eighths():
    start = time.perf_counter()
    gc = volume.gamma_constant(0.26, 0.25)
    witness = volume.profile_integral(4.5, 0.26, 0.25)
    elapsed = time.perf_counter() - start
    ok = (
        gc.value < 7.0 / 8.0 - 1e-4
        and witness < 7.0 / 8.0 - 1e-4
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        f"gamma(0.26,0.25)={gc.value:.6f}, I(9/2)={witness:.6f} "
        f"< 7/8 with margin >= 1e-4 ({elapsed:.3f}s)",
    )


def test_criterion_02_critical_exponent():
    start = time.perf_counter()
    root = geometry.solve_p_star()
    elapsed = time.perf_counter() - start
    ok = 170.50 <= root <= 170.53 and elapsed < 1.0
    report(2, ok, f"p* = {root:.6f} in [170.50, 170.53] ({elapsed:.3f}s)")


def test_criterion_03_slope_identity():
    rng = np.random.default_rng(2024)
    h = 1e-6
    worst = 0.0
    count = 0
    while count < 20:
        delta = float(rng.uniform(0.05, 0.5))
        eta = float(rng.uniform(0.0, 0.6))
        if delta * delta >= eta * eta + 1.0 / 12.0:
            continue
        count += 1
        fd = (
            volume.profile_integral(h, delta, eta)
            - volume.profile_integral(-h, delta, eta)
        ) / (2.0 * h)
        worst = max(worst, abs(fd - (delta * delta - eta * eta - 1.0 / 12.0)))
    ok = worst <= 1e-6
    report(3, ok, f"max |central diff - slope| = {worst:.2e} <= 1e-6 over 20 draws")


def test_criterion_04_volume_bounds_small_radius():
    start = time.perf_counter()
    details = []
    ok = True
    for d, n, delta in [(20, 16, 0.05), (40, 16, 0.05), (40, 64, 0.03)]:
        dom = geometry.DomainSpec.lp_ball(2, d)
        ps = random_point_set(dom, n, seed=900 + d + n)
        est = volume.mc_hull_neighborhood_volume(ps, dom, delta, 200_000, seed=d * n)
        bound = math.exp(est.bound_log)
        ok = ok and est.bound_source == "small_radius" and est.passed
        details.append(f"(d={d},n={n}) mean={est.mean:.2e} bound={bound:.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(4, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_05_volume_bounds_cube():
    start = time.perf_counter()
    gt = volume.gamma_tilde_cube(0.01)
    ok = gt.value < 7.0 / 8.0
    details = [f"gamma~(1/100)={gt.value:.4f}"]
    for d in (40, 60):
        dom = geometry.DomainSpec.cube(d)
        ps = random_point_set(dom, 32, seed=500 + d)
        est = volume.mc_hull_neighborhood_volume(ps, dom, 0.01, 200_000, seed=d)
        ok = ok and est.bound_source == "cube" and est.passed
        details.append(f"d={d} mean={est.mean:.2e} bound={math.exp(est.bound_log):.2e}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    report(5, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_06_one_dimensional_oracle():
    dom = geometry.DomainSpec.cube(1)
    rng = np.random.default_rng(31415)
    ok = True
    worst = 0.0
    for trial in range(5):
        pts = rng.random((int(rng.integers(1, 7)), 1))
        delta = float(rng.uniform(0.01, 0.25))
        ps = hull.PointSet(pts, domain=dom)
        est = volume.mc_hull_neighborhood_volume(ps, dom, delta, 50_000, seed=trial)
        lo = max(0.0, float(pts.min()) - delta)
        hi = min(1.0, float(pts.max()) + delta)
        exact = max(0.0, hi - lo)
        gap = abs(est.mean - exact)
        worst = max(worst, gap - 3.0 * est.half_width_95)
        ok = ok and gap <= 3.0 * est.half_width_95
    report(6, ok, f"five random interval hulls, max excess over 3 sigma = {worst:.2e}")


def test_criterion_07_fooling_c1_suite():
    start = time.perf_counter()
    ok = True
    details = []
    for d in (5, 20):
        res = fool_check_c1(
            d, 8, 1.0 / 200.0, pairs=10_000, seed=7_000 + d, samples=1000,
        )
        ok = ok and res["pass"]
        details.append(
            f"d={d}: lip {res['max_lipschitz_quotient']['value']:.3f}"
            f"<={res['lipschitz_bound']['value']:.3f}, "
            f"grad {res['max_gradient_quotient']['value']:.0f}"
            f"<={res['gradient_bound']['value']:.0f}, "
            f"zeros {res['zeros_exact']}/1000, ones {res['ones_exact']}/1000, "
            f"fd-rel {res['grad_fd_max_rel_err']['value']:.1e}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(7, ok, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_08_smoothing_statistical_suite():
    res = smooth_check(d=5, n=8, delta=0.05, k=3, samples=2000, seed=88)
    ok = res["pass"]
    report(
        8,
        ok,
        f"constant exact={res['constant_pass']}, affine within 3 sigma="
        f"{res['affine_pass']}, zeros exact={res['zero_pass']}, ones exact="
        f"{res['one_pass']}, mean-Lipschitz={res['mean_lipschitz_pass']}",
    )


def _even_indices(d, j):
    out = []
    for combo in itertools.product(range(j // 2 + 1), repeat=d):
        if sum(combo) <= j // 2:
            out.append(tuple(2 * g for g in combo))
    return out


def test_criterion_09_taylor_quadrature():
    rng = np.random.default_rng(99)
    ok = True
    details = []
    for d in (4, 8):
        for j in (1, 2, 3):
            a = rng.standard_normal(d)
            a /= np.linalg.norm(a)
            b = float(rng.random() * 2.0 * math.pi)
            f = quadrature.make_sine_integrand(a, b, amplitude=0.1)
            result = quadrature.quad_taylor(f, geometry.DomainSpec.cube(d), j)
            bound = (
                0.5 ** (j + 1) / math.factorial(j) * 0.1 * d ** ((j + 1) / 2.0)
            )
            err = abs(result.value - f.exact_integral)
            n_terms = len(_even_indices(d, j))
            ok = ok and err <= bound
            ok = ok and result.evaluations_used == n_terms
            ok = ok and result.evaluations_used <= math.comb(d + j, j)

            # Finite-difference route: counts verified exactly.
            fd_f = quadrature.Integrand(eval=f.eval, exact_integral=f.exact_integral)
            fd_result = quadrature.quad_taylor(fd_f, geometry.DomainSpec.cube(d), j)
            nodes = set()
            stencil_max = 1
            for beta in _even_indices(d, j):
                order = sum(beta)
                h = quadrature.default_fd_step(order)
                offsets = [[(bb / 2.0 - m) * h for m in range(bb + 1)] for bb in beta]
                stencil_max = max(
                    stencil_max, int(np.prod([bb + 1 for bb in beta]))
                )
                for combo in itertools.product(*offsets):
                    nodes.add(tuple(0.5 + off for off in combo))
            ok = ok and fd_result.evaluations_used == len(nodes)
            ok = ok and fd_result.evaluations_used <= math.comb(d + j, j) * stencil_max
            details.append(f"d={d},j={j}: err={err:.1e}<={bound:.1e}, evals={result.evaluations_used}")
    report(9, ok, "; ".join(details[:3]) + " ... all (d, j) pairs checked")


def test_criterion_10_one_point_bounds():
    ok = True
    details = []
    for d in (10, 50):
        res = one_point_check_c0(d, 1.0 / math.sqrt(d), samples=20_000, seed=40 + d)
        ok = ok and res["pass"]
        details.append(
            f"d={d}: |ref - 0| = {res['error']['value']:.3f} <= 0.5 + 3 sigma"
        )
    report(10, ok, "; ".join(details))


def test_criterion_11_bound_evaluator_spot_values():
    checks = []

    got = bounds.lb_lipschitz_gradient_cube(0.5, 7).log_value
    want = math.log(0.5) - math.log(8.0) + 7.0 * math.log(8.0 / 7.0)
    checks.append(abs(got - want) <= 1e-12 * abs(want))

    d = 12
    lip = 6.0 * math.sqrt(2.0 * math.e * math.pi) / math.sqrt(d)
    got = bounds.lb_lipschitz(0.5, d, lip, a=1.0).log_value
    want = math.log(0.5) + d * math.log(2.0)
    checks.append(abs(got - want) <= 1e-12 * abs(want))

    qpt = bounds.quasi_poly_cost_bound(math.exp(-3.0), 10, 1.0, math.e)
    checks.append(qpt.extras["k_eps"] == 3)
    want = 3.0 * (1.0 + math.log(10.0))
    checks.append(abs(qpt.log_value - want) <= 1e-12 * abs(want))

    got = bounds.unit_derivative_cost_bound(0.01, 9, 1.5).log_value
    want = (1.0 + math.log(9.0)) * max(math.e**2 * 1.5, math.log(1.5 / 0.01))
    checks.append(abs(got - want) <= 1e-12 * abs(want))

    ok = all(checks)
    report(11, ok, f"4 evaluators at 1e-12 relative in log-domain: {checks}")


def test_criterion_12_classifier_dichotomies():
    checks = []
    lip_curse = SmoothnessProfile.finite([(2.0, -0.5)])
    checks.append(bounds.classify(lip_curse, "convex_P").verdict == "curse")
    grad_free = SmoothnessProfile.finite([(1.0, -0.5), (1.0, -1.2)])
    checks.append(bounds.classify(grad_free, "small_radius").verdict == "no_curse")
    unit = SmoothnessProfile.infinite((1.0, 0.0), TailRule(log_constant=0.0))
    checks.append(bounds.classify(unit, "cube").verdict == "WT")
    gap = SmoothnessProfile.finite([(1.0, -0.5), (1.0, -1.0), (1.0, -1.2)])
    checks.append(bounds.classify(gap, "cube").verdict == "indeterminate_gap")

    complementary = True
    for e0, e1 in [(-0.5, -1.0), (-0.5, -1.01), (-0.51, -1.0), (-0.7, -2.0)]:
        profile = SmoothnessProfile.finite([(1.0, e0), (1.0, e1)])
        verdict = bounds.classify(profile, "cube").verdict
        expected = "curse" if (e0 >= -0.5 and e1 >= -1.0) else "no_curse"
        complementary = complementary and verdict == expected
    for e0 in (-0.5, -0.500001):
        profile = SmoothnessProfile.finite([(1.0, e0)])
        verdict = bounds.classify(profile, "cube").verdict
        expected = "curse" if e0 >= -0.5 else "no_curse"
        complementary = complementary and verdict == expected
    checks.append(complementary)

    ok = all(checks)
    report(12, ok, f"four example verdicts + complementary pairs: {checks}")


def test_criterion_13_determinism_across_runs_and_threads(tmp_path):
    commands = {
        "volume": [
            "volume", "--domain", "lp:2", "--d", "8", "--n", "6",
            "--delta", "0.08", "--samples", "20000", "--seed", "13",
        ],
        "fool-check": [
            "fool-check", "--variant", "c1", "--d", "3", "--n", "4",
            "--delta", "0.02", "--pairs", "200", "--samples", "100",
            "--seed", "13",
        ],
        "smooth-check": [
            "smooth-check", "--d", "3", "--n", "4", "--delta", "0.05",
            "--k", "2", "--samples", "1000", "--seed", "13",
        ],
        "quad": [
            "quad", "--algorithm", "taylor", "--d", "4", "--j", "2",
            "--seed", "13",
        ],
    }
    ok = True
    for name, args in commands.items():
        outputs = []
        for run, extra in enumerate(([], ["--threads", "1"], ["--threads", "1"],
                                     ["--threads", "4"])):
            path = tmp_path / f"{name}-{run}.json"
            code = main(args + extra + ["--out", str(path)])
            assert code == 0, f"{name} exited {code}"
            outputs.append(path.read_bytes())
        ok = ok and len(set(outputs)) == 1
    report(13, ok, "volume, fool-check, smooth-check, quad byte-identical "
                   "across two runs and threads in {default, 1, 4}")
