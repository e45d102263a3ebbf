import pytest

from curselab import checks, fooling

# Seeds on which the finite-difference gradient sub-check used to fail
# at the README configuration: a stencil spanning a change of projection
# support (5, 26, 54, 57, 59) or crossing the ramp breakpoint (19, 52, 58).
FD_SEEDS = [5, 19, 26, 52, 54, 57, 58, 59]


def _readme_c1(seed):
    return checks.fool_check_c1(5, 8, 0.005, pairs=2000, seed=seed)


@pytest.mark.parametrize("seed", FD_SEEDS)
def test_fool_check_c1_fd_gradient_passes_on_former_failures(seed):
    res = _readme_c1(seed)
    assert res["grad_fd_pass"], res["grad_fd_max_rel_err"]["value"]
    assert res["pass"]
    assert res["grad_fd_points"] == 40
    assert res["grad_fd_near_breakpoint"] + res["grad_fd_support_changes"] >= 1


def test_fool_check_c1_fd_gradient_detects_a_perturbed_gradient(monkeypatch):
    exact = checks.fooling_eval_batch

    def perturbed(*args, **kwargs):
        out = exact(*args, **kwargs)
        if out.gradients is None:
            return out
        return out._replace(gradients=out.gradients * (1.0 + 1e-4))

    monkeypatch.setattr(checks, "fooling_eval_batch", perturbed)
    res = _readme_c1(1)
    assert res["grad_fd_points"] == 40
    assert not res["grad_fd_pass"]
    assert res["grad_fd_max_rel_err"]["value"] > 1e-5


@pytest.mark.parametrize("use_fd", [False, True])
def test_quad_cost_check_fails_when_a_rule_exceeds_its_prediction(monkeypatch, use_fd):
    exact = checks.quad_taylor

    def overspent(*args, **kwargs):
        result = exact(*args, **kwargs)
        result.evaluations_used = result.evaluations_cap + 1
        return result

    monkeypatch.setattr(checks, "quad_taylor", overspent)
    res = checks.quad_check_sine(6, 4, 2, use_fd=use_fd)
    assert res["evaluations_used"] == res["evaluations_cap"] + 1
    assert not res["cost_pass"] and not res["pass"]
    assert res["error_pass"]


def test_smooth_check_projects_few_of_its_value_queries(monkeypatch):
    # The distance bracket settles the exact-zero and exact-one regions;
    # a change that projects every row again fails this count.
    exact = fooling.fooling_eval_batch
    rows = [0, 0]

    def counting(*args, **kwargs):
        out = exact(*args, **kwargs)
        rows[0] += len(out.values)
        rows[1] += out.projected.size
        return out

    monkeypatch.setattr(fooling, "fooling_eval_batch", counting)
    assert checks.smooth_check(5, 8, 0.05, 3, 2000, 1)["pass"]
    assert rows[0] == 32_000
    assert rows[1] <= 0.2 * rows[0]


@pytest.mark.parametrize("scale,failing", [(0.5, "zeros_pass"), (2.0, "ones_pass")])
def test_fool_check_c1_zero_and_one_checks_can_fail(monkeypatch, scale, failing):
    # The zero and one points are drawn for delta; a function built for a
    # smaller (larger) delta is nonzero near the hull (below one far out).
    exact = checks.fooling_c1
    monkeypatch.setattr(checks, "fooling_c1", lambda ps, delta: exact(ps, scale * delta))
    res = checks.fool_check_c1(5, 8, 0.05, pairs=200, seed=1, samples=200)
    assert not res[failing] and not res["pass"]


@pytest.mark.parametrize("scale,failing", [(0.5, "zero_pass"), (2.0, "one_pass")])
def test_smooth_check_zero_and_one_checks_can_fail(monkeypatch, scale, failing):
    exact = checks.fooling_c1
    monkeypatch.setattr(checks, "fooling_c1", lambda ps, delta: exact(ps, scale * delta))
    res = checks.smooth_check(5, 8, 0.05, 3, 2000, 1)
    assert not res[failing] and not res["pass"]


def test_fool_check_c1_evaluates_only_the_function_it_certifies(monkeypatch):
    # Pairs, gradients and stencils must come from the certified object,
    # not from a second function rebuilt from the hull and delta.
    built, evaluated = [], []
    make, evaluate = checks.fooling_c1, checks.fooling_eval_batch

    def recording_make(*args):
        built.append(make(*args))
        return built[-1]

    def recording_evaluate(f, *args, **kwargs):
        evaluated.append(f)
        return evaluate(f, *args, **kwargs)

    monkeypatch.setattr(checks, "fooling_c1", recording_make)
    monkeypatch.setattr(checks, "fooling_eval_batch", recording_evaluate)
    checks.fool_check_c1(5, 8, 0.05, pairs=200, seed=1, samples=200)
    assert len(built) == 1 and evaluated
    assert all(f is built[0] for f in evaluated)
