import pytest

from curselab import checks, fooling
from curselab.hull import PointSet

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
    # A smoothed function built for a larger delta is below one at the far
    # points.  One built for a smaller delta is still zero on the hull, as
    # its kernels shrink with it, so the zero check is shown one built on
    # the hull shrunk about its centroid: nonzero near the vertices.
    exact = checks.fooling_smoothed

    def wrong(ps, delta, k):
        if scale > 1.0:
            return exact(ps, scale * delta, k)
        centre = ps.points.mean(axis=0)
        return exact(PointSet(centre + scale * (ps.points - centre)), delta, k)

    monkeypatch.setattr(checks, "fooling_smoothed", wrong)
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


def test_smooth_check_evaluates_only_the_function_it_certifies(monkeypatch):
    # Every smoothed mean, the hooks' included, must use the certified
    # object's kernels, and every mean of a fooling function must be of
    # that object, not of a c1 function convolved by hand.
    built, calls = [], []
    make, smoothed = checks.fooling_smoothed, fooling.smoothed_eval

    def recording_make(*args):
        built.append(make(*args))
        return built[-1]

    def recording_smoothed(base, seq, kernels, delta, *args):
        calls.append((base, seq, kernels, delta))
        return smoothed(base, seq, kernels, delta, *args)

    monkeypatch.setattr(checks, "fooling_smoothed", recording_make)
    monkeypatch.setattr(checks, "smoothed_eval", recording_smoothed)
    monkeypatch.setattr(fooling, "smoothed_eval", recording_smoothed)
    assert checks.smooth_check(5, 8, 0.05, 3, 2000, 1)["pass"]
    (f,) = built
    assert f.variant == "smoothed" and f.kernels == 3
    assert all((seq, kernels, delta) == (f.seq, f.kernels, f.delta)
               for _, seq, kernels, delta in calls)
    means = [base for base, *_ in calls if isinstance(base, fooling.FoolingFunction)]
    # Four zero points, four one points and four Lipschitz pairs.
    assert len(means) == 16 and all(base is f for base in means)
