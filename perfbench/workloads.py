"""The benchmark's three workloads.

Each workload builds its inputs from the run's ``--seed``, runs a fixed
list of operations per round, and checks every output.  Operations go
through ``curselab.cli.main`` with the documented flags where a
subcommand exists, and through the module's public function otherwise.

* ``fooling-suite``: ``fool-check --variant c1`` and ``smooth-check`` at
  the README sizes; almost all of the time is scalar hull
  projection called once per point from Python loops.
* ``volume-mc``: ``volume`` on the README lp:2 ball at one and two
  threads, on the d=5 cube, and on a one-vertex hull with an exact
  volume; batched classification rather than exact projection.
* ``quadrature``: analytic and finite-difference Taylor rules,
  ``reference_integral``, ``smoothed_eval`` with an affine base and the
  one-point rule; pure-Python enumeration and Monte Carlo reduction with
  little hull work.

``tiny=True`` shrinks every size for the self-test; the operations and
checks stay the same.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from curselab import checks, cli, fooling, hull, quadrature
from curselab.geometry import DomainSpec
from curselab.rng import substream

import oracles

#: ``fool-check`` at the README configuration fails its finite-difference
#: gradient sub-check (``grad_fd_pass``) on some seeds (5, 19, 26, 52, 54,
#: 57, 58 and 59 of 1..59).  An operation that fails on some seeds only
#: would make the failed share depend on ``--seed``, so ``fool-check``
#: runs on this fixed seed, where that sub-check fails every time, and
#: counts as failed in every round.
FOOL_CHECK_SEED = 5


@dataclass
class CliRun:
    argv: list[str]
    rc: int
    stdout: str
    stderr: str

    def results(self) -> dict:
        return json.loads(self.stdout)["results"]


def run_cli(argv: list[str]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliRun(argv, rc, out.getvalue(), err.getvalue())


def _value(entry):
    return entry["value"] if isinstance(entry, dict) else entry


def _failed_flags(results: dict) -> set[str]:
    return {k for k, v in results.items() if k.endswith("pass") and v is not True}


@dataclass
class Op:
    """One operation of a round.

    ``run`` returns the output; ``failed`` says whether the program
    reported a failure; ``check`` returns a list of problems with a
    non-failed output (or, for ``expected_failure`` operations, with
    the failure not being the known one).
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    failed: Callable[[object], bool] = lambda out: False
    expected_failure: str | None = None


def _cli_op(name, argvs, check, expected_failure=None) -> Op:
    """An operation of one or more CLI invocations; a single one returns its CliRun."""
    if len(argvs) == 1:
        return Op(name=name, run=lambda: run_cli(argvs[0]), check=check,
                  failed=lambda out: out.rc != 0, expected_failure=expected_failure)
    return Op(
        name=name,
        run=lambda: [run_cli(argv) for argv in argvs],
        check=lambda outs: [e for out in outs for e in check(out)],
        failed=lambda outs: any(out.rc != 0 for out in outs),
        expected_failure=expected_failure,
    )


def _passes(out: CliRun) -> list[str]:
    """rc 0 and every ``*pass`` flag true."""
    if out.rc != 0:
        return [f"{out.argv[0]}: exit {out.rc}: {out.stderr.strip()}"]
    bad = _failed_flags(out.results())
    return [f"{out.argv[0]}: flags failed: {sorted(bad)}"] if bad else []


@dataclass
class Workload:
    """The operations of a round and the checks around them.

    ``figures`` turns median operation times into the named figures;
    ``verify`` runs the oracle checks once per run; ``cross_checks``
    compares outputs of one round with each other; ``notes`` go into the
    run record.
    """

    ops: list[Op]
    figures: Callable[[dict[str, float]], dict[str, tuple[float, str]]]
    verify: Callable[[], list[str]] = lambda: []
    cross_checks: Callable[[dict[str, object]], list[str]] = lambda outs: []
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# fooling-suite


def fooling_suite(seed: int, tiny: bool = False) -> Workload:
    d, n = (2, 2) if tiny else (5, 8)
    fool_argv = ["fool-check", "--variant", "c1", "--d", "5", "--n", "8",
                 "--delta", "0.005", "--seed", str(FOOL_CHECK_SEED)]
    if tiny:
        fool_argv += ["--pairs", "50", "--samples", "50"]
    smooth_argv = ["smooth-check", "--d", str(d), "--n", str(n), "--delta", "0.05",
                   "--k", "3", "--samples", "1000" if tiny else "2000", "--seed", str(seed)]

    def check_fool(out: CliRun) -> list[str]:
        if out.rc == 0:
            return _passes(out)
        bad = _failed_flags(out.results()) - {"pass"}
        if out.rc != 2 or bad != {"grad_fd_pass"}:
            return [f"fool-check failed other than on grad_fd_pass: rc {out.rc}, {sorted(bad)}"]
        return []

    def check_smooth(out: CliRun) -> list[str]:
        errors = _passes(out)
        if errors:
            return errors
        res = out.results()
        if _value(res["constant_hook"]) != 0.375:
            errors.append("smooth-check: constant hook is not exact")
        if any(_value(v) != 0.0 for v in res["zero_means"]):
            errors.append("smooth-check: a zero-region mean is not exactly 0")
        if any(_value(v) != 1.0 for v in res["one_means"]):
            errors.append("smooth-check: a one-region mean is not exactly 1")
        return errors

    def verify() -> list[str]:
        # C^1 fooling values at uniform, ramp and near-hull points against
        # the nnls distance, for both README deltas.
        errors = []
        rng = np.random.default_rng([seed, 11])
        dom = DomainSpec.cube(d)
        ps = checks.random_point_set(dom, n, seed)
        count = 40 if tiny else 200
        for delta in (0.005, 0.05):
            r = delta * math.sqrt(d)
            base = rng.dirichlet(np.ones(ps.n), size=count) @ ps.points
            u = rng.standard_normal((count, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            near = base + u * (r * rng.uniform(0.0, 3.5, size=(count, 1)))
            pts = np.vstack([rng.random((count, d)), near])
            for x in pts:
                value, _ = fooling.fooling_c1_eval(ps, delta, x)
                lo, hi = oracles.hull_distance_bracket(ps.points, x)
                v_lo, v_hi = oracles.c1_ramp(lo, delta, d), oracles.c1_ramp(hi, delta, d)
                if not v_lo - 1e-7 <= value <= v_hi + 1e-7:
                    errors.append(f"c1 value {value} outside oracle [{v_lo}, {v_hi}]")
                    break
        return errors

    def figures(t: dict[str, float]) -> dict[str, tuple[float, str]]:
        return {
            "fool_check_s": (t["fool_check"], "s"),
            "smooth_check_s": (t["smooth_check"], "s"),
        }

    return Workload(
        ops=[
            _cli_op("fool_check", [fool_argv], check_fool, expected_failure="grad_fd_pass"),
            _cli_op("smooth_check", [smooth_argv], check_smooth),
        ],
        verify=verify,
        figures=figures,
        notes={"fool_check_argv": fool_argv, "smooth_check_argv": smooth_argv},
    )


# ---------------------------------------------------------------------------
# volume-mc


def volume_mc(seed: int, tiny: bool = False, run_dir: str = ".") -> Workload:
    samples = 20000 if tiny else 200000
    ball = ["volume", "--domain", "lp:2", "--d", "20", "--n", "16", "--delta", "0.05",
            "--samples", str(samples), "--seed", str(seed)]
    # The cube's cost depends on its point set: the share of queries that
    # fall back to the exact solver varies severalfold between seeds.  Four
    # point sets of a quarter of the samples each keep a run's cost close
    # to the average over point sets.
    cube_seeds = [4 * seed + i for i in range(4)]
    cube_samples = samples // 4
    cubes = [["volume", "--domain", "cube", "--d", "5", "--n", "8", "--delta", "0.05",
              "--samples", str(cube_samples), "--seed", str(s)] for s in cube_seeds]
    # One vertex at the centre of the volume-one lp:2 ball: the
    # neighbourhood is a Euclidean ball, about 1% of the domain here.
    one_d, one_delta = 10, 0.18
    centre_csv = os.path.join(run_dir, "one_vertex.csv")
    with open(centre_csv, "w", encoding="utf-8") as fh:
        fh.write(",".join(["0.0"] * one_d) + "\n")
    one = ["volume", "--domain", "lp:2", "--d", str(one_d), "--delta", str(one_delta),
           "--points-csv", centre_csv, "--samples", str(samples), "--seed", str(seed)]
    exact_one = oracles.ball_volume(one_d, one_delta * math.sqrt(one_d))

    def check_volume(out: CliRun) -> list[str]:
        errors = _passes(out)
        requested = int(out.argv[out.argv.index("--samples") + 1])
        if not errors and _value(out.results()["samples"]) != requested:
            errors.append("volume: sample count differs from --samples")
        return errors

    def check_one(out: CliRun) -> list[str]:
        errors = check_volume(out)
        if errors:
            return errors
        res = out.results()
        mean, half = _value(res["mean"]), _value(res["half_width_95"])
        if not abs(mean - exact_one) <= 4.0 * half:
            errors.append(f"one-vertex volume {mean} vs exact {exact_one} (half-width {half})")
        return errors

    def cross_checks(outs: dict) -> list[str]:
        if outs["ball_t1"].stdout != outs["ball_t2"].stdout:
            return ["volume: --threads 1 and --threads 2 outputs differ"]
        return []

    def verify() -> list[str]:
        # within_distance verdicts against nnls on the first sampled points
        # of chunk 0 and on points near the neighbourhood boundary.
        errors = []
        rng = np.random.default_rng([seed, 12])
        count = 40 if tiny else 300
        configs = [(DomainSpec.lp_ball(2.0, 20), 16, seed, count)]
        configs += [(DomainSpec.cube(5), 8, s, count // 4) for s in cube_seeds]
        for dom, n, point_seed, m in configs:
            ps = checks.random_point_set(dom, n, point_seed)
            r = 0.05 * math.sqrt(dom.d)
            sampled = dom.sample(substream(point_seed, 0), m)
            base = rng.dirichlet(np.ones(ps.n), size=m) @ ps.points
            u = rng.standard_normal((m, dom.d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            near = base + u * (r * rng.uniform(0.5, 1.5, size=(m, 1)))
            pts = np.vstack([sampled, near])
            verdicts = hull.within_distance(ps, pts, r)
            decided = 0
            for x, got in zip(pts, verdicts):
                want = oracles.within_verdict(ps.points, x, r)
                if want is None:
                    continue
                decided += 1
                if bool(got) != want:
                    errors.append(f"volume {dom.kind} seed {point_seed}: within_distance "
                                  f"verdict {got}, nnls {want}")
                    break
            if decided < len(pts) // 2:
                errors.append(f"volume {dom.kind}: nnls decided only {decided} of {len(pts)}")
        return errors

    def figures(t: dict[str, float]) -> dict[str, tuple[float, str]]:
        return {
            "volume_ball_samples_per_s": (samples / t["ball_t1"], "samples/s"),
            "volume_ball_samples_per_s_2t": (samples / t["ball_t2"], "samples/s"),
            "volume_cube_samples_per_s": (cube_samples * len(cubes) / t["cube"], "samples/s"),
            "volume_one_vertex_samples_per_s": (samples / t["one_vertex"], "samples/s"),
        }

    return Workload(
        ops=[
            _cli_op("ball_t1", [ball + ["--threads", "1"]], check_volume),
            _cli_op("ball_t2", [ball + ["--threads", "2"]], check_volume),
            _cli_op("cube", cubes, check_volume),
            _cli_op("one_vertex", [one], check_one),
        ],
        verify=verify,
        figures=figures,
        cross_checks=cross_checks,
        notes={"samples": samples, "cube_seeds": cube_seeds, "one_vertex_exact": exact_one},
    )


# ---------------------------------------------------------------------------
# quadrature


def quadrature_suite(seed: int, tiny: bool = False) -> Workload:
    taylor_d, taylor_j = (8, 4) if tiny else (30, 8)
    fd_d, fd_j = (4, 4) if tiny else (12, 6)
    ref_d, ref_n = 20, (20000 if tiny else 1_000_000)
    sm_d, sm_k, sm_n, sm_delta = 50, 3, (5000 if tiny else 200_000), 0.05
    one_d = 10 if tiny else 50
    taylor = ["quad", "--algorithm", "taylor", "--d", str(taylor_d), "--j", str(taylor_j),
              "--seed", str(seed)]
    fd = ["quad", "--algorithm", "taylor", "--d", str(fd_d), "--j", str(fd_j), "--fd",
          "--seed", str(seed)]
    one_point = ["quad", "--algorithm", "one-point", "--d", str(one_d), "--seed", str(seed)]
    if tiny:
        one_point += ["--samples", "2000"]

    rng = np.random.default_rng([seed, 13])
    ref_a = rng.standard_normal(ref_d)
    ref_a /= np.linalg.norm(ref_a)
    ref_b = float(rng.uniform(0.0, 2.0 * math.pi))
    ref_f = quadrature.make_sine_integrand(ref_a, ref_b, 0.1)
    ref_dom = DomainSpec.cube(ref_d)
    ref_exact = oracles.sine_integral(ref_a, ref_b, 0.1)

    sm_a = rng.standard_normal(sm_d)
    sm_b = float(rng.random())
    sm_x = rng.random(sm_d)
    sm_seq = fooling.make_alpha_sequence("uniform", k=sm_k)
    sm_target = float(sm_a @ sm_x + sm_b)

    def affine(pts):
        return np.atleast_2d(pts) @ sm_a + sm_b

    def sine_exact(d: int) -> float:
        # quad_check_sine draws a (unit norm) and b from substream(seed, 0).
        g = substream(seed, 0)
        a = g.standard_normal(d)
        a /= np.linalg.norm(a)
        return oracles.sine_integral(a, float(g.random() * 2.0 * math.pi), 0.1)

    def check_taylor(d, j, expected_evals):
        exact = sine_exact(d)

        def check(out: CliRun) -> list[str]:
            errors = _passes(out)
            if errors:
                return errors
            res = out.results()
            if res["evaluations_used"] != expected_evals:
                errors.append(f"taylor d={d} j={j}: {res['evaluations_used']} evaluations, "
                              f"expected {expected_evals}")
            if abs(_value(res["exact"]) - exact) > 1e-12 * max(1.0, abs(exact)):
                errors.append(f"taylor d={d}: exact {_value(res['exact'])} vs oracle {exact}")
            return errors

        return check

    # Independent estimate of E min(1, |x - c| / sqrt(d)) on the cube.
    x = np.random.default_rng([seed, 14]).random((20000, one_d)) - 0.5
    v = np.minimum(1.0, np.linalg.norm(x, axis=1) / math.sqrt(one_d))
    own_mean, own_half = float(v.mean()), 1.96 * float(v.std(ddof=1)) / math.sqrt(len(v))

    def check_one_point(out: CliRun) -> list[str]:
        errors = _passes(out)
        if errors:
            return errors
        res = out.results()
        if _value(res["one_point_value"]) != 0.0:
            errors.append("one-point: value at the single hull vertex is not 0")
        mean, half = _value(res["reference_mean"]), _value(res["reference_half_width"])
        if abs(mean - own_mean) > 4.0 * math.hypot(half, own_half):
            errors.append(f"one-point: reference mean {mean} vs independent {own_mean}")
        return errors

    def run_refint():
        return quadrature.reference_integral(ref_f, ref_dom, ref_n, seed)

    def check_refint(out) -> list[str]:
        mean, half = out
        if not abs(mean - ref_exact) <= 4.0 * half:
            return [f"reference_integral {mean} vs exact {ref_exact} (half-width {half})"]
        return []

    def run_smoothed():
        return fooling.smoothed_eval(affine, sm_seq, sm_k, sm_delta, sm_x, sm_n, seed)

    def check_smoothed(out) -> list[str]:
        mean, half = out
        if not abs(mean - sm_target) <= 4.0 * half:
            return [f"smoothed_eval affine mean {mean} vs {sm_target} (half-width {half})"]
        return []

    terms = oracles.taylor_terms(taylor_d, taylor_j)
    nodes = oracles.stencil_nodes(fd_d, fd_j)

    def figures(t: dict[str, float]) -> dict[str, tuple[float, str]]:
        return {
            "taylor_terms_per_s": (terms / t["taylor"], "terms/s"),
            "taylor_fd_nodes_per_s": (nodes / t["taylor_fd"], "nodes/s"),
            "refint_samples_per_s": (ref_n / t["refint"], "samples/s"),
            "smoothed_samples_per_s": (sm_n / t["smoothed"], "samples/s"),
            "one_point_check_s": (t["one_point"], "s"),
        }

    return Workload(
        ops=[
            _cli_op("taylor", [taylor], check_taylor(taylor_d, taylor_j, terms)),
            _cli_op("taylor_fd", [fd], check_taylor(fd_d, fd_j, nodes)),
            Op("refint", run_refint, check_refint),
            Op("smoothed", run_smoothed, check_smoothed),
            _cli_op("one_point", [one_point], check_one_point),
        ],
        figures=figures,
        notes={"taylor_terms": terms, "stencil_nodes": nodes, "refint_exact": ref_exact,
               "smoothed_target": sm_target},
    )


WORKLOADS = {
    "fooling-suite": lambda seed, tiny, run_dir: fooling_suite(seed, tiny),
    "volume-mc": volume_mc,
    "quadrature": lambda seed, tiny, run_dir: quadrature_suite(seed, tiny),
}
