import json
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from curselab import cli
from curselab.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_cli(args, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(list(args) + ["--out", str(out)])
    text = out.read_bytes() if out.exists() else b""
    return code, text


def run_json(args, tmp_path, name="out.json"):
    code, text = run_cli(args, tmp_path, name)
    return code, json.loads(text)


def test_constants_gamma_passes_seven_eighths(tmp_path):
    code, payload = run_json(
        ["constants", "--gamma", "--delta", "0.26", "--eta", "0.25",
         "--check-below", "0.875"],
        tmp_path,
    )
    assert code == 0
    assert payload["schema"] == "curse-lab/1"
    value = payload["results"]["value"]
    assert value["provenance"] == "solver"
    assert value["value"] < 0.875
    assert payload["results"]["pass"] is True


def test_constants_gamma_violation_exit_code(tmp_path):
    code, payload = run_json(
        ["constants", "--gamma", "--delta", "0.26", "--eta", "0.25",
         "--check-below", "0.5"],
        tmp_path,
    )
    assert code == 2
    assert payload["results"]["pass"] is False


def test_constants_gamma_minimum_at_large_alpha(tmp_path):
    # At delta = 0.001 the minimum sits at alpha* = 1/(2 delta^2) = 5e5,
    # where both erf terms are 1: gamma = sqrt(2 pi e) * delta.
    code, payload = run_json(
        ["constants", "--gamma", "--delta", "0.001", "--eta", "0.25"], tmp_path
    )
    assert code == 0
    results = payload["results"]
    assert results["value"]["value"] == pytest.approx(
        math.sqrt(2.0 * math.pi * math.e) * 0.001, rel=1e-9
    )
    assert results["alpha_star"]["value"] == pytest.approx(5e5, rel=1e-6)


def test_constants_p_star(tmp_path):
    code, payload = run_json(["constants", "--p-star"], tmp_path)
    assert code == 0
    assert abs(payload["results"]["value"]["value"] - 170.5186) < 0.01


def test_constants_require_single_action(tmp_path):
    code, _ = run_cli(["constants", "--gamma", "--p-star"], tmp_path)
    assert code == 1


def test_constants_limit_ratio_handles_infinity(tmp_path):
    code, payload = run_json(["constants", "--limit-ratio", "--p", "1.5"], tmp_path)
    assert code == 0
    assert payload["results"]["value"]["value"] == "inf"


def test_volume_run_and_determinism(tmp_path):
    args = [
        "volume", "--domain", "lp:2", "--d", "6", "--n", "5",
        "--delta", "0.1", "--samples", "40000", "--seed", "7",
    ]
    # Three chunks: without --threads they are drawn on every core.
    runs = [run_cli(args + extra, tmp_path, f"{i}.json") for i, extra in
            enumerate(([], [], ["--threads", "1"], ["--threads", "4"]))]
    assert [code for code, _ in runs] == [0, 0, 0, 0]
    assert len({text for _, text in runs}) == 1
    payload = json.loads(runs[0][1])
    assert payload["results"]["mean"]["provenance"] == "monte_carlo"
    assert payload["results"]["bound_source"] == "small_radius"


def test_threads_below_one_are_refused(capsys):
    code, err = _one_line_error(capsys, [
        "volume", "--domain", "lp:2", "--d", "6", "--n", "5", "--delta", "0.1",
        "--samples", "2000", "--seed", "7", "--threads", "0"])
    assert code == 1
    assert "--threads must be at least 1" in err


def test_volume_requires_seed(tmp_path):
    code, _ = run_cli(
        ["volume", "--domain", "cube", "--d", "3", "--n", "4",
         "--delta", "0.1", "--samples", "2000"],
        tmp_path,
    )
    assert code == 1


def test_volume_points_csv(tmp_path):
    csv = tmp_path / "pts.csv"
    csv.write_text("0.25,0.25\n0.75,0.75\n")
    code, payload = run_json(
        ["volume", "--domain", "cube", "--d", "2", "--points-csv", str(csv),
         "--delta", "0.05", "--samples", "2000", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    assert payload["results"]["n_points"]["value"] == 2
    assert 0.0 < payload["results"]["mean"]["value"] < 1.0


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain=cube\nd=3\nn=4\ndelta=0.1\nsamples=2000\nseed=5\n")
    code_base, payload_base = run_json(
        ["volume", "--config", str(cfg)], tmp_path, "base.json"
    )
    assert code_base == 0
    assert payload_base["config"]["seed"] == 5
    code_over, payload_over = run_json(
        ["volume", "--config", str(cfg), "--seed", "9"], tmp_path, "over.json"
    )
    assert code_over == 0
    assert payload_over["config"]["seed"] == 9


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("nonsense=1\n")
    code, _ = run_cli(["volume", "--config", str(cfg)], tmp_path)
    assert code == 1


def test_fool_check_c1_small(tmp_path):
    code, payload = run_json(
        ["fool-check", "--variant", "c1", "--d", "3", "--n", "4",
         "--delta", "0.02", "--pairs", "100", "--samples", "50", "--seed", "2"],
        tmp_path,
    )
    assert code == 0
    results = payload["results"]
    assert results["lipschitz_pass"] is True
    assert results["zeros_exact"] == results["zeros_total"]


def test_smooth_check_small(tmp_path):
    code, payload = run_json(
        ["smooth-check", "--d", "3", "--n", "4", "--delta", "0.05",
         "--k", "2", "--samples", "1000", "--seed", "6"],
        tmp_path,
    )
    assert code == 0
    assert payload["results"]["constant_pass"] is True
    assert payload["results"]["zero_pass"] is True


def _figure_tags(results: dict) -> dict:
    """The provenance of each top-level figure of ``results``, a list's
    figures sharing one; fails on a float that is not tagged."""
    tags = {}
    for key, value in results.items():
        items = value if isinstance(value, list) else [value]
        assert not any(isinstance(v, float) or v in ("inf", "-inf", "nan") for v in items), key
        pairs = [v for v in items if isinstance(v, dict) and set(v) == {"value", "provenance"}]
        if pairs:
            assert len(pairs) == len(items), key
            (tags[key],) = {pair["provenance"] for pair in pairs}
    return tags


_TAYLOR_TAGS = dict.fromkeys(["value", "exact", "error", "error_bound", "fd_slack"], "formula")


@pytest.mark.parametrize("argv,tags", [
    (["fool-check", "--variant", "c1", "--d", "3", "--n", "4", "--delta", "0.02",
      "--pairs", "100", "--samples", "50", "--seed", "2"],
     {"max_lipschitz_quotient": "monte_carlo", "lipschitz_bound": "formula",
      "max_gradient_quotient": "monte_carlo", "gradient_bound": "formula",
      "grad_fd_max_rel_err": "monte_carlo"}),
    (["fool-check", "--variant", "c0", "--d", "3", "--n", "4", "--pairs", "100",
      "--seed", "2"],
     {"max_lipschitz_quotient": "monte_carlo", "lipschitz_bound": "formula"}),
    (["smooth-check", "--d", "3", "--n", "4", "--delta", "0.05", "--k", "2",
      "--samples", "1000", "--seed", "6"],
     {"constant_hook": "monte_carlo", "affine_mean": "monte_carlo", "affine_target": "formula",
      "zero_means": "monte_carlo", "one_means": "monte_carlo",
      "max_mean_quotient": "monte_carlo", "mean_quotient_allowance": "monte_carlo",
      "lipschitz_bound": "formula"}),
    (["quad", "--algorithm", "taylor", "--d", "4", "--j", "2", "--seed", "3"], _TAYLOR_TAGS),
    (["quad", "--algorithm", "taylor", "--d", "4", "--j", "4", "--fd", "--seed", "1"],
     _TAYLOR_TAGS),
    (["quad", "--algorithm", "one-point", "--d", "8", "--samples", "5000", "--seed", "4"],
     {"one_point_value": "formula", "error_bound": "formula", "reference_mean": "monte_carlo",
      "reference_half_width": "monte_carlo", "error": "monte_carlo"}),
])
def test_check_provenance_tags(tmp_path, argv, tags):
    code, payload = run_json(argv, tmp_path)
    assert code == 0
    assert _figure_tags(payload["results"]) == tags


@pytest.mark.parametrize("argv,count", [
    (["--variant", "c1", "--delta", "0.02", "--pairs", "0"], "pairs"),
    (["--variant", "c0", "--pairs", "0"], "pairs"),
    (["--variant", "c1", "--delta", "0.02", "--samples", "0"], "samples"),
])
def test_fool_check_rejects_empty_sample_counts(capsys, argv, count):
    code, err = _one_line_error(
        capsys, ["fool-check", "--d", "3", "--n", "4", "--seed", "2", *argv]
    )
    assert code == 1
    assert f"{count} must be at least 1, got 0" in err


@pytest.mark.parametrize("argv,message", [
    (["fool-check", "--variant", "c0", "--d", "5", "--n", "8", "--samples", "0",
      "--delta", "5", "--seed", "1"],
     "fool-check --variant c0 does not read --delta, --samples"),
    (["fool-check", "--variant", "c1", "--d", "5", "--n", "8", "--delta", "0.1",
      "--lipschitz", "2", "--seed", "1"],
     "fool-check --variant c1 does not read --lipschitz"),
    (["quad", "--algorithm", "one-point", "--d", "10", "--j", "99", "--fd", "--h", "-1",
      "--max-evals", "5", "--seed", "1"],
     "quad --algorithm one-point does not read --fd, --h, --j, --max-evals"),
    (["quad", "--algorithm", "taylor", "--d", "4", "--j", "2", "--h", "0.1", "--seed", "1"],
     "quad --algorithm taylor without --fd does not read --h"),
    (["quad", "--algorithm", "taylor", "--d", "4", "--j", "2", "--samples", "9",
      "--seed", "1"],
     "quad --algorithm taylor without --fd does not read --samples"),
    (["constants", "--p-star", "--d", "3"], "constants --p-star does not read --d"),
    (["bounds", "--which", "taylor-upper", "--d", "10", "--j", "3", "--eps", "0.1"],
     "bounds --which taylor-upper does not read --eps"),
    (["classify", "--k", "inf", "--family", "cube", "--level0", "1:0",
      "--tail-constant", "1", "--levels", "1:0"],
     "classify --k inf does not read --levels"),
    (["bounds", "--which", "one-point-c1", "--d", "4", "--big-r", "1"],
     "bounds --which one-point-c1 without --ball-variant does not read --big-r"),
    (["bounds", "--which", "lipschitz-lower", "--d", "10", "--eps", "0.5", "--ball-variant"],
     "bounds --which lipschitz-lower does not read --ball-variant"),
])
def test_flags_the_mode_does_not_read_are_refused(capsys, argv, message):
    code, err = _one_line_error(capsys, argv)
    assert code == 1
    assert message in err


@pytest.mark.parametrize("key", ["variant=c2", "algorithm=simpson", "which=upper",
                                 "family=ball"])
def test_config_values_outside_the_choices_are_refused(tmp_path, capsys, key):
    cfg = tmp_path / "choice.cfg"
    cfg.write_text(key + "\n")
    subcommand = {"variant": "fool-check", "algorithm": "quad", "which": "bounds",
                  "family": "classify"}[key.partition("=")[0]]
    code, err = _one_line_error(capsys, [subcommand, "--config", str(cfg)])
    assert code == 1
    assert f"config key {key.partition('=')[0]!r}: invalid choice" in err


def test_config_keys_the_mode_does_not_read_are_refused(tmp_path, capsys):
    cfg = tmp_path / "c0.cfg"
    cfg.write_text("variant=c0\nd=3\nn=4\npairs=50\nseed=2\n")
    assert run_cli(["fool-check", "--config", str(cfg)], tmp_path)[0] == 0
    cfg.write_text("variant=c0\nd=3\nn=4\npairs=50\nseed=2\nsamples=10\n")
    code, err = _one_line_error(capsys, ["fool-check", "--config", str(cfg)])
    assert code == 1
    assert "fool-check --variant c0 does not read --samples" in err


def test_volume_points_csv_does_not_read_n(tmp_path, capsys):
    csv = tmp_path / "pts.csv"
    csv.write_text("0.25,0.25\n")
    code, err = _one_line_error(
        capsys, ["volume", "--domain", "cube", "--d", "2", "--points-csv", str(csv),
                 "--n", "3", "--delta", "0.05", "--samples", "2000", "--seed", "3"],
    )
    assert code == 1
    assert "volume --points-csv does not read --n" in err


def test_quad_taylor_subcommand(tmp_path):
    code, payload = run_json(
        ["quad", "--algorithm", "taylor", "--d", "4", "--j", "2", "--seed", "3"],
        tmp_path,
    )
    assert code == 0
    results = payload["results"]
    assert results["error"]["value"] <= results["error_bound"]["value"]
    assert results["evaluations_used"] == results["evaluations_cap"] == 5


def test_quad_one_point_subcommand(tmp_path):
    code, payload = run_json(
        ["quad", "--algorithm", "one-point", "--d", "8", "--samples", "5000",
         "--seed", "4"],
        tmp_path,
    )
    assert code == 0
    assert payload["results"]["pass"] is True


def test_bounds_single_json(tmp_path):
    code, payload = run_json(
        ["bounds", "--which", "gradient-cube-lower", "--d", "7", "--eps", "0.5"],
        tmp_path,
    )
    assert code == 0
    expected = math.log(0.5) - math.log(8.0) + 7.0 * math.log(8.0 / 7.0)
    assert abs(payload["results"]["log_value"]["value"] - expected) < 1e-12


def test_bounds_sweep_csv(tmp_path):
    code, text = run_cli(
        ["bounds", "--which", "qpt-cost", "--c", "1.0", "--a", "2.718281828459045",
         "--d-list", "5,10", "--eps-list", "0.05,0.01"],
        tmp_path,
        "sweep.csv",
    )
    assert code == 0
    lines = text.decode().strip().splitlines()
    assert lines[0] == "d,eps,log_value,value,preconditions_met,rule"
    assert len(lines) == 5


def test_bounds_sweep_plot_data(tmp_path):
    plot = tmp_path / "plot.dat"
    code, _ = run_cli(
        ["bounds", "--which", "gradient-cube-lower", "--d-list", "4,6,8",
         "--eps-list", "0.5", "--plot-data", str(plot)],
        tmp_path,
        "sweep.csv",
    )
    assert code == 0
    rows = plot.read_text().strip().splitlines()
    assert len(rows) == 3
    assert all(len(row.split()) == 3 for row in rows)


def test_bounds_requires_dimension(tmp_path):
    code, _ = run_cli(["bounds", "--which", "gradient-cube-lower"], tmp_path)
    assert code == 1


@pytest.mark.parametrize("which", [
    "lipschitz-lower", "gradient-cube-lower", "higher-lower", "qpt-cost", "unit-class-cost",
])
@pytest.mark.parametrize("dims", [["--d", "10"], ["--d-list", "10,20"]])
def test_bounds_reading_eps_require_it(capsys, which, dims):
    code, err = _one_line_error(capsys, ["bounds", "--which", which, *dims])
    assert code == 1
    assert err == "curselab: error: --eps or --eps-list is required\n"


def test_bounds_requires_which(capsys):
    code, err = _one_line_error(capsys, ["bounds", "--d", "10", "--eps", "0.1"])
    assert code == 1
    assert err == "curselab: error: --which is required\n"


def test_bounds_refuses_an_unknown_which(capsys):
    code, err = _one_line_error(capsys, ["bounds", "--which", "upper", "--d", "10"])
    assert code == 1
    assert "invalid choice: 'upper'" in err and "'taylor-upper'" in err


def test_bounds_help_lists_every_bound(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["bounds", "--help"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    for which in ("lipschitz-lower", "one-point-c1", "qpt-cost", "uwt-witness"):
        assert which in out


@pytest.mark.parametrize("argv,flags", [
    (["--d", "7", "--d-list", "10,20", "--eps", "0.5"], "--d and --d-list"),
    (["--d", "7", "--eps", "0.5", "--eps-list", "0.1,0.2"], "--eps and --eps-list"),
])
def test_bounds_refuses_a_value_next_to_its_list(capsys, argv, flags):
    code, err = _one_line_error(capsys, ["bounds", "--which", "gradient-cube-lower", *argv])
    assert code == 1
    assert err == f"curselab: error: {flags} cannot both be given\n"


def test_bounds_refuses_a_config_value_next_to_its_list(tmp_path, capsys):
    cfg = tmp_path / "d.cfg"
    cfg.write_text("d=7\n")
    code, err = _one_line_error(
        capsys, ["bounds", "--which", "gradient-cube-lower", "--config", str(cfg),
                 "--d-list", "10,20", "--eps", "0.5"],
    )
    assert code == 1
    assert err == "curselab: error: --d and --d-list cannot both be given\n"


def test_bounds_refuses_an_empty_list(capsys):
    code, err = _one_line_error(
        capsys, ["bounds", "--which", "gradient-cube-lower", "--d", "5", "--d-list", ",",
                 "--eps", "0.5"],
    )
    assert code == 1
    assert "--d-list" in err


def test_bounds_one_point_c1_ball_variant_reads_big_r_and_tail(tmp_path):
    argv = ["bounds", "--which", "one-point-c1", "--d", "10", "--ball-variant"]
    code, payload = run_json(argv + ["--big-r", "0.4", "--tail", "0.01"], tmp_path, "a.json")
    assert code == 0
    code, default = run_json(argv, tmp_path, "b.json")
    assert code == 0
    assert payload["results"]["log_value"] != default["results"]["log_value"]


def test_bounds_taylor_upper_beyond_float_range_reports_inf(tmp_path):
    # ln bound = 21 ln 0.5 - ln 20! + ln 1e300 + 10.5 ln 1e5, about 754.8 > ln(max float).
    code, payload = run_json(
        ["bounds", "--which", "taylor-upper", "--j", "20", "--lip", "1e300",
         "--d", "100000", "--big-r", "0.5"],
        tmp_path,
    )
    assert code == 0
    results = payload["results"]
    expected = (21 * math.log(0.5) - math.lgamma(21.0) + math.log(1e300)
                + 10.5 * math.log(100000))
    assert results["log_value"]["value"] == pytest.approx(expected, rel=1e-12)
    assert results["value"]["value"] == "inf"
    assert results["extras"]["value"]["value"] == "inf"


# ln bound = 9 ln 0.5 - ln 8! + ln 1e303 + 4.5 ln d, about 701.6 at d = 100: within
# the float range, so the bound is a number.
_TAYLOR_NEAR_FLOAT_MAX = ["bounds", "--which", "taylor-upper", "--j", "8", "--lip", "1e303",
                          "--big-r", "0.5"]


def test_bounds_value_is_finite_up_to_the_float_range(tmp_path):
    code, payload = run_json(_TAYLOR_NEAR_FLOAT_MAX + ["--d", "100"], tmp_path)
    assert code == 0
    results = payload["results"]
    assert results["log_value"]["value"] > 700.0
    assert results["value"]["value"] == math.exp(results["log_value"]["value"])
    assert results["value"] == results["extras"]["value"]


def test_bounds_sweep_value_is_finite_up_to_the_float_range(tmp_path):
    code, text = run_cli(_TAYLOR_NEAR_FLOAT_MAX + ["--d-list", "100,101"], tmp_path, "sweep.csv")
    assert code == 0
    rows = [line.split(",") for line in text.decode().splitlines()[1:]]
    assert len(rows) == 2
    assert all(float(row[3]) == math.exp(float(row[2])) for row in rows)


def test_constants_ball_volume_beyond_float_range_reports_inf(tmp_path):
    # 2^2000 exceeds the float range; its log does not.
    code, payload = run_json(["constants", "--ball-volume", "--p", "inf", "--d", "2000"],
                             tmp_path)
    assert code == 0
    results = payload["results"]
    assert results["volume"]["value"] == "inf"
    assert results["log_volume"]["value"] == pytest.approx(2000 * math.log(2.0), rel=1e-15)


def test_bounds_qpt_cost_with_c_over_eps_beyond_float_range(tmp_path):
    # c / eps = 1e600 overflows; k_eps = ceil((ln c - ln eps) / ln a) = 1994.
    code, payload = run_json(
        ["bounds", "--which", "qpt-cost", "--d", "7", "--eps", "1e-300", "--c", "1e300",
         "--a", "2"],
        tmp_path,
    )
    assert code == 0
    results = payload["results"]
    assert results["extras"]["k_eps"] == 1994
    assert results["log_value"]["value"] == pytest.approx(1994 * (1.0 + math.log(7.0)),
                                                          rel=1e-15)


@pytest.mark.parametrize("argv,note", [
    (["--which", "taylor-upper", "--d", "10", "--j", "-1"], "requires j >= 0"),
    (["--which", "lipschitz-lower", "--d", "10", "--eps", "2"], "requires eps in (0, 1/a)"),
    (["--which", "uwt-witness", "--d", "10", "--m", "2", "--alpha", "0.9"],
     "alpha=0.9 exceeds 1/m=0.5"),
])
def test_bounds_outside_its_domain_is_invalid(tmp_path, capsys, argv, note):
    code, err = _one_line_error(capsys, ["bounds", *argv, "--out", str(tmp_path / "o.json")])
    assert code == 1 and note in err
    assert not (tmp_path / "o.json").exists()


def test_bounds_sweep_reports_unmet_preconditions_per_row(tmp_path):
    code, text = run_cli(
        ["bounds", "--which", "lipschitz-lower", "--d-list", "10", "--eps-list", "0.5,2"],
        tmp_path, "sweep.csv",
    )
    assert code == 2
    rows = [line.split(",") for line in text.decode().splitlines()[1:]]
    assert [row[4] for row in rows] == ["True", "False"]


@pytest.mark.parametrize("lists", [["--d-list", "7", "--eps", "0.5"],
                                   ["--d", "7", "--eps-list", "0.5"]])
def test_bounds_one_entry_list_is_a_sweep(tmp_path, lists):
    code, text = run_cli(["bounds", "--which", "lipschitz-lower", *lists], tmp_path, "sweep.csv")
    assert code == 0
    lines = text.decode().splitlines()
    assert lines[0] == "d,eps,log_value,value,preconditions_met,rule"
    assert len(lines) == 2 and lines[1].startswith("7,0.5,")


def test_bounds_one_entry_sweep_outside_its_domain_reports_the_row(tmp_path, capsys):
    code, text = run_cli(
        ["bounds", "--which", "lipschitz-lower", "--d-list", "10", "--eps-list", "2"],
        tmp_path, "sweep.csv",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err == "curselab: check failed: preconditions_met is false in 1 of 1 rows\n"
    rows = [line.split(",") for line in text.decode().splitlines()[1:]]
    assert [row[4] for row in rows] == ["False"]


def test_classify_finite_profile(tmp_path):
    code, payload = run_json(
        ["classify", "--k", "2", "--family", "cube",
         "--levels", "1:-0.5,1:-1,1:-1.2"],
        tmp_path,
    )
    assert code == 0
    assert payload["results"]["verdict"] == "indeterminate_gap"


def test_classify_infinite_profile(tmp_path):
    code, payload = run_json(
        ["classify", "--k", "inf", "--family", "cube", "--level0", "1:0",
         "--tail-constant", "1.0"],
        tmp_path,
    )
    assert code == 0
    assert payload["results"]["verdict"] == "WT"


@pytest.mark.parametrize("d", ["0", "-3"])
def test_classify_refuses_a_dimension_below_one(capsys, d):
    code, err = _one_line_error(
        capsys, ["classify", "--k", "1", "--family", "cube", "--levels", "1:-0.5,1:-1",
                 "--d", d],
    )
    assert code == 1
    assert f"--d must be at least 1, got {d}" in err


@pytest.mark.parametrize("k", ["-1", "1.5", "two"])
def test_classify_refuses_a_k_that_is_no_order(capsys, k):
    code, err = _one_line_error(
        capsys, ["classify", "--k", k, "--family", "cube", "--levels", "1:0"],
    )
    assert code == 1
    assert err == f"curselab: error: --k must be a non-negative integer or inf, got {k}\n"


def test_classify_validates_level_count(tmp_path):
    code, _ = run_cli(
        ["classify", "--k", "2", "--family", "cube", "--levels", "1:-0.5"],
        tmp_path,
    )
    assert code == 1


def test_unknown_subcommand_is_invalid(tmp_path):
    assert main(["frobnicate"]) == 1


def test_stdout_default(capsys):
    code = main(["constants", "--p-star"])
    captured = capsys.readouterr()
    assert code == 0
    payload = json.loads(captured.out)
    assert payload["subcommand"] == "constants"


def _one_line_error(capsys, argv):
    code = main(argv)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("curselab: error:"), err
    return code, err


@pytest.mark.parametrize("argv", [
    ["constants", "--p-star", "--out", "{missing}"],
    ["bounds", "--which", "gradient-cube-lower", "--d-list", "4,5", "--eps", "0.5",
     "--out", "-", "--plot-data", "{missing}"],
])
def test_an_unwritable_output_path_is_invalid(tmp_path, capsys, argv):
    missing = str(tmp_path / "no-such-dir" / "out")
    code, err = _one_line_error(capsys, [a.replace("{missing}", missing) for a in argv])
    assert code == 1
    assert "no-such-dir" in err


def test_volume_bound_beyond_float_range(tmp_path):
    # ln(bound) ~ 2400 here: the pass flag and the plot row stay in range.
    plot = tmp_path / "plot.txt"
    code, payload = run_json(
        ["volume", "--domain", "lp:2", "--d", "1000", "--n", "2", "--delta", "1.0",
         "--samples", "1000", "--seed", "1", "--plot-data", str(plot)],
        tmp_path,
    )
    assert code == 0
    assert payload["results"]["pass"] is True
    assert payload["results"]["bound_log"]["value"] > 1000.0
    assert plot.read_text().split()[2] == "inf"


def test_config_as_last_argument(capsys):
    code, err = _one_line_error(capsys, ["volume", "--domain", "cube", "--config"])
    assert code == 1
    assert "--config" in err


def test_config_with_equals_sign(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("domain=cube\nd=3\nn=4\ndelta=0.1\nsamples=2000\nseed=5\n")
    code, payload = run_json(["volume", f"--config={cfg}"], tmp_path)
    assert code == 0
    assert payload["config"]["seed"] == 5


@pytest.mark.parametrize("argv", [
    ["bounds", "--which", "taylor-upper", "--d", "10", "--j", "3", "--lip", "nan"],
    ["constants", "--gamma", "--delta", "nan", "--eta", "0.25"],
    ["constants", "--gamma", "--delta", "0.26", "--eta", "inf"],
    ["bounds", "--which", "qpt-cost", "--d-list", "10", "--eps-list", "0.1,-inf"],
    ["volume", "--domain", "lp:nan", "--d", "3", "--n", "2", "--delta", "0.1",
     "--samples", "1000", "--seed", "1"],
    ["classify", "--k", "1", "--family", "cube", "--levels", "1:-0.5,1:nan"],
])
def test_non_finite_numbers_are_invalid(capsys, argv):
    code, err = _one_line_error(capsys, argv)
    assert code == 1
    assert "finite" in err


def test_non_finite_config_value_is_invalid(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("lip=nan\n")
    code, err = _one_line_error(
        capsys, ["bounds", "--which", "taylor-upper", "--d", "10", "--j", "3",
                 "--config", str(cfg)],
    )
    assert code == 1
    assert "lip" in err


@pytest.mark.parametrize("argv,name", [
    (["classify", "--k", "1", "--family", "cube", "--levels", "0:-0.5,1:-1"], "level 0"),
    (["classify", "--k", "1", "--family", "cube", "--levels", "1:-0.5,-2:-1"], "level 1"),
    (["classify", "--k", "inf", "--family", "cube", "--level0", "1:0",
      "--tail-constant", "0"], "--tail-constant"),
])
def test_classify_names_a_non_positive_constant(capsys, argv, name):
    code, err = _one_line_error(capsys, argv)
    assert code == 1
    assert name in err and "positive" in err


def test_quad_fd_names_the_first_stencil_node_outside_the_cube(capsys):
    # With h = 0.3 every order-2 node lies in [0.2, 0.8]; the first node
    # outside is the first of beta = (0, 0, 4), at 0.5 + 2 h in coordinate 2.
    code = main(["quad", "--algorithm", "taylor", "--d", "3", "--j", "4", "--fd",
                 "--h", "0.3", "--seed", "1"])
    assert code == 1
    assert capsys.readouterr().err == (
        "curselab: error: stencil node leaves the domain (coordinate 2, value 1.1)\n"
    )


def test_quad_fd_over_budget_refused_before_running(capsys):
    # sum over the 635,376 multi-indices of prod(beta_i + 1) = 45,231,136.
    start = time.perf_counter()
    code, err = _one_line_error(
        capsys, ["quad", "--algorithm", "taylor", "--d", "60", "--j", "8", "--fd",
                 "--seed", "1"],
    )
    assert time.perf_counter() - start < 5.0
    assert code == 1
    assert "45231136" in err and "--max-evals" in err


def test_quad_analytic_within_budget_runs(tmp_path):
    code, payload = run_json(
        ["quad", "--algorithm", "taylor", "--d", "60", "--j", "8", "--seed", "1"], tmp_path
    )
    assert code == 0
    assert payload["results"]["evaluations_used"] == 635376 == math.comb(64, 4)
    assert "max_evals" not in payload["config"]


def test_quad_fd_readme_size_within_budget_runs(tmp_path):
    # Stencil bound 8,695 at d=12, j=6.
    code, payload = run_json(
        ["quad", "--algorithm", "taylor", "--d", "12", "--j", "6", "--fd", "--seed", "7"],
        tmp_path,
    )
    assert code == 0
    assert payload["results"]["evaluations_used"] <= 8695


def test_quad_max_evals_flag(tmp_path, capsys):
    code, err = _one_line_error(
        capsys, ["quad", "--algorithm", "taylor", "--d", "4", "--j", "2", "--seed", "3",
                 "--max-evals", "4"],
    )
    assert code == 1
    assert "5 derivative" in err
    code, payload = run_json(
        ["quad", "--algorithm", "taylor", "--d", "4", "--j", "2", "--seed", "3",
         "--max-evals", "5"],
        tmp_path,
    )
    assert code == 0
    assert payload["config"]["max_evals"] == 5


@pytest.mark.parametrize("flag", ["--amplitude", "--a-norm"])
def test_quad_negative_scale_runs(tmp_path, capsys, flag):
    code, payload = run_json(
        ["quad", "--algorithm", "taylor", "--d", "5", "--j", "2", flag, "-1", "--seed", "1"],
        tmp_path,
    )
    assert code == 0
    assert capsys.readouterr().err == ""
    results = payload["results"]
    assert results["error_bound"]["value"] > 0.0
    assert results["error"]["value"] <= results["error_bound"]["value"]


def test_quad_zero_dimension_prints_one_line():
    # A subprocess, so that a numpy warning would reach stderr.
    proc = subprocess.run(
        [sys.executable, "-m", "curselab.cli", "quad", "--algorithm", "taylor",
         "--d", "0", "--j", "2", "--seed", "1"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("curselab: error:"), proc.stderr


def test_cli_import_loads_no_scipy_solvers():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, curselab.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith(('scipy.optimize', 'scipy.integrate'))))"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv,code", [
    (["constants", "--gamma", "--delta", "0.25", "--eta", "0.75"], 0),
    (["constants", "--gamma", "--delta", "0.00003", "--eta", "0"], 0),
    (["volume", "--domain", "cube", "--d", "3", "--n", "4", "--delta", "0.1",
      "--samples", "2000", "--seed", str(2**64)], 1),
    (["quad", "--algorithm", "taylor", "--d", "3", "--j", "2", "--a-norm", "1e300",
      "--seed", "1"], 3),
    (["quad", "--algorithm", "taylor", "--d", "3", "--j", "2", "--amplitude", "1e308",
      "--a-norm", "10", "--seed", "1"], 3),
    (["quad", "--algorithm", "taylor", "--d", "3", "--j", "2", "--fd", "--h", "1e-300",
      "--seed", "1"], 3),
    # The default Lipschitz constant 1/sqrt(d) is not computed for d < 1.
    (["fool-check", "--variant", "c0", "--d", "0", "--n", "4", "--seed", "1"], 1),
    (["quad", "--algorithm", "one-point", "--d", "0", "--seed", "1"], 1),
])
def test_extreme_inputs_end_in_their_exit_code(tmp_path, argv, code):
    # A subprocess with a timeout, so that a hang fails the test and a
    # traceback or numpy warning reaches stderr.
    plot = tmp_path / "plot.txt"
    extra = ["--plot-data", str(plot)] if argv[0] == "constants" else []
    proc = subprocess.run(
        [sys.executable, "-m", "curselab.cli", *argv, *extra,
         "--out", str(tmp_path / "out.json")],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == code, proc.stderr
    if code == 0:
        assert proc.stderr == ""
    else:
        prefix = "curselab: error:" if code == 1 else "curselab: numerical failure:"
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(prefix), proc.stderr
    if extra:
        rows = [line.split() for line in plot.read_text().splitlines()]
        assert len(rows) == 101
        assert all(math.isfinite(float(v)) for row in rows for v in row)


def _readme_examples() -> list[list[str]]:
    """The ``curselab`` lines of the README's "Command line" block, as argv lists."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("curselab ")]


def _as_config(argv: list[str], path: Path) -> list[str]:
    """argv with its flags moved into a config file at ``path``; the switch of
    the selected mode, when argv leaves it unset, is written as ``false``."""
    command = cli._COMMANDS[argv[0]]
    lines, rest = [], argv[1:]
    while rest:
        flag, rest = rest[0][2:], rest[1:]
        if rest and not rest[0].startswith("--"):
            lines.append(f"{flag}={rest[0]}")
            rest = rest[1:]
        else:
            lines.append(f"{flag}=true")
    if isinstance(command.select, str):
        select = cli._flag(command.select)
        key = (argv[argv.index(select) + 1] if select in argv
               else cli._flags(command)[command.select]["default"])
        switch = command.modes[key].switch
        if switch and cli._flag(switch[0]) not in argv:
            lines.append(f"{switch[0]}=false")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return [argv[0], "--config", str(path)]


_TAYLOR = ["quad", "--algorithm", "taylor", "--d", "4", "--j", "2", "--seed", "3"]


@pytest.mark.parametrize("argv", _readme_examples() + [_TAYLOR, _TAYLOR + ["--fd"]],
                         ids=lambda argv: " ".join(argv[:3]) + " --fd" * ("--fd" in argv))
def test_flags_moved_into_a_config_file_print_the_same(tmp_path, capsys, argv):
    assert main(argv + ["--out", "-"]) == 0
    flags = capsys.readouterr()
    assert main(_as_config(argv, tmp_path / "run.cfg") + ["--out", "-"]) == 0
    assert capsys.readouterr() == flags


def test_readme_lists_its_examples():
    assert len(_readme_examples()) >= 10


@pytest.mark.parametrize("argv", _readme_examples(), ids=lambda argv: " ".join(argv[:3]))
def test_readme_example_runs(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    if text.startswith("{"):  # a sweep writes CSV
        tags = _figure_tags(json.loads(text)["results"])
        assert set(tags.values()) <= {"formula", "monte_carlo", "solver"}
