"""The CLI's exit contract, as a property of every mode in ``cli._COMMANDS``.

Argv is drawn from the mode tables themselves, so a mode is covered as
soon as it is declared.  Float flags take the extreme values below and
size flags small ones, so that every run stays cheap; memory caps for
large sizes are a separate question.  Each run must end in an exit code
of 0-3, never an escaping exception; a non-zero exit writes exactly
one stderr line (exit 2 after its report, 1 and 3 instead of one); and
a result that passes shows no non-finite figure.
"""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curselab import cli

FLOATS = ["0", "-1", "1e-300", "1e300", "inf", "nan"]
SIZES = ["-1", "0", "1", "2", "3"]
SIZE_FLAGS = {"d", "n", "samples", "pairs", "j", "k", "max_evals", "threads", "tail_shift"}
# Flags with a costly default are always given a small value.
COST_FLAGS = {"pairs", "samples"}
TEXT = {
    "domain": ["cube", "lp:2", "lp:inf", "lp:1", "lp:0.5", "lp:nan", "ball"],
    "levels": ["1:0", "1:-0.5,1:-1.2", "1e300:1e300", "0:0", "1", "1:nan"],
    "level0": ["1:0", "1e-300:-1", "x", "1:inf"],
    "seed": ["0", "1", "-1", str(2**63), str(2**64)],
}
# --samples also takes the least count the Monte Carlo estimators accept,
# so that their runs get past validation.
VALUES = {"samples": SIZES + ["1000"]}

MODES = [(name, key) for name, command in cli._COMMANDS.items() for key in command.modes]


@pytest.fixture(scope="module")
def points_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("exit_contract") / "points.csv"
    path.write_text("0.5,0.5\n0.25,0.75\n", encoding="utf-8")
    return str(path)


def _values(dest: str, spec: dict, points_csv: str):
    """The strategy for one flag's value, by its destination and declaration."""
    if dest in VALUES:
        return st.sampled_from(VALUES[dest])
    if dest in TEXT:
        return st.sampled_from(TEXT[dest])
    if "choices" in spec:
        return st.sampled_from(list(spec["choices"]))
    if dest == "points_csv":
        return st.sampled_from([points_csv, points_csv + ".missing"])
    if dest == "d_list":
        return st.lists(st.sampled_from(SIZES), min_size=1, max_size=3).map(",".join)
    if dest == "eps_list":
        return st.lists(st.sampled_from(FLOATS), min_size=1, max_size=3).map(",".join)
    if dest in SIZE_FLAGS:
        return st.sampled_from(SIZES)
    return st.sampled_from(FLOATS)


@st.composite
def _argv(draw, name: str, key: str, points_csv: str) -> list[str]:
    command = cli._COMMANDS[name]
    mode = command.modes[key]
    flags = cli._flags(command)
    argv = [name]
    selected = set()
    if isinstance(command.select, str):
        argv += [cli._flag(command.select), key]
        selected.add(command.select)
    elif name == "constants":
        argv.append("--" + key)
        selected.add(key.replace("-", "_"))
    elif name == "volume":
        selected.add(key[2:].replace("-", "_"))
    elif name == "classify":
        argv += ["--k", "inf" if key == "inf" else draw(st.sampled_from(["0", "1", "-1", "1.5"]))]
        selected.add("k")
    switched = bool(mode.switch) and draw(st.booleans())
    if mode.switch:  # a switch is given bare or not at all, never with a value
        selected.add(mode.switch[0])
    if switched:
        argv.append(cli._flag(mode.switch[0]))
    dests = mode.flags_read(switched) | set(mode.requires.replace("|", " ").split())
    dests |= {"threads"} | selected
    for dest in sorted(dests - {"out", "plot_data", "config"}):
        if dest in selected:
            continue
        if dest not in COST_FLAGS and not draw(st.integers(0, 3)):
            continue  # each other flag is left out a quarter of the time
        argv += [cli._flag(dest), draw(_values(dest, flags[dest], points_csv))]
    return argv


def _figures(results: dict):
    """The figures of a result dict: tagged values, bare floats and lists of them."""
    for key, value in results.items():
        if key == "pass":
            continue
        items = value if isinstance(value, list) else [value]
        for item in items:
            if isinstance(item, dict) and "provenance" in item:
                yield key, item["value"]
            elif isinstance(item, (float, str)):
                yield key, item


# A figure may be infinite where it is an exact answer that the result
# also states in finite form: a bound beyond the float range next to its
# finite log, a log of zero next to the zero, an infimum approached only
# as alpha grows without bound next to its finite value.
TWINS = {"alpha_star": "value"}
# Bounds whose exact value may be +inf: the witness's liminf diverges
# when alpha and alpha * m are both below one.
INFINITE_RULES = {"uniform_weak_witness"}


def _twin(key: str) -> str:
    return TWINS.get(key, key[4:] if key.startswith("log_") else "log_" + key)


def _non_finite(results: dict, config: dict) -> list:
    """Figures of a passing result that are NaN, or infinite with no finite
    twin and not an echoed input (``--p inf``)."""
    figures = dict(_figures(results))
    exact_infinity = results.get("rule") in INFINITE_RULES
    bad = []
    for key, value in figures.items():
        if value == "nan":
            bad.append((key, value))
        elif value in ("inf", "-inf"):
            twin = figures.get(_twin(key))
            finite_twin = isinstance(twin, float)
            if not (finite_twin or exact_infinity or config.get(key) == value):
                bad.append((key, value))
    return bad


def _passing_dicts(node):
    if isinstance(node, dict):
        if node.get("pass") is True:
            yield node
        for value in node.values():
            yield from _passing_dicts(value)
    elif isinstance(node, list):
        for value in node:
            yield from _passing_dicts(value)


def _run(argv: list[str]) -> tuple[int, str, str, list]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), caught


@pytest.mark.parametrize("name,key", MODES, ids=[f"{n}:{k or '-'}" for n, k in MODES])
def test_every_mode_keeps_the_exit_contract(points_csv, name, key):
    @settings(max_examples=12, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_argv(name, key, points_csv))
    def check(argv):
        code, out, err, caught = _run(argv)
        assert code in (0, 1, 2, 3), argv
        assert not caught, (argv, [str(w.message) for w in caught])
        if code == 0:
            assert err == "", (argv, err)
        else:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        if code in (1, 3):
            assert out == "", argv
        elif out.startswith("{"):
            payload = json.loads(out)
            for results in _passing_dicts(payload["results"]):
                assert not _non_finite(results, payload["config"]), argv

    check()


@pytest.mark.parametrize("argv,code,needle", [
    # 40 / delta^2 divided by zero: a ZeroDivisionError traceback.
    (["fool-check", "--variant", "c1", "--d", "1", "--n", "1", "--delta", "1e-300",
      "--pairs", "1", "--samples", "1000", "--seed", "0"], 3, "beyond the float range"),
    (["smooth-check", "--d", "1", "--n", "1", "--delta", "1e-300", "--k", "1",
      "--samples", "1000", "--seed", "0"], 3, "beyond the float range"),
    # delta^2 - eta^2 overflowed to nan (or inf) and the run passed with it.
    (["constants", "--gamma", "--delta", "1e300", "--eta", "1e300"], 3, "is nan"),
    (["constants", "--gamma", "--delta", "1e300", "--eta", "0", "--check-below", "1e300"],
     3, "is inf"),
    # R L sqrt(d) + 2 tail overflowed: log_value inf next to a pass.
    (["bounds", "--which", "one-point-c0", "--d", "3", "--big-r", "1e300", "--lip", "1e300",
      "--tail", "1e300"], 0, '"value": 1382.1003619407613'),
    (["bounds", "--which", "one-point-c1", "--ball-variant", "--d", "3", "--big-r", "1e300",
      "--lip-grad", "1e300", "--tail", "1e300"], 0, '"value": 2073.425195983309'),
    # A violated check exited 2 with nothing on stderr.
    (["constants", "--gamma", "--delta", "0.26", "--eta", "0.25", "--check-below", "0.5"],
     2, "check failed: pass"),
    (["bounds", "--which", "lipschitz-lower", "--d-list", "10", "--eps-list", "0.5,2"],
     2, "preconditions_met is false in 1 of 2 rows"),
])
def test_found_escapes_keep_the_contract(argv, code, needle):
    got, out, err, caught = _run(argv)
    assert (got, caught) == (code, [])
    assert needle in (out if code == 0 else err)
    assert err.count("\n") == (code != 0)
    if out.startswith("{"):
        payload = json.loads(out)
        for results in _passing_dicts(payload["results"]):
            assert not _non_finite(results, payload["config"])
