"""The ``curselab`` experiment runner.

Every capability of the library is exposed as a subcommand producing
machine-readable output:

* ``constants``   closed-form and solver constants (gamma, p*, radii)
* ``volume``      Monte Carlo hull-neighborhood volume vs analytic bound
* ``fool-check``  fooling-function invariant suite
* ``smooth-check`` convolution-smoothing statistical suite
* ``quad``        quadrature error against its bound on a test family
* ``bounds``      any bound evaluator, single-shot or swept over (d, eps)
* ``classify``    tractability verdict for a symbolic smoothness profile

Single runs emit JSON with the top-level ``"schema": "curse-lab/1"``;
sweeps emit CSV with a header row.  Every numeric result carries a
provenance tag (``formula``, ``monte_carlo`` or ``solver``).  Runs are
fully determined by their configuration: the same flags (or config
file) produce byte-identical output for any ``--threads`` value.

Exit codes: 0 success, 1 invalid configuration, 2 a checked inequality
failed, 3 internal numerical failure.  Every non-zero exit writes one
line to stderr; exit 2 writes the full report first, and its line names
the checks that failed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import bounds as bd
from . import checks
from . import geometry as geo
from . import volume as vol
from .checks import tagged
from .hull import HullIterationError, PointSet
from .quadrature import EvaluationBudgetError

__all__ = ["main"]

SCHEMA = "curse-lab/1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_VIOLATED = 2
EXIT_NUMERICAL = 3

# Evaluation budget of ``quad --algorithm taylor`` unless --max-evals is given.
DEFAULT_MAX_EVALS = 1_000_000


class CliError(ValueError):
    """Configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise CliError(message)


# ---------------------------------------------------------------------------
# Output helpers


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def _emit_text(text: str, path: str | None) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _csv_cell(value) -> str:
    value = _sanitize(value)
    return repr(value) if isinstance(value, float) else str(value)


def _emit_csv(header: list[str], rows: list[list], path: str | None) -> None:
    lines = [",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]
    _emit_text("\n".join(lines) + "\n", path)


def _emit_plot(rows: list[tuple], path: str | None) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(" ".join(repr(float(v)) for v in row) for row in rows) + "\n")


# ---------------------------------------------------------------------------
# Argument types


def _finite_float(text: str) -> float:
    """Argument type: a finite float; NaN and infinities are invalid."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _exponent(text: str) -> float:
    """Argument type for p: a finite float, or 'inf'/'oo'."""
    return math.inf if text in ("inf", "oo") else _finite_float(text)


def _list_of(kind):
    """Argument type: comma-separated values of ``kind``, at least one."""
    def parse(text: str) -> list:
        values = [kind(t) for t in text.split(",") if t]
        if not values:
            raise argparse.ArgumentTypeError(f"no value in {text!r}")
        return values
    parse.__name__ = f"{kind.__name__} list"  # argparse's "invalid <name> value"
    return parse


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


# ---------------------------------------------------------------------------
# Config handling


def _load_config(path: str, flags: dict[str, dict]) -> dict:
    """The ``key=value`` lines of ``path``, converted by the flags' types and choices."""
    config = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{line_no}: expected key=value")
            key, _, raw = line.partition("=")
            key, raw = key.strip().replace("-", "_"), raw.strip()
            spec = flags.get(key)
            if spec is None:
                raise CliError(f"unknown config key {key!r}")
            if spec.get("action") == "store_true":
                value = raw.lower() in ("1", "true", "yes", "on")
            else:
                try:
                    value = spec.get("type", str)(raw)
                except (ValueError, argparse.ArgumentTypeError) as exc:
                    raise CliError(f"config key {key!r}: {exc}") from None
            if "choices" in spec and value not in spec["choices"]:
                raise CliError(f"config key {key!r}: invalid choice {raw!r}")
            config[key] = value
    return config


def _parse_domain(name: str, d: int) -> geo.DomainSpec:
    if name == "cube":
        return geo.DomainSpec.cube(d)
    if name.startswith("lp:"):
        try:
            p = _exponent(name[3:])
        except argparse.ArgumentTypeError as exc:
            raise CliError(f"domain {name!r}: {exc}") from None
        return geo.DomainSpec.lp_ball(p, d)
    raise CliError(f"unknown domain {name!r} (use 'cube' or 'lp:<p>')")


def _parse_levels(text: str) -> list[tuple[float, float]]:
    levels = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" not in token:
            raise CliError(f"level {token!r} must be constant:exponent")
        c, _, e = token.partition(":")
        name = f"level {len(levels)} ({token!r})"
        try:
            c, e = _finite_float(c), _finite_float(e)
        except argparse.ArgumentTypeError as exc:
            raise CliError(f"{name}: {exc}") from None
        if c <= 0.0:
            raise CliError(f"{name}: the constant must be positive")
        levels.append((c, e))
    if not levels:
        raise CliError("at least one level is required")
    return levels


# ---------------------------------------------------------------------------
# Mode runners: each takes the merged values and returns (results, plot_rows).
# A mode's required flags are present in the values when its runner starts.


def _run_gamma(v, name: str, gc: vol.GammaConstant):
    threshold = v.get("check_below", 1.0)
    results = {
        "constant": name,
        "pass": gc.value < threshold,
        **tagged("formula", delta=gc.delta, eta=gc.eta, slope_at_zero=gc.slope_at_zero,
                 check_below=threshold),
        **tagged("solver", value=gc.value, alpha_star=gc.alpha_star),
    }
    # An infimum only approached as alpha -> inf is plotted over [0, 1].
    span = gc.alpha_star if math.isfinite(gc.alpha_star) else 0.0
    grid = np.linspace(0.0, max(2.0 * span, 1.0), 101)
    return results, [(a, vol.profile_integral(a, gc.delta, gc.eta)) for a in grid]


def _run_p_star(v):
    root = geo.solve_p_star()
    residual = geo.p_star_lhs(root) - geo.SQRT_HALF_PI_E
    return {"constant": "p_star", "pass": True,
            **tagged("solver", value=root, residual=residual)}, None


def _run_radius(v):
    value = geo.lp_normalized_radius(v["p"], v["d"])
    return {"constant": "radius", "pass": True, **tagged(
        "formula", p=v["p"], d=v["d"], value=value, ratio=value / math.sqrt(v["d"]))}, None


def _run_limit_ratio(v):
    return {"constant": "limit_ratio", "pass": True, **tagged(
        "formula", p=v["p"], value=geo.radius_limit_ratio(v["p"]),
        small_radius_threshold=geo.SMALL_RADIUS_THRESHOLD)}, None


def _run_ball_volume(v):
    p, d = v["p"], v["d"]
    return {"constant": "ball_volume", "pass": True, **tagged(
        "formula", p=p, d=d, volume=geo.lp_unit_ball_volume(p, d),
        log_volume=geo.lp_unit_ball_volume_log(p, d))}, None


def _run_volume(v):
    dom = _parse_domain(v["domain"], v["d"])
    if v.get("points_csv"):
        ps = PointSet.from_csv(v["points_csv"], domain=dom)
    else:
        ps = checks.random_point_set(dom, v["n"], v["seed"])
    est = vol.mc_hull_neighborhood_volume(
        ps, dom, v["delta"], v["samples"], v["seed"], threads=v.get("threads")
    )
    results = {
        "domain": v["domain"],
        "bound_source": est.bound_source,
        "pass": est.passed,
        **tagged("formula", d=v["d"], n_points=ps.n, delta=v["delta"], samples=v["samples"],
                 seed=v["seed"], bound_log=est.bound_log),
        **tagged("monte_carlo", mean=est.mean, half_width_95=est.half_width_95),
    }
    return results, [(v["delta"], est.mean, est.bound)]


def _lipschitz(v) -> float:
    """--lipschitz, by default 1/sqrt(d); the check itself refuses d < 1."""
    return v["lipschitz"] if "lipschitz" in v else 1.0 / math.sqrt(max(v["d"], 1))


def _run_taylor(v):
    try:
        data = checks.quad_check_sine(
            v["d"], v["j"], v["seed"], amplitude=v["amplitude"], a_norm=v["a_norm"],
            use_fd=v["fd"], h=v.get("h"), max_evals=v.get("max_evals", DEFAULT_MAX_EVALS),
        )
    except EvaluationBudgetError as exc:
        raise CliError(f"{exc} (--max-evals)") from None
    return data, None


class _Sweep(NamedTuple):
    """A bounds run given ``--d-list`` or ``--eps-list`` (of any length),
    emitted as CSV; ``unmet`` counts rows whose preconditions fail."""

    header: list[str]
    rows: list[list]
    unmet: int


def _run_bounds(v, build):
    d_values = v.get("d_list") or [v["d"]]
    eps_values = v.get("eps_list") or [v.get("eps")]
    reports = [((d, eps), build(v, d, eps)) for d in d_values for eps in eps_values]
    if "d_list" in v or "eps_list" in v:
        header = ["d", "eps", "log_value", "value", "preconditions_met", "rule"]
        rows = [[d, "" if eps is None else eps, r.log_value, bd.exp_or_inf(r.log_value),
                 r.preconditions_met, r.rule] for (d, eps), r in reports]
        plot_rows = [(d, r.log_value) if eps is None else (d, eps, r.log_value)
                     for (d, eps), r in reports]
        return _Sweep(header, rows, sum(not r.preconditions_met for _, r in reports)), plot_rows
    (d, eps), report = reports[0]
    if not report.preconditions_met:
        raise CliError(report.note)
    return {
        "which": v["which"],
        **tagged("formula", d=d, eps=eps, log_value=report.log_value,
                 value=bd.exp_or_inf(report.log_value)),
        "direction": report.direction,
        "rule": report.rule,
        "preconditions_met": report.preconditions_met,
        "note": report.note,
        "extras": {**report.extras, **tagged(
            "formula", **{k: x for k, x in report.extras.items() if isinstance(x, float)})},
        "pass": report.preconditions_met,
    }, None


def _one_point_c1(v, d, eps):
    ball = v["ball_variant"]
    return bd.ub_one_point_c1(
        v["lip_grad"], v["diam"] if "diam" in v else math.sqrt(d),
        big_r=v["big_r"] if ball else None,
        tail=v["tail"] if ball else None,
        d=d if ball else None,
    )


def _infinite_profile(v) -> bd.SmoothnessProfile:
    for name in ("tail_constant", "tail_base"):
        if v[name] <= 0.0:
            raise CliError(f"{_flag(name)} must be positive")
    c0, e0 = _parse_levels(v["level0"])[0]
    tail = bd.TailRule(
        log_constant=math.log(v["tail_constant"]),
        log_base=math.log(v["tail_base"]),
        factorial_power=v["tail_factorial_power"],
        factorial_shift=v["tail_shift"],
        d_exponent_base=v["tail_u"],
        d_exponent_slope=v["tail_v"],
    )
    return bd.SmoothnessProfile.infinite((c0, e0), tail, derivative_kind=v["kind"])


def _finite_profile(v) -> bd.SmoothnessProfile:
    if not v["k"].isdecimal():
        raise CliError(f"--k must be a non-negative integer or inf, got {v['k']}")
    k = int(v["k"])
    levels = _parse_levels(v["levels"])
    if len(levels) != k + 1:
        raise CliError(f"--levels must list k+1 = {k + 1} entries")
    return bd.SmoothnessProfile.finite(levels, derivative_kind=v["kind"])


def _run_classify(v, profile_of):
    d = v.get("d", 8)
    if d < 1:
        raise CliError(f"--d must be at least 1, got {d}")
    profile = profile_of(v)
    results = bd.classify(profile, v["family"]).to_json_dict()
    results["profile"] = profile.to_json_dict(d=d)
    results["pass"] = True
    return results, None


# ---------------------------------------------------------------------------
# One table per subcommand


class Mode(NamedTuple):
    """One mode of a subcommand; flags are named by destination.

    ``reads`` lists the flags the mode reads, besides those that select
    it; ``switch`` names a store_true flag, which the mode reads set or
    not, and the flags it reads only while that flag is set.  ``requires``
    lists the flags that must be given, ``a|b`` for exactly one of ``--a``
    and ``--b``.
    """

    reads: str
    requires: str
    run: Callable[[dict], tuple]
    switch: tuple[str, str] | None = None

    def flags_read(self, switched: bool) -> set[str]:
        flag, extra = self.switch or ("", "")
        return set(f"{self.reads} {flag} {extra if switched else ''}".split())


class Command(NamedTuple):
    """A subcommand.

    ``flags`` maps each destination to its ``add_argument`` keywords,
    ``default`` being the value an absent flag takes.  ``select`` is the
    flag whose value is the mode's key (the keys are its choices), or a
    function from the merged values to the key.  ``label`` names the mode
    in messages, formatted with ``key`` and the values.
    """

    help: str
    flags: dict[str, dict]
    select: str | Callable[[dict], str]
    label: str
    modes: dict[str, Mode]


def _typed(kind, default=None) -> dict:
    """``add_argument`` keywords of a flag of type ``kind``, with its default if any."""
    return {"type": kind} if default is None else {"type": kind, "default": default}


_int = partial(_typed, int)
_float = partial(_typed, _finite_float)
_SWITCH = {"action": "store_true", "default": False}

# Accepted by every subcommand and read by no mode table.
_COMMON = {
    "out": {"help": "output path ('-' = stdout)"},
    "plot_data": {"help": "whitespace-delimited plot file"},
    "config": {"help": "flat key=value config file"},
    "threads": _int(),
}


def _constant_mode(v) -> str:
    modes = _COMMANDS["constants"].modes
    chosen = [key for key in modes if v[key.replace("-", "_")]]
    if len(chosen) != 1:
        raise CliError("choose exactly one of " + " ".join(f"--{key}" for key in modes))
    return chosen[0]


def _classify_mode(v) -> str:
    if "k" not in v:
        raise CliError("--k is required")
    return "inf" if v["k"] == "inf" else "finite"


def _bound(reads: str, requires: str, build, switch=None) -> Mode:
    """A ``bounds`` mode: ``build(values, d, eps)`` at every (d, eps) given."""
    return Mode(f"d d_list {reads}", f"d|d_list {requires}",
                lambda v: _run_bounds(v, build), switch=switch)


_COMMANDS = {
    "constants": Command(
        help="closed-form and solver constants",
        flags={
            "gamma": _SWITCH, "gamma_tilde": _SWITCH, "p_star": _SWITCH,
            "radius": _SWITCH, "limit_ratio": _SWITCH, "ball_volume": _SWITCH,
            "delta": _float(), "eta": _float(), "p": _typed(_exponent), "d": _int(),
            "check_below": _float(),
        },
        select=_constant_mode,
        label="--{key}",
        modes={
            "gamma": Mode("delta eta check_below", "delta eta", lambda v: _run_gamma(
                v, "gamma", vol.gamma_constant(v["delta"], v["eta"]))),
            "gamma-tilde": Mode("delta check_below", "delta", lambda v: _run_gamma(
                v, "gamma_tilde", vol.gamma_tilde_cube(v["delta"]))),
            "p-star": Mode("", "", _run_p_star),
            "radius": Mode("p d", "p d", _run_radius),
            "limit-ratio": Mode("p", "p", _run_limit_ratio),
            "ball-volume": Mode("p d", "p d", _run_ball_volume),
        },
    ),
    "volume": Command(
        help="Monte Carlo volume vs analytic bound",
        flags={"domain": {"default": "cube"}, "d": _int(), "n": _int(), "points_csv": {},
               "delta": _float(), "samples": _int(), "seed": _int()},
        select=lambda v: "--points-csv" if v.get("points_csv") else "--n",
        label="{key}",
        modes={
            "--points-csv": Mode("domain d delta samples seed", "seed d delta samples",
                                 _run_volume),
            "--n": Mode("domain d n delta samples seed", "seed d delta samples n", _run_volume),
        },
    ),
    "fool-check": Command(
        help="fooling-function invariant suite",
        flags={"variant": {"default": "c1"}, "d": _int(), "n": _int(), "delta": _float(),
               "lipschitz": _float(), "pairs": _int(2000), "samples": _int(1000),
               "seed": _int()},
        select="variant",
        label="--variant {key}",
        modes={
            "c0": Mode(
                "d n lipschitz pairs seed", "seed d n",
                lambda v: (checks.fool_check_c0(v["d"], v["n"], _lipschitz(v), v["pairs"],
                                                v["seed"]), None)),
            "c1": Mode(
                "d n delta pairs samples seed", "seed d n delta",
                lambda v: (checks.fool_check_c1(v["d"], v["n"], v["delta"], v["pairs"],
                                                v["seed"], samples=v["samples"]), None)),
        },
    ),
    "smooth-check": Command(
        help="convolution smoothing suite",
        flags={"d": _int(), "n": _int(), "delta": _float(), "k": _int(), "samples": _int(),
               "seed": _int()},
        select=lambda v: "",
        label="",
        modes={"": Mode(
            "d n delta k samples seed", "seed d n delta k samples",
            lambda v: (checks.smooth_check(v["d"], v["n"], v["delta"], v["k"], v["samples"],
                                           v["seed"]), None))},
    ),
    "quad": Command(
        help="quadrature error vs bound on a test family",
        flags={
            "algorithm": {"default": "taylor"}, "d": _int(), "j": _int(),
            "amplitude": _float(0.1), "a_norm": _float(1.0), "lipschitz": _float(),
            "fd": {**_SWITCH, "help": "use finite differences"}, "h": _float(),
            # No default: an unset budget stays out of the config echo.
            "max_evals": {"type": int, "help": "refuse a Taylor rule predicted to need more "
                          f"evaluations (default {DEFAULT_MAX_EVALS:,})"},
            "samples": _int(20000), "seed": _int(),
        },
        select="algorithm",
        label="--algorithm {key}",
        modes={
            "taylor": Mode("d j amplitude a_norm max_evals seed", "seed d j", _run_taylor,
                           switch=("fd", "h")),
            "one-point": Mode(
                "d lipschitz samples seed", "seed d",
                lambda v: (checks.one_point_check_c0(v["d"], _lipschitz(v), v["samples"],
                                                     v["seed"]), None)),
        },
    ),
    "bounds": Command(
        help="evaluate bound formulas, optionally swept",
        flags={
            "which": {}, "d": _int(), "eps": _float(),
            "d_list": _typed(_list_of(int)), "eps_list": _typed(_list_of(_finite_float)),
            "lip": _float(1.0), "lip_grad": _float(1.0), "a": _float(1.0), "c": _float(1.0),
            "growth": _float(1.1), "big_r": _float(0.5), "tail": _float(0.0),
            "diam": _float(), "ball_variant": _SWITCH, "j": _int(0), "rad": _float(),
            "m": _float(1.0), "k": _int(1), "alpha": _float(1.0),
        },
        select="which",
        label="--which {key}",
        modes={
            "lipschitz-lower": _bound(
                "eps eps_list lip a", "eps|eps_list",
                lambda v, d, eps: bd.lb_lipschitz(eps, d, v["lip"], v["a"])),
            "gradient-cube-lower": _bound(
                "eps eps_list", "eps|eps_list",
                lambda v, d, eps: bd.lb_lipschitz_gradient_cube(eps, d)),
            "higher-lower": _bound(
                "eps eps_list growth", "eps|eps_list",
                lambda v, d, eps: bd.lb_higher_smoothness(eps, d, v["growth"])),
            "one-point-c0": _bound(
                "lip big_r tail", "",
                lambda v, d, eps: bd.ub_one_point_c0(v["lip"], d, v["big_r"], v["tail"])),
            "one-point-c1": _bound("lip_grad diam", "", _one_point_c1,
                                   switch=("ball_variant", "big_r tail")),
            "taylor-upper": _bound(
                "j lip big_r", "",
                lambda v, d, eps: bd.ub_taylor(v["j"], v["lip"], d, v["big_r"])),
            "qpt-cost": _bound(
                "eps eps_list c a", "eps|eps_list",
                lambda v, d, eps: bd.quasi_poly_cost_bound(eps, d, v["c"], v["a"])),
            "unit-class-cost": _bound(
                "eps eps_list rad", "eps|eps_list",
                lambda v, d, eps: bd.unit_derivative_cost_bound(
                    eps, d, v["rad"] if "rad" in v else math.sqrt(d) / 2.0)),
            "uwt-witness": _bound(
                "m k alpha", "",
                lambda v, d, eps: bd.non_uniform_weak_witness(v["m"], v["k"], v["alpha"])),
        },
    ),
    "classify": Command(
        help="tractability verdict for a profile",
        flags={
            "k": {"help": "smoothness order (integer or 'inf')"},
            "kind": {"choices": ("directional", "partial"), "default": "directional"},
            "family": {"choices": ("cube", "small_radius", "convex_P", "convex")},
            "levels": {"help": "finite profile: 'c:e,c:e,...' for j = 0..k"},
            "level0": {"help": "infinite profile order 0: 'c:e'"},
            "tail_constant": _float(), "tail_base": _float(1.0),
            "tail_factorial_power": _float(0.0), "tail_shift": _int(0),
            "tail_u": _float(0.0), "tail_v": _float(0.0), "d": _int(),
        },
        select=_classify_mode,
        label="--k {k}",
        modes={
            "inf": Mode("kind family level0 tail_constant tail_base tail_factorial_power "
                        "tail_shift tail_u tail_v d", "family level0 tail_constant",
                        lambda v: _run_classify(v, _infinite_profile)),
            "finite": Mode("kind family levels d", "family levels",
                           lambda v: _run_classify(v, _finite_profile)),
        },
    ),
}


def _flags(command: Command) -> dict[str, dict]:
    """Every flag of a subcommand; the selecting flag's choices are the mode keys."""
    flags = {**_COMMON, **command.flags}
    if isinstance(command.select, str):
        flags[command.select] = {**flags[command.select], "choices": tuple(command.modes)}
    return flags


def build_parser() -> _Parser:
    parser = _Parser(prog="curselab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        # No argparse defaults: the parsed namespace holds exactly the flags given.
        p = sub.add_parser(name, help=command.help, argument_default=argparse.SUPPRESS)
        for dest, spec in _flags(command).items():
            p.add_argument(_flag(dest), **{k: x for k, x in spec.items() if k != "default"})
    return parser


def _mode(name: str, command: Command, values: dict, given: set[str]) -> Mode:
    """The mode the values select, once no flag it does not read was given
    and every flag it requires was: one flag of each ``a|b`` group."""
    if callable(command.select):
        key = command.select(values)
    elif command.select in values:
        key = values[command.select]
    else:
        raise CliError(f"{_flag(command.select)} is required")
    mode = command.modes[key]
    label = command.label.format(key=key, **values)
    switched = bool(mode.switch) and values[mode.switch[0]]
    if mode.switch:
        label += f" {_flag(mode.switch[0])}" if switched else f" without {_flag(mode.switch[0])}"
    readable = set().union(*(m.flags_read(True) for m in command.modes.values()))
    unread = sorted((given & readable) - mode.flags_read(switched))
    if unread:
        raise CliError(f"{name} {label} does not read {', '.join(map(_flag, unread))}")
    for group in mode.requires.split():
        flags = group.split("|")
        given_flags = [flag for flag in flags if flag in values]
        if len(given_flags) > 1:
            raise CliError(" and ".join(map(_flag, given_flags)) + " cannot both be given")
        if not given_flags:
            if group == "seed":
                raise CliError(f"{name} requires an explicit --seed")
            raise CliError(" or ".join(map(_flag, flags)) + " is required")
    return mode


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        given = vars(build_parser().parse_args(argv))
        name = given["subcommand"]
        command = _COMMANDS[name]
        flags = _flags(command)
        # Defaults, then config-file values, then flags: explicit flags win.
        config = _load_config(given["config"], flags) if "config" in given else {}
        defaults = {dest: spec["default"] for dest, spec in flags.items() if "default" in spec}
        values = {**defaults, **config, **given}
        mode = _mode(name, command, values, set(config) | set(given))
        if "threads" in values and values["threads"] < 1:
            raise CliError("--threads must be at least 1")
        results, plot_rows = mode.run(values)
        if isinstance(results, _Sweep):
            _emit_csv(results.header, results.rows, values.get("out"))
            failed = (f"preconditions_met is false in {results.unmet} of "
                      f"{len(results.rows)} rows" if results.unmet else "")
        else:
            # The common flags stay out of the echo: outputs must be
            # byte-identical across thread counts.
            echo = {k: x for k, x in values.items() if k not in _COMMON}
            payload = {"schema": SCHEMA, "subcommand": name, "config": echo, "results": results}
            _emit_text(json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n",
                       values.get("out"))
            failed = "" if results["pass"] else ", ".join(
                sorted(k for k, x in results.items() if k.endswith("_pass") and not x)
            ) or "pass"
        if plot_rows:
            _emit_plot(plot_rows, values.get("plot_data"))
    except (ValueError, OSError) as exc:  # CliError included
        print(f"curselab: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (HullIterationError, FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"curselab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if failed:
        print(f"curselab: check failed: {failed}", file=sys.stderr)
        return EXIT_VIOLATED
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
