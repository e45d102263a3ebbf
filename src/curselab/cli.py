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
failed, 3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import bounds as bd
from . import checks
from . import geometry as geo
from . import volume as vol
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


class CliError(Exception):
    """Configuration problem; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise CliError(message)


# ---------------------------------------------------------------------------
# Output helpers


def _num(value, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}


def _tag_check(data: dict, formula_keys: set[str]) -> dict:
    """Tag a check suite's floats (and lists of floats): ``formula`` for
    ``formula_keys``, ``monte_carlo`` for the rest; other values pass as is."""
    results = {}
    for key, value in data.items():
        provenance = "formula" if key in formula_keys else "monte_carlo"
        if isinstance(value, float):
            value = _num(value, provenance)
        elif isinstance(value, list):
            value = [_num(v, provenance) for v in value]
        results[key] = value
    return results


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


def _emit_json(payload: dict, path: str | None) -> None:
    _emit_text(json.dumps(_sanitize(payload), sort_keys=True, indent=2) + "\n", path)


def _emit_csv(header: list[str], rows: list[list], path: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            cell = _sanitize(cell)
            cells.append(repr(cell) if isinstance(cell, float) else str(cell))
        lines.append(",".join(cells))
    _emit_text("\n".join(lines) + "\n", path)


def _emit_plot(rows: list[tuple], path: str | None) -> None:
    if not path:
        return
    lines = []
    for row in rows:
        lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


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


# ---------------------------------------------------------------------------
# Config handling


def _load_config(path: str) -> dict:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise CliError(f"{path}:{line_no}: expected key=value")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _coerce_config(config: dict, parser: argparse.ArgumentParser) -> dict:
    """Convert raw config strings using the parser's declared types."""
    coerced = {}
    by_dest = {action.dest: action for action in parser._actions}
    for key, raw in config.items():
        action = by_dest.get(key)
        if action is None:
            raise CliError(f"unknown config key {key!r}")
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            coerced[key] = raw.lower() in ("1", "true", "yes", "on")
        elif action.type is not None:
            try:
                coerced[key] = action.type(raw)
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise CliError(f"config key {key!r}: {exc}") from None
        else:
            coerced[key] = raw
    return coerced


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"--{name.replace('_', '-')} is required")


def _subparser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return subparsers.choices[name]


def _given(parser: argparse.ArgumentParser, argv: list[str], subcommand: str) -> set[str]:
    """Destinations that ``argv`` sets explicitly; overwrites the subparser's defaults."""
    unset = object()
    sub = _subparser(parser, subcommand)
    sub.set_defaults(**{action.dest: unset for action in sub._actions})
    return {k for k, v in vars(parser.parse_args(argv)).items() if v is not unset}


# Flags that only some modes of a subcommand read, and what each mode reads.
_CONSTANTS_READS = {
    "gamma": {"delta", "eta", "check_below"},
    "gamma_tilde": {"delta", "check_below"},
    "p_star": {"tol"},
    "radius": {"p", "d"},
    "limit_ratio": {"p"},
    "ball_volume": {"p", "d"},
}
_BOUNDS_READS = {
    "lipschitz-lower": {"eps", "eps_list", "lip", "a"},
    "gradient-cube-lower": {"eps", "eps_list"},
    "higher-lower": {"eps", "eps_list", "growth"},
    "one-point-c0": {"lip", "big_r", "tail"},
    "one-point-c1": {"lip_grad", "diam", "ball_variant"},
    "taylor-upper": {"j", "lip", "big_r"},
    "qpt-cost": {"eps", "eps_list", "c", "a"},
    "unit-class-cost": {"eps", "eps_list", "rad"},
    "uwt-witness": {"m", "k", "alpha"},
}
_CLASSIFY_TAIL = {"level0", "tail_constant", "tail_base", "tail_factorial_power",
                  "tail_shift", "tail_u", "tail_v"}


def _mode_reads(args) -> tuple[str, set[str], set[str]] | None:
    """The chosen mode, the flags only some modes read, and those this one reads.

    None where the subcommand has one mode, or where its runner will
    refuse the mode itself.
    """
    if args.subcommand == "fool-check":
        reads = {"lipschitz"} if args.variant == "c0" else {"delta", "samples"}
        return f"--variant {args.variant}", {"delta", "lipschitz", "samples"}, reads
    if args.subcommand == "quad":
        flags = {"j", "amplitude", "a_norm", "lipschitz", "fd", "h", "max_evals", "samples"}
        if args.algorithm == "one-point":
            return "--algorithm one-point", flags, {"lipschitz", "samples"}
        reads = {"j", "amplitude", "a_norm", "max_evals"} | ({"fd", "h"} if args.fd else set())
        return f"--algorithm taylor {'--fd' if args.fd else 'without --fd'}", flags, reads
    if args.subcommand == "volume" and args.points_csv:
        return "--points-csv", {"n"}, set()
    if args.subcommand == "constants":
        chosen = [name for name in _CONSTANTS_READS if getattr(args, name)]
        if len(chosen) == 1:
            flags = set().union(*_CONSTANTS_READS.values())
            return f"--{chosen[0].replace('_', '-')}", flags, _CONSTANTS_READS[chosen[0]]
    if args.subcommand == "bounds" and args.which in _BOUNDS_READS:
        flags = set().union(*_BOUNDS_READS.values())
        reads = _BOUNDS_READS[args.which]
        if args.which == "one-point-c1" and args.ball_variant:
            reads = reads | {"big_r", "tail"}
        return f"--which {args.which}", flags, reads
    if args.subcommand == "classify" and args.k is not None:
        if args.k == "inf":
            return "--k inf", _CLASSIFY_TAIL | {"levels"}, _CLASSIFY_TAIL
        return f"--k {args.k}", _CLASSIFY_TAIL | {"levels"}, {"levels"}
    return None


def _refuse_unread(args, given: set[str]) -> None:
    """A flag given for a mode that never reads it is an error, not a no-op."""
    mode = _mode_reads(args)
    if mode is None:
        return
    name, flags, reads = mode
    unread = sorted((given & flags) - reads)
    if unread:
        listed = ", ".join(f"--{flag.replace('_', '-')}" for flag in unread)
        raise CliError(f"{args.subcommand} {name} does not read {listed}")


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
# Subcommand runners: each returns (results, passed, plot_rows, csv)


def _run_constants(args):
    actions = [
        name
        for name in ("gamma", "gamma_tilde", "p_star", "radius", "limit_ratio", "ball_volume")
        if getattr(args, name)
    ]
    if len(actions) != 1:
        raise CliError("choose exactly one of --gamma --gamma-tilde --p-star "
                       "--radius --limit-ratio --ball-volume")
    action = actions[0]
    plot_rows = None
    passed = True

    if action in ("gamma", "gamma_tilde"):
        if action == "gamma":
            _require(args, "delta", "eta")
            gc = vol.gamma_constant(args.delta, args.eta)
        else:
            _require(args, "delta")
            gc = vol.gamma_tilde_cube(args.delta)
        threshold = args.check_below if args.check_below is not None else 1.0
        passed = gc.value < threshold
        results = {
            "constant": action,
            "delta": _num(gc.delta, "formula"),
            "eta": _num(gc.eta, "formula"),
            "value": _num(gc.value, "solver"),
            "alpha_star": _num(gc.alpha_star, "solver"),
            "slope_at_zero": _num(gc.slope_at_zero, "formula"),
            "check_below": _num(threshold, "formula"),
            "pass": passed,
        }
        # An infimum only approached as alpha -> inf is plotted over [0, 1].
        span = gc.alpha_star if math.isfinite(gc.alpha_star) else 0.0
        grid = np.linspace(0.0, max(2.0 * span, 1.0), 101)
        plot_rows = [(a, vol.profile_integral(a, gc.delta, gc.eta)) for a in grid]
    elif action == "p_star":
        tol = args.tol if args.tol is not None else 1e-10
        root = geo.solve_p_star(tol)
        residual = geo.p_star_lhs(root) - math.sqrt(math.pi * math.e / 2.0)
        results = {
            "constant": "p_star",
            "value": _num(root, "solver"),
            "residual": _num(residual, "solver"),
            "tol": _num(tol, "formula"),
            "pass": True,
        }
    elif action == "radius":
        _require(args, "p", "d")
        nr = geo.lp_normalized_radius(args.p, args.d)
        results = {
            "constant": "radius",
            "p": _num(nr.p, "formula"),
            "d": _num(nr.d, "formula"),
            "value": _num(nr.value, "formula"),
            "ratio": _num(nr.ratio, "formula"),
            "pass": True,
        }
    elif action == "limit_ratio":
        _require(args, "p")
        results = {
            "constant": "limit_ratio",
            "p": _num(args.p, "formula"),
            "value": _num(geo.radius_limit_ratio(args.p), "formula"),
            "small_radius_threshold": _num(geo.SMALL_RADIUS_THRESHOLD, "formula"),
            "pass": True,
        }
    else:
        _require(args, "p", "d")
        results = {
            "constant": "ball_volume",
            "p": _num(args.p, "formula"),
            "d": _num(args.d, "formula"),
            "volume": _num(geo.lp_unit_ball_volume(args.p, args.d), "formula"),
            "log_volume": _num(geo.lp_unit_ball_volume_log(args.p, args.d), "formula"),
            "pass": True,
        }
    return results, passed, plot_rows, None


def _run_volume(args):
    _require(args, "d", "delta", "samples", "seed")
    dom = _parse_domain(args.domain, args.d)
    if args.points_csv:
        ps = PointSet.from_csv(args.points_csv, domain=dom)
    else:
        _require(args, "n")
        ps = checks.random_point_set(dom, args.n, args.seed)
    est = vol.mc_hull_neighborhood_volume(
        ps, dom, args.delta, args.samples, args.seed, threads=args.threads
    )
    results = {
        "domain": args.domain,
        "d": _num(args.d, "formula"),
        "n_points": _num(ps.n, "formula"),
        "delta": _num(args.delta, "formula"),
        "mean": _num(est.mean, "monte_carlo"),
        "half_width_95": _num(est.half_width_95, "monte_carlo"),
        "samples": _num(est.samples, "formula"),
        "seed": _num(est.seed, "formula"),
        "bound_log": _num(est.bound_log, "formula"),
        "bound_source": est.bound_source,
        "pass": est.passed,
    }
    plot_rows = [(args.delta, est.mean, est.bound)]
    return results, est.passed, plot_rows, None


def _run_fool_check(args):
    _require(args, "d", "n", "seed")
    if args.variant == "c0":
        lip = args.lipschitz if args.lipschitz is not None else 1.0 / math.sqrt(args.d)
        data = checks.fool_check_c0(args.d, args.n, lip, args.pairs, args.seed)
    else:
        _require(args, "delta")
        data = checks.fool_check_c1(
            args.d, args.n, args.delta, args.pairs, args.seed, samples=args.samples
        )
    return _tag_check(data, {"lipschitz_bound", "gradient_bound"}), data["pass"], None, None


def _run_smooth_check(args):
    _require(args, "d", "n", "delta", "k", "samples", "seed")
    data = checks.smooth_check(
        args.d, args.n, args.delta, args.k, args.samples, args.seed
    )
    return _tag_check(data, {"lipschitz_bound", "affine_target"}), data["pass"], None, None


def _run_quad(args):
    _require(args, "d", "seed")
    if args.algorithm == "one-point":
        lip = args.lipschitz if args.lipschitz is not None else 1.0 / math.sqrt(args.d)
        data = checks.one_point_check_c0(args.d, lip, args.samples, args.seed)
        formula_keys = {"one_point_value", "error_bound"}
    else:
        _require(args, "j")
        max_evals = DEFAULT_MAX_EVALS if args.max_evals is None else args.max_evals
        try:
            data = checks.quad_check_sine(
                args.d, args.j, args.seed,
                amplitude=args.amplitude, a_norm=args.a_norm,
                use_fd=args.fd, h=args.h, max_evals=max_evals,
            )
        except EvaluationBudgetError as exc:
            raise CliError(f"{exc} (--max-evals)") from None
        formula_keys = set(data)  # no Taylor figure is sampled
    return _tag_check(data, formula_keys), data["pass"], None, None


_BOUND_BUILDERS = {
    "lipschitz-lower": lambda a, d, eps: bd.lb_lipschitz(eps, d, a.lip, a.a),
    "gradient-cube-lower": lambda a, d, eps: bd.lb_lipschitz_gradient_cube(eps, d),
    "higher-lower": lambda a, d, eps: bd.lb_higher_smoothness(eps, d, a.growth),
    "one-point-c0": lambda a, d, eps: bd.ub_one_point_c0(a.lip, d, a.big_r, a.tail),
    "one-point-c1": lambda a, d, eps: bd.ub_one_point_c1(
        a.lip_grad, a.diam if a.diam is not None else math.sqrt(d),
        big_r=a.big_r if a.ball_variant else None,
        tail=a.tail if a.ball_variant else None,
        d=d if a.ball_variant else None,
    ),
    "taylor-upper": lambda a, d, eps: bd.ub_taylor(a.j, a.lip, d, a.big_r),
    "qpt-cost": lambda a, d, eps: bd.quasi_poly_cost_bound(eps, d, a.c, a.a),
    "unit-class-cost": lambda a, d, eps: bd.unit_derivative_cost_bound(
        eps, d, a.rad if a.rad is not None else math.sqrt(d) / 2.0
    ),
    "uwt-witness": lambda a, d, eps: bd.non_uniform_weak_witness(a.m, a.k, a.alpha),
}


def _run_bounds(args):
    builder = _BOUND_BUILDERS.get(args.which)
    if builder is None:
        raise CliError(f"unknown bound {args.which!r}")
    d_values = args.d_list if args.d_list else ([args.d] if args.d is not None else [None])
    eps_values = (
        args.eps_list if args.eps_list else ([args.eps] if args.eps is not None else [None])
    )
    if d_values == [None]:
        raise CliError("--d or --d-list is required")
    sweep = len(d_values) * len(eps_values) > 1

    rows = []
    plot_rows = []
    reports = []
    all_ok = True
    for d in d_values:
        for eps in eps_values:
            try:
                report = builder(args, d, eps)
            except TypeError as exc:
                raise CliError(str(exc))
            reports.append(((d, eps), report))
            all_ok = all_ok and report.preconditions_met
            rows.append([
                d,
                eps if eps is not None else "",
                report.log_value,
                math.exp(report.log_value) if report.log_value < 700 else math.inf,
                report.preconditions_met,
                report.rule,
            ])
            if eps is None:
                plot_rows.append((d, report.log_value))
            else:
                plot_rows.append((d, eps, report.log_value))
    if sweep:
        header = ["d", "eps", "log_value", "value", "preconditions_met", "rule"]
        return (header, rows), all_ok, plot_rows, "csv"
    (d, eps), report = reports[0]
    results = {
        "which": args.which,
        "d": _num(d, "formula"),
        "eps": _num(eps, "formula") if eps is not None else None,
        "log_value": _num(report.log_value, "formula"),
        "value": _num(
            math.exp(report.log_value) if report.log_value < 700 else math.inf,
            "formula",
        ),
        "direction": report.direction,
        "rule": report.rule,
        "preconditions_met": report.preconditions_met,
        "note": report.note,
        "extras": {k: _num(v, "formula") if isinstance(v, float) else v
                   for k, v in report.extras.items()},
        "pass": report.preconditions_met,
    }
    return results, report.preconditions_met, None, None


def _run_classify(args):
    _require(args, "k", "family")
    kind = args.kind
    if args.k == "inf":
        _require(args, "level0", "tail_constant")
        for name in ("tail_constant", "tail_base"):
            if getattr(args, name) <= 0.0:
                raise CliError(f"--{name.replace('_', '-')} must be positive")
        c0, e0 = _parse_levels(args.level0)[0]
        tail = bd.TailRule(
            log_constant=math.log(args.tail_constant),
            log_base=math.log(args.tail_base),
            factorial_power=args.tail_factorial_power,
            factorial_shift=args.tail_shift,
            d_exponent_base=args.tail_u,
            d_exponent_slope=args.tail_v,
        )
        profile = bd.SmoothnessProfile.infinite((c0, e0), tail, derivative_kind=kind)
    else:
        _require(args, "levels")
        k = int(args.k)
        levels = _parse_levels(args.levels)
        if len(levels) != k + 1:
            raise CliError(f"--levels must list k+1 = {k + 1} entries")
        profile = bd.SmoothnessProfile.finite(levels, derivative_kind=kind)
    verdict = bd.classify(profile, args.family)
    results = verdict.to_json_dict()
    results["profile"] = profile.to_json_dict(d=args.d if args.d else 8)
    results["pass"] = True
    return results, True, None, None


# ---------------------------------------------------------------------------
# Parser assembly


def _add_common(parser):
    parser.add_argument("--out", default=None, help="output path ('-' = stdout)")
    parser.add_argument("--plot-data", default=None, help="whitespace-delimited plot file")
    parser.add_argument("--config", default=None, help="flat key=value config file")
    parser.add_argument("--threads", type=int, default=1)


def build_parser() -> _Parser:
    parser = _Parser(prog="curselab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constants", help="closed-form and solver constants")
    _add_common(p)
    p.add_argument("--gamma", action="store_true")
    p.add_argument("--gamma-tilde", action="store_true")
    p.add_argument("--p-star", action="store_true")
    p.add_argument("--radius", action="store_true")
    p.add_argument("--limit-ratio", action="store_true")
    p.add_argument("--ball-volume", action="store_true")
    p.add_argument("--delta", type=_finite_float)
    p.add_argument("--eta", type=_finite_float)
    p.add_argument("--p", type=_exponent)
    p.add_argument("--d", type=int)
    p.add_argument("--tol", type=_finite_float)
    p.add_argument("--check-below", type=_finite_float)
    p.set_defaults(run=_run_constants)

    p = sub.add_parser("volume", help="Monte Carlo volume vs analytic bound")
    _add_common(p)
    p.add_argument("--domain", default="cube")
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--points-csv", default=None)
    p.add_argument("--delta", type=_finite_float)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(run=_run_volume)

    p = sub.add_parser("fool-check", help="fooling-function invariant suite")
    _add_common(p)
    p.add_argument("--variant", choices=("c0", "c1"), default="c1")
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=_finite_float)
    p.add_argument("--lipschitz", type=_finite_float)
    p.add_argument("--pairs", type=int, default=2000)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int)
    p.set_defaults(run=_run_fool_check)

    p = sub.add_parser("smooth-check", help="convolution smoothing suite")
    _add_common(p)
    p.add_argument("--d", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--delta", type=_finite_float)
    p.add_argument("--k", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(run=_run_smooth_check)

    p = sub.add_parser("quad", help="quadrature error vs bound on a test family")
    _add_common(p)
    p.add_argument("--algorithm", choices=("taylor", "one-point"), default="taylor")
    p.add_argument("--d", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--amplitude", type=_finite_float, default=0.1)
    p.add_argument("--a-norm", type=_finite_float, default=1.0)
    p.add_argument("--lipschitz", type=_finite_float)
    p.add_argument("--fd", action="store_true", help="use finite differences")
    p.add_argument("--h", type=_finite_float)
    # No argparse default: an unset budget stays out of the config echo.
    p.add_argument("--max-evals", type=int,
                   help="refuse a Taylor rule predicted to need more evaluations "
                        f"(default {DEFAULT_MAX_EVALS:,})")
    p.add_argument("--samples", type=int, default=20000)
    p.add_argument("--seed", type=int)
    p.set_defaults(run=_run_quad)

    p = sub.add_parser("bounds", help="evaluate bound formulas, optionally swept")
    _add_common(p)
    p.add_argument("--which", required=False)
    p.add_argument("--d", type=int)
    p.add_argument("--eps", type=_finite_float)
    p.add_argument("--d-list", type=lambda s: [int(t) for t in s.split(",") if t])
    p.add_argument("--eps-list", type=lambda s: [_finite_float(t) for t in s.split(",") if t])
    p.add_argument("--lip", type=_finite_float, default=1.0)
    p.add_argument("--lip-grad", type=_finite_float, default=1.0)
    p.add_argument("--a", type=_finite_float, default=1.0)
    p.add_argument("--c", type=_finite_float, default=1.0)
    p.add_argument("--growth", type=_finite_float, default=1.1)
    p.add_argument("--big-r", type=_finite_float, default=0.5)
    p.add_argument("--tail", type=_finite_float, default=0.0)
    p.add_argument("--diam", type=_finite_float)
    p.add_argument("--ball-variant", action="store_true")
    p.add_argument("--j", type=int, default=0)
    p.add_argument("--rad", type=_finite_float)
    p.add_argument("--m", type=_finite_float, default=1.0)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--alpha", type=_finite_float, default=1.0)
    p.set_defaults(run=_run_bounds)

    p = sub.add_parser("classify", help="tractability verdict for a profile")
    _add_common(p)
    p.add_argument("--k", help="smoothness order (integer or 'inf')")
    p.add_argument("--kind", choices=("directional", "partial"), default="directional")
    p.add_argument("--family", choices=("cube", "small_radius", "convex_P", "convex"))
    p.add_argument("--levels", help="finite profile: 'c:e,c:e,...' for j = 0..k")
    p.add_argument("--level0", help="infinite profile order 0: 'c:e'")
    p.add_argument("--tail-constant", type=_finite_float)
    p.add_argument("--tail-base", type=_finite_float, default=1.0)
    p.add_argument("--tail-factorial-power", type=_finite_float, default=0.0)
    p.add_argument("--tail-shift", type=int, default=0)
    p.add_argument("--tail-u", type=_finite_float, default=0.0)
    p.add_argument("--tail-v", type=_finite_float, default=0.0)
    p.add_argument("--d", type=int)
    p.set_defaults(run=_run_classify)

    return parser


_RANDOMIZED = ("volume", "fool-check", "smooth-check", "quad")


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = {}
        if args.config is not None:
            # Config-file values become defaults of the chosen subparser
            # and the flags are parsed again, so explicit flags always win.
            sub = _subparser(parser, args.subcommand)
            config = _coerce_config(_load_config(args.config), sub)
            sub.set_defaults(**config)
            args = parser.parse_args(argv)
        _refuse_unread(args, _given(parser, argv, args.subcommand) | set(config))
        if args.subcommand in _RANDOMIZED and getattr(args, "seed", None) is None:
            raise CliError(f"{args.subcommand} requires an explicit --seed")
        if getattr(args, "threads", 1) < 1:
            raise CliError("--threads must be at least 1")
        results, passed, plot_rows, csv_flag = args.run(args)
    except CliError as exc:
        print(f"curselab: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, OSError) as exc:
        print(f"curselab: error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (HullIterationError, FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"curselab: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    if csv_flag == "csv":
        header, rows = results
        _emit_csv(header, rows, args.out)
    else:
        payload = {
            "schema": SCHEMA,
            "subcommand": args.subcommand,
            "config": _config_echo(args),
            "results": results,
        }
        _emit_json(payload, args.out)
    if plot_rows:
        _emit_plot(plot_rows, args.plot_data)
    return EXIT_OK if passed else EXIT_VIOLATED


def _config_echo(args) -> dict:
    # Execution parameters (output paths, worker count) stay out of the
    # echo: outputs must be byte-identical across thread counts.
    skip = {"run", "out", "plot_data", "config", "threads"}
    echo = {}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None or callable(value):
            continue
        echo[key] = value
    return echo


if __name__ == "__main__":
    sys.exit(main())
