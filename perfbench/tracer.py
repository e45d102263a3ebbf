"""Span tracing of curselab's layers, installed from outside the library.

A :class:`Tracer` wraps the public functions of each layer and records
one span per call: name, start and end (``perf_counter_ns``), the id of
the enclosing span on the same thread, a size (points, samples, terms:
whatever the per-unit metrics divide by) and an optional value read
from the result.  Spans stay in memory until the run ends.

A wrapper has to replace the function in every module namespace that
imported the name (``checks.project_onto_hull``, ``volume.within_distance``
and so on), or calls would bypass it; :meth:`Tracer.install` does that by
identity, and :meth:`Tracer.uninstall` puts the originals back so that
untraced rounds run the unmodified code.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
import threading
import time
from collections import defaultdict


def _n_rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) <= 1 else int(shape[0])


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _terms(args, kwargs) -> int:
    dom, j = _arg(args, kwargs, 1, "dom"), _arg(args, kwargs, 2, "j")
    return math.comb(dom.d + j // 2, dom.d)


def _fd_nodes(args, kwargs, result) -> int:
    f = _arg(args, kwargs, 0, "f")
    return 0 if f.analytic_partial is not None else result.evaluations_used


PACKAGE = "curselab"

# (module, attribute path, span name, size(args, kwargs), value(args, kwargs, result))
# per_layer_metrics below reads these span names.  Per-element
# helpers (cube_moment, profile_eval) are left unwrapped: they cost about
# as much as a span, which would distort their callers' self time.
TARGETS = [
    ("cli", "main", "cli.main", None, None),
    ("checks", "fool_check_c1", "checks.fool_check_c1", None, None),
    ("checks", "smooth_check", "checks.smooth_check", None, None),
    ("checks", "quad_check_sine", "checks.quad_check_sine", None, None),
    ("checks", "one_point_check_c0", "checks.one_point_check_c0", None, None),
    ("checks", "random_point_set", "checks.random_point_set", None, None),
    ("fooling", "fooling_c1_eval", "fooling.c1_eval", None, None),
    ("fooling", "smoothed_eval", "fooling.smoothed_eval",
     lambda a, k: _arg(a, k, 5, "n_samples"), None),
    ("fooling", "FoolingFunction.__call__", "fooling.call",
     lambda a, k: _n_rows(_arg(a, k, 1, "points")), None),
    ("hull", "project_onto_hull", "hull.project", None,
     lambda a, k, r: len(r.support)),
    ("hull", "within_distance", "hull.within",
     lambda a, k: _n_rows(_arg(a, k, 1, "queries")), None),
    ("geometry", "DomainSpec.sample", "geometry.sample",
     lambda a, k: _arg(a, k, 2, "n"), None),
    ("volume", "mc_hull_neighborhood_volume", "volume.mc", None, None),
    ("quadrature", "quad_taylor", "quadrature.taylor", _terms, _fd_nodes),
    ("quadrature", "fd_partial", "quadrature.fd_partial", None, None),
    ("quadrature", "reference_integral", "quadrature.refint",
     lambda a, k: _arg(a, k, 2, "n_samples"), None),
    ("quadrature", "Integrand.value_at", "quadrature.value_at", None, None),
    ("rng", "substream", "rng.substream", None, None),
]


class Tracer:
    """Records spans of wrapped curselab calls; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, size, value)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, size, value):
        record = self.spans.append
        ids = self._ids
        stack_of = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                record((sid, name, start, end, parent, 0, None))
                raise
            end = clock()
            stack.pop()
            record((
                sid, name, start, end, parent,
                size(args, kwargs) if size else 1,
                value(args, kwargs, result) if value else None,
            ))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target wherever it is bound."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module_name, path, span_name, size, value in TARGETS:
            owner = sys.modules[f"{PACKAGE}.{module_name}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, span_name, size, value)
            if outer:  # a method: patching the class covers every caller
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, obj in list(vars(mod).items()):
                    if obj is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total and self time (s), size and value sums.

    Self time is a span's duration minus the durations of its child
    spans; children are recorded on the parent's thread, so they lie
    inside its interval.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for sid, _, start, end, parent, _, _ in spans:
        if parent:
            child_ns[parent] += end - start
    totals: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "size": 0, "value": 0.0}
    )
    for sid, name, start, end, parent, size, value in spans:
        t = totals[name]
        t["calls"] += 1
        t["busy_s"] += (end - start) * 1e-9
        t["self_s"] += (end - start - child_ns.get(sid, 0)) * 1e-9
        t["size"] += size
        if value is not None:
            t["value"] += value
    return totals


def nested_in(spans, child_name: str, parent_name: str) -> tuple[int, float]:
    """Calls and busy seconds of ``child_name`` spans whose parent is a ``parent_name`` span."""
    parents = {sid for sid, name, *_ in spans if name == parent_name}
    calls, busy = 0, 0.0
    for sid, name, start, end, parent, _, _ in spans:
        if name == child_name and parent in parents:
            calls += 1
            busy += (end - start) * 1e-9
    return calls, busy


#: Per-layer metrics of a traced run: name, unit.  Counts and busy/self
#: times are per round; ``*_per_*`` and ``*_us`` metrics are per unit of
#: work.  README.md lists the end-to-end figure each one should move.
PER_LAYER = [
    ("cli.self_ms", "ms"),
    ("checks.self_s", "s"),
    ("fooling.c1_eval_calls", "count"),
    ("fooling.c1_eval_self_us", "us"),
    ("fooling.call_points", "count"),
    ("fooling.call_self_us_per_point", "us"),
    ("fooling.smoothed_eval_calls", "count"),
    ("fooling.smoothed_eval_self_ns_per_sample", "ns"),
    ("hull.project_calls", "count"),
    ("hull.project_us_per_call", "us"),
    ("hull.project_busy_s", "s"),
    ("hull.project_support_mean", "vertices"),
    ("hull.within_queries", "count"),
    ("hull.within_self_us_per_query", "us"),
    ("hull.within_fallback_calls", "count"),
    ("hull.within_fallback_busy_s", "s"),
    ("geometry.sample_points", "count"),
    ("geometry.sample_ns_per_point", "ns"),
    ("volume.mc_self_s", "s"),
    ("quadrature.taylor_self_us_per_term", "us"),
    ("quadrature.fd_self_us_per_node", "us"),
    ("quadrature.integrand_evals", "count"),
    ("quadrature.refint_self_ns_per_sample", "ns"),
    ("rng.substream_calls", "count"),
    ("rng.substream_us_per_call", "us"),
    ("trace.overhead_s", "s"),
]

#: Counts that must repeat exactly between rounds and runs of one seed.
EXACT_COUNTS = [name for name, unit in PER_LAYER if unit == "count"]


def _ratio(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def per_layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics of one traced round (``trace.overhead_s`` excluded)."""
    t = layer_totals(spans)

    def get(name, key):
        return t[name][key] if name in t else 0

    fallback_calls, fallback_busy = nested_in(spans, "hull.project", "hull.within")
    return {
        "cli.self_ms": get("cli.main", "self_s") * 1e3,
        "checks.self_s": sum(v["self_s"] for k, v in t.items() if k.startswith("checks.")),
        "fooling.c1_eval_calls": get("fooling.c1_eval", "calls"),
        "fooling.c1_eval_self_us": _ratio(get("fooling.c1_eval", "self_s"),
                                          get("fooling.c1_eval", "calls"), 1e6),
        "fooling.call_points": get("fooling.call", "size"),
        "fooling.call_self_us_per_point": _ratio(get("fooling.call", "self_s"),
                                                 get("fooling.call", "size"), 1e6),
        "fooling.smoothed_eval_calls": get("fooling.smoothed_eval", "calls"),
        "fooling.smoothed_eval_self_ns_per_sample": _ratio(
            get("fooling.smoothed_eval", "self_s"), get("fooling.smoothed_eval", "size"), 1e9),
        "hull.project_calls": get("hull.project", "calls"),
        "hull.project_us_per_call": _ratio(get("hull.project", "busy_s"),
                                           get("hull.project", "calls"), 1e6),
        "hull.project_busy_s": get("hull.project", "busy_s"),
        "hull.project_support_mean": _ratio(get("hull.project", "value"),
                                            get("hull.project", "calls"), 1.0),
        "hull.within_queries": get("hull.within", "size"),
        "hull.within_self_us_per_query": _ratio(get("hull.within", "self_s"),
                                                get("hull.within", "size"), 1e6),
        "hull.within_fallback_calls": fallback_calls,
        "hull.within_fallback_busy_s": fallback_busy,
        "geometry.sample_points": get("geometry.sample", "size"),
        "geometry.sample_ns_per_point": _ratio(get("geometry.sample", "self_s"),
                                               get("geometry.sample", "size"), 1e9),
        "volume.mc_self_s": get("volume.mc", "self_s"),
        "quadrature.taylor_self_us_per_term": _ratio(get("quadrature.taylor", "self_s"),
                                                     get("quadrature.taylor", "size"), 1e6),
        "quadrature.fd_self_us_per_node": _ratio(get("quadrature.fd_partial", "self_s"),
                                                 get("quadrature.taylor", "value"), 1e6),
        "quadrature.integrand_evals": get("quadrature.value_at", "calls"),
        "quadrature.refint_self_ns_per_sample": _ratio(get("quadrature.refint", "self_s"),
                                                       get("quadrature.refint", "size"), 1e9),
        "rng.substream_calls": get("rng.substream", "calls"),
        "rng.substream_us_per_call": _ratio(get("rng.substream", "busy_s"),
                                            get("rng.substream", "calls"), 1e6),
    }
