"""Runs one workload: set-up, timed rounds, output checks and the result.

A run builds the workload from its seed, warms up on a tiny copy of the
same operations, then repeats whole rounds of the operations until the
next round would end after ``seconds``.  Every output is checked after
its round, outside the timed region.  Untraced runs report the
end-to-end metrics; traced runs alternate untraced and traced rounds and
report the per-layer metrics together with the tracing overhead.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

import tracer as tracing
import workloads

#: A traced run needs an untraced and a traced round.
MIN_ROUNDS = 2

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("round_s", "s"),
    ("op_geomean_s", "s"),
]


def build(name: str, seed: int, tiny: bool, run_dir: str) -> workloads.Workload:
    return workloads.WORKLOADS[name](seed, tiny, run_dir)


def warm_up(name: str, seed: int, run_dir: str) -> None:
    """Run the tiny copy of every operation once: imports, caches, BLAS threads."""
    for op in build(name, seed, True, run_dir).ops:
        op.run()


def run_round(workload: workloads.Workload) -> tuple[float, dict, dict]:
    times, outs = {}, {}
    start = time.perf_counter()
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # reported as a failed operation
            out = exc
        times[op.name] = time.perf_counter() - t0
        outs[op.name] = out
    return time.perf_counter() - start, times, outs


def _comparable(out) -> str:
    if isinstance(out, list):
        return "\n".join(_comparable(o) for o in out)
    if isinstance(out, workloads.CliRun):
        return out.stdout
    return repr(out)


class Checker:
    """Checks every round's outputs and counts attempted and failed operations."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.failures: list[str] = []
        self._first: dict[str, str] = {}

    def check(self, outs: dict) -> None:
        for op in self.workload.ops:
            out = outs[op.name]
            self.attempted += 1
            if isinstance(out, Exception):
                self.failed += 1
                self.failures.append(f"{op.name}: {type(out).__name__}: {out}")
                continue
            failed = op.failed(out)
            if failed:
                self.failed += 1
                if op.expected_failure is None:
                    self.failures.append(f"{op.name}: reported failure")
                    continue
            self.errors += op.check(out)
            seen = self._first.setdefault(op.name, _comparable(out))
            if seen != _comparable(out):
                self.errors.append(f"{op.name}: output differs from the first round")
        if not any(isinstance(o, Exception) for o in outs.values()):
            self.errors += self.workload.cross_checks(outs)


def measure(workload, seconds: float, checker: Checker, tracer=None):
    """Whole rounds, at least MIN_ROUNDS, until the next one would end after ``seconds``.

    With a tracer, odd rounds are traced; the spans of round i are
    ``tracer.spans[first:last]``.
    """
    rounds = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        first = len(tracer.spans) if tracer else 0
        if traced:
            tracer.install()
        try:
            total, times, outs = run_round(workload)
        finally:
            if traced:
                tracer.uninstall()
        last = len(tracer.spans) if tracer else 0
        checker.check(outs)
        rounds.append({"total_s": total, "op_s": times, "traced": traced,
                       "spans": (first, last)})
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["total_s"] for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            return rounds


def setup_probe(name: str, seed: int, run_py: str, timeout: float = 170.0) -> float:
    """Seconds from spawning a fresh process to the end of its set-up and warm-up."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", name, "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=timeout, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - t0


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds, op_medians: dict[str, float], setup_times: list[float]) -> dict:
    geomean = math.exp(sum(math.log(v) for v in op_medians.values()) / len(op_medians))
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_s": statistics.median(r["total_s"] for r in rounds),
        "op_geomean_s": geomean,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END}


def per_layer(rounds, tracer, checker: Checker) -> dict:
    traced = [r for r in rounds if r["traced"]]
    plain = [r for r in rounds if not r["traced"]]
    per_round = [tracing.per_layer_metrics(tracer.spans[a:b])
                 for a, b in (r["spans"] for r in traced)]
    for name in tracing.EXACT_COUNTS:
        if len({m[name] for m in per_round}) != 1:
            checker.errors.append(f"trace: {name} differs between traced rounds")
    values = {name: per_round[0][name] if name in tracing.EXACT_COUNTS
              else statistics.median(m[name] for m in per_round) for name in per_round[0]}
    values["trace.overhead_s"] = (statistics.median(r["total_s"] for r in traced)
                                  - statistics.median(r["total_s"] for r in plain))
    return {name: _metric(values[name], unit) for name, unit in tracing.PER_LAYER}


# ---------------------------------------------------------------------------
# Run record


def git_sha(root: str) -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def blas_threads() -> int | None:
    """OpenBLAS's thread count in this process, read through its C API."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "machine": platform.machine(),
        "cpu": cpu,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, root: str,
                 run_py: str, run_dir: str, tiny: bool = False,
                 probes: int = 3) -> tuple[dict, dict]:
    """One run; returns the result line and the run record."""
    workload = build(name, seed, tiny, run_dir)
    warm_up(name, seed, run_dir)
    setup_times = [] if trace else [setup_probe(name, seed, run_py) for _ in range(probes)]

    checker = Checker(workload)
    tracer = tracing.Tracer() if trace else None
    rounds = measure(workload, seconds, checker, tracer)
    checker.errors += workload.verify()

    untraced = [r for r in rounds if not r["traced"]]
    op_medians = {n: statistics.median(r["op_s"][n] for r in untraced)
                  for n in untraced[0]["op_s"]}
    if trace:
        metrics = per_layer(rounds, tracer, checker)
    else:
        metrics = end_to_end(rounds, op_medians, setup_times)
    result = {
        "correct": not checker.errors,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    figures = {k: _metric(v, u) for k, (v, u) in workload.figures(op_medians).items()}
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "tiny": tiny,
        "git_sha": git_sha(root),
        "environment": environment(),
        "result": result,
        "figures": figures,
        "op_median_s": op_medians,
        "rounds": rounds,
        "setup_probes_s": setup_times,
        "errors": checker.errors,
        "failures": checker.failures,
        "expected_failures": {op.name: op.expected_failure for op in workload.ops
                              if op.expected_failure},
        "inputs": workload.notes,
    }
    stamp = f"{name}-seed{seed}-trace{int(trace)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    record["record"] = os.path.relpath(os.path.join(run_dir, stamp + ".json"), root)
    if trace:
        record["spans"] = os.path.relpath(os.path.join(run_dir, stamp + ".spans.json"), root)
        with open(os.path.join(root, record["spans"]), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent", "size", "value"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    with open(os.path.join(root, record["record"]), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return result, record
