"""Fast self-test of the benchmark; asserts nothing about timing.

    python3 perfbench/selftest.py

Runs every workload at its tiny size, untraced and traced, through the
same code as a real run.  It fails if an output check fails, if an
operation fails other than the known ``fool-check`` failure, or if the
result line does not have the keys, metric names and units that
BENCHMARK.json lists.
"""

from __future__ import annotations

import json
import math
import os
import sys

import run


def schema_problems(result: dict, expected: dict[str, str]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted {result['attempted']!r}")
    if not (isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"failed {result['failed']!r}")
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        problems.append(f"metric names differ: {sorted(set(metrics) ^ set(expected))}")
    for name, entry in metrics.items():
        if set(entry) != {"value", "unit"} or entry["unit"] != expected.get(name):
            problems.append(f"{name}: {entry}")
        elif not (isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])):
            problems.append(f"{name}: value {entry['value']!r}")
        elif expected[name] == "count" and entry["value"] != int(entry["value"]):
            problems.append(f"{name}: count {entry['value']!r} is not whole")
    return problems


def main() -> int:
    if not run.add_source_path():
        print(f"selftest: no curselab sources in {run.SRC}", file=sys.stderr)
        return 2
    import harness

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    units = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    os.makedirs(run.RUNS, exist_ok=True)
    problems = []
    for name in run.NAMES:
        for trace in (False, True):
            result, record = harness.run_workload(
                name, 1, 0.0, trace, run.ROOT, os.path.abspath(run.__file__), run.RUNS,
                tiny=True, probes=1,
            )
            label = f"{name} trace={int(trace)}"
            problems += [f"{label}: {p}" for p in schema_problems(result, units[trace])]
            problems += [f"{label}: {e}" for e in record["errors"] + record["failures"]]
            rounds = len(record["rounds"])
            known = len(record["expected_failures"]) * rounds
            if result["failed"] > known:
                problems.append(f"{label}: {result['failed']} failed, at most {known} expected")
            if not result["correct"]:
                problems.append(f"{label}: not correct")
            print(f"selftest: {label}: {rounds} rounds, {result['attempted']} attempted, "
                  f"{result['failed']} failed", flush=True)
    for problem in problems:
        print(f"selftest: FAIL {problem}", file=sys.stderr)
    if problems:
        return 1
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
