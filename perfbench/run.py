"""curselab benchmark: three workloads, end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload fooling-suite --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from ``src/``
of that checkout.  One workload runs in this process (``all`` runs each
in a child process of its own).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the workload's named figures;
``perfbench/runs/`` receives the full record of the run (and its spans).
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
NAMES = ["fooling-suite", "volume-mc", "quadrature"]


def add_source_path() -> bool:
    """Put this checkout's src/ first on sys.path; False if it holds no curselab."""
    if not os.path.isfile(os.path.join(SRC, "curselab", "__init__.py")):
        return False
    sys.path.insert(0, SRC)
    return True


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ["all"])
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in a child process; prints their lines and a combined one."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"perfbench: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not add_source_path():
        print(f"perfbench: no curselab sources in {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    import harness

    os.makedirs(RUNS, exist_ok=True)
    if args.setup_probe:
        harness.build(args.workload, args.seed, False, RUNS)
        harness.warm_up(args.workload, args.seed, RUNS)
        print(time.monotonic())
        return 0

    result, record = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT,
        os.path.abspath(__file__), RUNS,
    )
    for message in record["errors"] + record["failures"]:
        print(f"perfbench: {args.workload}: {message}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "figures": record["figures"],
                      "record": record["record"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
