#!/usr/bin/env python3
"""meshsim benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py [--seed N] [--seconds S] [--trace 0|1]

The first form runs one workload in this process and prints, as the last
line of standard output, one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 (which also writes benchmark/out/NAME/layers.json).
The second form runs every workload, each in a fresh process one after the
other, and prints every metric with its unit and the operations attempted
and failed.  Run from the root of a meshsim checkout; the simulator is
imported from its src/ directory, and files are written only under
benchmark/out/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="benchmark/run.py", description=__doc__.split("\n")[1])
    parser.add_argument("--workload", default=None,
                        help="workload to run (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed, a whole number >= 0 (default 0)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="time measured per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def declared_metrics(trace: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec, [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(args) -> int:
    sys.dont_write_bytecode = True      # leave no __pycache__ under src/
    sys.path.insert(0, str(SRC))
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec, declared = declared_metrics(args.trace)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = harness.run_workload(workload, args.seed, seconds, bool(args.trace),
                                  OUT_DIR / workload.name)
    reported = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if sorted(reported) != sorted(declared):
        print(f"metrics {reported} do not match BENCHMARK.json {declared}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    sys.dont_write_bytecode = True
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: no result (exit code {proc.returncode})")
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: correct={str(result['correct']).lower()} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "meshsim" / "__init__.py").is_file():
        print(f"no meshsim sources at {SRC}; run from the root of a meshsim checkout",
              file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
