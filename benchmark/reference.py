#!/usr/bin/env python3
"""Reference statistics of every workload's simulated output.

    python3 benchmark/reference.py [--seed N] > benchmark/reference.txt

Runs each workload once through meshsim's command line and prints, per
workload and protocol phase, the events dispatched, the corrupted
receptions, the trace hash and the CSV row, then a sweep's median rows.
Host time plays no part, so the output is byte-identical on every machine.
Diffing it against benchmark/reference.txt names each run whose simulated
output a change altered.  --seed picks the chain-sweep cell seeds as in
benchmark/run.py (default 0: seeds 1, 2 and 3).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import checks                                            # noqa: E402
from harness import cli_round                            # noqa: E402
from workloads import WORKLOADS, cli_argv, sweep_seeds   # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmark/reference.py")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in WORKLOADS.values():
        out_dir = BENCH_DIR / "out" / workload.name
        out_dir.mkdir(parents=True, exist_ok=True)
        out_csv = out_dir / "reference.csv"
        rnd = cli_round(workload, cli_argv(workload, args.seed, out_csv), out_csv)
        seeds = f" (cell seeds {','.join(map(str, sweep_seeds(args.seed)))})" \
            if workload.kind == "sweep" else ""
        print(f"## {workload.name}{seeds}")
        if rnd.error:
            print(f"error: {rnd.error}")
            status = 1
            continue
        emitted = checks.parse_csv(rnd.csv)
        lines = rnd.csv.splitlines()[1:]
        for line, row, run_row in zip(lines, emitted, rnd.rows):
            r = run_row.result
            print(f"{row['scenario']} seed={row['seed']} {row['protocol']} "
                  f"events={r.dispatched_events} corrupted={r.corrupted_receptions} "
                  f"trace={r.trace_hash}")
            print(f"  {line}")
        for line in lines[len(rnd.rows):]:
            print(f"  {line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
