#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written as BENCH_<n>.json.

    python3 tools/bench_pairs.py --number N --parent REV
        [--claim-metric run_s --claim-workload dense-random]

The parent runs from `git archive REV`, the change from the working tree's
tracked and untracked, not ignored, files; each side from its own fresh
copy.  Every workload of BENCHMARK.json runs ten pairs: pair i runs
`python3 benchmark/run.py --workload W --seed i` on both sides, at the
benchmark's own run length, the parent first in even pairs and the change
first in odd ones.

For every workload and end-to-end metric the file records each side's
median, quartiles and range, how many pairs the change won (ties count for
neither side), and whether the change's median stays within the bound
BENCHMARK.json fixes.  With --claim-metric it also records the claim
verdict: the change must win at least nine of every ten pairs run, and the
medians must differ, in the metric's better direction, by more than the
distance between the parent's quartiles.

Each side of a pair also records `wall_s`, the median of the plain wall
times of its timed rounds (`round_wall_s` in that copy's
benchmark/out/<W>/timed.json), and each workload the spread of both sides'
`wall_s` and of the pair differences, with no verdict.  One round of a
parent against itself then shows whether the reference clock's seconds
vary less between pairs than plain wall seconds do.

Every pair run counts.  When BENCH_<n>.json already holds rounds of the
same parent and the same src/ of the change, a new round adds its pairs and
every figure and the verdict are recomputed over all of them; a file of
another parent or change is left alone and the tool stops.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PAIRS = 10
METRIC_UNITS = {"s": "reference s (median per run)", "MB": "MB"}


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def export_rev(rev: str, dest: Path):
    """The files of commit rev, as `git archive` gives them, under dest."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def export_worktree(dest: Path):
    """The working tree's tracked and untracked, not ignored, files under dest."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        source = ROOT / name
        if source.is_file():            # a tracked file deleted in the tree is left out
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)


def tree_hash(path: Path) -> str:
    """The git tree hash of the directory at path, computed here, so no
    object is written into the repository."""
    entries = []
    for child in path.iterdir():
        if child.is_dir():
            mode, digest, key = "40000", bytes.fromhex(tree_hash(child)), child.name + "/"
        else:
            data = child.read_bytes()
            mode = "100755" if os.access(child, os.X_OK) else "100644"
            digest = hashlib.sha1(b"blob %d\0" % len(data) + data).digest()
            key = child.name
        entries.append((key.encode(), f"{mode} {child.name}\0".encode() + digest))
    body = b"".join(entry for _, entry in sorted(entries))
    return hashlib.sha1(b"tree %d\0" % len(body) + body).hexdigest()


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    side = {name: m["value"] for name, m in result["metrics"].items()}
    side.update(correct=result["correct"], attempted=result["attempted"],
                failed=result["failed"], wall_s=wall_median(checkout, workload))
    return side


def wall_median(checkout: Path, workload: str) -> float:
    """The median plain wall time of the timed rounds the last run of
    workload in checkout wrote beside its CSV."""
    timed = checkout / "benchmark" / "out" / workload / "timed.json"
    return statistics.median(json.loads(timed.read_text(encoding="utf-8"))["round_wall_s"])


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values)}


def compare(pairs, name: str, better: str, bound: float) -> dict:
    """Both sides' spread of one metric over the pairs, the change's wins and
    whether its median stays within the bound; `gain` is the parent's median
    less the change's, positive when the change is better."""
    parent = [p["parent"][name] for p in pairs]
    change = [p["change"][name] for p in pairs]
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for a, b in zip(parent, change) if sign * (a - b) > 0)
    stats = {"parent": spread(parent), "change": spread(change)}
    base, new = stats["parent"]["median"], stats["change"]["median"]
    stats.update(
        change_wins=wins, pairs=len(pairs),
        median_change_pct=100.0 * (new - base) / base if base else 0.0,
        parent_iqr=stats["parent"]["q3"] - stats["parent"]["q1"],
        gain=sign * (base - new),
        bound=bound,
        within_bound=sign * (new - base) <= bound * abs(base))
    return stats


def wall_spread(pairs):
    """Both sides' spread of wall_s, and of the change's wall_s less the
    parent's, over the pairs that record it; None when none does."""
    walls = [(p["parent"]["wall_s"], p["change"]["wall_s"]) for p in pairs
             if "wall_s" in p["parent"] and "wall_s" in p["change"]]
    if not walls:
        return None
    parent, change = zip(*walls)
    return {"parent": spread(parent), "change": spread(change),
            "difference": spread([b - a for a, b in walls])}


def claim_verdict(stats: dict, unit: str) -> dict:
    """The rule for claiming a gain: at least ten pairs, nine of every ten
    won, and the medians differ, the right way, by more than the parent's
    IQR."""
    return {
        "median_change_pct": round(stats["median_change_pct"], 2),
        "change_wins": stats["change_wins"],
        "pairs": stats["pairs"],
        f"median_difference_{unit}": stats["gain"],
        f"parent_iqr_{unit}": stats["parent_iqr"],
        "met": stats["pairs"] >= PAIRS
        and 10 * stats["change_wins"] >= 9 * stats["pairs"]
        and stats["gain"] > stats["parent_iqr"],
    }


def recorded_pairs(report, parent_commit: str, change_tree: str, workloads) -> dict:
    """Each workload's pairs already in the report, which a new round extends;
    none when there is no report.  Every pair run counts, so a report of
    another parent or change is not written over."""
    if report is None:
        return {w: {"pairs": []} for w in workloads}
    if report["parent"]["commit"] != parent_commit or report["change"]["src_tree"] != change_tree:
        raise SystemExit("the BENCH file holds pairs of another parent or change; "
                         "every pair run counts, so it is not written over")
    return report["workloads"]


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="tools/bench_pairs.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--number", type=int, required=True,
                        help="n of the BENCH_<n>.json to write")
    parser.add_argument("--parent", required=True, help="parent commit")
    parser.add_argument("--claim-metric", default=None)
    parser.add_argument("--claim-workload", default=None)
    args = parser.parse_args(argv)
    if (args.claim_metric is None) != (args.claim_workload is None):
        parser.error("give --claim-metric and --claim-workload together")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    parent_commit = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    spec = json.loads(git("show", f"{parent_commit}:BENCHMARK.json"))
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    if args.claim_metric is not None and (args.claim_metric not in metrics
                                          or args.claim_workload not in workloads):
        raise SystemExit("the claim must name a benchmark metric and workload")
    out = ROOT / f"BENCH_{args.number}.json"
    report = json.loads(out.read_text(encoding="utf-8")) if out.exists() else None

    # a SIGTERM unwinds like an exception, so the running side is killed
    # and the copies are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        export_rev(parent_commit, sides["parent"])
        export_worktree(sides["change"])
        trees = {side: tree_hash(path / "src") for side, path in sides.items()}
        results = recorded_pairs(report, parent_commit, trees["change"], workloads)
        for workload in workloads:
            pairs = results[workload]["pairs"]
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"pair": len(pairs), "seed": i}
                for side in order:
                    pair[side] = run_side(sides[side], workload, i)
                pairs.append(pair)
                print(f"{workload} pair {pair['pair']}: " + ", ".join(
                    f"{side} run_s {pair[side]['run_s']:.3f} wall_s {pair[side]['wall_s']:.3f}"
                    for side in order),
                    file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(tmp)

    for workload in workloads:
        for name, m in metrics.items():
            results[workload][name] = compare(results[workload]["pairs"], name,
                                              m["better"], m["bound"])
        results[workload]["wall_s"] = wall_spread(results[workload]["pairs"])
    rounds = len(results[workloads[0]]["pairs"]) // PAIRS
    report = report or {}
    report.pop("claim", None)           # a verdict holds only over every pair
    report.update({
        "parent": {"commit": parent_commit, "src_tree": trees["parent"]},
        "change": {
            "src_tree": trees["change"],
            "note": "git tree hash of src/ in the working tree the runs used; "
                    "benchmark/ and BENCHMARK.json are each side's own",
        },
        "host": f"{len(os.sched_getaffinity(0))} CPUs, shared with other jobs; "
                f"Python {platform.python_version()}",
        "command": "python3 benchmark/run.py --workload W --seed S (run length: "
                   f"BENCHMARK.json run_seconds, {spec['run_seconds']} s)",
        "protocol": f"{rounds} round(s) of {PAIRS} pairs per workload, pair i of a round "
                    "at seed i; even pairs ran the parent first, odd pairs the change "
                    "first; each side from its own fresh copy of the files",
        "seeds": list(range(PAIRS)),
        "units": {**{name: METRIC_UNITS.get(m["unit"], m["unit"])
                     for name, m in metrics.items()},
                  "wall_s": "wall s (median per run; no verdict)"},
    })
    if args.claim_metric is not None:
        unit = metrics[args.claim_metric]["unit"].lower()
        report["claim"] = {
            "metric": args.claim_metric,
            "workload": args.claim_workload,
            "result": claim_verdict(results[args.claim_workload][args.claim_metric], unit),
        }
    report["workloads"] = results
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    if "claim" in report:
        print(f"claim met: {report['claim']['result']['met']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
