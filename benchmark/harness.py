"""One benchmark run of one workload: timed rounds with set-up timing, or
traced rounds, and the checks on every round's output.

A round calls meshsim's command line entry point (meshsim.cli.main) in this
process and times it from the call to the CSV being written.  The rows the
command line emits are captured on their way out of experiment.execute or
experiment.sweep, so the checks see the SimResult behind every CSV row.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from meshsim import cli, experiment
from meshsim.config import parse_config
from meshsim.engine import Sim
from meshsim.routing import RouteMetric

import checks
import layers
from refclock import ReferenceClock
from workloads import PROTOCOLS, SWEEP_HOPS, Workload, cell_configs, cli_argv, sweep_seeds

MIN_TIMED_ROUNDS = 3
# set-up is timed after every round: at least this many times, for this long
SETUP_MIN_REPEATS = 3
SETUP_SLICE_S = 0.1


@dataclass
class Round:
    start: float                    # perf_counter at the call
    end: float                      # perf_counter once the CSV was written
    csv: str
    rows: list                      # RunRow per emitted cell row, in order
    error: Optional[str] = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def hashes(self) -> List[str]:
        return [row.result.trace_hash for row in self.rows]


@dataclass
class Outcome:
    """What the checks found: failed operations per round, and run-level faults."""

    attempted: int = 0
    failed: int = 0
    faults: List[str] = field(default_factory=list)      # make the run incorrect
    failures: Dict[str, List[str]] = field(default_factory=dict)   # op -> messages


def cli_round(workload: Workload, argv: List[str], out_csv: Path) -> Round:
    """Run meshsim's command line once and capture the rows behind its CSV."""
    target = "execute" if workload.kind == "run" else "sweep"
    original = getattr(cli, target)
    captured = []

    def capture(*args, **kwargs):
        out = original(*args, **kwargs)
        captured.append(out)
        return out

    if out_csv.exists():
        out_csv.unlink()
    setattr(cli, target, capture)
    error = None
    start = time.perf_counter()
    try:
        code = cli.main(argv)
        end = time.perf_counter()
        if code != 0:
            error = f"meshsim {argv[0]} exited with code {code}"
    except Exception as exc:   # a crashing round fails all its rows
        end = time.perf_counter()
        error = f"meshsim {argv[0]} raised {type(exc).__name__}: {exc}"
    finally:
        setattr(cli, target, original)
    rows = []
    if captured:
        rows = captured[0] if workload.kind == "run" else [r for _, r in captured[0][0]]
    csv = out_csv.read_text(encoding="utf-8") if out_csv.exists() else ""
    return Round(start, end, csv, rows, error)


class Grader:
    """Checks rounds of one workload run against facts computed apart."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.cells = [(cfg, checks.cell_facts(cfg)) for cfg in cell_configs(workload, seed)]
        self.sim_time_s = self.cells[0][0].sim_time_s
        self.expected = [(facts.scenario, str(cfg.seed), proto)
                         for cfg, facts in self.cells for proto in PROTOCOLS]
        # a sweep adds one median row per (value, protocol), values in order
        self.median_groups = [] if workload.kind == "run" else \
            [(scenario, proto) for scenario in dict.fromkeys(f.scenario for _, f in self.cells)
             for proto in PROTOCOLS]
        self.op_names = [" ".join(key) for key in self.expected] + \
            [f"{scenario} {proto}=median:" for scenario, proto in self.median_groups]
        self.standing: Dict[str, List[str]] = {}   # op failures found once, true of every round
        self.outcome = Outcome()
        self.first: Optional[Round] = None

    def grade(self, rnd: Round):
        """Count one round's operations and fold its failures into the outcome."""
        failures = {op: list(msgs) for op, msgs in self.standing.items()}
        for op, msgs in self._round_failures(rnd).items():
            failures.setdefault(op, []).extend(msgs)
        self.outcome.attempted += len(self.op_names)
        self.outcome.failed += len(failures)
        for op, msgs in failures.items():
            self.outcome.failures.setdefault(op, list(dict.fromkeys(msgs)))
        if self.first is None:
            self.first = rnd
        elif rnd.csv != self.first.csv or rnd.hashes != self.first.hashes:
            self.fault("two rounds of the same input gave different CSV or trace hashes")

    def fault(self, message: str):
        if message not in self.outcome.faults:
            self.outcome.faults.append(message)

    def _round_failures(self, rnd: Round) -> Dict[str, List[str]]:
        names = self.op_names
        if rnd.error:
            return {name: [rnd.error] for name in names}
        try:
            emitted = checks.parse_csv(rnd.csv)
        except ValueError as exc:
            return {name: [str(exc)] for name in names}
        cell_rows = [r for r in emitted if r["seed"]]
        median_rows = [r for r in emitted if not r["seed"]]
        failures: Dict[str, List[str]] = {}
        by_cell = {}
        for i, key in enumerate(self.expected):
            name = " ".join(key)
            if i >= len(cell_rows) or i >= len(rnd.rows) or \
                    (cell_rows[i]["scenario"], cell_rows[i]["seed"],
                     cell_rows[i]["protocol"]) != key:
                failures[name] = ["row missing or out of (value, seed, protocol) order"]
                continue
            cfg, facts = self.cells[i // len(PROTOCOLS)]
            row, result = cell_rows[i], rnd.rows[i].result
            errors = checks.check_phase_row(row, result, facts, key[2])
            if key[2] == "corciar":
                baseline = by_cell.get(i - 1)
                if baseline is None:
                    errors.append("no aodv_hop row to compare cor against")
                else:
                    errors += checks.check_cor_row(row, baseline[1], result, cfg.sim_time_s)
            by_cell[i] = (row, result)
            if errors:
                failures[name] = errors
        for j, (scenario, proto) in enumerate(self.median_groups):
            name = f"{scenario} {proto}=median:"
            members = [by_cell[i] for i, key in enumerate(self.expected)
                       if i in by_cell and key[0] == scenario and key[2] == proto]
            if j >= len(median_rows):
                failures[name] = ["median row missing"]
                continue
            errors = checks.median_row_errors(median_rows[j], [m[0] for m in members],
                                              [m[1] for m in members], self.sim_time_s)
            if errors:
                failures[name] = errors
        if len(emitted) != len(names):
            failures.setdefault(names[-1], []).append(
                f"CSV has {len(emitted)} rows, expected {len(names)}")
        return failures


def check_trace_file(workload: Workload, seed: int, grader: Grader, out_dir: Path):
    """One untimed `meshsim run --trace FILE`: the sha256 of each phase's
    lines in FILE must equal that phase's reported trace_hash.  Returns a
    function that requires a round to emit what this run emitted."""
    trace_path = out_dir / "trace.txt"
    out_csv = out_dir / "traced.csv"
    rnd = cli_round(workload, cli_argv(workload, seed, out_csv, trace_path), out_csv)
    if rnd.error:
        grader.fault(f"run with --trace: {rnd.error}")
    else:
        try:
            file_hashes = checks.trace_file_hashes(trace_path)
        except ValueError as exc:
            file_hashes = [str(exc)]
        if file_hashes != rnd.hashes:
            grader.fault("sha256 of a phase's lines in the --trace file differs "
                         "from its reported trace_hash")
    trace_path.unlink(missing_ok=True)

    def compare(timed: Round):
        if timed.csv != rnd.csv or timed.hashes != rnd.hashes:
            grader.fault("a run with --trace gave different CSV or trace hashes")
    return compare


def check_single_cells(grader: Grader):
    """A separate single-cell run of every sweep cell, through the library,
    with each phase's trace lines hashed as they are written.  Returns a
    function that requires the first round's cell rows to equal them: the
    order and identity a sweep must keep however it schedules its cells."""
    singles = {}
    for cfg, facts in grader.cells:
        hasher = checks.PhaseHasher()
        try:
            rows = experiment.execute(cfg, trace_file=hasher)
        except Exception as exc:   # its rows then fail: no single-cell row to match
            print(f"single-cell run {facts.scenario} seed {cfg.seed} raised "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        try:
            line_hashes = hasher.finish()
        except ValueError as exc:
            line_hashes = [str(exc)]
        if line_hashes != [r.result.trace_hash for r in rows]:
            grader.fault("sha256 of a phase's trace lines differs from its trace_hash")
        for r in rows:
            singles[(facts.scenario, str(cfg.seed), r.protocol)] = r

    def compare(timed: Round):
        if timed.error or grader.first is not None:
            return          # later rounds are held to the first one
        try:
            emitted = [r for r in checks.parse_csv(timed.csv) if r["seed"]]
        except ValueError:
            return          # the grader fails every row of this round
        for i, key in enumerate(grader.expected):
            single = singles.get(key)
            if single is None:
                errors = ["a single-cell run emitted no such row"]
            elif i < len(emitted) and i < len(timed.rows):
                errors = checks.same_run_errors(emitted[i], timed.rows[i].result,
                                                single.result, single.cor_report)
            else:
                continue    # missing from the sweep: the grader fails it
            if errors:
                grader.standing.setdefault(" ".join(key), []).extend(errors)
    return compare


def setup_spans(workload: Workload, seed: int, rows) -> List[Tuple[float, float]]:
    """perf_counter spans of turning the config text into ready-to-run
    simulators: parse_config plus Sim(...) for every phase of every cell,
    not run.

    rows are a round's RunRows; the corciar phase is built with the link
    costs its aodv_hop phase measured, as the rerouting experiment does.
    """
    text = workload.config_text()
    link_costs = [r.result.link_costs for r in rows if r.protocol == "aodv_hop"]
    seeds = sweep_seeds(seed)
    spans = []
    gc.collect()
    while len(spans) < SETUP_MIN_REPEATS or sum(e - s for s, e in spans) < SETUP_SLICE_S:
        start = time.perf_counter()
        base = parse_config(text)
        cells = [base] if workload.kind == "run" else \
            [experiment.config_for_axis(base, "hops", h, s) for h in SWEEP_HOPS for s in seeds]
        sims = []
        for cfg, costs in zip(cells, link_costs):
            sims.append(Sim(cfg, RouteMetric.HOP_COUNT, "aodv_hop"))
            sims.append(Sim(cfg, RouteMetric.AVG_RTT, "corciar", seed_link_costs=costs))
        spans.append((start, time.perf_counter()))
        del sims
    return spans


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    out_csv = out_dir / "round.csv"
    argv = cli_argv(workload, seed, out_csv)
    grader = Grader(workload, seed)
    compares = []
    if workload.kind == "sweep":
        compares.append(check_single_cells(grader))
    if trace and workload.kind == "run":
        compares.append(check_trace_file(workload, seed, grader, out_dir))

    def graded_round() -> Round:
        gc.collect()        # every round starts from the same collector state
        rnd = cli_round(workload, argv, out_csv)
        for compare in compares:
            compare(rnd)
        grader.grade(rnd)
        return rnd

    if trace:
        metrics = traced_rounds(workload, seed, seconds, grader, graded_round, out_dir)
    else:
        metrics = timed_rounds(workload, seed, seconds, graded_round, out_dir)

    outcome = grader.outcome
    for op, msgs in outcome.failures.items():
        print(f"{workload.name}: failed operation {op}: {'; '.join(msgs)}", file=sys.stderr)
    for fault in outcome.faults:
        print(f"{workload.name}: check failed: {fault}", file=sys.stderr)
    return {
        "correct": not outcome.faults,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def timed_rounds(workload, seed, seconds, graded_round, out_dir) -> dict:
    """Untraced rounds until `seconds` of them ran, at least MIN_TIMED_ROUNDS,
    under a ReferenceClock: run_s and setup_s are medians in reference
    seconds, so the host's swings in speed do not move them.

    Set-up is timed in a short slice after every round, so its median spans
    the whole run rather than one moment of it.  The plain wall times go to
    standard error and to timed.json beside the round's CSV.
    """
    rounds, setups = [], []
    with ReferenceClock() as clock:
        while len(rounds) < MIN_TIMED_ROUNDS or sum(e - s for s, e in rounds) < seconds:
            rnd = graded_round()
            rounds.append((rnd.start, rnd.end))
            setups += setup_spans(workload, seed, rnd.rows)
    run_ref = [clock.reference_s(*span) for span in rounds]
    setup_ref = [clock.reference_s(*span) for span in setups]
    walls = [end - start for start, end in rounds]
    report = {
        "workload": workload.name,
        "seed": seed,
        "round_wall_s": walls,
        "round_reference_s": run_ref,
        "setup_wall_s": [end - start for start, end in setups],
        "setup_reference_s": setup_ref,
        "probes": len(clock.probes),
        "probe_cpu_s_median": statistics.median(p.cpu_s for p in clock.probes),
    }
    (out_dir / "timed.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"{workload.name}: {len(rounds)} timed rounds, wall "
          + " ".join(f"{w:.3f}" for w in walls) + " s, reference "
          + " ".join(f"{r:.3f}" for r in run_ref) + f" s; {len(setups)} set-ups; "
          f"{len(clock.probes)} probes, median {report['probe_cpu_s_median'] * 1e3:.3f} ms",
          file=sys.stderr)
    return {
        "run_s": (statistics.median(run_ref), "s"),
        "setup_s": (statistics.median(setup_ref), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced_rounds(workload, seed, seconds, grader, graded_round, out_dir) -> dict:
    """Pairs of an untraced and a traced round until `seconds` of rounds ran.

    Counts must repeat exactly between traced rounds and trace hashes must
    equal the untraced rounds'; times are medians over the traced rounds.
    Alternating the two kinds of round lets the overhead ratio, traced over
    untraced median, see the same host conditions on both sides.
    """
    untraced_walls, walls, per_round = [], [], []
    tracer = None
    while not walls or sum(walls) + sum(untraced_walls) < seconds:
        untraced = graded_round()
        untraced_walls.append(untraced.wall_s)
        tracer = layers.Tracer()
        with layers.instrumented(tracer):
            rnd = graded_round()
        walls.append(rnd.wall_s)
        if rnd.hashes != untraced.hashes:
            grader.fault("a traced round's trace hashes differ from the untraced round's")
        per_round.append(layers.layer_metrics(tracer, [r.result for r in rnd.rows],
                                              untraced.wall_s))
    metrics = {}
    for name, unit in layers.PER_LAYER:
        values = [m[name] for m in per_round]
        if unit == "count":
            if len(set(values)) > 1:
                grader.fault(f"per-layer count {name} differs between traced rounds: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    traced_run_s = statistics.median(walls)
    untraced_run_s = statistics.median(untraced_walls)
    report = {
        "workload": workload.name,
        "seed": seed,
        "traced_rounds": len(walls),
        "untraced_run_s": untraced_run_s,
        "traced_run_s": traced_run_s,
        "tracing_overhead": traced_run_s / untraced_run_s,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "last_round": tracer.summary(),
    }
    (out_dir / "layers.json").write_text(json.dumps(report, indent=1) + "\n",
                                         encoding="utf-8")
    print(f"{workload.name}: traced run_s {traced_run_s:.3f} over untraced "
          f"{untraced_run_s:.3f} = {report['tracing_overhead']:.2f}x; "
          f"per-layer figures in {out_dir / 'layers.json'}", file=sys.stderr)
    return metrics
