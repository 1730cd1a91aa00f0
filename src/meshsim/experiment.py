"""Scenario orchestration: single runs, the two-phase rerouting experiment,
and the hop/node sweeps behind the command line.

The rerouting experiment runs the same seeded scenario twice.  The first
pass routes by hop count and doubles as the measurement pass: every node's
per-link round-trip estimators fill up from live traffic.  The second pass
routes by those measured averages (re-deriving routes on a fixed cadence)
after preseeding its estimators with the first pass's final values, so the
route decision at flow start already reflects observed link quality.

Restitution compares what hop-count routing salvaged against what the
rerouted run achieved on the same scenario.

A sweep's (value, seed) cells are independent seeded runs, so they run side
by side: one forked worker per CPU of the process's affinity mask (at most
one per cell), worker k taking cells k, k+n, k+2n, ... and sending their
pickled outcomes back over a pipe.  A cell's two phases stay in one worker,
since the second seeds from the first.  The parent puts the outcomes back in
(value, seed) order, so rows, CSV and trace hashes are byte-identical to a
serial run whatever the CPU count; with one CPU (``taskset -c 0``) the cells
run in the calling process, and so do the cells of every worker the system
could not start (a failed pipe or fork).  Because workers are forked,
patches or counters set in the caller do not see the per-cell calls.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

from .config import ScenarioConfig, TopologySpec
from .engine import Sim, SimResult
from .metrics import CorReport, make_cor_report
from .routing import RouteMetric


@dataclasses.dataclass
class RunRow:
    """One emitted result row: a protocol's outcome for one (config, seed)."""

    scenario: str
    seed: int
    protocol: str
    result: SimResult
    cor_report: Optional[CorReport] = None


# (CSV column, its value in one row, whether it counts things); the CSV
# header, each row's cells and the sweep's median rows all follow this table
NUMERIC_COLUMNS = (
    ("n_nodes", lambda r: r.result.n_nodes, True),
    ("n_hops", lambda r: r.result.n_hops, True),
    ("throughput_kbps", lambda r: r.result.summary.throughput_kbps, False),
    ("delivery_ratio", lambda r: r.result.summary.delivery_ratio, False),
    ("mean_delay_ms", lambda r: r.result.summary.mean_e2e_delay_ms, False),
    ("mean_rtt_ms", lambda r: r.result.summary.mean_rtt_ms, False),
    ("cor", lambda r: None if r.cor_report is None else r.cor_report.cor, False),
)


def corciar_run(config: ScenarioConfig,
                trace_file=None) -> Tuple[SimResult, SimResult, CorReport]:
    """Measurement pass by hop count, then the rerouted pass on the same
    topology, then the ratio."""
    sim = Sim(config, RouteMetric.HOP_COUNT, "aodv_hop", trace_file=trace_file)
    topology, baseline = sim.topo, sim.run()
    del sim     # free the finished phase before the next one is built
    rerouted = Sim(config, RouteMetric.AVG_RTT, "corciar", topology=topology,
                   seed_link_costs=baseline.link_costs,
                   trace_file=trace_file).run()
    report = make_cor_report(baseline.summary.throughput_kbps,
                             rerouted.summary.throughput_kbps)
    return baseline, rerouted, report


def execute(config: ScenarioConfig, trace_file=None) -> List[RunRow]:
    """Run one scenario under its configured protocol selection."""
    scenario = config.topology.label()
    if config.protocol == "aodv_hop":
        result = Sim(config, RouteMetric.HOP_COUNT, "aodv_hop",
                     trace_file=trace_file).run()
        return [RunRow(scenario, config.seed, "aodv_hop", result)]
    if config.protocol == "corciar":
        _, rerouted, report = corciar_run(config, trace_file=trace_file)
        return [RunRow(scenario, config.seed, "corciar", rerouted, report)]
    baseline, rerouted, report = corciar_run(config, trace_file=trace_file)
    return [RunRow(scenario, config.seed, "aodv_hop", baseline),
            RunRow(scenario, config.seed, "corciar", rerouted, report)]


def config_for_axis(base: ScenarioConfig, axis: str, value: int,
                    seed: int) -> ScenarioConfig:
    if axis == "hops":
        topo = TopologySpec("chain", value + 1)
    elif axis == "nodes":
        topo = TopologySpec("random", value)
    else:
        raise ValueError(f"unknown sweep axis {axis!r}")
    return dataclasses.replace(base, topology=topo, seed=seed)


CellOutcome = Tuple[Optional[List[RunRow]], Optional[str]]


def _run_cells(cells: Sequence[ScenarioConfig]) -> List[CellOutcome]:
    """(rows, None) for each cell that ran, (None, its error text) for each
    that raised."""
    outcomes: List[CellOutcome] = []
    for cfg in cells:
        try:
            outcomes.append((execute(cfg), None))
        except Exception as exc:
            outcomes.append((None, str(exc)))
    return outcomes


def _worker(cells: Sequence[ScenarioConfig], read_fd: int, write_fd: int):
    """A forked worker: run its cells and send their pickled outcomes.  It
    leaves by os._exit, so the parent's buffers and exit handlers never run
    here; an unclean end shows the parent a nonzero status."""
    import pickle
    status = 1
    try:
        os.close(read_fd)
        with open(write_fd, "wb") as pipe:
            pickle.dump(_run_cells(cells), pipe, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _run_forked(cells: Sequence[ScenarioConfig], n: int) -> List[CellOutcome]:
    """Worker k of n runs cells[k::n]; the outcomes come back in cell order."""
    # imported here, not with the module: a run that never forks a sweep
    # would carry it (about 0.2 MB resident) for nothing
    import pickle
    outcomes: List[CellOutcome] = [(None, None)] * len(cells)
    workers: List[List] = []    # [pid, read end of its pipe]; pid None once reaped
    try:
        for k in range(n):
            # no pipe (EMFILE, ENFILE) or no process (EAGAIN, ENOMEM) could
            # be had: this worker's cells and every later one's run here
            try:
                read_fd, write_fd = os.pipe()
            except OSError:
                break
            workers.append([None, read_fd])
            try:
                pid = os.fork()
                if pid == 0:
                    _worker(cells[k::n], read_fd, write_fd)
            except OSError:
                workers.pop()
                os.close(read_fd)
                break
            finally:
                # a later worker must not inherit it, or EOF never comes
                os.close(write_fd)
            workers[k][0] = pid
        for k in range(len(workers), n):
            outcomes[k::n] = _run_cells(cells[k::n])
        for k, worker in enumerate(workers):
            with open(worker[1], "rb", closefd=False) as pipe:
                data = pipe.read()
            _, status = os.waitpid(worker[0], 0)
            worker[0] = None
            code = os.waitstatus_to_exitcode(status)
            if code == 0:
                outcomes[k::n] = pickle.loads(data)
            else:
                cause = f"exit status {code}" if code > 0 else f"signal {-code}"
                outcomes[k::n] = [(None, f"sweep worker ended with {cause}")] * len(cells[k::n])
    finally:
        for pid, read_fd in workers:
            os.close(read_fd)
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return outcomes


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the mask cannot be read."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def sweep(base: ScenarioConfig, axis: str, values: Sequence[int],
          seeds: Sequence[int]) -> Tuple[List[Tuple[int, RunRow]], List[str]]:
    """All (value, seed) cells in deterministic order.

    Returns (rows tagged with their axis value, failure messages).  A failed
    cell is reported and skipped rather than aborting the sweep.  The cells
    run in forked workers, one per CPU of the affinity mask (see the module
    docstring); the result is the same as a serial run's.
    """
    keys = [(value, seed) for value in values for seed in seeds]
    cells = [config_for_axis(base, axis, value, seed) for value, seed in keys]
    n = min(_cpu_count(), len(cells))
    outcomes = _run_forked(cells, n) if n > 1 else _run_cells(cells)
    rows: List[Tuple[int, RunRow]] = []
    failures: List[str] = []
    for (value, seed), (cell_rows, error) in zip(keys, outcomes):
        if error is not None:
            failures.append(f"{axis}={value} seed={seed}: {error}")
        else:
            rows.extend((value, row) for row in cell_rows)
    return rows, failures


def median_cells(group: List[RunRow]) -> Dict[str, Optional[float]]:
    """Column-wise medians over a (axis value, protocol) row group, None
    where no row has a value."""
    out: Dict[str, Optional[float]] = {}
    for name, value, _ in NUMERIC_COLUMNS:
        values = [float(v) for v in map(value, group) if v is not None]
        out[name] = statistics.median(values) if values else None
    return out
