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
"""

from __future__ import annotations

import dataclasses
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


def sweep(base: ScenarioConfig, axis: str, values: Sequence[int],
          seeds: Sequence[int]) -> Tuple[List[Tuple[int, RunRow]], List[str]]:
    """All (value, seed) cells in deterministic order.

    Returns (rows tagged with their axis value, failure messages).  A failed
    cell is reported and skipped rather than aborting the sweep.
    """
    rows: List[Tuple[int, RunRow]] = []
    failures: List[str] = []
    for value in values:
        for seed in seeds:
            cfg = config_for_axis(base, axis, value, seed)
            try:
                for row in execute(cfg):
                    rows.append((value, row))
            except Exception as exc:
                failures.append(f"{axis}={value} seed={seed}: {exc}")
    return rows, failures


def median_cells(group: List[RunRow]) -> Dict[str, Optional[float]]:
    """Column-wise medians over a (axis value, protocol) row group, None
    where no row has a value."""
    out: Dict[str, Optional[float]] = {}
    for name, value, _ in NUMERIC_COLUMNS:
        values = [float(v) for v in map(value, group) if v is not None]
        out[name] = statistics.median(values) if values else None
    return out
