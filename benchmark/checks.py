"""Output checks computed apart from the program.

Each check reads one emitted CSV row (a dict of column text) together with
the SimResult behind it, recomputes what the row should say from the raw
per-flow statistics or from the benchmark's own graph search, and returns a
list of failure messages (empty when the row is right).  The checks never
call the program's summary, restitution or formatting code.
"""

from __future__ import annotations

import hashlib
import statistics
from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional

CSV_COLUMNS = ("scenario", "seed", "protocol", "n_nodes", "n_hops",
               "throughput_kbps", "delivery_ratio", "mean_delay_ms",
               "mean_rtt_ms", "cor", "collision_class")

# The CSV prints six decimals; one unit in that place is the tolerance.
TOLERANCE = 1e-6

# The README's meaning of each collision label, as a test on cor.
LABEL_MEANS = {
    "PerfectlyElastic": ("cor == 1 (the phases tie)", lambda c: c == 1.0),
    "PartiallyElastic": ("0 < cor < 1", lambda c: 0.0 < c < 1.0),
    "Inelastic": ("cor == 0", lambda c: c == 0.0),
}


def parse_csv(text: str) -> List[Dict[str, str]]:
    lines = text.splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {lines[0] if lines else ''!r}")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"CSV row has {len(cells)} cells: {line!r}")
        rows.append(dict(zip(CSV_COLUMNS, cells)))
    return rows


def bfs_hops(adjacency, src: int, dst: int) -> Optional[int]:
    """Shortest hop count from src to dst, or None when unreachable."""
    seen = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        if u == dst:
            return seen[u]
        for v in adjacency[u]:
            if v not in seen:
                seen[v] = seen[u] + 1
                queue.append(v)
    return None


@dataclass
class CellFacts:
    """What the checks know about one cell without running it."""

    config: object            # meshsim.config.ScenarioConfig
    scenario: str
    n_nodes: int
    flow_hops: List[Optional[int]]
    data_air_ms: float


def cell_facts(config) -> CellFacts:
    from meshsim.topology import build_topology, resolve_flows

    topo = build_topology(config)
    spec = config.topology
    scenario = "mesh8" if spec.kind == "mesh8" else f"{spec.kind}({spec.n})"
    if spec.kind == "random" and spec.placement_seed is not None:
        scenario = f"random({spec.n},{spec.placement_seed})"
    return CellFacts(
        config=config,
        scenario=scenario,
        n_nodes=len(topo.nodes),
        flow_hops=[bfs_hops(topo.comm_adjacency, s, d)
                   for s, d in resolve_flows(config, topo)],
        data_air_ms=config.packet_size_bytes * 8 / config.data_rate_bps * 1000.0,
    )


@dataclass
class Recomputed:
    throughput_kbps: float
    delivery_ratio: Optional[float]
    mean_delay_ms: Optional[float]
    mean_rtt_ms: Optional[float]


def recompute(flow_stats, sim_time_s: float) -> Recomputed:
    sent = sum(s.packets_sent for s in flow_stats)
    received = sum(s.packets_received_at_gateway for s in flow_stats)
    delays = [d for s in flow_stats for d in s.e2e_delays]
    rtts = [r for s in flow_stats for r in s.rtt_samples]
    return Recomputed(
        throughput_kbps=sum(s.bytes_received for s in flow_stats) * 8 / sim_time_s / 1000.0,
        delivery_ratio=received / sent if sent else None,
        mean_delay_ms=sum(delays) / len(delays) if delays else None,
        mean_rtt_ms=sum(rtts) / len(rtts) if rtts else None,
    )


def _mismatch(column: str, cell: str, value: Optional[float]) -> Optional[str]:
    if value is None:
        return None if cell == "" else f"{column} is {cell!r}, expected empty"
    try:
        shown = float(cell)
    except ValueError:
        return f"{column} is {cell!r}, expected {value:.6f}"
    if abs(shown - value) > TOLERANCE * max(1.0, abs(value)):
        return f"{column} is {cell}, recomputed {value:.6f}"
    return None


def check_phase_row(row: Dict[str, str], result, facts: CellFacts,
                    protocol: str) -> List[str]:
    """Checks every phase row must pass; protocol is the row expected here."""
    errors = []
    if row["protocol"] != protocol or row["scenario"] != facts.scenario:
        errors.append(f"row is {row['scenario']} {row['protocol']}, expected "
                      f"{facts.scenario} {protocol}")
    if row["n_nodes"] != str(facts.n_nodes):
        errors.append(f"n_nodes is {row['n_nodes']}, topology has {facts.n_nodes}")

    for i, st in enumerate(result.flow_stats):
        accounted = st.packets_received_at_gateway + st.drops_retry + st.in_flight_at_end
        if st.packets_sent != accounted:
            errors.append(f"flow {i}: sent {st.packets_sent} != received + retry "
                          f"drops + in flight = {accounted}")
        hops = facts.flow_hops[i] if i < len(facts.flow_hops) else None
        if hops is None:
            errors.append(f"flow {i}: endpoints unreachable on comm_adjacency")
            continue
        floor_ms = hops * facts.data_air_ms
        for kind, samples in (("delay", st.e2e_delays), ("RTT", st.rtt_samples)):
            if samples and min(samples) < floor_ms * (1.0 - 1e-9):
                errors.append(f"flow {i}: {kind} sample {min(samples):.6f} ms below "
                              f"{hops} hops x {facts.data_air_ms:.6f} ms airtime")

    cfg = facts.config
    want = recompute(result.flow_stats, cfg.sim_time_s)
    for column, value in (("throughput_kbps", want.throughput_kbps),
                          ("delivery_ratio", want.delivery_ratio),
                          ("mean_delay_ms", want.mean_delay_ms),
                          ("mean_rtt_ms", want.mean_rtt_ms)):
        problem = _mismatch(column, row[column], value)
        if problem:
            errors.append(problem)
    cap_kbps = cfg.data_rate_bps * cfg.radios_per_node / 1000.0
    if want.throughput_kbps > cap_kbps:
        errors.append(f"gateway throughput {want.throughput_kbps:.6f} kbps above "
                      f"data_rate_bps x radios_per_node = {cap_kbps:.6f} kbps")

    if protocol == "aodv_hop" and row["n_hops"] != str(facts.flow_hops[0]):
        errors.append(f"n_hops is {row['n_hops'] or 'empty'}, shortest hop count "
                      f"is {facts.flow_hops[0]}")
    return errors


def check_cor_row(row: Dict[str, str], baseline, rerouted, sim_time_s: float) -> List[str]:
    """cor is baseline over rerouted throughput, and the label means what it says."""
    before = recompute(rerouted.flow_stats, sim_time_s).throughput_kbps
    after = recompute(baseline.flow_stats, sim_time_s).throughput_kbps
    cor = after / before if before > 0 else 0.0   # 0 when the rerouted run moved nothing
    errors = []
    problem = _mismatch("cor", row["cor"], cor)
    if problem:
        errors.append(problem)
    label = row["collision_class"]
    if label in LABEL_MEANS:
        meaning, holds = LABEL_MEANS[label]
        if not holds(cor):
            errors.append(f"labelled {label} at cor {cor:.6f}; the README's "
                          f"{label} means {meaning}")
    return errors


def median_row_errors(median_row: Dict[str, str], cell_rows, cell_results,
                      sim_time_s: float) -> List[str]:
    """A sweep median row against statistics.median of its cell rows."""
    if not cell_rows:
        return ["median row has no cell rows"]
    want = [recompute(r.flow_stats, sim_time_s) for r in cell_results]

    def med(values):
        values = [v for v in values if v is not None]
        return statistics.median(values) if values else None

    cors = []
    if cell_rows[0]["protocol"] == "corciar":
        cors = [float(row["cor"]) for row in cell_rows]
    expected = {
        "n_nodes": med([float(row["n_nodes"]) for row in cell_rows]),
        "n_hops": med([float(row["n_hops"]) for row in cell_rows if row["n_hops"]]),
        "throughput_kbps": med([w.throughput_kbps for w in want]),
        "delivery_ratio": med([w.delivery_ratio for w in want]),
        "mean_delay_ms": med([w.mean_delay_ms for w in want]),
        "mean_rtt_ms": med([w.mean_rtt_ms for w in want]),
        "cor": med(cors),
    }
    errors = []
    if median_row["scenario"] != cell_rows[0]["scenario"] \
            or median_row["protocol"] != f"{cell_rows[0]['protocol']}=median:":
        errors.append(f"median row {median_row['scenario']} {median_row['protocol']} "
                      f"out of place")
    for column, value in expected.items():
        problem = _mismatch(column, median_row[column], value)
        if problem:
            errors.append("median " + problem)
    return errors


def same_run_errors(row: Dict[str, str], swept, single, single_report) -> List[str]:
    """A sweep cell row against a separate single-cell run of the same cell."""
    errors = []
    if swept.trace_hash != single.trace_hash:
        errors.append("trace hash differs from a single-cell run of the same "
                      "config and seed")
    s = single.summary
    for column, value in (("throughput_kbps", s.throughput_kbps),
                          ("delivery_ratio", s.delivery_ratio),
                          ("mean_delay_ms", s.mean_e2e_delay_ms),
                          ("mean_rtt_ms", s.mean_rtt_ms),
                          ("n_hops", single.n_hops),
                          ("cor", single_report.cor if single_report else None)):
        problem = _mismatch(column, row[column], value)
        if problem:
            errors.append("single-cell run differs: " + problem)
    label = single_report.collision_class.value if single_report else ""
    if row["collision_class"] != label:
        errors.append(f"single-cell run differs: collision_class {label!r}")
    return errors


class PhaseHasher:
    """Trace sink: sha256 of each phase's lines, a phase ending at SimEnd.

    Accepts the lines a Sim writes to its trace file, or the lines of a
    trace file read back in binary.
    """

    def __init__(self):
        self.hashes: List[str] = []
        self._sha = hashlib.sha256()
        self._open = False

    def write(self, line):
        data = line.encode() if isinstance(line, str) else line
        self._sha.update(data)
        self._open = True
        if b" SimEnd " in data:
            self.hashes.append(self._sha.hexdigest())
            self._sha = hashlib.sha256()
            self._open = False

    def finish(self) -> List[str]:
        if self._open:
            raise ValueError("trace ends inside a phase (no SimEnd line)")
        return self.hashes


def trace_file_hashes(path) -> List[str]:
    hasher = PhaseHasher()
    with open(path, "rb") as fh:
        for line in fh:
            hasher.write(line)
    return hasher.finish()
