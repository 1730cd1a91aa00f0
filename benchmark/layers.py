"""Per-layer timers and counters for the traced run.

The tracer wraps public functions of each meshsim module at the names its
callers look them up by (the engine imports routing and topology functions
into its own namespace, the command line imports the experiment functions),
so nothing under src/ changes.  A timed wrapper records calls, total time
and self time (its duration minus the durations of timed wrappers entered
inside it); a counted wrapper, used on the hottest calls, records calls and
optionally a verdict.  No wrapper draws from the program's RNG or schedules
anything, so a traced run dispatches the same events as an untraced one; the
benchmark checks that by comparing trace hashes.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Tuple

# (name, unit) of every per-layer metric the traced run reports, in the
# order of the benchmark's README table.
PER_LAYER = (
    ("config.parse_s", "s"),
    ("topology.build_s", "s"),
    ("topology.build_calls", "count"),
    ("topology.distance_calls", "count"),
    ("engine.run_s", "s"),
    ("engine.loop_self_s", "s"),
    ("engine.events", "count"),
    ("engine.events_per_s", "events/s"),
    ("engine.schedule_calls", "count"),
    ("engine.medium.carrier_busy_calls", "count"),
    ("engine.medium.carrier_busy_s", "s"),
    ("engine.medium.busy_ratio", "ratio"),
    ("engine.medium.corrupted_calls", "count"),
    ("engine.medium.corrupted_s", "s"),
    ("engine.medium.corrupted_receptions", "count"),
    ("engine.medium.clean_ratio", "ratio"),
    ("mac.enqueue_calls", "count"),
    ("mac.queue_drops", "count"),
    ("mac.frames_released", "count"),
    ("mac.backoff_busy", "count"),
    ("mac.rts_decisions", "count"),
    ("mac.rts_defer", "count"),
    ("mac.rts_to_data_ratio", "ratio"),
    ("mac.discards", "count"),
    ("routing.discover_calls", "count"),
    ("routing.discover_s", "s"),
    ("routing.hello_processed", "count"),
    ("routing.cumulative_rtt_s", "s"),
    ("routing.lookup_calls", "count"),
    ("routing.estimator_updates", "count"),
    ("routing.route_misses", "count"),
    ("routing.hello_queue_drops", "count"),
    ("experiment.cells", "count"),
    ("experiment.cell_s_p50", "s"),
    ("cli.self_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans: Dict[str, List] = {}        # name -> [calls, total_s, self_s]
        self.cell_durations: List[float] = []   # each experiment.execute call
        self.counts: Counter = Counter()
        self._open: List[float] = []            # time spent in children, per open span

    def timed(self, name, fn, verdict=None, durations=None):
        """Wrap fn in a span; verdict(args, result) names a count to bump,
        and each call's duration is appended to durations when given."""
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        open_spans, counts, clock = self._open, self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = open_spans.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if durations is not None:
                    durations.append(elapsed)
                if open_spans:
                    open_spans[-1] += elapsed
            if verdict is not None:
                counts[verdict(args, result)] += 1
            return result
        return wrapper

    def counted(self, name, fn, verdict=None):
        """Count calls of fn without timing them (for the hottest calls)."""
        counts = self.counts
        if verdict is None:
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[name] += 1
                counts[verdict(args, result)] += 1
                return result
        return wrapper

    def span(self, name) -> Tuple[int, float, float]:
        calls, total, self_s = self.spans.get(name, (0, 0.0, 0.0))
        return calls, total, self_s

    def summary(self) -> Dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.spans.items())},
            "counts": dict(sorted(self.counts.items())),
        }


def _patches(tracer: Tracer):
    from meshsim import cli, engine, experiment, mac, routing, topology

    Sim = engine.Sim
    t = tracer
    original_rts_handler = vars(engine)["rts_handler"]

    def rts_handler(traffic_class):
        return t.counted("mac.rts_decide", original_rts_handler(traffic_class),
                         verdict=lambda a, r: "mac.rts_decide:" + r.value)

    def own(obj, name):
        return vars(obj)[name]

    return [
        (cli, "main", t.timed("cli.main", own(cli, "main"))),
        (cli, "parse_config", t.timed("config.parse_config", own(cli, "parse_config"))),
        (cli, "execute", t.timed("experiment.execute", own(cli, "execute"),
                                 durations=t.cell_durations)),
        (cli, "sweep", t.timed("experiment.sweep", own(cli, "sweep"))),
        (experiment, "execute", t.timed("experiment.execute", own(experiment, "execute"),
                                        durations=t.cell_durations)),
        (experiment, "make_cor_report",
         t.counted("metrics.make_cor_report", own(experiment, "make_cor_report"))),
        (engine, "build_topology",
         t.timed("topology.build_topology", own(engine, "build_topology"))),
        (topology.Topology, "distance",
         t.counted("topology.distance", own(topology.Topology, "distance"))),
        (Sim, "__init__", t.timed("engine.Sim.__init__", own(Sim, "__init__"))),
        (Sim, "run", t.timed("engine.run", own(Sim, "run"))),
        (Sim, "schedule", t.counted("engine.schedule", own(Sim, "schedule"))),
        (Sim, "carrier_busy", t.timed(
            "engine.medium.carrier_busy", own(Sim, "carrier_busy"),
            verdict=lambda a, r: "engine.medium.carrier_busy:" + ("busy" if r[0] else "idle"))),
        (Sim, "corrupted", t.timed(
            "engine.medium.corrupted", own(Sim, "corrupted"),
            verdict=lambda a, r: "engine.medium.corrupted:" + ("corrupt" if r else "clean"))),
        (engine, "summarize", t.timed("metrics.summarize", own(engine, "summarize"))),
        (engine, "aodv_discover", t.timed("routing.aodv_discover", own(engine, "aodv_discover"))),
        (engine, "cumulative_rtt", t.timed("routing.cumulative_rtt", own(engine, "cumulative_rtt"))),
        (engine, "process_hello", t.counted("routing.process_hello", own(engine, "process_hello"))),
        (routing.RouteTable, "lookup",
         t.counted("routing.RouteTable.lookup", own(routing.RouteTable, "lookup"))),
        (routing.RttEstimator, "update",
         t.counted("routing.RttEstimator.update", own(routing.RttEstimator, "update"))),
        (engine, "rts_handler", rts_handler),
        (mac.MacRadioState, "enqueue", t.counted(
            "mac.enqueue", own(mac.MacRadioState, "enqueue"),
            verdict=lambda a, r: "mac.enqueue:" + r.value)),
        (mac.MacRadioState, "release_head_to_medium", t.counted(
            "mac.release_head_to_medium", own(mac.MacRadioState, "release_head_to_medium"))),
        (mac.BackoffState, "next", t.counted(
            "mac.backoff", own(mac.BackoffState, "next"),
            verdict=lambda a, r: "mac.backoff:" + a[1].value)),
        (mac, "separation", t.counted("channel.separation", own(mac, "separation"))),
    ]


@contextmanager
def instrumented(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    saved = []
    try:
        for obj, name, wrapper in _patches(tracer):
            saved.append((obj, name, vars(obj)[name]))
            setattr(obj, name, wrapper)
        yield tracer
    finally:
        for obj, name, original in reversed(saved):
            setattr(obj, name, original)


def layer_metrics(tracer: Tracer, results, untraced_run_s: float) -> Dict[str, float]:
    """The PER_LAYER figures of one traced round.

    results are the SimResults of every phase the round ran; events/s is
    taken against the untraced round's wall time, so timer overhead does not
    depress it.
    """
    c = tracer.counts

    def calls(name):
        return tracer.span(name)[0]

    def total(name):
        return tracer.span(name)[1]

    def ratio(num, den):
        return num / den if den else 0.0

    def counter(key):
        return sum(r.counters.get(key, 0) for r in results)

    events = sum(r.dispatched_events for r in results)
    busy_calls = calls("engine.medium.carrier_busy")
    corrupted_calls = calls("engine.medium.corrupted")
    released = c["mac.release_head_to_medium"]
    cells = tracer.cell_durations
    values = {
        "config.parse_s": total("config.parse_config"),
        "topology.build_s": total("topology.build_topology"),
        "topology.build_calls": calls("topology.build_topology"),
        "topology.distance_calls": c["topology.distance"],
        "engine.run_s": total("engine.run"),
        "engine.loop_self_s": tracer.span("engine.run")[2],
        "engine.events": events,
        "engine.events_per_s": ratio(events, untraced_run_s),
        "engine.schedule_calls": c["engine.schedule"],
        "engine.medium.carrier_busy_calls": busy_calls,
        "engine.medium.carrier_busy_s": total("engine.medium.carrier_busy"),
        "engine.medium.busy_ratio": ratio(c["engine.medium.carrier_busy:busy"], busy_calls),
        "engine.medium.corrupted_calls": corrupted_calls,
        "engine.medium.corrupted_s": total("engine.medium.corrupted"),
        "engine.medium.corrupted_receptions": sum(r.corrupted_receptions for r in results),
        "engine.medium.clean_ratio": ratio(c["engine.medium.corrupted:clean"], corrupted_calls),
        "mac.enqueue_calls": c["mac.enqueue"],
        "mac.queue_drops": c["mac.enqueue:DroppedQueueFull"],
        "mac.frames_released": released,
        "mac.backoff_busy": c["mac.backoff:Busy"],
        "mac.rts_decisions": c["mac.rts_decide"],
        "mac.rts_defer": c["mac.rts_decide:Defer"],
        "mac.rts_to_data_ratio": ratio(released, c["engine.medium.carrier_busy:idle"]),
        "mac.discards": counter("mac_discards"),
        "routing.discover_calls": calls("routing.aodv_discover"),
        "routing.discover_s": total("routing.aodv_discover"),
        "routing.hello_processed": c["routing.process_hello"],
        "routing.cumulative_rtt_s": total("routing.cumulative_rtt"),
        "routing.lookup_calls": c["routing.RouteTable.lookup"],
        "routing.estimator_updates": c["routing.RttEstimator.update"],
        "routing.route_misses": counter("route_misses"),
        "routing.hello_queue_drops": counter("hello_queue_drops"),
        "experiment.cells": len(cells),
        "experiment.cell_s_p50": statistics.median(cells) if cells else 0.0,
        "cli.self_s": tracer.span("cli.main")[2],
    }
    return {name: values[name] for name, _ in PER_LAYER}
