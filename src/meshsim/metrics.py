"""Run-level evaluation: throughput, delivery, delay and RTT means, and the
coefficient-of-restitution comparison between a baseline run and a
re-routed run.

The restitution ratio divides the baseline throughput by the re-routed
throughput, so values fall in [0, 1] when re-routing wins; 1 means the
reroute changed nothing (perfectly elastic), 0 means the baseline moved no
traffic at all, and above 1 means re-routing lost throughput (a regression).
A re-routed run that moved nothing while the baseline moved traffic has no
finite ratio: it is a regression with no cor.

`FlowStats.e2e_delays` and `FlowStats.rtt_samples` are `array("d")`
series, 8 bytes a sample, appended in the order the samples are taken: a
sweep's rows keep every sample until their CSV is written, and a forked
worker pickles each series as one block of doubles.  Compare them with
`list(...)`, not with `== [...]`, since an array never equals a list.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass, field
from statistics import fmean
from typing import Optional, Sequence


@dataclass
class FlowStats:
    packets_sent: int = 0
    packets_received_at_gateway: int = 0
    bytes_received: int = 0
    e2e_delays: array = field(default_factory=lambda: array("d"))    # ms
    rtt_samples: array = field(default_factory=lambda: array("d"))   # ms
    # DATA copies a hop could not queue: no route, no channel shared with
    # the next hop, or no room in the queue
    drops_queue: int = 0
    drops_retry: int = 0
    in_flight_at_end: int = 0


@dataclass
class RunSummary:
    throughput_kbps: float
    delivery_ratio: Optional[float]
    mean_e2e_delay_ms: Optional[float]
    mean_rtt_ms: Optional[float]
    protocol_label: str

    def __post_init__(self):
        if self.delivery_ratio is not None and not 0.0 <= self.delivery_ratio <= 1.0:
            raise ValueError(f"delivery ratio {self.delivery_ratio} outside [0, 1]")
        if self.throughput_kbps < 0:
            raise ValueError("throughput must be nonnegative")


class CollisionClass(enum.Enum):
    PERFECTLY_ELASTIC = "PerfectlyElastic"
    PARTIALLY_ELASTIC = "PartiallyElastic"
    INELASTIC = "Inelastic"
    REGRESSION = "Regression"       # cor > 1: rerouting lost throughput


@dataclass
class CorReport:
    cor: Optional[float]            # None: only the baseline moved traffic
    collision_class: CollisionClass


def cor(after_throughput: float, before_throughput: float) -> Optional[float]:
    """Restitution ratio: baseline ("after the drop") over re-routed throughput.
    0.0 when neither run moved traffic; None when only the baseline did."""
    if before_throughput <= 0:
        return 0.0 if after_throughput <= 0 else None
    return after_throughput / before_throughput


def classify_collision(cor_value: float) -> CollisionClass:
    if cor_value < 0:
        raise ValueError("cor must be nonnegative")
    if cor_value > 1.0:
        return CollisionClass.REGRESSION
    if cor_value == 1.0:
        return CollisionClass.PERFECTLY_ELASTIC
    if cor_value == 0.0:
        return CollisionClass.INELASTIC
    return CollisionClass.PARTIALLY_ELASTIC


def make_cor_report(baseline_kbps: float, rerouted_kbps: float) -> CorReport:
    ratio = cor(baseline_kbps, rerouted_kbps)
    # None: only the baseline moved traffic, so rerouting lost all of it
    return CorReport(
        cor=ratio,
        collision_class=(CollisionClass.REGRESSION if ratio is None
                         else classify_collision(ratio)),
    )


def summarize(stats_per_flow: Sequence[FlowStats], duration: float,
              protocol_label: str) -> RunSummary:
    if duration <= 0:
        raise ValueError("duration must be positive")
    total_sent = sum(s.packets_sent for s in stats_per_flow)
    total_received = sum(s.packets_received_at_gateway for s in stats_per_flow)
    total_bytes = sum(s.bytes_received for s in stats_per_flow)
    delays = [d for s in stats_per_flow for d in s.e2e_delays]
    rtts = [r for s in stats_per_flow for r in s.rtt_samples]
    return RunSummary(
        throughput_kbps=total_bytes * 8 / duration / 1000,
        delivery_ratio=(total_received / total_sent) if total_sent > 0 else None,
        mean_e2e_delay_ms=fmean(delays) if delays else None,
        mean_rtt_ms=fmean(rtts) if rtts else None,
        protocol_label=protocol_label,
    )
