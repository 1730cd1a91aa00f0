"""Host time expressed in reference seconds.

The benchmark's host is a few cores of a shared machine whose speed swings
by up to 2x within seconds: identical rounds of one workload took from 1.2 s
to 2.5 s in one process, with CPU time tracking wall time, so the slowdown
is not time spent descheduled and no statistic of plain wall times held
still between runs.  While a ReferenceClock is open, a fixed probe (a small
pure-Python event loop, code of the benchmark's own that calls nothing in
meshsim) runs every PROBE_INTERVAL_S from a SIGALRM handler, in the timed
process itself, and its thread CPU time tells how fast the host is at that
moment.  A span of host work then converts to reference seconds: its wall
time less the probes run inside it, times PROBE_REF_S over the probe time,
averaged over the probes run during the span and a short margin around it.
A reference second is the time the same work takes on a host that runs the
probe in PROBE_REF_S.

The probes draw from no RNG of the program and schedule nothing in it; a
signal handler runs between bytecodes of the main thread, so the program
computes what it would without them (the benchmark's determinism checks
hold the CSV and trace hashes of every round to the first).
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from dataclasses import dataclass
from typing import List

PROBE_INTERVAL_S = 0.05
# the probe's median thread CPU time on the 2-CPU machine whose figures the
# README gives; reference seconds there read close to wall seconds
PROBE_REF_S = 0.002
# probes started this long before or after a span also set its host speed,
# so spans shorter than the probe interval have some
MARGIN_S = 0.1
PROBE_STEPS = 800


class _Station:
    __slots__ = ("busy_until", "backlog", "sent")

    def __init__(self):
        self.busy_until = 0.0
        self.backlog = []
        self.sent = 0


def probe(steps: int = PROBE_STEPS) -> int:
    """A fixed amount of interpreter work shaped like a discrete-event loop:
    heap pops and pushes, attribute and dict access, float arithmetic and
    string formatting.  Returns a value that depends on all of it."""
    stations = [_Station() for _ in range(50)]
    heap = [(i * 0.001, i, i % 50) for i in range(200)]
    heapq.heapify(heap)
    seq, x, table, digest = 200, 12345, {}, 0
    for _ in range(steps):
        t, _, k = heapq.heappop(heap)
        station = stations[k]
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        d = (x % 1000) / 1e5
        if station.busy_until > t:
            station.backlog.append(d)
        else:
            station.busy_until = t + d
            station.sent += 1
            if station.backlog:
                station.backlog.pop()
        key = (k, x & 63)
        table[key] = table.get(key, 0) + 1
        if seq & 15 == 0:
            digest ^= hash(f"{t:.6f} {k} {station.sent}")
        heapq.heappush(heap, (t + d + 0.0001, seq, (k + x) % 50))
        seq += 1
    return digest ^ len(table)


@dataclass(frozen=True)
class Probe:
    start: float        # perf_counter when it began
    wall_s: float
    cpu_s: float        # thread CPU time


class ReferenceClock:
    """Runs the probe every PROBE_INTERVAL_S while open; converts spans of
    perf_counter time taken meanwhile to reference seconds."""

    def __init__(self):
        self.probes: List[Probe] = []
        self._previous = None
        self._probing = False

    def _run_probe(self, *_):
        if self._probing:           # a late signal inside a probe: skip it
            return
        self._probing = True
        try:
            start, cpu = time.perf_counter(), time.thread_time()
            probe()
            self.probes.append(Probe(start, time.perf_counter() - start,
                                     time.thread_time() - cpu))
        finally:
            self._probing = False

    def __enter__(self):
        self._run_probe()           # every span has a probe before it
        self._previous = signal.signal(signal.SIGALRM, self._run_probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._run_probe()           # and one after it
        return False

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the work done between two perf_counter
        readings taken while the clock was open; call after closing it."""
        inside = [p for p in self.probes if start <= p.start < end]
        near = [p for p in self.probes if start - MARGIN_S <= p.start < end + MARGIN_S]
        if not near:                # the nearest probe on either side
            before = [p for p in self.probes if p.start < start]
            after = [p for p in self.probes if p.start >= end]
            near = before[-1:] + after[:1]
        own_s = end - start - sum(p.wall_s for p in inside)
        return own_s * statistics.mean(PROBE_REF_S / p.cpu_s for p in near)
