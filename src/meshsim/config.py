"""Scenario configuration: line-oriented `key = value` text with `#`
comments, validated exhaustively so a typo can never silently change an
experiment.  Every invalid line is reported with its line number; parsing
either returns a complete config or raises with the full error list.

Each key is declared once, as a field of ScenarioConfig whose metadata holds
its parser (with the range check and the exact error text), its canonical
text form and its one-line doc.  Parsing, serialization, the README key
table and the command line's seed flags all follow those declarations.
The rules that tie keys together live in ScenarioConfig.__post_init__, so
every config meets them however it was built.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

from .channel import ALL_CHANNELS, CHANNEL_MAX, CHANNEL_MIN
from .mac import LONGEST_FIXED_BYTES

VALID_RTS_MODES = ("symmetric", "literal")
VALID_TRAFFIC_CLASSES = ("qos", "delay_tolerant")
VALID_PROTOCOLS = ("aodv_hop", "corciar", "both")
NAMED_CHANNEL_PLANS = ("orthogonal", "overlapping", "pcl")

# ASCII numerals only: in a str pattern \d matches every script's digits.
_TOPOLOGY_RE = re.compile(r"^(chain|random)\((\d+)(?:\s*,\s*(\d+))?\)$|^mesh8$", re.ASCII)
_EXPLICIT_PLAN_RE = re.compile(r"^\d+(?:\s*,\s*\d+)*(?:\s*;\s*\d+(?:\s*,\s*\d+)*)*$",
                               re.ASCII)


class ConfigError(ValueError):
    def __init__(self, errors: List[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class TopologySpec:
    kind: str                      # "chain" | "random" | "mesh8"
    n: int = 0
    placement_seed: Optional[int] = None

    def label(self) -> str:
        if self.kind == "mesh8":
            return "mesh8"
        if self.kind == "random" and self.placement_seed is not None:
            return f"random({self.n},{self.placement_seed})"
        return f"{self.kind}({self.n})"


# Value parsers: each takes the stripped text and the key name, returns the
# parsed value or raises ConfigError with the exact user-facing message, to
# which parse_config prefixes its line number.

def integer(minimum=None, maximum=None):
    def parse(raw: str, key: str) -> int:
        try:
            if re.match(r"^[+-]?\d+$", raw, re.ASCII) is None:
                raise ValueError
            value = int(raw)
        except ValueError:
            raise ConfigError([f"{key} must be an integer, got {raw!r}"]) from None
        if minimum is not None and value < minimum:
            raise ConfigError([f"{key} must be >= {minimum}, got {value}"])
        if maximum is not None and value > maximum:
            raise ConfigError([f"{key} must be <= {maximum}, got {value}"])
        return value
    return parse


def _number(unit: str = "", reject=None, requirement: str = ""):
    """A finite float; reject(value) true means the value breaks `requirement`."""
    def parse(raw: str, key: str) -> float:
        try:
            if not raw.isascii() or "_" in raw:     # float() takes both
                raise ValueError
            value = float(raw)
        except ValueError:
            raise ConfigError([f"{key} must be a number{unit}, got {raw!r}"]) from None
        if not math.isfinite(value):
            raise ConfigError([f"{key} must be a finite number{unit}, got {raw!r}"])
        if reject is not None and reject(value):
            raise ConfigError([f"{key} must be {requirement}"])
        return value
    return parse


def _one_of(choices: Tuple[str, ...]):
    def parse(raw: str, key: str) -> str:
        if raw not in choices:
            raise ConfigError([f"{key} must be one of {choices}"])
        return raw
    return parse


def _topology(raw: str, key: str) -> TopologySpec:
    m = _TOPOLOGY_RE.match(raw)
    if not m:
        raise ConfigError([f"{key} must be chain(n), random(n[, seed]), "
                           f"or mesh8, got {raw!r}"])
    if raw == "mesh8":
        return TopologySpec(kind="mesh8", n=8)
    kind, n_text, seed_text = m.group(1), m.group(2), m.group(3)
    n = int(n_text)
    if n < 2:
        raise ConfigError([f"{key} needs at least 2 nodes, got {n}"])
    if kind == "chain" and seed_text is not None:
        raise ConfigError(["chain(n) takes no seed argument"])
    return TopologySpec(kind=kind, n=n,
                        placement_seed=int(seed_text) if seed_text else None)


def _channel_plan(raw: str, key: str) -> str:
    if raw in NAMED_CHANNEL_PLANS:
        return raw
    if not _EXPLICIT_PLAN_RE.match(raw):
        raise ConfigError([f"{key} must be one of "
                           f"{'/'.join(NAMED_CHANNEL_PLANS)} or an explicit "
                           f"semicolon-separated per-node list like 1,6;6,11"])
    for node, group in enumerate(raw.split(";")):
        listed = set()
        for ch_text in group.split(","):
            ch = int(ch_text)
            if not CHANNEL_MIN <= ch <= CHANNEL_MAX:
                raise ConfigError([f"channel {ch} outside {CHANNEL_MIN}..{CHANNEL_MAX}"])
            if ch in listed:
                raise ConfigError([f"node {node} channel group lists channel {ch} twice"])
            listed.add(ch)
    return re.sub(r"\s+", "", raw)


def _flows(raw: str, key: str) -> Tuple[Tuple[int, int], ...]:
    if raw == "auto":
        return ()
    flows = []
    for part in raw.split(","):
        part = part.strip()
        m = re.match(r"^(\d+)\s*>\s*(\d+)$", part, re.ASCII)
        if not m:
            raise ConfigError([f"flow {part!r} must look like src>dst"])
        src, dst = int(m.group(1)), int(m.group(2))
        if src == dst:
            raise ConfigError([f"flow source {src} equals its destination"])
        flows.append((src, dst))
    return tuple(flows)


def _show_flows(flows: Tuple[Tuple[int, int], ...]) -> str:
    return "auto" if not flows else ", ".join(f"{s}>{d}" for s, d in flows)


_channel_number = integer(CHANNEL_MIN, CHANNEL_MAX)


def _channel_or_none(raw: str, key: str) -> Optional[int]:
    return None if raw == "none" else _channel_number(raw, key)


def _show_channel_or_none(channel: Optional[int]) -> str:
    return "none" if channel is None else str(channel)


def _key(default, parse, doc: str, show=str):
    """Declare one scenario key: its default, its parser (which also range
    checks and words the error), its canonical text form and its README line."""
    return field(default=default, metadata={"parse": parse, "show": show, "doc": doc})


_SECONDS = " (seconds)"


@dataclass(frozen=True)
class ScenarioConfig:
    """Every scenario key with its default, in canonical order."""

    topology: TopologySpec = _key(
        TopologySpec(kind="chain", n=6), _topology,
        "node layout: `chain(n)`, `random(n[, seed])`, or `mesh8`, the built-in "
        "8-node mesh", show=TopologySpec.label)
    radios_per_node: int = _key(
        2, integer(1, len(ALL_CHANNELS)),
        f"radios fitted to every node, 1 to {len(ALL_CHANNELS)}; `mesh8` needs 2")
    channel_plan: str = _key(
        "orthogonal", _channel_plan,
        "how initial channels are assigned: `orthogonal`, `overlapping`, `pcl`, "
        "or an explicit per-node list like `1,6;6,11`, each node's channels "
        "distinct; `mesh8` takes `orthogonal` (its own fixed channels) or `pcl`")
    rts_mode: str = _key(
        "symmetric", _one_of(VALID_RTS_MODES),
        "`symmetric` grants by channel separation; `literal` reproduces the exact "
        "pseudocode equalities")
    traffic_class: str = _key(
        "qos", _one_of(VALID_TRAFFIC_CLASSES),
        "`qos` (separation >= 5) or `delay_tolerant` (>= 4)")
    protocol: str = _key(
        "both", _one_of(VALID_PROTOCOLS),
        "which routing phase(s) to run: `aodv_hop`, `corciar`, or `both`")
    sim_time_s: float = _key(
        100.0, _number(_SECONDS, lambda v: v < 0, ">= 0 seconds"),
        "simulated duration in seconds; `0` is an inert run")
    packet_size_bytes: int = _key(
        1000, integer(1, 2**50),
        "size of a data frame on the air, in bytes; at most `2**50`, so every bit "
        "count is an exact float")
    data_rate_bps: float = _key(
        1_000_000.0, _number(" (bits/second)", lambda v: v <= 0, "positive"),
        "radio bit rate in bits/second; the longest frame's airtime must be finite")
    delta: float = _key(
        0.125, _number(reject=lambda v: not 0.0 < v < 1.0, requirement="in (0,1)"),
        "RTT estimator smoothing weight")
    theta: float = _key(
        0.1, _number(reject=lambda v: not 0.0 <= v <= 1.0, requirement="in [0,1]"),
        "interference factor above which a reception corrupts")
    window: int = _key(4, integer(1), "transport send window in packets")
    queue_capacity: int = _key(50, integer(1), "per-radio FIFO depth")
    flows: Tuple[Tuple[int, int], ...] = _key(
        (), _flows, "`src>dst` pairs, comma separated; `auto` picks defaults",
        show=_show_flows)
    seed: int = _key(1, integer(0), "RNG seed (override per run with `--seed`)")
    jammer_channel: Optional[int] = _key(
        None, _channel_or_none, "channel of a periodic jammer; `none` means no jammer",
        show=_show_channel_or_none)
    jammer_x: float = _key(0.0, _number(" (meters)"), "jammer x position in meters")
    jammer_y: float = _key(0.0, _number(" (meters)"), "jammer y position in meters")
    jammer_on_s: float = _key(
        0.080, _number(_SECONDS, lambda v: v <= 0, "positive seconds"),
        "jammer on time per period, seconds; with a jammer, at least "
        "`math.ulp(sim_time_s)` (the float spacing at the run's last instant), "
        "and on plus off time must be a finite number")
    jammer_off_s: float = _key(
        0.010, _number(_SECONDS, lambda v: v <= 0, "positive seconds"),
        "jammer silent time per period, seconds")

    def __post_init__(self):
        """Checked on every construction: parse_config, the seed flags, sweep
        cells and direct calls alike.  Every airtime must be finite, and a
        jammer schedule must be one the float clock resolves: a finite
        period, and an on-period no shorter than the float spacing at
        sim_time_s, so the cycle of every instant of the run is exact."""
        errors = []
        bits = max(self.packet_size_bytes, LONGEST_FIXED_BYTES) * 8
        if not (self.data_rate_bps > 0 and math.isfinite(bits / self.data_rate_bps)):
            errors.append(f"data_rate_bps must give the longest frame, {bits} bits, "
                          f"a finite airtime, got {self.data_rate_bps!r}")
        jammer = self.jammer_channel is not None
        if jammer and not math.isfinite(self.jammer_on_s + self.jammer_off_s):
            errors.append(f"jammer_on_s + jammer_off_s must be a finite number, "
                          f"got {self.jammer_on_s!r} + {self.jammer_off_s!r}")
        spacing = math.ulp(self.sim_time_s)
        if jammer and self.jammer_on_s < spacing:
            errors.append(f"jammer_on_s must be >= {spacing!r}, the float spacing "
                          f"at sim_time_s = {self.sim_time_s!r}, got {self.jammer_on_s!r}")
        if errors:
            raise ConfigError(errors)


_KEYS = {f.name: f for f in fields(ScenarioConfig)}


def parse_value(key: str, raw: str):
    """One value of a declared key, checked by the key's own parser; raises
    ConfigError carrying that parser's message."""
    return _KEYS[key].metadata["parse"](raw.strip(), key)


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate; raises ConfigError carrying every problem found."""
    errors: List[str] = []
    updates = {}
    seen = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value, got {raw_line.strip()!r}")
            continue
        key, _, raw = line.partition("=")
        key = key.strip()
        if key in seen:
            errors.append(f"line {lineno}: duplicate key {key} (first set on line {seen[key]})")
            continue
        seen[key] = lineno
        if key not in _KEYS:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        try:
            updates[key] = parse_value(key, raw)
        except ConfigError as exc:
            errors.append(f"line {lineno}: {exc}")

    if errors:
        raise ConfigError(errors)
    return ScenarioConfig(**updates)


def serialize(config: ScenarioConfig) -> str:
    """Canonical text form, one line per key; parse_config(serialize(c)) == c."""
    return "".join(f"{f.name} = {f.metadata['show'](getattr(config, f.name))}\n"
                   for f in fields(config))
