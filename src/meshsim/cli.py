"""Command line front end: run one scenario, sweep an axis, or dump the
channel decision tables, all as byte-stable CSV.

Exit codes: 0 success, 1 configuration problem, 2 runtime fault inside the
simulator.  CSV goes to --out (default standard output); diagnostics go to
standard error so the data stream stays clean.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional, Sequence

from .channel import classify, interference_factor
from .config import ConfigError, ScenarioConfig, parse_config, parse_value
from .experiment import NUMERIC_COLUMNS, RunRow, execute, median_cells, sweep
from .mac import SimulationFault, handle_rts_delay_tolerant, handle_rts_qos
from .topology import BuildError

CSV_HEADER = ",".join(["scenario", "seed", "protocol",
                       *(name for name, _, _ in NUMERIC_COLUMNS), "collision_class"])

ROUTES_HEADER = "node,destination,next_hop,hop_count,rtt_cost_ms,expires_at"


def _fmt(value: Optional[float]) -> str:
    return "" if value is None else f"{value:.6f}"


def _fmt_count(value: Optional[float]) -> str:
    if value is None:
        return ""
    if float(value).is_integer():
        return str(int(value))
    return f"{value:g}"


def _cell(value: Optional[float], count: bool) -> str:
    return _fmt_count(value) if count else _fmt(value)


def _result_cells(row: RunRow) -> List[str]:
    return [row.scenario, str(row.seed), row.protocol,
            *(_cell(value(row), count) for _, value, count in NUMERIC_COLUMNS),
            "" if row.cor_report is None else row.cor_report.collision_class.value]


def _write_rows(out, lines: Sequence[str]):
    for line in lines:
        out.write(line + "\n")


def _load_config(path: Optional[str], seed: Optional[str]) -> ScenarioConfig:
    if path is None:
        text = ""
    else:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    config = parse_config(text)
    if seed is not None:
        config = dataclasses.replace(config, seed=parse_value("seed", seed))
    return config


def _config_error(exc: Exception) -> int:
    """Report a configuration problem on standard error: each message of a
    ConfigError, the exception's text otherwise.  Returns exit code 1."""
    for message in exc.errors if isinstance(exc, ConfigError) else [exc]:
        print(f"config error: {message}", file=sys.stderr)
    return 1


def _distinct(flag: str, values: List[int]) -> List[int]:
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{flag} lists {value} more than once")
    return values


def _parse_seeds(text: str) -> List[int]:
    """A seed range `lo..hi` or a comma list, each seed checked as the
    config's `seed` key checks it."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(parse_value("seed", lo), parse_value("seed", hi) + 1))
    return _distinct("--seeds", [parse_value("seed", part)
                                 for part in text.split(",") if part.strip()])


def _parse_int_list(flag: str, text: str, minimum: int) -> List[int]:
    values = _distinct(flag, [int(part) for part in text.split(",") if part.strip()])
    for value in values:
        if value < minimum:
            raise ValueError(f"{flag} values must be >= {minimum}, got {value}")
    return values


def cmd_run(args) -> int:
    try:
        if args.config is not None and args.config_flag is not None:
            raise ConfigError(["give one config path: positional or --config, not both"])
        config = _load_config(args.config_flag or args.config, args.seed)
    except (ConfigError, OSError) as exc:
        return _config_error(exc)

    trace_file = None
    try:
        if args.trace:
            trace_file = open(args.trace, "w", encoding="utf-8")
        try:
            rows = execute(config, trace_file=trace_file)
        except BuildError as exc:
            return _config_error(exc)
        except SimulationFault as exc:
            print(f"runtime fault: {exc}", file=sys.stderr)
            return 2
    finally:
        if trace_file is not None:
            trace_file.close()

    lines = [CSV_HEADER] + [",".join(_result_cells(r)) for r in rows]
    _emit(args.out, lines)

    if args.dump_routes:
        route_lines = [ROUTES_HEADER]
        for node_id, entry in rows[-1].result.route_rows:
            route_lines.append(",".join([
                str(node_id), str(entry.destination), str(entry.next_hop),
                str(entry.hop_count), _fmt(entry.rtt_cost), _fmt(entry.expires_at),
            ]))
        with open(args.dump_routes, "w", encoding="utf-8") as fh:
            _write_rows(fh, route_lines)
    return 0


def cmd_sweep(args) -> int:
    if bool(args.hops) == bool(args.nodes):
        print("sweep needs exactly one of --hops or --nodes", file=sys.stderr)
        return 1
    try:
        config = _load_config(args.config_flag, None)
        seeds = _parse_seeds(args.seeds)
        # the least axis value that builds: a chain of hops + 1 nodes, or a
        # random topology of n nodes, needs 2 nodes
        axis, minimum = ("hops", 1) if args.hops else ("nodes", 2)
        values = _parse_int_list(f"--{axis}", args.hops or args.nodes, minimum)
    except (ConfigError, ValueError, OSError) as exc:
        return _config_error(exc)
    if not values or not seeds:
        print("sweep needs a nonempty axis and seed list", file=sys.stderr)
        return 1

    rows, failures = sweep(config, axis, values, seeds)
    for message in failures:
        print(f"sweep cell failed: {message}", file=sys.stderr)
    if not rows:
        print("all sweep cells failed", file=sys.stderr)
        return 2

    lines = [CSV_HEADER]
    for _, row in rows:
        lines.append(",".join(_result_cells(row)))
    protocols = list(dict.fromkeys(row.protocol for _, row in rows))
    for value in values:
        for proto in protocols:
            group = [row for v, row in rows if v == value and row.protocol == proto]
            if not group:
                continue
            med = median_cells(group)
            lines.append(",".join([
                group[0].scenario, "", f"{proto}=median:",
                *(_cell(med[name], count) for name, _, count in NUMERIC_COLUMNS),
                ""]))
    _emit(args.out, lines)
    return 0


def _channel_matrix(name: str, cell) -> List[str]:
    lines = []
    for c1 in range(1, 12):
        cells = [name, str(c1)] + [cell(c1, c2) for c2 in range(1, 12)]
        lines.append(",".join(cells))
    return lines


def cmd_channel_table(args) -> int:
    decide_qos = lambda mode: (
        lambda c1, c2: handle_rts_qos(c1, [c2], mode=mode).value)
    decide_dt = lambda mode: (
        lambda c1, c2: handle_rts_delay_tolerant(c1, [c2], mode=mode).value)
    lines = ["table,channel," + ",".join(str(c) for c in range(1, 12))]
    lines += _channel_matrix("class", lambda a, b: classify(a, b).value)
    lines += _channel_matrix("factor", lambda a, b: f"{interference_factor(a, b):.6f}")
    lines += _channel_matrix("qos_literal", decide_qos("literal"))
    lines += _channel_matrix("qos_symmetric", decide_qos("symmetric"))
    lines += _channel_matrix("dt_literal", decide_dt("literal"))
    lines += _channel_matrix("dt_symmetric", decide_dt("symmetric"))
    _emit(args.out, lines)
    return 0


def _emit(out_path: Optional[str], lines: Sequence[str]):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write_rows(fh, lines)
    else:
        _write_rows(sys.stdout, lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meshsim",
        description="Multi-radio multi-channel mesh simulator with "
                    "round-trip-time adaptive rerouting.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and emit result CSV")
    run_p.add_argument("config", nargs="?", default=None,
                       help="scenario config path (key = value lines; "
                            "empty or absent means all defaults)")
    run_p.add_argument("--config", dest="config_flag", metavar="PATH",
                       help="scenario config path (alternative to the positional)")
    run_p.add_argument("--seed", default=None,
                       help="override the config seed (default: config value)")
    run_p.add_argument("--out", metavar="PATH", default=None,
                       help="CSV output path (default: standard output)")
    run_p.add_argument("--trace", metavar="PATH", default=None,
                       help="write the event trace to this file")
    run_p.add_argument("--dump-routes", metavar="PATH", default=None,
                       help="write final routing tables to this CSV file")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep hop or node counts over seeds")
    sweep_p.add_argument("--hops", metavar="LIST",
                         help="comma list of chain hop counts, e.g. 2,4,6,8")
    sweep_p.add_argument("--nodes", metavar="LIST",
                         help="comma list of random-topology node counts")
    sweep_p.add_argument("--seeds", metavar="LIST", default="1..10",
                         help="seed list: 1..10 range or comma list (default 1..10)")
    sweep_p.add_argument("--config", dest="config_flag", metavar="PATH",
                         help="base scenario config (default: all defaults)")
    sweep_p.add_argument("--out", metavar="PATH", default=None,
                         help="CSV output path (default: standard output)")
    sweep_p.set_defaults(func=cmd_sweep)

    table_p = sub.add_parser("channel-table",
                             help="dump channel classification, interference "
                                  "factor, and handshake decision matrices")
    table_p.add_argument("--out", metavar="PATH", default=None,
                         help="CSV output path (default: standard output)")
    table_p.set_defaults(func=cmd_channel_table)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
