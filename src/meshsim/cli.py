"""Command line front end: run one scenario, sweep an axis, or dump the
channel decision tables, all as byte-stable CSV.

Before its first event every command checks its command line values, reads
and checks its config, and opens (creates or empties) every output it was
given, so a bad value or path costs no run.  Exit codes, set in `main` alone:
0 success, 1 configuration problem (printed as `config error:` lines), 2
runtime fault inside the simulator.  CSV goes to --out (default standard
output); diagnostics go to standard error so the data stream stays clean.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
from typing import List, Optional, Sequence

from .channel import ALL_CHANNELS, classify, interference_factor
from .config import ConfigError, integer, parse_config, parse_value
from .experiment import NUMERIC_COLUMNS, RunRow, execute, median_cells, sweep
from .mac import SimulationFault, handle_rts_delay_tolerant, handle_rts_qos

CSV_HEADER = ",".join(["scenario", "seed", "protocol",
                       *(name for name, _, _ in NUMERIC_COLUMNS), "collision_class"])

ROUTES_HEADER = "node,destination,next_hop,hop_count,rtt_cost_ms,expires_at"


def _cell(value: Optional[float], count: bool = False) -> str:
    """One CSV cell: empty for None, a count as a whole number where it is
    one (else %g), any other value to six decimals."""
    if value is None:
        return ""
    if not count:
        return f"{value:.6f}"
    return str(int(value)) if float(value).is_integer() else f"{value:g}"


def _result_cells(row: RunRow) -> List[str]:
    return [row.scenario, str(row.seed), row.protocol,
            *(_cell(value(row), count) for _, value, count in NUMERIC_COLUMNS),
            "" if row.cor_report is None else row.cor_report.collision_class.value]


def _write_rows(out, lines: Sequence[str]):
    for line in lines:
        out.write(line + "\n")


@contextlib.contextmanager
def _file_errors(path: Optional[str]):
    """A file that cannot be opened, read or decoded is a ConfigError."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"{path}: {getattr(exc, 'strerror', None) or exc}"]) from None


def _front_end(files: contextlib.ExitStack, config_path: Optional[str],
               seed: Optional[str], *outputs: Optional[str]):
    """The step every command takes before running anything: read and check
    the config, then open each output, creating or emptying it.  Returns the
    config and one file (None where no path was given) per output."""
    named = [os.path.realpath(path) for path in (config_path, *outputs) if path]
    if len(set(named)) < len(named):
        raise ConfigError(["each input and output needs its own file"])
    text = ""
    if config_path is not None:
        with _file_errors(config_path), open(config_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    config = parse_config(text)
    if seed is not None:
        config = dataclasses.replace(config, seed=parse_value("seed", seed))
    opened = []
    for path in outputs:
        with _file_errors(path):
            opened.append(files.enter_context(open(path, "w", encoding="utf-8"))
                          if path else None)
    return config, opened


def _parse_list(flag: str, text: str, parse) -> List[int]:
    """A comma list of distinct values, each item read by parse(item)."""
    values = [parse(item.strip()) for item in text.split(",") if item.strip()]
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError([f"{flag} lists {value} more than once"])
    return values


def _parse_seeds(text: str) -> List[int]:
    """A seed range `lo..hi` or a comma list, each seed checked as the
    config's `seed` key checks it."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(parse_value("seed", lo), parse_value("seed", hi) + 1))
    return _parse_list("--seeds", text, lambda item: parse_value("seed", item))


def cmd_run(args, files: contextlib.ExitStack) -> int:
    if args.config is not None and args.config_flag is not None:
        raise ConfigError(["give one config path: positional or --config, not both"])
    config, (out, trace, routes) = _front_end(
        files, args.config_flag or args.config, args.seed,
        args.out, args.trace, args.dump_routes)
    rows = execute(config, trace_file=trace)
    _write_rows(out or sys.stdout,
                [CSV_HEADER] + [",".join(_result_cells(r)) for r in rows])
    if routes:
        _write_rows(routes, [ROUTES_HEADER] + [",".join([
            str(node_id), str(entry.destination), str(entry.next_hop),
            str(entry.hop_count), _cell(entry.rtt_cost), _cell(entry.expires_at),
        ]) for node_id, entry in rows[-1].result.route_rows])
    return 0


def cmd_sweep(args, files: contextlib.ExitStack) -> int:
    if bool(args.hops) == bool(args.nodes):
        raise ConfigError(["sweep needs exactly one of --hops or --nodes"])
    seeds = _parse_seeds(args.seeds)
    # the least axis value that builds: a chain of hops + 1 nodes, or a
    # random topology of n nodes, needs 2 nodes
    axis, minimum = ("hops", 1) if args.hops else ("nodes", 2)
    flag = f"--{axis}"
    values = _parse_list(flag, args.hops or args.nodes,
                         lambda item: integer(minimum)(item, flag))
    if not values or not seeds:
        raise ConfigError(["sweep needs a nonempty axis and seed list"])
    config, (out,) = _front_end(files, args.config_flag, None, args.out)

    rows, failures = sweep(config, axis, values, seeds)
    for message in failures:
        print(f"sweep cell failed: {message}", file=sys.stderr)
    if not rows:
        print("all sweep cells failed", file=sys.stderr)
        return 2

    lines = [CSV_HEADER] + [",".join(_result_cells(row)) for _, row in rows]
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
    _write_rows(out or sys.stdout, lines)
    return 0


def _channel_matrix(name: str, cell) -> List[str]:
    lines = []
    for c1 in ALL_CHANNELS:
        cells = [name, str(c1)] + [cell(c1, c2) for c2 in ALL_CHANNELS]
        lines.append(",".join(cells))
    return lines


def cmd_channel_table(args, files: contextlib.ExitStack) -> int:
    _, (out,) = _front_end(files, None, None, args.out)
    lines = ["table,channel," + ",".join(str(c) for c in ALL_CHANNELS)]
    lines += _channel_matrix("class", lambda a, b: classify(a, b).value)
    lines += _channel_matrix("factor", lambda a, b: _cell(interference_factor(a, b)))
    for name, handler in (("qos", handle_rts_qos), ("dt", handle_rts_delay_tolerant)):
        for mode in ("literal", "symmetric"):
            lines += _channel_matrix(f"{name}_{mode}",
                                     lambda a, b: handler(a, [b], mode=mode).value)
    _write_rows(out or sys.stdout, lines)
    return 0


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
    """Run one command, close the files it opened, and map its errors to exit codes."""
    args = build_parser().parse_args(argv)
    try:
        with contextlib.ExitStack() as files:
            return args.func(args, files)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return 1
    except SimulationFault as exc:
        print(f"runtime fault: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
