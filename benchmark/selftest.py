#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 benchmark/selftest.py

Runs a small chain sweep (two chain lengths, three seeds, 4 simulated
seconds) through meshsim's command line, shows that every check passes on
the real output, then feeds each check a tampered copy of that output and
requires the check to fail on it.  Exits 1 if a check misses its tampering
or rejects the real output.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from meshsim import cli, experiment                      # noqa: E402
from meshsim.config import TopologySpec, parse_config    # noqa: E402

import checks                                            # noqa: E402

BASE = "topology = chain(3)\nchannel_plan = overlapping\nsim_time_s = 4\nprotocol = both\n"
HOPS = (2, 3)
SEEDS = (1, 2, 3)


def small_sweep(out_dir: Path):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "base.cfg").write_text(BASE, encoding="utf-8")
    captured = []
    original = cli.sweep

    def capture(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    cli.sweep = capture
    try:
        code = cli.main(["sweep", "--config", str(out_dir / "base.cfg"),
                         "--hops", ",".join(map(str, HOPS)),
                         "--seeds", ",".join(map(str, SEEDS)),
                         "--out", str(out_dir / "sweep.csv")])
    finally:
        cli.sweep = original
    if code != 0:
        raise SystemExit(f"meshsim sweep exited with code {code}")
    emitted = checks.parse_csv((out_dir / "sweep.csv").read_text(encoding="utf-8"))
    return emitted, [row for _, row in captured[0][0]]


def main() -> int:
    emitted, run_rows = small_sweep(BENCH_DIR / "out" / "selftest")
    base = parse_config(BASE)
    cell_rows = [r for r in emitted if r["seed"]]
    median_rows = [r for r in emitted if not r["seed"]]
    sim_time = base.sim_time_s
    cells = []          # (csv row, RunRow, facts, config), in emitted order
    for i, (row, run_row) in enumerate(zip(cell_rows, run_rows)):
        cfg = dataclasses.replace(base, topology=TopologySpec("chain", HOPS[i // 6] + 1),
                                  seed=SEEDS[(i // 2) % 3])
        cells.append((row, run_row, checks.cell_facts(cfg), cfg))

    def phase_errors(row, result, i):
        return checks.check_phase_row(row, result, cells[i][2], cells[i][1].protocol)

    def cor_errors(i, row=None, baseline=None, rerouted=None):
        return checks.check_cor_row(row or cells[i][0], baseline or cells[i - 1][1].result,
                                    rerouted or cells[i][1].result, sim_time)

    def median_errors(j, median_row=None):
        hops, proto = [(h, p) for h in HOPS for p in ("aodv_hop", "corciar")][j]
        members = [c for c in cells if c[0]["scenario"] == f"chain({hops + 1})"
                   and c[0]["protocol"] == proto]
        return checks.median_row_errors(median_row or median_rows[j], [m[0] for m in members],
                                        [m[1].result for m in members], sim_time)

    single = experiment.execute(cells[2][3], trace_file=checks.PhaseHasher())

    def same_errors(row=None, swept=None):
        return checks.same_run_errors(row or cells[2][0], swept or cells[2][1].result,
                                      single[0].result, single[0].cor_report)

    failures = 0

    # The real output passes every check.
    clean = []
    for i, (row, run_row, facts, _) in enumerate(cells):
        clean += checks.check_phase_row(row, run_row.result, facts, run_row.protocol)
        if run_row.protocol == "corciar":
            clean += cor_errors(i)
    for j in range(len(median_rows)):
        clean += median_errors(j)
    clean += same_errors()
    hasher = checks.PhaseHasher()
    experiment.execute(cells[0][3], trace_file=hasher)
    if hasher.finish() != [cells[0][1].result.trace_hash, cells[1][1].result.trace_hash]:
        clean.append("trace lines do not hash to the reported trace_hash")
    if clean:
        failures += 1
        print("FAIL: the real output fails checks: " + "; ".join(clean))
    else:
        print(f"ok: real output of {len(cell_rows)} cell rows and {len(median_rows)} "
              f"median rows passes every check")

    def tampered_row(i, **cells_text):
        row = dict(cells[i][0])
        row.update(cells_text)
        return row

    def tampered_result(i, edit):
        result = copy.deepcopy(cells[i][1].result)
        edit(result)
        return result

    one_packet_kbps = base.packet_size_bytes * 8 / sim_time / 1000.0
    aodv, corciar = 2, 3       # rows of chain(3), seed 2
    thr = float(cells[aodv][0]["throughput_kbps"])

    def bump(field_name, amount=1):
        def edit(result):
            st = result.flow_stats[0]
            setattr(st, field_name, getattr(st, field_name) + amount)
        return edit

    def floor_delay(result):
        result.flow_stats[0].e2e_delays[0] = 0.0

    def floor_rtt(result):
        result.flow_stats[0].rtt_samples[0] = 0.0

    def flood(result):
        result.flow_stats[0].bytes_received += 10 ** 9

    cases = [
        ("throughput off by one packet", "throughput_kbps",
         phase_errors(tampered_row(aodv, throughput_kbps=f"{thr + one_packet_kbps:.6f}"),
                      cells[aodv][1].result, aodv)),
        ("delivery ratio changed", "delivery_ratio",
         phase_errors(tampered_row(aodv, delivery_ratio="0.500000"), cells[aodv][1].result, aodv)),
        ("mean delay changed", "mean_delay_ms",
         phase_errors(tampered_row(aodv, mean_delay_ms="1.000000"), cells[aodv][1].result, aodv)),
        ("wrong n_hops", "shortest hop count",
         phase_errors(tampered_row(aodv, n_hops=str(HOPS[0] + 1)), cells[aodv][1].result, aodv)),
        ("packet neither received, dropped nor in flight", "sent",
         phase_errors(cells[aodv][0], tampered_result(aodv, bump("packets_sent")), aodv)),
        ("end-to-end delay below the airtime floor", "delay sample",
         phase_errors(cells[aodv][0], tampered_result(aodv, floor_delay), aodv)),
        ("RTT below the airtime floor", "RTT sample",
         phase_errors(cells[aodv][0], tampered_result(aodv, floor_rtt), aodv)),
        ("gateway throughput above the radios' rate", "above",
         phase_errors(cells[aodv][0], tampered_result(aodv, flood), aodv)),
        ("row out of (value, seed, protocol) order", "expected",
         checks.check_phase_row(cells[corciar][0], cells[aodv][1].result, cells[aodv][2],
                                "aodv_hop")),
        ("cor changed", "cor is",
         cor_errors(corciar, row=tampered_row(corciar, cor="0.900000"))),
        ("PerfectlyElastic at cor above 1", "labelled PerfectlyElastic",
         cor_errors(corciar, row=tampered_row(corciar, cor="2.000000"),
                    baseline=tampered_result(aodv, lambda r: [
                        setattr(st, "bytes_received", 2 * st.bytes_received)
                        for st in r.flow_stats]))),
        ("PartiallyElastic at cor 1", "labelled PartiallyElastic",
         cor_errors(corciar, row=tampered_row(corciar, collision_class="PartiallyElastic"))),
        ("median row changed", "median throughput_kbps",
         median_errors(0, dict(median_rows[0], throughput_kbps=
                               f"{float(median_rows[0]['throughput_kbps']) + 0.01:.6f}"))),
        ("median row of the wrong group", "out of place",
         median_errors(0, dict(median_rows[1]))),
        ("cell row differs from its single-cell run", "single-cell run differs",
         same_errors(row=tampered_row(2, mean_rtt_ms="1.000000"))),
        ("cell trace differs from its single-cell run", "trace hash",
         same_errors(swept=tampered_result(2, lambda r: setattr(r, "trace_hash", "0" * 64)))),
    ]
    hasher = checks.PhaseHasher()
    hasher.write("0.000000000 HelloTick n0\n")
    try:
        hasher.finish()
        cases.append(("trace cut inside a phase", "", []))
    except ValueError as exc:
        cases.append(("trace cut inside a phase", "SimEnd", [str(exc)]))

    for what, expect, errors in cases:
        if any(expect in e for e in errors):
            print(f"ok: {what}: {next(e for e in errors if expect in e)}")
        else:
            failures += 1
            print(f"FAIL: {what} passed the checks (messages: {errors})")
    print(f"{len(cases) + 1 - failures} of {len(cases) + 1} self-test cases pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
