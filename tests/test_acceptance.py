"""End-to-end acceptance checks, one test per shipped guarantee.

Each test finishes with a single summary print so a ``-s`` run reads as a
checklist.  The two sweep tests are the slow ones; everything else is
near-instant.  Run with ``--full`` to add the 80- and 100-node sweep points
(reported, but not bounded, because their variance at desk scale is too wide
to gate on).
"""

import ast
import random
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import meshsim
from meshsim.channel import SeparationClass, classify, interference_factor
from meshsim.config import parse_config
from meshsim.engine import Sim
from meshsim.experiment import corciar_run, median_cells, sweep
from meshsim.mac import (Frame, FrameKind, RtsDecision, handle_rts_qos,
                         handle_rts_delay_tolerant, hop_delay)
from meshsim.metrics import cor
from meshsim.routing import RouteMetric, RttEstimator

from cellrun import run_cell
from test_engine import chain_cfg, mesh8_cfg, next_hops
from test_metrics import EXCLUDED_ROW, REFERENCE_RATIOS

CHANNELS = range(1, 12)


def test_restitution_reference_table():
    t0 = time.monotonic()
    for after, before, expected in REFERENCE_RATIOS:
        assert abs(cor(after, before) - expected) <= 1e-4
        if after == before:
            assert cor(after, before) == 1.0
    bad_after, bad_before, bad_expected = EXCLUDED_ROW
    assert abs(cor(bad_after, bad_before) - bad_expected) > 1e-4
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nrestitution table: {len(REFERENCE_RATIOS)} rows within 1e-4, "
          f"inconsistent row rejected ({elapsed:.3f}s)")


def test_handshake_decision_tables(tmp_path):
    t0 = time.monotonic()
    golden = {}
    with open("tests/data/rts_literal_decisions.txt", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rts, local, qos, dt = line.split()
            golden[(int(rts), int(local))] = (qos, dt)
    assert len(golden) == 121

    cases = 0
    for c1 in CHANNELS:
        for local in CHANNELS:
            want_qos, want_dt = golden[(c1, local)]
            assert handle_rts_qos(c1, [local], "literal").value == want_qos
            assert handle_rts_delay_tolerant(c1, [local], "literal").value == want_dt
            cases += 2
            # symmetric mode follows plain separation rules instead
            sep = abs(c1 - local)
            assert handle_rts_qos(c1, [local], "symmetric") is (
                RtsDecision.SEND_CTS if sep >= 5 else RtsDecision.DEFER)
            assert handle_rts_delay_tolerant(c1, [local], "symmetric") is (
                RtsDecision.SEND_CTS if sep >= 4 else RtsDecision.DEFER)
            cases += 2
    elapsed = time.monotonic() - t0
    assert cases == 121 * 2 * 2
    assert elapsed < 1.0
    print(f"\nhandshake tables: {cases} verdicts match golden file and "
          f"separation oracle ({elapsed:.3f}s)")


def test_separation_classes_and_factors():
    for c1 in CHANNELS:
        for c2 in CHANNELS:
            d = abs(c1 - c2)
            if d == 0:
                want = SeparationClass.SELF_SAME
            elif d <= 3:
                want = SeparationClass.ADJACENT_SEVERE
            elif d == 4:
                want = SeparationClass.PARTIAL_ACCEPTABLE
            else:
                want = SeparationClass.ORTHOGONAL
            assert classify(c1, c2) is want
    for a, b in ((1, 6), (6, 11), (1, 11)):
        assert classify(a, b) is SeparationClass.ORTHOGONAL
        assert interference_factor(a, b) == 0.0
    print("\nseparation classes: 121 pairs match the |delta| oracle, "
          "1/6/11 mutually orthogonal with zero factor")


def test_rtt_estimator_convergence():
    rng = random.Random(777)
    for _ in range(100):
        start = rng.uniform(0.0, 10000.0)
        s = rng.uniform(1.0, 10000.0)
        est = RttEstimator(delta=0.125)
        est.update(start)
        for _ in range(180):
            est.update(s)
        assert abs(est.average_rtt - s) <= 1e-6

    # once seeded with a real reading, the running average follows the
    # geometric closed form exactly
    for _ in range(30):
        avg0 = rng.uniform(1.0, 10000.0)
        s = rng.uniform(1.0, 10000.0)
        est = RttEstimator(delta=0.125)
        est.update(avg0)
        for n in range(1, 61):
            est.update(s)
            closed = s + (1.0 - 0.125) ** n * (avg0 - s)
            assert abs(est.average_rtt - closed) <= 1e-9 * max(abs(closed), 1.0)
    print("\nrtt estimator: 100 starts converge within 1e-6, "
          "closed form holds to 1e-9 relative")


def test_hop_delay_decomposition():
    rng = random.Random(4242)
    for _ in range(10000):
        t_i = rng.uniform(0.0, 100.0)
        t_h = t_i + rng.uniform(0.0, 5.0)
        t_next = t_h + rng.uniform(0.0, 5.0)
        frame = Frame(FrameKind.DATA, 0, 1, 1000, t_i=t_i, t_h=t_h, t_next=t_next)
        queue, contention, transmission, total = hop_delay(frame, 1e6)
        assert queue >= 0.0 and contention >= 0.0 and transmission >= 0.0
        assert abs((queue + contention) - (t_next - t_i)) <= 1e-9
        assert total == queue + contention + transmission
    instant = Frame(FrameKind.DATA, 0, 1, 1000, t_i=0.0, t_h=0.0, t_next=0.0)
    assert hop_delay(instant, 1e6)[2] == 0.008
    print("\nhop delay: 10000 random triples decompose consistently, "
          "1000 B at 1 Mbps serializes in exactly 8 ms")


def test_jammed_mesh_rerouting():
    wins = 0
    for seed in range(1, 11):
        baseline, rerouted, _report = corciar_run(mesh8_cfg(seed))
        assert next_hops(baseline, 5, 4) == [4]
        took_detour = (next_hops(rerouted, 5, 4) == [7]
                       and next_hops(rerouted, 7, 4) == [6]
                       and next_hops(rerouted, 6, 4) == [4])
        if took_detour and (rerouted.summary.throughput_kbps
                            > baseline.summary.throughput_kbps):
            wins += 1
    assert wins >= 8
    print(f"\njammed mesh: detour beat the direct route on {wins}/10 seeds")


def _sweep_rows(base_text, axis, values, seeds):
    """Every (axis value, row) of the product sweep; no cell may fail."""
    rows, failures = sweep(parse_config(base_text), axis, values, seeds)
    assert not failures, failures
    return rows


def _median_trends(rows):
    """Per axis value and protocol: (median mean RTT, median throughput)."""
    out = {}
    for v in dict.fromkeys(value for value, _ in rows):
        out[v] = {}
        for proto in ("aodv_hop", "corciar"):
            med = median_cells([row for value, row in rows
                                if value == v and row.protocol == proto])
            out[v][proto] = (med["mean_rtt_ms"], med["throughput_kbps"])
    return out


def _data_columns(row):
    s = row.result.summary
    return (s.throughput_kbps, s.delivery_ratio, s.mean_e2e_delay_ms,
            s.mean_rtt_ms, row.result.n_hops)


def test_chain_sweep_trends():
    t0 = time.monotonic()
    hops = (2, 3, 4, 5, 6, 8)
    rows = _sweep_rows(
        "topology = chain(3)\nchannel_plan = overlapping\n"
        "sim_time_s = 15\nprotocol = both\n", "hops", hops, range(1, 11))
    # one path per flow: a chain offers each flow a single loop-free path,
    # so rerouting finds the hop-count route and each cell's two rows tie
    cells = {}
    for value, row in rows:
        cells.setdefault((value, row.seed), {})[row.protocol] = row
    assert len(cells) == len(hops) * 10
    for cell, by_proto in cells.items():
        assert _data_columns(by_proto["corciar"]) \
            == _data_columns(by_proto["aodv_hop"]), cell
    med = _median_trends(rows)
    for proto in ("aodv_hop", "corciar"):
        rtts = [med[h][proto][0] for h in hops]
        tputs = [med[h][proto][1] for h in hops]
        assert all(a <= b + 1e-9 for a, b in zip(rtts, rtts[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(tputs, tputs[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    print(f"\nchain sweep: medians monotone over hops {hops}, both protocols "
          f"equal in all {len(cells)} cells ({elapsed:.0f}s)")


def test_random_sweep_trends(full_mode):
    t0 = time.monotonic()
    base = "topology = random(20)\nsim_time_s = 15\nprotocol = both\n"
    med = _median_trends(_sweep_rows(base, "nodes", (20, 40, 60), range(1, 11)))
    for v, cells in med.items():
        assert cells["corciar"][0] <= cells["aodv_hop"][0] + 1e-9, \
            f"median rtt regressed at {v} nodes"
        assert cells["corciar"][1] >= cells["aodv_hop"][1] - 1e-9, \
            f"median throughput regressed at {v} nodes"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    line = (f"\nrandom sweep: rerouting at least as good at 20/40/60 nodes "
            f"({elapsed:.0f}s)")
    if full_mode:
        big = _median_trends(_sweep_rows(base, "nodes", (80, 100), range(1, 11)))
        for v, cells in big.items():
            line += (f"; {v} nodes rtt {cells['aodv_hop'][0]:.1f}/"
                     f"{cells['corciar'][0]:.1f} tput "
                     f"{cells['aodv_hop'][1]:.1f}/{cells['corciar'][1]:.1f}")
    print(line)


def test_determinism_and_conservation():
    text = "topology = chain(3)\nsim_time_s = 4\nseed = 5\n"
    csv_a = run_cell(text).csv
    assert csv_a == run_cell(text).csv and csv_a

    first = corciar_run(mesh8_cfg(3))
    second = corciar_run(mesh8_cfg(3))
    assert first[0].trace_hash == second[0].trace_hash
    assert first[1].trace_hash == second[1].trace_hash

    # every run self-checks packet conservation internally; assert the
    # user-visible partition too, on a scenario that exercises every loss
    # class (tiny queues, co-channel chain, jammer on the middle link)
    stress = chain_cfg(5, sim_time_s=10.0, channel_plan="overlapping",
                       queue_capacity=4, jammer_channel=3,
                       jammer_x=375.0, jammer_y=0.0)
    res = Sim(stress, RouteMetric.HOP_COUNT, "aodv_hop").run()
    st = res.flow_stats[0]
    assert st.packets_sent == (st.packets_received_at_gateway
                               + st.drops_retry + st.in_flight_at_end)
    assert st.packets_sent > 0

    # a plan whose active links are pairwise orthogonal within interference
    # range never corrupts a reception (longer chains reuse channels and
    # legitimately collide, so the guarantee is checked where it holds)
    for n in (2, 3, 4):
        baseline, rerouted, _ = corciar_run(chain_cfg(n, sim_time_s=8.0))
        assert baseline.corrupted_receptions == 0
        assert rerouted.corrupted_receptions == 0
    print("\ndeterminism: byte-identical csv and trace hashes; conservation "
          "partition holds under stress; orthogonal chains corruption-free")


def test_package_imports_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src" / "meshsim"
    modules = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    assert modules, src
    outside = sorted(modules - sys.stdlib_module_names)
    assert not outside, f"meshsim imports non-standard modules {outside}"
    print(f"\nstandard library only: {len(modules)} imported modules")


# (module, name) pairs a module may import without reading: the benchmark's
# tracer times engine.cumulative_rtt by that name, though the engine never
# calls it
UNREAD_IMPORTS = (("engine", "cumulative_rtt"),)


def _bound_names(node):
    """The names an import statement binds; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names]
    return []


def test_package_reads_every_name_it_imports():
    src = Path(__file__).resolve().parent.parent / "src" / "meshsim"
    unread = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
        unread += [(path.stem, name) for node in ast.walk(tree)
                   for name in _bound_names(node) if name not in read]
        # a second module-level import of one name rebinds it, so one of the
        # two is never read
        top = [name for stmt in tree.body for name in _bound_names(stmt)]
        unread += [(path.stem, name) for i, name in enumerate(top) if name in top[:i]]
    assert unread == list(UNREAD_IMPORTS), \
        f"imported but never read (or a stale allowlist entry): {unread}"
    print(f"\nevery import read: {len(list(src.glob('*.py')))} modules, "
          f"allowlisted {list(UNREAD_IMPORTS)}")


# definitions nothing but tests reads yet, each kept for its planned reader
ONLY_TESTS_READ = (
    # ROADMAP item 4's fuzzer round-trips each generated config through it
    ("config", "serialize"),
    # ROADMAP item 2's stats take each hop's queue and contention delay from it
    ("mac", "hop_delay"),
)


def _definitions(tree):
    """(qualified name, node) for every module-level function and class and
    every method; dunders are skipped."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for stmt in tree.body:
        if not isinstance(stmt, defs):
            continue
        yield stmt.name, stmt
        if isinstance(stmt, ast.ClassDef):
            for member in stmt.body:
                if isinstance(member, defs) and not (
                        member.name.startswith("__") and member.name.endswith("__")):
                    yield f"{stmt.name}.{member.name}", member


def _names_in(tree, strings=False):
    """Every Name id and Attribute attr under tree, and with strings also
    every string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_package_defines_nothing_only_tests_read():
    root = Path(__file__).resolve().parent.parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((root / "src" / "meshsim").glob("*.py"))}
    in_package = Counter(name for tree in trees.values() for name in _names_in(tree))
    # the benchmark's tracer names what it patches as strings
    elsewhere = set(meshsim.__all__)
    for path in sorted((root / "benchmark").glob("*.py")):
        elsewhere.update(_names_in(ast.parse(path.read_text(encoding="utf-8")),
                                   strings=True))
    unread = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            # a definition's own body (recursion, self-reference) is no reader
            outside_own_body = in_package[node.name] - Counter(_names_in(node))[node.name]
            if outside_own_body == 0 and node.name not in elsewhere:
                unread.append((module, qualname))
    assert unread == list(ONLY_TESTS_READ), \
        f"defined but read only by tests (or a stale allowlist entry): {unread}"
    print(f"\nno test-only definitions: {len(trees)} modules, "
          f"allowlisted {list(ONLY_TESTS_READ)}")
