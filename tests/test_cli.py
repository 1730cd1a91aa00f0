"""Command line contract: CSV shapes, exit codes, byte stability, and the
channel decision tables."""

import argparse
import ast
import errno
import hashlib
import os
import pickle
import re
import signal
import statistics
from array import array
from pathlib import Path

import pytest

from meshsim import cli, experiment
from meshsim.config import ScenarioConfig, TopologySpec, parse_config
from meshsim.engine import TRACE_LINE, Sim
from meshsim.experiment import config_for_axis, median_cells, sweep
from meshsim.mac import SimulationFault

FAST_CFG = """
topology = chain(3)
sim_time_s = 4.0
seed = 5
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_run_emits_both_protocol_rows(tmp_path, capsys):
    path = write_cfg(tmp_path, FAST_CFG)
    assert cli.main(["run", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == cli.CSV_HEADER
    assert len(out) == 3
    first = out[1].split(",")
    second = out[2].split(",")
    assert first[0] == "chain(3)" and first[1] == "5" and first[2] == "aodv_hop"
    assert second[2] == "corciar"
    assert first[10] == "" and second[10] in ("PerfectlyElastic", "PartiallyElastic",
                                              "Inelastic", "Regression")
    float(first[5])    # throughput parses
    assert second[9] != ""


def test_readme_csv_columns_match_header():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    start = readme.index("CSV columns:\n\n```\n") + len("CSV columns:\n\n```\n")
    assert readme[start:readme.index("\n", start)] == cli.CSV_HEADER


def test_readme_trace_format_is_the_engine_constant():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    documented = TRACE_LINE.replace("\n", "\\n")
    assert f"`{documented}` (`meshsim.engine.TRACE_LINE`)" in readme.replace("\n", " ")


def test_readme_event_labels_are_the_engine_labels():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    start = readme.index("**Event trace.**")
    paragraph = readme[start:readme.index("\n\n", start)]
    documented = set(re.findall(r"`([A-Z][A-Za-z]+)`", paragraph))
    # every label reaches the trace through schedule(t, label, ...) or,
    # for the closing line, trace_tag(label, node)
    position = {"schedule": 1, "trace_tag": 0}
    labels = set()
    tree = ast.parse((root / "src" / "meshsim" / "engine.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in position:
                label = node.args[position[name]]
                if isinstance(label, ast.Constant):
                    labels.add(label.value)
    assert {"SimEnd", "TimerFire"} <= labels     # both call forms were read
    assert documented == labels


def test_run_seed_flag_overrides_config(tmp_path, capsys):
    path = write_cfg(tmp_path, FAST_CFG)
    assert cli.main(["run", path, "--seed", "42"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split(",")[1] == "42"


def test_run_rejects_bad_config(tmp_path, capsys):
    path = write_cfg(tmp_path, "delta = 1.5\n")
    assert cli.main(["run", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: line 1: delta must be in (0,1)\n"


def test_run_rejects_alpha_as_unknown_key(tmp_path, capsys):
    path = write_cfg(tmp_path, "alpha = 0.5\n")
    assert cli.main(["run", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: line 1: unknown key 'alpha'\n"


# a config written in Latin-1: its "é" (0xe9) is not valid UTF-8
LATIN1_CFG = "seed = 1  # caf\xe9\n".encode("latin-1")
NOT_UTF8 = "{tmp}/latin1.cfg: 'utf-8' codec can't decode byte 0xe9 in position 15: " \
           "invalid continuation byte"
NO_DIR = "{tmp}/missing/out: No such file or directory"


@pytest.mark.parametrize("argv,message", [
    (["run", "--seed=-5"], "seed must be >= 0, got -5"),
    (["run", "--seed", "five"], "seed must be an integer, got 'five'"),
    (["sweep", "--hops", "2", "--seeds=-1,1"], "seed must be >= 0, got -1"),
    (["sweep", "--hops", "2", "--seeds=-1..2"], "seed must be >= 0, got -1"),
    (["sweep", "--hops", "2,2", "--seeds", "1"], "--hops lists 2 more than once"),
    (["sweep", "--nodes", "5,6,5", "--seeds", "1"], "--nodes lists 5 more than once"),
    (["sweep", "--hops", "2", "--seeds", "1,3,1"], "--seeds lists 1 more than once"),
    (["run", "a.cfg", "--config", "b.cfg"],
     "give one config path: positional or --config, not both"),
    (["sweep", "--hops", "2,0", "--seeds", "1"], "--hops must be >= 1, got 0"),
    (["sweep", "--nodes", "1", "--seeds", "1"], "--nodes must be >= 2, got 1"),
    (["sweep", "--hops", "2,x", "--seeds", "1"], "--hops must be an integer, got 'x'"),
    (["sweep", "--seeds", "1"], "sweep needs exactly one of --hops or --nodes"),
    (["sweep", "--hops", "2", "--nodes", "20", "--seeds", "1"],
     "sweep needs exactly one of --hops or --nodes"),
    (["sweep", "--hops", ",", "--seeds", "1"], "sweep needs a nonempty axis and seed list"),
    (["run", "--out", "{tmp}/missing/out"], NO_DIR),
    (["run", "--trace", "{tmp}/missing/out"], NO_DIR),
    (["run", "--dump-routes", "{tmp}/missing/out"], NO_DIR),
    (["sweep", "--hops", "2", "--seeds", "1", "--out", "{tmp}/missing/out"], NO_DIR),
    (["channel-table", "--out", "{tmp}/missing/out"], NO_DIR),
    (["run", "{tmp}/latin1.cfg"], NOT_UTF8),
    (["run", "--out", "{tmp}/x.csv", "--trace", "{tmp}/./x.csv"],
     "each input and output needs its own file"),
    (["run", "{tmp}/latin1.cfg", "--dump-routes", "{tmp}/latin1.cfg"],
     "each input and output needs its own file"),
    (["sweep", "--config", "{tmp}/latin1.cfg", "--hops", "2", "--seeds", "1"], NOT_UTF8),
    (["sweep", "--hops", "1_0", "--seeds", "1"], "--hops must be an integer, got '1_0'"),
    (["sweep", "--nodes", "2_0", "--seeds", "1"], "--nodes must be an integer, got '2_0'"),
    (["sweep", "--hops", "2", "--seeds", "1_0"], "seed must be an integer, got '1_0'"),
    (["sweep", "--hops", "٣", "--seeds", "1"], "--hops must be an integer, got '٣'"),
], ids=["run-negative-seed", "run-text-seed", "sweep-negative-seed",
        "sweep-negative-range", "repeated-hops", "repeated-nodes", "repeated-seeds",
        "run-two-configs", "sweep-zero-hops", "sweep-one-node", "sweep-text-hops",
        "sweep-no-axis", "sweep-two-axes", "sweep-empty-axis", "run-out-no-dir",
        "run-trace-no-dir", "run-routes-no-dir", "sweep-out-no-dir", "table-out-no-dir",
        "run-config-not-utf8", "run-out-is-trace", "run-routes-is-config",
        "sweep-config-not-utf8", "underscore-hops", "underscore-nodes",
        "underscore-seeds", "non-ascii-hops"])
def test_command_line_values_checked_before_running(argv, message, tmp_path, capsys,
                                                    monkeypatch):
    def must_not_run(*args, **kwargs):
        raise AssertionError("ran a scenario despite a bad command line value")
    monkeypatch.setattr(cli, "execute", must_not_run)
    monkeypatch.setattr(cli, "sweep", must_not_run)
    (tmp_path / "latin1.cfg").write_bytes(LATIN1_CFG)
    assert cli.main([arg.format(tmp=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: {message.format(tmp=tmp_path)}\n"


def test_outputs_are_created_before_the_run(tmp_path, capsys, monkeypatch):
    paths = [tmp_path / name for name in ("rows.csv", "events.log", "routes.csv")]
    paths[0].write_text("rows of an earlier run\n")

    def fault(config, trace_file=None):
        assert all(p.exists() and p.read_text() == "" for p in paths)
        raise SimulationFault("synthetic fault")

    monkeypatch.setattr(cli, "execute", fault)
    assert cli.main(["run", "--out", str(paths[0]), "--trace", str(paths[1]),
                     "--dump-routes", str(paths[2])]) == 2
    assert capsys.readouterr().err == "runtime fault: synthetic fault\n"
    assert [p.read_text() for p in paths] == ["", "", ""]


def test_readme_documents_every_long_option():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {option for command in commands.choices.values()
               for action in command._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"}
    assert len(options) == 8
    for option in sorted(options):
        # --seed must not pass on the strength of --seeds
        assert re.search(re.escape(option) + r"(?![\w-])", readme), option


def test_run_rejects_missing_file(capsys):
    assert cli.main(["run", "/nonexistent/path.cfg"]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_rejects_a_data_rate_whose_airtimes_overflow(tmp_path, capsys):
    out = tmp_path / "rows.csv"

    def run(rate):
        path = write_cfg(tmp_path, f"topology = chain(3)\nsim_time_s = 5\n"
                                   f"data_rate_bps = {rate}\n")
        return cli.main(["run", path, "--out", str(out)])

    # one config error line, exit 1, and no run: no row is written
    assert run("5e-324") == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
    assert not out.exists()
    # a rate whose airtimes are finite, however long, runs
    assert run("1e-300") == 0
    assert len(out.read_text().splitlines()) == 3


def test_run_rejects_unbuildable_topology(tmp_path, capsys):
    path = write_cfg(tmp_path, "topology = chain(1)\n")
    assert cli.main(["run", path]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_rejects_an_explicit_plan_of_the_wrong_shape(tmp_path, capsys):
    # one channel per node where the default two radios need two
    path = write_cfg(tmp_path, "topology = chain(3)\nchannel_plan = 1;6;11\n")
    out = tmp_path / "rows.csv"
    assert cli.main(["run", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("config error: node 0 channel group (1,) "
                                       "does not match radios_per_node = 2\n")
    assert out.read_text() == ""        # opened before the run; no row written


def test_runtime_fault_exits_two(tmp_path, capsys, monkeypatch):
    path = write_cfg(tmp_path, FAST_CFG)

    def boom(config, trace_file=None):
        raise SimulationFault("synthetic fault")

    monkeypatch.setattr(cli, "execute", boom)
    assert cli.main(["run", path]) == 2
    assert "runtime fault" in capsys.readouterr().err


def test_run_writes_out_trace_and_routes(tmp_path):
    path = write_cfg(tmp_path, FAST_CFG)
    out = tmp_path / "rows.csv"
    trace = tmp_path / "events.log"
    routes = tmp_path / "routes.csv"
    assert cli.main(["run", path, "--out", str(out), "--trace", str(trace),
                     "--dump-routes", str(routes)]) == 0
    assert out.read_text().startswith(cli.CSV_HEADER)
    tr = trace.read_text().splitlines()
    assert tr and len(tr[0].split()) == 3
    rt = routes.read_text().splitlines()
    assert rt[0] == cli.ROUTES_HEADER
    by_key = {(int(r.split(",")[0]), int(r.split(",")[1])): r.split(",")
              for r in rt[1:]}
    assert by_key[(0, 2)][2] == "1"      # source routes to the far end via 1
    assert by_key[(0, 2)][3] == "2"


def test_sweep_rows_ordered_with_medians(tmp_path):
    cfg = write_cfg(tmp_path, "sim_time_s = 4.0\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--hops", "2,3", "--seeds", "1,2",
                     "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    data, medians = lines[1:9], lines[9:]
    key = [(r.split(",")[0], r.split(",")[1], r.split(",")[2]) for r in data]
    assert key == [
        ("chain(3)", "1", "aodv_hop"), ("chain(3)", "1", "corciar"),
        ("chain(3)", "2", "aodv_hop"), ("chain(3)", "2", "corciar"),
        ("chain(4)", "1", "aodv_hop"), ("chain(4)", "1", "corciar"),
        ("chain(4)", "2", "aodv_hop"), ("chain(4)", "2", "corciar"),
    ]
    med_key = [(r.split(",")[0], r.split(",")[1], r.split(",")[2]) for r in medians]
    assert med_key == [
        ("chain(3)", "", "aodv_hop=median:"), ("chain(3)", "", "corciar=median:"),
        ("chain(4)", "", "aodv_hop=median:"), ("chain(4)", "", "corciar=median:"),
    ]


def test_sweep_median_of_split_counts_is_fractional(tmp_path):
    # the first flow of random(12) takes 1 hop under seed 1 and 2 under
    # seed 5, so the median row's n_hops is 1.5
    cfg = write_cfg(tmp_path, "sim_time_s = 4\nprotocol = aodv_hop\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--nodes", "12", "--seeds", "1,5",
                     "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert [line.split(",")[4] for line in lines[1:]] == ["1", "2", "1.5"]
    assert lines[3] == ("random(12),,aodv_hop=median:,12,1.5,351.000000,"
                        "0.954064,39.395142,68.237843,,")


def test_sweep_is_byte_stable(tmp_path):
    cfg = write_cfg(tmp_path, "sim_time_s = 3.0\nprotocol = aodv_hop\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--hops", "2", "--seeds", "1,2", "--config", cfg]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_reports_failed_cells_and_writes_the_rest(tmp_path, capsys):
    # three node groups fit chain(3) but not chain(4), so every hops=3 cell fails
    cfg = write_cfg(tmp_path, "channel_plan = 1,6;6,11;11,1\nsim_time_s = 4\n"
                              "protocol = aodv_hop\n")
    out = tmp_path / "sweep.csv"
    failed = [f"sweep cell failed: hops=3 seed={seed}: explicit channel_plan has "
              f"3 node groups, topology has 4 nodes" for seed in (1, 2)]
    assert cli.main(["sweep", "--hops", "2,3", "--seeds", "1,2",
                     "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == failed
    lines = out.read_text().splitlines()
    assert lines[0] == cli.CSV_HEADER
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["chain(3)", "1", "aodv_hop"], ["chain(3)", "2", "aodv_hop"],
        ["chain(3)", "", "aodv_hop=median:"]]

    assert cli.main(["sweep", "--hops", "3", "--seeds", "1,2",
                     "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == failed + ["all sweep cells failed"]
    assert out.read_bytes() == b""


def test_sweep_needs_exactly_one_axis(capsys):
    assert cli.main(["sweep", "--seeds", "1"]) == 1
    assert cli.main(["sweep", "--hops", "2", "--nodes", "20", "--seeds", "1"]) == 1


def test_seed_list_parsing():
    assert cli._parse_seeds("1..10") == list(range(1, 11))
    assert cli._parse_seeds("3,5,9") == [3, 5, 9]


def parse_table(text):
    cells = {}
    for line in text.splitlines()[1:]:
        parts = line.split(",")
        table, c1 = parts[0], int(parts[1])
        for c2, value in enumerate(parts[2:], start=1):
            cells[(table, c1, c2)] = value
    return cells


@pytest.fixture(scope="module")
def table_cells(tmp_path_factory):
    out = tmp_path_factory.mktemp("table") / "table.csv"
    assert cli.main(["channel-table", "--out", str(out)]) == 0
    return parse_table(out.read_text())


def test_channel_table_orthogonal_cell(table_cells):
    assert table_cells[("class", 1, 6)] == "Orthogonal"
    assert table_cells[("factor", 1, 6)] == "0.000000"
    # the separation rule admits (1,6); the literal handshake only grants
    # the single offset channel per local (local 6 wants 11 or 10), so its
    # column stays Defer here
    assert table_cells[("qos_symmetric", 1, 6)] == "SendCts"
    assert table_cells[("dt_symmetric", 1, 6)] == "SendCts"
    assert table_cells[("qos_literal", 1, 6)] == "Defer"
    assert table_cells[("qos_literal", 11, 6)] == "SendCts"
    assert table_cells[("dt_literal", 10, 6)] == "SendCts"


def test_channel_table_diagonal(table_cells):
    for c in range(1, 12):
        assert table_cells[("class", c, c)] == "SelfSame"
        assert table_cells[("factor", c, c)] == "1.000000"
        for table in ("qos_literal", "qos_symmetric", "dt_literal", "dt_symmetric"):
            assert table_cells[(table, c, c)] == "Defer"


def test_channel_table_partial_cell(table_cells):
    assert table_cells[("class", 1, 5)] == "PartialAcceptable"
    assert table_cells[("factor", 1, 5)] == "0.200000"
    assert table_cells[("qos_symmetric", 1, 5)] == "Defer"
    assert table_cells[("dt_symmetric", 1, 5)] == "SendCts"


def test_channel_table_row_count(table_cells):
    assert len(table_cells) == 6 * 11 * 11


def test_axis_config_mapping():
    base = ScenarioConfig()
    hop_cfg = config_for_axis(base, "hops", 4, 7)
    assert hop_cfg.topology == TopologySpec("chain", 5) and hop_cfg.seed == 7
    node_cfg = config_for_axis(base, "nodes", 20, 3)
    assert node_cfg.topology == TopologySpec("random", 20)
    with pytest.raises(ValueError):
        config_for_axis(base, "radios", 2, 1)


def cpus(monkeypatch, n):
    """Make the sweep see n CPUs in the affinity mask, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def count_forks(monkeypatch):
    """The pids of the workers forked from here on."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def test_sweep_skips_failed_cells(monkeypatch):
    cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    real_run = Sim.run

    def run(self):
        if self.config.seed == 2 and self.config.topology == TopologySpec("chain", 4):
            raise SimulationFault("synthetic fault")
        return real_run(self)

    monkeypatch.setattr(Sim, "run", run)
    base = ScenarioConfig(sim_time_s=2.0, protocol="aodv_hop")
    rows, failures = sweep(base, "hops", [2, 3], [1, 2, 3])
    assert len(forks) == 2
    assert failures == ["hops=3 seed=2: synthetic fault"]
    assert [(v, row.seed) for v, row in rows] == [(2, 1), (2, 2), (2, 3), (3, 1), (3, 3)]


# sha256 of the CSV below, as the serial sweep wrote it before cells ran in workers
IDENTITY_CSV_SHA256 = "54299b75a3224c5baacea3f8f00db9fed58796789f8bf63c26eb1486910c6e4c"


def test_forked_sweep_is_identical_to_serial(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, "sim_time_s = 4.0\nchannel_plan = overlapping\n")
    args = ["sweep", "--hops", "2,3", "--seeds", "1..4", "--config", cfg]
    captured = []
    real_sweep = cli.sweep

    def capture(*a):
        captured.append(real_sweep(*a))
        return captured[-1]

    monkeypatch.setattr(cli, "sweep", capture)
    forks = count_forks(monkeypatch)
    cpus(monkeypatch, 3)        # 8 cells over 3 workers: 3, 3 and 2 each
    forked, serial = tmp_path / "forked.csv", tmp_path / "serial.csv"
    assert cli.main(args + ["--out", str(forked)]) == 0
    assert len(forks) == 3
    assert_reaped(forks)
    cpus(monkeypatch, 1)
    assert cli.main(args + ["--out", str(serial)]) == 0
    assert len(forks) == 3
    assert forked.read_text() == serial.read_text()
    assert hashlib.sha256(forked.read_bytes()).hexdigest() == IDENTITY_CSV_SHA256
    (forked_rows, forked_failures), (serial_rows, serial_failures) = captured
    assert forked_failures == serial_failures == []
    assert [r.result.trace_hash for _, r in forked_rows] == \
        [r.result.trace_hash for _, r in serial_rows]
    base = parse_config(Path(cfg).read_text())
    direct = [(hops, row) for hops in (2, 3) for seed in range(1, 5)
              for row in experiment.execute(config_for_axis(base, "hops", hops, seed))]
    assert forked_rows == direct
    # a worker's rows come back with their samples packed, as a single run keeps them
    for _, row in forked_rows + direct:
        stats = row.result.flow_stats
        assert all(type(series) is array and series.typecode == "d"
                   for st in stats for series in (st.e2e_delays, st.rtt_samples))
        rtts = [r for st in stats for r in st.rtt_samples]
        assert rtts and row.result.summary.mean_rtt_ms == statistics.fmean(rtts)


@pytest.mark.parametrize("call, error", [
    ("fork", BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))),
    ("pipe", OSError(errno.EMFILE, os.strerror(errno.EMFILE))),
], ids=["fork", "pipe"])
def test_sweep_runs_here_the_cells_of_a_worker_that_could_not_start(
        tmp_path, monkeypatch, call, error):
    cfg = write_cfg(tmp_path, "sim_time_s = 4.0\nchannel_plan = overlapping\n")
    forks = count_forks(monkeypatch)
    real_call = getattr(os, call)
    calls = []

    def refuse_second():
        calls.append(None)
        if len(calls) == 2:     # the second worker gets no fork, or no pipe
            raise error
        return real_call()

    monkeypatch.setattr(os, call, refuse_second)
    cpus(monkeypatch, 3)        # worker 0 starts; the cells of 1 and 2 run here
    out = tmp_path / "out.csv"
    args = ["sweep", "--hops", "2,3", "--seeds", "1..4", "--config", cfg]
    assert cli.main(args + ["--out", str(out)]) == 0
    assert len(calls) == 2 and len(forks) == 1
    assert_reaped(forks)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == IDENTITY_CSV_SHA256


def test_sweep_without_an_affinity_mask_runs_serially(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    forks = count_forks(monkeypatch)
    assert experiment._cpu_count() == 1
    base = ScenarioConfig(sim_time_s=2.0, protocol="aodv_hop")
    rows, failures = sweep(base, "hops", [2], [1, 2])
    assert forks == [] and failures == []
    assert [(v, row.seed) for v, row in rows] == [(2, 1), (2, 2)]


@pytest.mark.parametrize("die, cause", [
    (lambda: os._exit(3), "exit status 3"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
])
def test_sweep_reports_every_cell_of_a_dead_worker(monkeypatch, die, cause):
    cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    parent = os.getpid()
    real_run = Sim.run

    def run(self):
        if self.config.seed == 2:
            assert os.getpid() != parent    # never end the test process itself
            die()
        return real_run(self)

    monkeypatch.setattr(Sim, "run", run)
    base = ScenarioConfig(sim_time_s=2.0, protocol="aodv_hop")
    # worker 0 runs seeds 1 and 3; worker 1 dies on seed 2 before seed 4
    rows, failures = sweep(base, "hops", [2], [1, 2, 3, 4])
    assert failures == [f"hops=2 seed=2: sweep worker ended with {cause}",
                        f"hops=2 seed=4: sweep worker ended with {cause}"]
    assert [row.seed for _, row in rows] == [1, 3]
    assert len(forks) == 2
    assert_reaped(forks)


def test_sweep_reaps_its_workers_when_the_parent_fails(monkeypatch):
    cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)

    def fail(data):
        raise KeyboardInterrupt     # the parent, between reaping two workers

    monkeypatch.setattr(pickle, "loads", fail)
    base = ScenarioConfig(sim_time_s=2.0, protocol="aodv_hop")
    with pytest.raises(KeyboardInterrupt):
        sweep(base, "hops", [2], [1, 2])
    assert len(forks) == 2
    assert_reaped(forks)


def test_sweep_reports_unbuildable_axis_value():
    base = ScenarioConfig(sim_time_s=2.0, protocol="aodv_hop")
    rows, failures = sweep(base, "hops", [0, 2], [1])
    assert len(failures) == 1 and "hops=0" in failures[0]
    assert all(v == 2 for v, _ in rows)


def test_median_cells_arithmetic():
    base = ScenarioConfig(sim_time_s=3.0, protocol="aodv_hop")
    rows, failures = sweep(base, "hops", [2], [1, 2, 3])
    assert not failures
    group = [row for _, row in rows]
    med = median_cells(group)
    tputs = sorted(r.result.summary.throughput_kbps for r in group)
    assert med["throughput_kbps"] == tputs[1]
    assert med["n_nodes"] == 3.0
    assert med["cor"] is None
