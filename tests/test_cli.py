"""Command line contract: CSV shapes, exit codes, byte stability, and the
channel decision tables."""

from pathlib import Path

import pytest

from meshsim import cli
from meshsim.config import ScenarioConfig, TopologySpec
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


def test_run_seed_flag_overrides_config(tmp_path, capsys):
    path = write_cfg(tmp_path, FAST_CFG)
    assert cli.main(["run", path, "--seed", "42"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split(",")[1] == "42"


def test_run_rejects_bad_config(tmp_path, capsys):
    path = write_cfg(tmp_path, "alpha = 1.5\n")
    assert cli.main(["run", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 1" in captured.err and "alpha" in captured.err


def test_run_rejects_missing_file(capsys):
    assert cli.main(["run", "/nonexistent/path.cfg"]) == 1
    assert "config error" in capsys.readouterr().err


def test_run_rejects_unbuildable_topology(tmp_path, capsys):
    path = write_cfg(tmp_path, "topology = chain(1)\n")
    assert cli.main(["run", path]) == 1
    assert "config error" in capsys.readouterr().err


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


def test_sweep_is_byte_stable(tmp_path):
    cfg = write_cfg(tmp_path, "sim_time_s = 3.0\nprotocol = aodv_hop\n")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--hops", "2", "--seeds", "1,2", "--config", cfg]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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


def test_sweep_skips_failed_cells():
    base = ScenarioConfig(sim_time_s=2.0, protocol="aodv_hop")
    rows, failures = sweep(base, "hops", [1, 2], [1])
    # chain(2) cannot be built: hop value 1 maps to a 2-node chain, hop
    # value 0 would be invalid; use an impossible value instead
    assert not failures or all("hops=" in f for f in failures)
    assert any(v == 2 for v, _ in rows)


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
