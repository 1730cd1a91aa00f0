"""The pairs tool's statistics and its rule for claiming a gain."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _pairs(parent, change, name="run_s"):
    return [{"parent": {name: a}, "change": {name: b}} for a, b in zip(parent, change)]


@pytest.mark.parametrize("name", ["BENCH_16.json", "BENCH_18.json"])
def test_recomputes_the_figures_of_a_bench_file(name):
    bench = json.loads((ROOT / name).read_text(encoding="utf-8"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for workload, recorded in bench["workloads"].items():
        for m in spec["end_to_end"]:
            got = bench_pairs.compare(recorded["pairs"], m["name"], m["better"], m["bound"])
            for key, value in recorded[m["name"]].items():
                assert got[key] == pytest.approx(value), (workload, m["name"], key)
    claim = bench["claim"]
    stats = bench_pairs.compare(bench["workloads"][claim["workload"]]["pairs"],
                                claim["metric"], "lower", 0.25)
    assert bench_pairs.claim_verdict(stats, "s") == pytest.approx(claim["result"])
    # rounds of earlier revisions keep their run_s pairs and the rule's verdict
    for earlier in bench.get("earlier_rounds", []):
        pairs = _pairs(*zip(*(p[1:] for p in earlier["pairs_seed_parent_change_run_s"])))
        stats = bench_pairs.compare(pairs, "run_s", "lower", 0.25)
        assert bench_pairs.claim_verdict(stats, "s") == \
            pytest.approx(earlier["claim_rule_on_run_s"]), earlier["revision"]


def test_a_new_round_extends_the_pairs_of_its_own_parent_and_change_only():
    bench = json.loads((ROOT / "BENCH_18.json").read_text(encoding="utf-8"))
    parent, tree = bench["parent"]["commit"], bench["change"]["src_tree"]
    workloads = list(bench["workloads"])
    assert bench_pairs.recorded_pairs(bench, parent, tree, workloads) is bench["workloads"]
    with pytest.raises(SystemExit, match="every pair run counts"):
        bench_pairs.recorded_pairs(bench, parent, "0" * 40, workloads)
    with pytest.raises(SystemExit, match="every pair run counts"):
        bench_pairs.recorded_pairs(bench, "0" * 40, tree, workloads)
    assert bench_pairs.recorded_pairs(None, parent, tree, workloads) == \
        {w: {"pairs": []} for w in workloads}


@pytest.mark.parametrize("change,met", [
    # nine of ten won, medians 0.5 apart against a parent IQR of 0.2
    ([2.5] * 9 + [3.5], True),
    # eight of ten won: too few, however large the gap
    ([2.0] * 8 + [3.5, 3.5], False),
    # every pair won, by less than the parent's own spread
    ([x - 0.05 for x in (3.0, 3.1, 2.9, 3.2, 2.8, 3.0, 3.1, 2.9, 3.2, 2.8)], False),
])
def test_claim_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr(change, met):
    parent = [3.0, 3.1, 2.9, 3.2, 2.8, 3.0, 3.1, 2.9, 3.2, 2.8]
    stats = bench_pairs.compare(_pairs(parent, change), "run_s", "lower", 0.25)
    assert bench_pairs.claim_verdict(stats, "s")["met"] is met


def test_fewer_than_ten_pairs_never_make_a_claim():
    stats = bench_pairs.compare(_pairs([3.0, 3.1], [2.0, 2.1]), "run_s", "lower", 0.25)
    assert stats["change_wins"] == 2 and stats["gain"] > stats["parent_iqr"]
    assert bench_pairs.claim_verdict(stats, "s")["met"] is False


def test_tree_hash_is_the_one_git_gives(tmp_path):
    # `git rev-parse HEAD:pkg` of these files committed: a nested package,
    # an executable, and a file that sorts before the directory it prefixes
    pkg = tmp_path / "pkg"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\n")
    (pkg / "sub" / "__init__.py").write_text("")
    (pkg / "run.sh").write_text("#!/bin/sh\n")
    (pkg / "run.sh").chmod(0o755)
    (pkg / "sub.txt").write_text("y\n")
    assert bench_pairs.tree_hash(pkg) == "4ad5d779c5c25eb518159e446652977830290ea6"


def test_direction_and_bound_follow_the_metric():
    parent, change = [10.0, 11.0, 12.0, 13.0], [12.0, 13.0, 14.0, 15.0]
    higher = bench_pairs.compare(_pairs(parent, change, "x"), "x", "higher", 0.1)
    assert higher["change_wins"] == 4 and higher["gain"] == pytest.approx(2.0)
    lower = bench_pairs.compare(_pairs(parent, change, "x"), "x", "lower", 0.1)
    assert lower["change_wins"] == 0 and lower["gain"] == pytest.approx(-2.0)
    # 13.5 against 11.5 is 17% worse: beyond a 0.1 bound, within a 0.2 one
    assert not lower["within_bound"]
    assert bench_pairs.compare(_pairs(parent, change, "x"), "x", "lower", 0.2)["within_bound"]


def test_wall_seconds_are_recorded_with_their_spread_and_no_verdict(tmp_path):
    timed = tmp_path / "benchmark" / "out" / "dense-random" / "timed.json"
    timed.parent.mkdir(parents=True)
    timed.write_text(json.dumps({"round_wall_s": [2.0, 1.5, 3.0, 1.75]}))
    assert bench_pairs.wall_median(tmp_path, "dense-random") == 1.875
    pairs = [{"parent": {"wall_s": a}, "change": {"wall_s": b}}
             for a, b in [(2.0, 1.5), (2.5, 2.5), (3.0, 2.0)]]
    stats = bench_pairs.wall_spread(pairs + [{"parent": {}, "change": {}}])
    assert stats["parent"]["median"] == 2.5 and stats["change"]["median"] == 2.0
    assert stats["difference"]["median"] == -0.5 and stats["difference"]["n"] == 3
    assert set(stats) == {"parent", "change", "difference"}
    # rounds recorded before the field existed have no wall figures
    bench = json.loads((ROOT / "BENCH_18.json").read_text(encoding="utf-8"))
    assert bench_pairs.wall_spread(bench["workloads"]["dense-random"]["pairs"]) is None
