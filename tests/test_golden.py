"""Behaviour lock: every phase of the reference matrix reproduces its
recorded trace hash and CSV row (regenerate with tests/regen_golden.py)."""

import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from cellrun import run_cell
from meshsim.config import parse_config
from meshsim.engine import Sim
from meshsim.mac import RtsDecision
from meshsim.routing import RouteMetric
from regen_golden import (CELLS, GOLDEN_PATH, SWEEP_CELLS, cell_parts, changed_cells,
                          lines_by_cell)


def test_golden_runs_unchanged(golden_pass):
    want = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
    got = golden_pass.lines
    # the sweep cell forks its workers, and so locks their pickled results,
    # only where the affinity mask holds two or more CPUs
    names = {name for name, *_ in (*CELLS, *SWEEP_CELLS)}
    assert {line.split()[0] for line in want} == names
    changed = [f"want {w}\n got {g}" for w, g in zip(want, got) if w != g]
    assert not changed, "\n".join(changed)
    assert len(got) == len(want)
    # the fixture times its own pass: the plain golden cells and the sweep
    assert golden_pass.elapsed < 30.0
    kinds = Counter(line.split()[1].partition("=")[0] for line in got)
    print(f"\ngolden lock: {len(names)} cells unchanged (phase lines {kinds['trace']}, "
          f"routes lines {kinds['routes']}, sweep lines {kinds['csv']}; "
          f"{golden_pass.elapsed:.1f}s)")


def test_changed_cells_summary_names_what_moved():
    before = lines_by_cell([
        "a trace=1 s,1,aodv_hop,4", "a trace=2 s,1,corciar,4", "a routes=9",
        "b trace=1 s,2,aodv_hop,4", "b routes=9",
        "c trace=1 -", "c trace=2 s,3,corciar,4", "c routes=9",
        "gone trace=1 -", "gone routes=9"])
    assert changed_cells(before, before) == "changed cells: none"
    after = lines_by_cell([
        "a trace=1 s,1,aodv_hop,4", "a trace=3 s,1,corciar,5", "a routes=8",
        "b trace=7 s,2,aodv_hop,4", "b routes=9",
        "c trace=1 -", "c trace=2 s,3,corciar,4", "c routes=8",
        "new trace=1 -", "new routes=9"])
    assert changed_cells(before, after) == (
        "changed cells: a (trace, csv, routes), b (trace), c (routes), "
        "new (added), gone (removed)")


class HopCountSim(Sim):
    """A phase routed by hop count whatever metric it was built with; the
    corciar phase keeps its label and its seeded link costs."""

    def __init__(self, config, metric, *args, **kwargs):
        super().__init__(config, RouteMetric.HOP_COUNT, *args, **kwargs)


def test_a_corciar_phase_routed_by_hop_count_retraces_the_hop_count_phase():
    # the route metric alone tells a corciar phase from its hop-count phase:
    # without it, the seeded RTT costs leave no mark on the run
    stored = lines_by_cell(GOLDEN_PATH.read_text(encoding="utf-8").splitlines())
    hashes = {name: cell_parts(stored[name])["trace"] for name, _ in CELLS}
    differ = [(name, text) for name, text in CELLS if len(set(hashes[name])) > 1]
    assert differ
    for name, text in differ:
        run = run_cell(text, HopCountSim)
        assert [r.trace_hash for r in run.results] == [hashes[name][0]] * 2, name


def test_orthogonal_random_cells_never_defer_an_rts(golden_pass):
    # the orthogonal plan's channels lie at least 5 apart, no closer than
    # the admission threshold, so symmetric admission never defers; literal
    # admission on the same plan does
    configs = {name: parse_config(text) for name, text in CELLS}
    plain = [name for name, cfg in configs.items() if cfg.topology.kind == "random"
             and (cfg.channel_plan, cfg.rts_mode) == ("orthogonal", "symmetric")]
    assert plain
    for name in plain:
        verdicts = golden_pass.seen[name]
        assert verdicts[RtsDecision.SEND_CTS] > 0 and verdicts[RtsDecision.DEFER] == 0, name
    literal = golden_pass.seen["random12-corciar-literal"]
    assert 0 < literal[RtsDecision.SEND_CTS] and 0 < literal[RtsDecision.DEFER]
    print("\nRTS verdicts (SEND_CTS, DEFER): " + "; ".join(
        f"{name} {golden_pass.seen[name][RtsDecision.SEND_CTS]}, "
        f"{golden_pass.seen[name][RtsDecision.DEFER]}"
        for name in (*plain, "random12-corciar-literal")))


def other_interpreters():
    """Every CPython 3.10 or later in pyenv's versions directory, except the
    version running this test."""
    versions = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv") / "versions"
    found = []
    for path in sorted(versions.iterdir()) if versions.is_dir() else ():
        m = re.fullmatch(r"3\.(\d+)\.(\d+)", path.name)
        if m and int(m[1]) >= 10 and (3, int(m[1]), int(m[2])) != sys.version_info[:3] \
                and (path / "bin" / "python3").exists():
            found.append(path / "bin" / "python3")
    return found


def test_golden_runs_unchanged_under_other_interpreters(full_mode):
    # determinism holds across interpreters, not only across runs of one; the
    # sweep cell checks each interpreter's pickles from a forked worker when
    # the affinity mask holds two or more CPUs
    if not full_mode:
        pytest.skip("runs with --full")
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no other CPython 3.10+ in pyenv's versions directory")
    script = Path(__file__).resolve().parent / "regen_golden.py"
    for python in pythons:
        done = subprocess.run([str(python), str(script), "--check"],
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0 and "changed cells: none" in done.stdout, (
            str(python), done.stdout, done.stderr)
        print(f"\ngolden lock under {python}: unchanged")
