"""Behaviour lock: every phase of the reference matrix reproduces its
recorded trace hash and CSV row (regenerate with tests/regen_golden.py)."""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from regen_golden import (CELLS, GOLDEN_PATH, SWEEP_CELLS, changed_cells, golden_lines,
                          lines_by_cell)


def test_golden_runs_unchanged():
    t0 = time.monotonic()
    want = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
    got = golden_lines()
    # the sweep cell forks its workers, and so locks their pickled results,
    # only where the affinity mask holds two or more CPUs
    names = {name for name, *_ in (*CELLS, *SWEEP_CELLS)}
    assert {line.split()[0] for line in want} == names
    changed = [f"want {w}\n got {g}" for w, g in zip(want, got) if w != g]
    assert not changed, "\n".join(changed)
    assert len(got) == len(want)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\ngolden lock: {len(got)} phases of {len(CELLS)} cells unchanged "
          f"({elapsed:.1f}s)")


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
