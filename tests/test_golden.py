"""Behaviour lock: every phase of the reference matrix reproduces its
recorded trace hash and CSV row (regenerate with tests/regen_golden.py)."""

import time

from regen_golden import CELLS, GOLDEN_PATH, golden_lines


def test_golden_runs_unchanged():
    t0 = time.monotonic()
    want = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
    got = golden_lines()
    assert {line.split()[0] for line in want} == {name for name, _ in CELLS}
    changed = [f"want {w}\n got {g}" for w, g in zip(want, got) if w != g]
    assert not changed, "\n".join(changed)
    assert len(got) == len(want)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"\ngolden lock: {len(got)} phases of {len(CELLS)} cells unchanged "
          f"({elapsed:.1f}s)")
