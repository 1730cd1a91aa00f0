"""Golden lock: the trace hash and CSV row of every phase of a small
reference matrix, run through the command line.

    python3 tests/regen_golden.py           # rewrites tests/data/golden_runs.txt
    python3 tests/regen_golden.py --check   # compares only; exit 1 on a change

tests/test_golden.py reruns the matrix and compares it with the file line by
line.  A change that alters any simulated output shows up as a changed line;
regenerate only when such a change is intended, and name each changed cell
(the script prints the cells whose lines differ from the stored file, each
with the parts that moved: `trace`, `csv`, `routes`, or `added`/`removed`
for a cell only one side has).

Each cell has one line per phase, `<cell> trace=<sha256 of the phase's trace
lines> <csv row>` with `-` for a phase that emits no row, then one line
`<cell> routes=<sha256 of the --dump-routes file>`: route costs and hop
counts reach no other output.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

TESTS_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = TESTS_DIR / "data" / "golden_runs.txt"

if __name__ == "__main__":
    sys.path.insert(0, str(TESTS_DIR.parent / "src"))

from meshsim import cli  # noqa: E402

# (cell name, scenario text).  Short runs keep the whole matrix near 10 s
# while covering every topology kind, channel plan, handshake mode, traffic
# class and protocol selection, a jammer, long airtime and a cor > 1 cell,
# plus the edge cases of one radio per node, an always-on jammer, a flow
# whose destination no path reaches (every discovery attempt fails) and two
# flows on one (src, dst) pair (a route install restarts both).
CELLS = (
    ("chain4-orthogonal", "topology = chain(4)\nsim_time_s = 5\nseed = 1\n"),
    ("chain5-overlapping-literal-dt",
     "topology = chain(5)\nchannel_plan = overlapping\nrts_mode = literal\n"
     "traffic_class = delay_tolerant\nsim_time_s = 5\nseed = 2\n"),
    ("chain4-pcl", "topology = chain(4)\nchannel_plan = pcl\nsim_time_s = 12\nseed = 3\n"),
    ("random20-pcl-three-radios",
     "topology = random(20)\nchannel_plan = pcl\nradios_per_node = 3\n"
     "sim_time_s = 12\nseed = 4\n"),
    ("chain3-explicit-aodv",
     "topology = chain(3)\nchannel_plan = 3,6;6,9;9,3\nprotocol = aodv_hop\n"
     "sim_time_s = 5\nseed = 4\n"),
    ("chain5-jammer-stress",
     "topology = chain(5)\nchannel_plan = overlapping\nqueue_capacity = 4\n"
     "jammer_channel = 3\njammer_x = 375\njammer_y = 0\nsim_time_s = 8\nseed = 5\n"),
    ("mesh8-jammer",
     "topology = mesh8\njammer_channel = 1\njammer_x = 100\njammer_y = -80\n"
     "sim_time_s = 10\nseed = 1\n"),
    ("random12-corciar-literal",
     "topology = random(12, 4)\nprotocol = corciar\nrts_mode = literal\n"
     "sim_time_s = 6\nseed = 6\n"),
    ("random15-long-airtime",
     "topology = random(15)\ndata_rate_bps = 200000\nsim_time_s = 10\nseed = 8\n"),
    ("random20-cor-above-one", "topology = random(20)\nsim_time_s = 8\nseed = 1\n"),
    ("chain3-zero-time", "topology = chain(3)\nsim_time_s = 0\n"),
    ("chain4-one-radio",
     "topology = chain(4)\nradios_per_node = 1\nchannel_plan = 6;6;6;6\n"
     "sim_time_s = 6\nseed = 2\n"),
    ("chain4-jammer-always-on",
     "topology = chain(4)\nchannel_plan = overlapping\njammer_channel = 3\n"
     "jammer_x = 225\njammer_y = 0\njammer_on_s = 1000\njammer_off_s = 0.01\n"
     "sim_time_s = 6\nseed = 3\n"),
    ("mesh8-unreachable-flow",
     "topology = mesh8\nflows = 5>4, 5>1\nsim_time_s = 10\nseed = 2\n"),
    ("chain4-two-flows-one-pair",
     "topology = chain(4)\nflows = 0>3, 0>3, 3>0\nwindow = 2\n"
     "sim_time_s = 8\nseed = 5\n"),
)


def cell_lines(name: str, text: str, work_dir: Path):
    """The golden lines of one cell, from `meshsim run`."""
    cfg, out, trace, routes = (work_dir / f"{name}.{ext}"
                               for ext in ("cfg", "csv", "trace", "routes"))
    cfg.write_text(text, encoding="utf-8")
    status = cli.main(["run", str(cfg), "--out", str(out), "--trace", str(trace),
                       "--dump-routes", str(routes)])
    if status != 0:
        raise RuntimeError(f"cell {name} exited {status}")
    hashes, phase = [], hashlib.sha256()
    for line in trace.read_text(encoding="utf-8").splitlines(keepends=True):
        phase.update(line.encode())
        if line.split()[1] == "SimEnd":
            hashes.append(phase.hexdigest())
            phase = hashlib.sha256()
    rows = out.read_text(encoding="utf-8").splitlines()[1:]
    if not 0 < len(rows) <= len(hashes):
        raise RuntimeError(f"cell {name}: {len(rows)} rows but {len(hashes)} phases")
    # `protocol = corciar` emits no row for its hop-count measurement pass
    rows = ["-"] * (len(hashes) - len(rows)) + rows
    routes_hash = hashlib.sha256(routes.read_bytes()).hexdigest()
    return [f"{name} trace={h} {row}" for h, row in zip(hashes, rows)] \
        + [f"{name} routes={routes_hash}"]


def golden_lines():
    with tempfile.TemporaryDirectory() as tmp:
        return [line for name, text in CELLS
                for line in cell_lines(name, text, Path(tmp))]


def lines_by_cell(lines):
    cells = {}
    for line in lines:
        cells.setdefault(line.split()[0], []).append(line)
    return cells


def cell_parts(lines):
    """One cell's golden lines split into its parts: the phases' trace
    hashes, their CSV rows and the routes hash."""
    parts = {"trace": [], "csv": [], "routes": []}
    for line in lines:
        kind, _, rest = line.split(" ", 1)[1].partition("=")
        value, _, row = rest.partition(" ")
        parts[kind].append(value)
        if kind == "trace":
            parts["csv"].append(row)
    return parts


def changed_cells(before, after):
    """The summary line of two {cell: lines} maps, e.g.
    `changed cells: chain4-pcl (trace, csv)`."""
    changed = []
    for name in [*after, *(n for n in before if n not in after)]:
        old, new = before.get(name), after.get(name)
        if old == new:
            continue
        if old is None or new is None:
            what = ["added" if old is None else "removed"]
        else:
            old, new = cell_parts(old), cell_parts(new)
            what = [part for part in old if old[part] != new[part]]
        changed.append(f"{name} ({', '.join(what)})")
    return "changed cells: " + (", ".join(changed) if changed else "none")


def main() -> int:
    check = "--check" in sys.argv[1:]
    before = lines_by_cell(GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
                           if GOLDEN_PATH.exists() else [])
    lines = golden_lines()
    after = lines_by_cell(lines)
    if not check:
        GOLDEN_PATH.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN_PATH}")
    print(changed_cells(before, after))
    return 1 if check and before != after else 0


if __name__ == "__main__":
    sys.exit(main())
