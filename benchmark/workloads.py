"""The benchmark's three workloads: their inputs and the command line each
one is run through.

dense-random and long-airtime are fixed reference scenarios.  Their inputs
do not depend on --seed: dense-random carries the one known fault the
benchmark counts (a corciar row labelled PerfectlyElastic at cor 1.199),
which must fail in every run alike, and on random topologies the two
phases' throughput ratio, and with it that same mislabel, comes and goes
with the seed.  chain-sweep takes its cell seeds from --seed; a chain has a
single path, so both phases route alike and its rows cannot hit the mislabel.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

SWEEP_HOPS = (2, 3, 4, 5, 6, 8)
SWEEP_SEEDS_PER_RUN = 3
PROTOCOLS = ("aodv_hop", "corciar")


@dataclass(frozen=True)
class Workload:
    """A workload's name (its config is configs/<name>.cfg) and entry point;
    why each exists is recorded in BENCHMARK.json and the README."""

    name: str
    kind: str          # "run": `meshsim run`; "sweep": `meshsim sweep --hops`

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / f"{self.name}.cfg"

    def config_text(self) -> str:
        return self.config_path.read_text(encoding="utf-8")


WORKLOADS = {w.name: w for w in (Workload("dense-random", "run"),
                                 Workload("long-airtime", "run"),
                                 Workload("chain-sweep", "sweep"))}


def sweep_seeds(seed: int) -> Tuple[int, ...]:
    """Cell seeds of one chain-sweep run: 3n+1, 3n+2, 3n+3 for --seed n."""
    first = SWEEP_SEEDS_PER_RUN * seed + 1
    return tuple(range(first, first + SWEEP_SEEDS_PER_RUN))


def cli_argv(workload: Workload, seed: int, out_csv: Path,
             trace_path: Path = None) -> List[str]:
    """Arguments for meshsim.cli.main that run one round of the workload."""
    if workload.kind == "run":
        argv = ["run", str(workload.config_path), "--out", str(out_csv)]
        if trace_path is not None:
            argv += ["--trace", str(trace_path)]
        return argv
    return ["sweep", "--config", str(workload.config_path),
            "--hops", ",".join(str(h) for h in SWEEP_HOPS),
            "--seeds", ",".join(str(s) for s in sweep_seeds(seed)),
            "--out", str(out_csv)]


def cell_configs(workload: Workload, seed: int):
    """Every cell's scenario config, in the sweep's (value, seed) order.

    Built from the config text and TopologySpec directly rather than through
    the sweep's own axis helper, so the checks do not share its code.
    """
    from meshsim.config import TopologySpec, parse_config

    base = parse_config(workload.config_text())
    if workload.kind == "run":
        return [base]
    return [dataclasses.replace(base, topology=TopologySpec("chain", hops + 1), seed=cell_seed)
            for hops in SWEEP_HOPS for cell_seed in sweep_seeds(seed)]
