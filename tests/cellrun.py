"""The one way tests run a scenario: `meshsim run` with every output.  Standard
library and meshsim only, so `regen_golden.py --check` needs no pytest."""

import tempfile
from pathlib import Path
from types import SimpleNamespace

from meshsim import cli, engine, experiment


def run_cell(text: str, sim_class=engine.Sim, medium_class=engine.Medium):
    """Run scenario `text`, each phase built as `sim_class` and each medium
    as `medium_class`.  Returns its `csv` lines, its `trace` lines, the
    bytes of its `routes` file, and each phase's `sims` and `results`."""
    cell = SimpleNamespace(sims=[], results=[])

    class Recorded(sim_class):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            cell.sims.append(self)

        def run(self):
            cell.results.append(super().run())
            return cell.results[-1]

    saved = experiment.Sim, engine.Medium
    experiment.Sim, engine.Medium = Recorded, medium_class
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out, trace, routes = (Path(tmp, n) for n in ("cfg", "csv", "trace", "routes"))
            cfg.write_text(text, encoding="utf-8")
            if cli.main(["run", str(cfg), "--out", str(out), "--trace", str(trace),
                         "--dump-routes", str(routes)]):
                raise RuntimeError(f"meshsim run failed on:\n{text}")
            cell.csv = out.read_text(encoding="utf-8").splitlines()
            cell.trace = trace.read_text(encoding="utf-8").splitlines(keepends=True)
            cell.routes = routes.read_bytes()
            return cell
    finally:
        experiment.Sim, engine.Medium = saved
