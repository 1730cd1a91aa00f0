"""The benchmark's per-layer tracer, benchmark/layers.py, wraps engine,
routing, topology, MAC and command-line functions at the names their callers
look them up by.  A refactor that renames or deletes one of those names
breaks `python3 benchmark/run.py --trace 1` and nothing else; this test
loads the tracer from its file, as the benchmark does, and runs a short
scenario under it."""

import importlib.util
import sys
from pathlib import Path

from meshsim import experiment
from meshsim.config import ScenarioConfig, TopologySpec

LAYERS_PATH = Path(__file__).resolve().parent.parent / "benchmark" / "layers.py"


def load_layers(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)   # no __pycache__ there
    spec = importlib.util.spec_from_file_location("benchmark_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_benchmark_tracer_fits_the_engine(monkeypatch):
    layers = load_layers(monkeypatch)
    cfg = ScenarioConfig(topology=TopologySpec("chain", 3), sim_time_s=5.0, seed=1)
    untraced = [row.result for row in experiment.execute(cfg)]
    execute = experiment.execute

    # every patch target is looked up by name; one that no longer exists
    # raises here, before anything is patched
    targets = [(obj, name) for obj, name, _ in layers._patches(layers.Tracer())]
    assert all(name in vars(obj) for obj, name in targets)

    tracer = layers.Tracer()
    with layers.instrumented(tracer):
        assert experiment.execute is not execute
        traced = [row.result for row in experiment.execute(cfg)]
    assert experiment.execute is execute
    assert [r.trace_hash for r in traced] == [r.trace_hash for r in untraced]

    metrics = layers.layer_metrics(tracer, traced, 1.0)
    assert metrics["experiment.cells"] == 1
    assert metrics["topology.build_calls"] == 1
    assert metrics["engine.events"] == sum(r.dispatched_events for r in untraced)
    for name in ("engine.schedule_calls", "engine.medium.carrier_busy_calls",
                 "engine.medium.corrupted_calls", "mac.enqueue_calls",
                 "mac.frames_released", "mac.rts_decisions",
                 "routing.discover_calls", "routing.hello_processed",
                 "routing.lookup_calls", "routing.estimator_updates"):
        assert metrics[name] > 0, name
