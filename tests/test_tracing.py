"""The benchmark's tracer (``perfbench/tracing.py``) patches bellsim's modules
by attribute name, so every name it patches must stay importable, and
undoing the patches must put the originals back."""

import importlib.util
from pathlib import Path

import bellsim
import bellsim.cli
from bellsim.experiment import SOURCE_QUANTUM, ExperimentConfig
from bellsim.quantum import AngleTriple

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_undoes():
    tracing = load_tracing()
    modules = (bellsim.cli, bellsim.experiment, bellsim.loophole, bellsim.simplex)
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, bellsim)
    try:
        config = ExperimentConfig(n_trials=5, seed=1, source=SOURCE_QUANTUM,
                                  angles=AngleTriple.from_degrees(60, 0, 120))
        assert len(bellsim.experiment.run_experiment(config)) == 5
        assert tracer.total("experiment.run_experiment", 0) == 1
        assert tracer.counts["experiment.trials"] == 5
    finally:
        undo()
    assert [dict(vars(module)) for module in modules] == before
