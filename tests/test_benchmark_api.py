"""The benchmark (``perfbench/``) drives bellsim through its public API, so
each workload runs here once, at its reference sizes: set-up, first call and
one op, with every output checked against ``perfbench/reference.json``. A
removed or changed name the benchmark relies on fails here, not only in a
benchmark run."""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ("pipeline", "montecarlo", "loophole"))
def test_workload_runs_one_checked_op(name, workloads, tmp_path):
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name]
    workload = workloads.WORKLOADS[name](workloads.import_bellsim(), tmp_path, 0, reference)
    workload.setup()
    workload.first_call()
    workload.op()
    assert workload.reference_note.startswith("reference"), workload.reference_note
    assert workload.attempted >= 1 and workload.failed == 0, workload.failures


def test_montecarlo_checks_a_refused_run(workloads, tmp_path):
    # Seed 0's batch refuses no run, so the test above never reaches the
    # check of a refusal, which iterates the dataset's rows. Run 191 of
    # seed 20's batch is refused, and its check must pass.
    reference = json.loads((PERFBENCH / "reference.json").read_text())["montecarlo"]
    workload = workloads.WORKLOADS["montecarlo"](workloads.import_bellsim(), tmp_path, 20, reference)
    workload.k = reference["seeds"]["20"]["refused"][0]
    workload.op()
    assert workload.attempted == 1 and workload.failed == 0, workload.failures
