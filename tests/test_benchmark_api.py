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
