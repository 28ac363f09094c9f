"""The timing tool under ``tools/`` still runs: it is loaded by path, run
at shrunken sizes, and must print its digest lines and its JSON entry."""

import importlib.util
import json
import re
import shutil
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"
SRC = TOOLS.parent / "src"

# The verdicts of seeds 0 to 299 at n = 90, recorded before ``estimate``
# folded its counts in one product.
VERDICT_SHA256 = "cf41e1bdfae9adb251d7aa653e0ac632baae151d4f4fd4b005118228198df519"
# What ``loophole._optimum`` answers to perfbench's five faking analyses,
# recorded when the floor-0 programs without the stealth row became
# Dantzig-priced.
SOLVER_SHA256 = "d3aba44531db7eca2ee3311415a9f00c6381f99ada580c8127d814605fb82ca7"
ENTRY_KEYS = ["workload", "digest", "pairs", "count", "parent_median_s", "change_median_s",
              "ratio", "change_wins", "parent_iqr_s"]
# Per workload: what its SHA-256 holds, what trees that print two do
# differently, ops a block, the sizes it runs at here and its pinned SHA-256.
WORKLOADS = {
    "montecarlo": ("verdict", "decide", 3, {}, VERDICT_SHA256),
    "loophole": ("solver", "solve", 1, {}, SOLVER_SHA256),
    "pipeline": ("pipeline", "write or estimate", 1, {"PIPELINE_N": 200}, ""),
    "end-to-end": ("pipe", "simulate or test", 1, {"PIPE_N": 1000}, ""),
}
# Per workload, a change to what it answers: (module, old, new). The
# header line may end in "\n", which the readers take, as well as "\r\n".
HEADER_LF = ("experiment.py", 'target.write(_HEADER + b"\\r\\n")',
             'target.write(_HEADER + b"\\n")')
MUTATIONS = {
    "montecarlo": ("experiment.py", "margin = est.statistic - z * est.std_error",
                   "margin = est.statistic - 2 * z * est.std_error"),
    "loophole": ("simplex.py", "self.pivots += 1", "self.pivots += 2"),
    "pipeline": HEADER_LF, "end-to-end": HEADER_LF,
}


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def shrunken(sizes):
    """``pair_timing`` at 2 blocks and ``sizes``."""
    tool = load("pair_timing")
    tool.BLOCKS = 2
    for name, value in sizes.items():
        setattr(tool, name, value)
    return tool


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pair_timing_checks_answers_then_times_both_trees(capsys, workload):
    kind, _, count, sizes, pinned = WORKLOADS[workload]
    tool = shrunken(sizes)
    tool.WORKLOADS[workload] = tool.WORKLOADS[workload]._replace(count=count)
    assert tool.main([str(SRC), str(SRC / "bellsim"), "--workload", workload]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    entry = json.loads(lines[-1])
    assert list(entry) == ENTRY_KEYS
    assert re.fullmatch(pinned or "[0-9a-f]{64}", entry["digest"])
    assert lines[:2] == [f"{label} {kind} sha256: {entry['digest']}"
                         for label in ("parent", "change")]
    unit = tool.WORKLOADS[workload].unit
    faults = re.findall(rf"^(?:parent|change) median \d+\.\d\d us per {unit} over 2 blocks of "
                        rf"{count}, (\d+\.\d) minor faults per {unit}$", out, re.M)
    assert len(faults) == 2
    if workload == "end-to-end":  # the two CLI processes', thousands; this process's are ~0
        assert all(float(f) > 1000 for f in faults)
    stages = (r"^(parent|change) median generate \d+\.\d\d ms, write \d+\.\d\d ms, "
              r"read \d+\.\d\d ms per op; \(write \+ read\) / generate = \d+\.\d\d$")
    assert len(re.findall(stages, out, re.M)) == (2 if workload == "pipeline" else 0)
    assert re.fullmatch(r"paired median ratio change/parent: \d\.\d{4}", lines[-2])
    assert (entry["workload"], entry["pairs"], entry["count"]) == (workload, 2, count)
    assert entry["parent_median_s"] > 0 and entry["change_median_s"] > 0
    assert not any(name.startswith(("bellsim_parent", "bellsim_change")) for name in sys.modules)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_pair_timing_refuses_trees_that_answer_differently(capsys, tmp_path, workload):
    kind, verb, _, sizes, pinned = WORKLOADS[workload]
    module, old, new = MUTATIONS[workload]
    changed = tmp_path / "bellsim"
    shutil.copytree(SRC / "bellsim", changed, ignore=shutil.ignore_patterns("__pycache__"))
    text = (changed / module).read_text()
    assert old in text
    (changed / module).write_text(text.replace(old, new))
    assert shrunken(sizes).main([str(SRC), str(tmp_path), "--workload", workload]) == 1
    parent, change, last = capsys.readouterr().out.splitlines()
    assert re.fullmatch(f"parent {kind} sha256: {pinned or '[0-9a-f]{64}'}", parent)
    assert re.fullmatch(f"change {kind} sha256: [0-9a-f]{{64}}", change)
    assert parent[-64:] != change[-64:]
    assert last == f"the trees {verb} differently; no timing"
