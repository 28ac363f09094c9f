"""The timing tools under ``tools/`` still run: each is loaded by path, run
at shrunken sizes, and must print its digest lines."""

import importlib.util
import re
import shutil
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# The verdicts of seeds 0 to 299 at n = 90, recorded before ``estimate``
# folded its counts in one product.
VERDICT_SHA256 = "cf41e1bdfae9adb251d7aa653e0ac632baae151d4f4fd4b005118228198df519"
# What ``loophole._optimum`` answers to perfbench's five faking analyses,
# recorded when the floor-0 programs without the stealth row became
# Dantzig-priced.
SOLVER_SHA256 = "d3aba44531db7eca2ee3311415a9f00c6381f99ada580c8127d814605fb82ca7"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generation_timing_prints_its_digests(capsys):
    tool = load("generation_timing")
    tool.SIZES, tool.REPEAT, tool.LOOP_N, tool.PASSES = (100,), 1, 100, 1
    tool.main()
    out = capsys.readouterr().out
    assert len(re.findall(r"^ +100 .* ns/trial  [0-9a-f]{16}$", out, re.M)) == 8
    assert re.search(r"\nsha256 of every code generated: [0-9a-f]{64}\n$", out)


def test_generation_timing_prints_its_codec_digest(capsys):
    """The codec lines of ``generation_timing``: write and read back the
    largest quantum ``uniform-9`` dataset its table made."""
    tool = load("generation_timing")
    tool.SIZES, tool.REPEAT, tool.LOOP_N, tool.PASSES = (100, 1000), 1, 100, 2
    tool.main()
    out = capsys.readouterr().out
    assert "(write + read_row_counts) / run_experiment = " in out
    assert re.search(r"\nrows 1000, bytes \d+, sha256 [0-9a-f]{64}\n", out)


def test_pair_timing_checks_verdicts_then_times_both_trees(capsys):
    tool = load("pair_timing")
    tool.BLOCKS, tool.RUNS = 2, 3
    src = TOOLS.parent / "src"
    assert tool.main([str(src), str(src / "bellsim")]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"parent verdict sha256: {VERDICT_SHA256}\n"
                          f"change verdict sha256: {VERDICT_SHA256}\n")
    assert len(re.findall(r"^(parent|change) median \d+\.\d\d us per run over 2 blocks of 3$",
                          out, re.M)) == 2
    assert re.search(r"\npaired median ratio change/parent: \d\.\d{4}\n$", out)
    assert not any(name.startswith(("bellsim_parent", "bellsim_change")) for name in sys.modules)


def test_pair_timing_refuses_trees_that_decide_differently(capsys, tmp_path):
    changed = tmp_path / "bellsim"
    shutil.copytree(TOOLS.parent / "src" / "bellsim", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = changed / "experiment.py"
    text = source.read_text().replace("margin = est.statistic - z * est.std_error",
                                      "margin = est.statistic - 2 * z * est.std_error")
    assert "2 * z" in text
    source.write_text(text)
    tool = load("pair_timing")
    assert tool.main([str(TOOLS.parent / "src"), str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.endswith("the trees decide differently; no timing\n")
    assert "median" not in out


def test_pair_timing_checks_solves_then_times_loophole_passes(capsys):
    tool = load("pair_timing")
    tool.BLOCKS, tool.PASSES = 2, 1
    src = TOOLS.parent / "src"
    assert tool.main([str(src), str(src / "bellsim"), "--workload", "loophole"]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"parent solver sha256: {SOLVER_SHA256}\n"
                          f"change solver sha256: {SOLVER_SHA256}\n")
    assert len(re.findall(r"^(parent|change) median \d+\.\d\d us per pass over 2 blocks of 1$",
                          out, re.M)) == 2
    assert re.search(r"\npaired median ratio change/parent: \d\.\d{4}\n$", out)
    assert not any(name.startswith(("bellsim_parent", "bellsim_change")) for name in sys.modules)


def test_pair_timing_refuses_trees_that_solve_differently(capsys, tmp_path):
    changed = tmp_path / "bellsim"
    shutil.copytree(TOOLS.parent / "src" / "bellsim", changed,
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = changed / "simplex.py"
    text = source.read_text().replace("self.pivots += 1", "self.pivots += 2")
    assert "+= 2" in text
    source.write_text(text)
    tool = load("pair_timing")
    assert tool.main([str(TOOLS.parent / "src"), str(tmp_path), "--workload", "loophole"]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"parent solver sha256: {SOLVER_SHA256}\n")
    assert out.endswith("the trees solve differently; no timing\n")
    assert "median" not in out
