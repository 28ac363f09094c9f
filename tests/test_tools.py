"""The timing tools under ``tools/`` still run: each is loaded by path, run
at shrunken sizes, and must print its digest lines."""

import importlib.util
import re
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"

# The verdicts of seeds 0 to 299 at n = 90, recorded before ``estimate``
# folded its counts in one product.
VERDICT_SHA256 = "cf41e1bdfae9adb251d7aa653e0ac632baae151d4f4fd4b005118228198df519"


def load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generation_timing_prints_its_digests(capsys):
    tool = load("generation_timing")
    tool.SIZES, tool.REPEAT, tool.SMALL_CALLS = (100,), 1, 1
    tool.main()
    out = capsys.readouterr().out
    assert f"sha256 of every verdict of seeds 0 to 299: {VERDICT_SHA256}\n" in out
    assert len(re.findall(r"^ +100 .* ns/trial  [0-9a-f]{16}$", out, re.M)) == 8
    assert re.search(r"\nsha256 of every code generated: [0-9a-f]{64}\n$", out)


def test_codec_timing_prints_its_digest(capsys):
    tool = load("codec_timing")
    tool.N, tool.REPEAT, tool.LOOP_N, tool.PASSES = 1000, 1, 100, 2
    tool.main()
    out = capsys.readouterr().out
    assert "(write + read_row_counts) / run_experiment = " in out
    assert re.search(r"\nrows 1000, bytes \d+, sha256 [0-9a-f]{64}\n$", out)
