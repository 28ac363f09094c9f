"""Smoke test of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

1. Records a reference for seed 0 at tiny sizes, the way make_reference.py
   records the real one, and runs each workload once (one op, untraced and
   traced) against it: every check must pass and every metric must appear.
2. Corrupts one reference value per workload and runs again: the run must
   finish and report the mismatch as a failed operation, not a pass.
3. Runs run.py in a directory holding only BENCHMARK.json and perfbench/:
   it must exit non-zero without printing a result.

Prints one line per step and exits non-zero at the first broken expectation.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run
from make_reference import loophole_reference, montecarlo_reference, pipeline_reference
from workloads import ROOT, import_bellsim

SIZES = {"pipeline": {"n": 5_000}, "montecarlo": {"batch": 20}, "loophole": {}}


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def corrupt(reference: dict, workload: str) -> dict:
    bad = copy.deepcopy(reference)
    if workload == "pipeline":
        bad["pipeline"]["seeds"]["0"]["A"] = "0" * 64
    elif workload == "montecarlo":
        verdicts = bad["montecarlo"]["seeds"]["0"]  # flip the verdict of run 0
        rejected = verdicts["reject"]
        verdicts["reject"] = [k for k in rejected if k != 0] if 0 in rejected else [0, *rejected]
    else:
        bad["loophole"]["max_efficiency"]["60,0,120"] += 0.01
    return bad


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    bs = import_bellsim()
    work = run.WORK / "smoke"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = {
            "pipeline": pipeline_reference(bs, work, [0], **SIZES["pipeline"]),
            "montecarlo": montecarlo_reference(bs, work, [0], **SIZES["montecarlo"]),
            "loophole": loophole_reference(bs),
        }
        for workload, sizes in SIZES.items():
            for trace, names in ((False, end_to_end), (True, per_layer)):
                detail, result = run.run(workload, 0, 0, trace, reference, sizes)
                expect(result["correct"] and result["failed"] == 0
                       and result["attempted"] >= 1
                       and detail["checked_against"].startswith("reference")
                       and set(result["metrics"]) == names,
                       f"{workload} trace={int(trace)}: {result['attempted']} checked, "
                       f"{result['failed']} failed, metrics as BENCHMARK.json lists them")
            _, result = run.run(workload, 0, 0, False, corrupt(reference, workload), sizes)
            expect(not result["correct"] and 1 <= result["failed"] <= result["attempted"],
                   f"{workload} with a corrupted reference: {result['failed']} of "
                   f"{result['attempted']} operations reported failed")

        bare = work / "bare"
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "loophole", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without bellsim sources: exit {proc.returncode}, no result printed")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
