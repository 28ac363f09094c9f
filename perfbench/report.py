"""Run every workload untraced and traced and print all metrics by name.

    python3 perfbench/report.py [--seed 0] [--seconds 15]

Prints, per workload, the end-to-end metrics under the names README.md
uses (with units and sample counts), then the per-layer metrics of the
traced run, whose ``trace.overhead_*`` rows are the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return json.loads(detail)["detail"], json.loads(result)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    args = parser.parse_args()
    for workload in WORKLOADS:
        detail, result = run(workload, args.seed, args.seconds, 0)
        m = detail["machine"]
        print(f"== {workload}, seed {args.seed}: {detail['ops']} ops of {detail['op_unit']}; "
              f"checked against {detail['checked_against']}")
        print(f"   {m['cpu']}, nproc {m['nproc']}, Python {m['python']}, numpy {m['numpy']}")
        for name, v in detail["metrics"].items():
            print(f"   {name:34s} {v['value']:14.6g} {v['unit']:9s} n={v['samples']}")
        for failure in detail["failures"]:
            print(f"   FAILED {failure}")
        print(f"   result: {json.dumps(result['metrics'])}")
        detail, result = run(workload, args.seed, args.seconds, 1)
        print(f"   traced: {detail['ops']} ops ({detail['untraced_ops']} untraced), "
              f"spans in {detail['spans_file']}")
        for name, v in result["metrics"].items():
            print(f"   {name:34s} {v['value']:14.6g} {v['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
