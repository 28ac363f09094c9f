"""Record the reference outputs that ``run.py`` checks every op against.

    python3 perfbench/make_reference.py

Run once at the commit whose outputs are the reference. For each default
seed 0..99 it records the SHA-256 of both pipeline dataset CSVs and the
verdict of every Monte Carlo run of the batch; the loophole values do not
depend on the seed. It refuses to record values that miss the known
analytic results (2/3, 1/sqrt(2), 0.4, floor 1 infeasible).
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

from workloads import LP_TOLERANCE, MonteCarlo, Pipeline, import_bellsim, sha256

HERE = Path(__file__).resolve().parent
SEEDS = 100  # reference outputs are recorded for seeds 0..SEEDS-1


def loophole_reference(bs) -> dict:
    from bellsim.quantum import AngleTriple, match_table

    lh = bs.loophole
    canonical = match_table(AngleTriple.from_degrees(60, 0, 120))
    ref = {
        "max_efficiency": {
            "60,0,120": lh.max_faking_efficiency(canonical),
            "45,0,90": lh.max_faking_efficiency(match_table(AngleTriple.from_degrees(45, 0, 90))),
        },
        "demo_min_rate": lh.demonstration_solution(canonical).min_coincidence_rate,
        "floor0_min_rate": lh.solve_lp(lh.build_faking_lp(
            lh.FakingProblem(targets=canonical, efficiency_floor=0.0))).min_coincidence_rate,
        "floor1_status": lh.solve_lp(lh.build_faking_lp(
            lh.FakingProblem(targets=canonical, efficiency_floor=1.0))).status,
    }
    analytic = [(ref["max_efficiency"]["60,0,120"], 2 / 3),
                (ref["max_efficiency"]["45,0,90"], 1 / math.sqrt(2)),
                (ref["demo_min_rate"], 0.4), (ref["floor0_min_rate"], 2 / 3)]
    if any(abs(got - want) > LP_TOLERANCE for got, want in analytic) \
            or ref["floor1_status"] != "infeasible":
        sys.exit(f"loophole values miss the analytic results: {ref}")
    return ref


def pipeline_reference(bs, work: Path, seeds, **sizes) -> dict:
    ref = {"seeds": {}}
    for seed in seeds:
        wl = Pipeline(bs, work, seed, None, **sizes)
        wl.setup()
        wl.op()
        if wl.failures:
            sys.exit(f"pipeline seed {seed}: {wl.failures}")
        ref.update(n=wl.n, solution_sha256=sha256(wl.solution))
        ref["seeds"][str(seed)] = dict(wl.first_hash)
    return ref


def montecarlo_reference(bs, work: Path, seeds, **sizes) -> dict:
    ref = {"seeds": {}}
    for seed in seeds:
        wl = MonteCarlo(bs, work, seed, None, **sizes)
        for _ in range(wl.batch):
            wl.op()
        if wl.failures:
            sys.exit(f"montecarlo seed {seed}: {wl.failures}")
        ref.update(n=wl.n, batch=wl.batch, alpha=wl.alpha)
        ref["seeds"][str(seed)] = {
            verdict: sorted(k for k, v in wl.verdicts.items() if v == verdict)
            for verdict in ("reject", "refused")
        }
    return ref


def main() -> int:
    bs = import_bellsim()
    work = HERE / "work" / "make-reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = {
            "pipeline": pipeline_reference(bs, work, range(SEEDS)),
            "montecarlo": montecarlo_reference(bs, work, range(SEEDS)),
            "loophole": loophole_reference(bs),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
