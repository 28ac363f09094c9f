"""Compare two checkouts' run time on one workload, paired, in one process.

    python tools/pair_timing.py PARENT_SRC CHANGE_SRC [--workload montecarlo|loophole]

Each source argument is a checkout's ``src`` directory (or its
``src/bellsim`` package). Each tree is copied into a temporary directory
under its own package name, ``bellsim_parent`` or ``bellsim_change``
(bellsim imports itself only relatively), and both are imported into this
one process.

First both trees must give the same answers, or it exits with status 1
and times nothing:

* ``montecarlo`` (the default): one SHA-256 over the JSON of ``estimate``
  and ``decide``'s ``to_dict()`` (or the ``EstimationError`` message of a
  refused run) of seeds ``VERDICT_SEEDS`` at n = 90 under both
  conditionings, on criterion 7's boundary mixture.
* ``loophole``: one SHA-256 over what ``loophole._optimum`` answers to
  ``perfbench``'s five faking analyses (``ANALYSES``): the route, the
  status, the pivots of each phase, z* and the bytes of x.

Then it times ``BLOCKS`` pairs of blocks. A ``montecarlo`` block is
``RUNS`` runs, each ``ExperimentConfig -> run_experiment -> estimate ->
decide`` at n = 90 as ``perfbench``'s ``montecarlo`` workload makes it,
seeds counting up. A ``loophole`` block is ``PASSES`` passes over the five
analyses through the public calls ``perfbench``'s ``loophole`` workload
makes. The two trees alternate, the one that goes first alternating too, so
drift in the machine's speed falls on both alike. It prints each tree's
median µs per run (or pass) over its blocks and the median over the pairs
of the change's block time over the parent's: below 1 when the change is
faster.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

SMALL_N = 90  # the montecarlo workload's n
VERDICT_SEEDS = range(300)  # the montecarlo workload's batch at seed 0
BLOCKS = 41
RUNS = 300
PASSES = 8
# perfbench's loophole analyses: (angles, efficiency floor, stealth). Max
# efficiency and floor 0 at (60,0,120) are one problem, answered twice.
ANALYSES = (((60, 0, 120), 0.0, False), ((45, 0, 90), 0.0, False),
            ((60, 0, 120), 0.0, True), ((60, 0, 120), 0.0, False), ((60, 0, 120), 1.0, False))


def package_dir(path: str) -> Path:
    """The ``bellsim`` package directory that ``path`` names or holds."""
    root = Path(path)
    for candidate in (root / "bellsim", root):
        if (candidate / "__init__.py").is_file():
            return candidate
    sys.exit(f"pair_timing: no bellsim package at {path}")


def import_copy(source: Path, name: str, into: Path):
    """Copy the package ``source`` to ``into / name`` and import it as ``name``."""
    shutil.copytree(source, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def boundary_model(bs):
    """Criterion 7's boundary mixture, in ``bs``."""
    lhv = importlib.import_module(f"{bs.__name__}.lhv")
    cf = importlib.import_module(f"{bs.__name__}.counterfactuals")
    return lhv.DeterministicLhv(cf.Population(
        units=(cf.CounterfactualTable((1, 1, 1), (-1, 1, 1)),
               cf.CounterfactualTable((-1, 1, 1), (1, 1, 1)),
               cf.CounterfactualTable((1, 1, 1), (-1, -1, -1))),
        weights=(0.25, 0.25, 0.5),
    ))


def study(bs):
    """A function making one run of the study, seeded, with ``bs``."""
    model = boundary_model(bs)

    def one_run(seed: int):
        try:
            config = bs.ExperimentConfig(SMALL_N, seed, "deterministic-lhv", model=model)
            return bs.decide(bs.estimate(bs.run_experiment(config)), alpha=0.01)
        except bs.EstimationError:
            return None

    return one_run


def verdict_digest(bs) -> str:
    """One SHA-256 over every verdict of the study at ``VERDICT_SEEDS``."""
    model = boundary_model(bs)
    digest = hashlib.sha256()
    for seed in VERDICT_SEEDS:
        data = bs.run_experiment(bs.ExperimentConfig(SMALL_N, seed, "deterministic-lhv",
                                                     model=model))
        for conditioning in ("coincidences-only", "all-pairs"):
            try:
                est = bs.estimate(data, conditioning)
                doc = [est.to_dict(), bs.decide(est, alpha=0.01).to_dict()]
            except bs.EstimationError as exc:
                doc = str(exc)
            digest.update(json.dumps(doc).encode("utf-8"))
    return digest.hexdigest()


def problems(bs) -> list:
    """The ``FakingProblem`` of each of ``ANALYSES`` in ``bs``."""
    return [bs.FakingProblem(bs.match_table(bs.AngleTriple.from_degrees(*angles)), floor, stealth)
            for angles, floor, stealth in ANALYSES]


def solver_digest(bs) -> str:
    """One SHA-256 over ``_optimum``'s answer to each of ``ANALYSES``."""
    optimum = importlib.import_module(f"{bs.__name__}.loophole")._optimum
    digest = hashlib.sha256()
    for problem in problems(bs):
        answer = optimum(problem)
        digest.update(repr((answer.route, answer.status, answer.pivots, answer.objective))
                      .encode("utf-8"))
        digest.update(b"" if answer.x is None else answer.x.tobytes())
    return digest.hexdigest()


def one_pass(bs):
    """A function making one pass over ``ANALYSES`` with ``bs``, as perfbench does."""
    peak, forty_five = (problem.targets for problem in problems(bs)[:2])

    def run(_seed: int):
        bs.max_faking_efficiency(peak)
        bs.max_faking_efficiency(forty_five)
        bs.demonstration_solution(peak)
        return [bs.solve_lp(bs.FakingProblem(peak, floor)) for floor in (0.0, 1.0)]

    return run


def block_time(one_run, first_seed: int, runs: int) -> float:
    """Seconds per run over ``runs`` runs from ``first_seed``."""
    start = time.perf_counter()
    for seed in range(first_seed, first_seed + runs):
        one_run(seed)
    return (time.perf_counter() - start) / runs


def paired_times(runs: list, count: int) -> list[list[float]]:
    """Each tree's seconds per run in each of ``BLOCKS`` blocks of ``count``
    runs, the trees alternating and the first of a pair alternating too."""
    for one_run in runs:  # warm both before the first timed block
        block_time(one_run, 0, count)
    times: list[list[float]] = [[], []]
    for block in range(BLOCKS):
        for tree in ((0, 1) if block % 2 == 0 else (1, 0)):
            times[tree].append(block_time(runs[tree], block * count, count))
    return times


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", choices=("montecarlo", "loophole"), default="montecarlo")
    args = parser.parse_args(argv)
    if args.workload == "montecarlo":
        kind, verb, digest_of, timed_call = "verdict", "decide", verdict_digest, study
        count, unit = RUNS, "run"
    else:
        kind, verb, digest_of, timed_call = "solver", "solve", solver_digest, one_pass
        count, unit = PASSES, "pass"
    sources = package_dir(args.parent_src), package_dir(args.change_src)
    labels = ("parent", "change")
    with tempfile.TemporaryDirectory() as tmp:  # kept until the end, for lazy imports
        sys.path.insert(0, tmp)
        try:
            trees = [import_copy(src, f"bellsim_{label}", Path(tmp))
                     for src, label in zip(sources, labels)]
            digests = [digest_of(bs) for bs in trees]
            for label, digest in zip(labels, digests):
                print(f"{label} {kind} sha256: {digest}")
            if digests[0] != digests[1]:
                print(f"the trees {verb} differently; no timing")
                return 1
            times = paired_times([timed_call(bs) for bs in trees], count)
        finally:
            sys.path.remove(tmp)
            packages = {f"bellsim_{label}" for label in labels}
            for name in [m for m in sys.modules if m.split(".")[0] in packages]:
                del sys.modules[name]
    for label, seconds in zip(labels, times):
        print(f"{label} median {statistics.median(seconds) * 1e6:.2f} us per {unit} "
              f"over {BLOCKS} blocks of {count}")
    ratios = [c / p for p, c in zip(*times)]
    print(f"paired median ratio change/parent: {statistics.median(ratios):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
