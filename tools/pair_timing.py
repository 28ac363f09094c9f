"""Compare two checkouts' run time on one workload, paired, in one process.

    python tools/pair_timing.py PARENT_SRC CHANGE_SRC [--workload WORKLOAD]

Each source argument is a checkout's ``src`` directory (or its
``src/bellsim`` package). Each tree is copied into a temporary directory as
``bellsim_parent`` or ``bellsim_change`` (bellsim imports itself only
relatively), and both are imported into this one process.

Each of ``WORKLOADS`` names a SHA-256, the op it times and the ops in a
block. First both trees must print the same SHA-256, or it exits with
status 1 and times nothing. The workloads, and what their SHA-256 is over:

* ``montecarlo`` (the default): the JSON of ``estimate`` and ``decide``'s
  ``to_dict()`` (or the ``EstimationError`` message) of seeds
  ``VERDICT_SEEDS`` at n = 90 under both conditionings, on criterion 7's
  boundary mixture. An op is one such run, as ``perfbench``'s
  ``montecarlo`` workload makes it.
* ``loophole``: what ``loophole._optimum`` answers to ``perfbench``'s five
  faking analyses (``ANALYSES``): route, status, pivots of each phase, z*
  and the bytes of x. An op is one pass through ``perfbench``'s calls.
* ``pipeline``: the CSV bytes of every source and setting distribution of
  ``payloads`` at ``PIPELINE_N`` trials, seed 1, and the verdicts, as
  above, of their ``read_row_counts``. An op is ``perfbench``'s
  ``pipeline`` op in memory: its two datasets generated, written, read
  and tested.
* ``end-to-end``: ``simulate``'s stdout at ``PIPE_N`` trials, then
  ``test``'s exit code and stdout, each tree's CLI run as ``python -m
  bellsim_<label>.cli``. An op is ``simulate | test``, by wall clock.

Then it times ``BLOCKS`` pairs of blocks, seeds counting up, the two trees
alternating and the first of a pair alternating too, so drift in the
machine's speed falls on both alike. It prints each tree's median µs per
op and minor page faults (``ru_minflt``) per op: this process's, or for
``end-to-end`` its reaped children's, the ``simulate`` and ``test``
processes. For ``pipeline`` it also prints an op's median generate, write
and read times. Then it prints the median over the pairs of the change's
block time over the parent's: below 1 when the change is faster. The last
line is the JSON entry that a ``BENCH_<workload>.json`` file records: the
SHA-256, the pairs and ops a block, each tree's median seconds per op, the
paired median ratio, the pairs the change won and the interquartile range
of the parent's blocks.

Alternation cancels drift, not position: two copies of one tree in one
process need not run at one speed. On ``pipeline``, ``src src`` has read
ratios from 0.977 (the change winning 32 or 33 of 41 pairs) to 1.020 (11
of 41), and 1.0072 (18 of 41) and 1.0120 (10 of 41) in two later runs, so
one run of the tool does not resolve a claim of a few percent there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path
from subprocess import DEVNULL, PIPE, Popen

SMALL_N = 90  # the montecarlo workload's n
VERDICT_SEEDS = range(300)  # the montecarlo workload's batch at seed 0
PIPELINE_N = 2 * 10**4  # the size of perfbench's pipeline datasets
PIPE_N = 10**6
BLOCKS = 41
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


def verdicts(bs, data):
    """The JSON bytes of ``estimate`` and ``decide``'s ``to_dict()`` of
    ``data`` (or the ``EstimationError`` message) under each conditioning."""
    for conditioning in ("coincidences-only", "all-pairs"):
        try:
            est = bs.estimate(data, conditioning)
            doc = [est.to_dict(), bs.decide(est, alpha=0.01).to_dict()]
        except bs.EstimationError as exc:
            doc = str(exc)
        yield json.dumps(doc).encode("utf-8")


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
        for doc in verdicts(bs, data):
            digest.update(doc)
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


def payloads(bs) -> dict:
    """Each source's payload: (60, 0, 120) and its ``demonstration_solution``,
    criterion 7's boundary mixture and a stochastic model."""
    angles = bs.AngleTriple.from_degrees(60, 0, 120)
    return {
        "quantum": {"angles": angles},
        "deterministic-lhv": {"model": boundary_model(bs)},
        "stochastic-lhv": {"model": bs.StochasticLocalModel((0.2, 0.5, 0.9), (0.7, 0.1, 0.4))},
        "loophole": {"angles": angles,
                     "solution": bs.demonstration_solution(bs.match_table(angles))},
    }


def written(bs, data) -> bytes:
    out = io.BytesIO()
    bs.write_dataset_csv(data, out)
    return out.getvalue()


def pipeline_digest(bs) -> str:
    """One SHA-256 over the CSV bytes of every source and distribution at
    ``PIPELINE_N`` trials, seed 1, and the verdicts of their row counts."""
    digest = hashlib.sha256()
    for source, payload in payloads(bs).items():
        for distribution in ("uniform-9", "uniform-4"):
            text = written(bs, bs.run_experiment(bs.ExperimentConfig(
                PIPELINE_N, 1, source, setting_distribution=distribution, **payload)))
            digest.update(text)
            for doc in verdicts(bs, bs.read_row_counts(io.BytesIO(text))):
                digest.update(doc)
    return digest.hexdigest()


def pipeline(bs):
    """A function making perfbench's pipeline op in memory with ``bs``; its
    ``stages`` list gets each op's generate, write and read seconds."""
    sources = payloads(bs)
    stages = []

    def run(seed: int):
        counts, spent = [], []
        for source, distribution in (("quantum", "uniform-9"), ("loophole", "uniform-4")):
            config = bs.ExperimentConfig(PIPELINE_N, seed, source,
                                         setting_distribution=distribution, **sources[source])
            start = time.perf_counter()
            data = bs.run_experiment(config)
            generated = time.perf_counter()
            text = written(bs, data)
            wrote = time.perf_counter()
            counts.append(bs.read_row_counts(io.BytesIO(text)))
            spent.append((generated - start, wrote - generated, time.perf_counter() - wrote))
        stages.append([a + b for a, b in zip(*spent)])
        quantum, faked = counts
        return [bs.decide(bs.estimate(quantum)), bs.decide(bs.estimate(faked)),
                bs.decide(bs.estimate(faked, "all-pairs"))]

    run.stages = stages
    return run


def pipe_commands(bs) -> tuple[dict, list[str], list[str]]:
    """The environment, ``simulate`` and ``test`` that run ``bs``'s CLI."""
    path = [str(Path(bs.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # a copy keeps its bytecode, as an install does
    cli = [sys.executable, "-m", f"{bs.__name__}.cli"]
    simulate = f"simulate --source quantum --angles 60,0,120 --n {PIPE_N} --seed 7".split()
    return env, [*cli, *simulate], [*cli, "test"]


def pipe_digest(bs) -> str:
    """One SHA-256 over ``simulate``'s stdout, then ``test``'s exit code and stdout."""
    env, simulate, test = pipe_commands(bs)
    digest = hashlib.sha256()
    with Popen(simulate, env=env, stdout=PIPE, stderr=DEVNULL) as first, \
            Popen(test, env=env, stdin=PIPE, stdout=PIPE, stderr=DEVNULL, bufsize=0) as second:
        for chunk in iter(lambda: first.stdout.read(1 << 16), b""):  # test prints at its end
            digest.update(chunk)
            try:
                second.stdin.write(chunk)
            except BrokenPipeError:  # test has stopped reading; its exit code says why
                pass
        second.stdin.close()
        tested = second.stdout.read()
    digest.update(f"exit {second.returncode}\n".encode("utf-8") + tested)
    return digest.hexdigest()


def pipe(bs):
    """A function running ``simulate | test`` with ``bs``'s CLI."""
    env, simulate, test = pipe_commands(bs)

    def run(_seed: int):
        with Popen(simulate, env=env, stdout=PIPE, stderr=DEVNULL) as first:
            Popen(test, env=env, stdin=first.stdout, stdout=DEVNULL, stderr=DEVNULL).wait()

    return run


# What a workload's SHA-256 holds, what trees that print two do differently,
# the SHA-256 and op functions of a tree, ops a block, the op's name and
# whose minor faults it counts.
Workload = namedtuple("Workload", "kind verb digest op count unit faults")
SELF, CHILDREN = resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN
WORKLOADS = {
    "montecarlo": Workload("verdict", "decide", verdict_digest, study, 300, "run", SELF),
    "loophole": Workload("solver", "solve", solver_digest, one_pass, 8, "pass", SELF),
    "pipeline": Workload("pipeline", "write or estimate", pipeline_digest, pipeline, 5, "op",
                         SELF),
    "end-to-end": Workload("pipe", "simulate or test", pipe_digest, pipe, 1, "pipe", CHILDREN),
}


def block_time(one_run, first_seed: int, runs: int) -> float:
    """Seconds per run over ``runs`` runs from ``first_seed``."""
    start = time.perf_counter()
    for seed in range(first_seed, first_seed + runs):
        one_run(seed)
    return (time.perf_counter() - start) / runs


def paired_times(runs: list, work: Workload) -> tuple[list[list[float]], list[int]]:
    """Each tree's seconds per run in each of ``BLOCKS`` blocks of
    ``work.count`` runs, the trees alternating and the first of a pair
    alternating too, and the minor faults that ``getrusage(work.faults)``
    counts in each tree's blocks. The digests have run the code that the
    runs time, so the first block finds it warm."""
    times: list[list[float]] = [[], []]
    faults = [0, 0]
    for block in range(BLOCKS):
        for tree in ((0, 1) if block % 2 == 0 else (1, 0)):
            before = resource.getrusage(work.faults).ru_minflt
            times[tree].append(block_time(runs[tree], block * work.count, work.count))
            faults[tree] += resource.getrusage(work.faults).ru_minflt - before
    return times, faults


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--workload", choices=WORKLOADS, default="montecarlo")
    args = parser.parse_args(argv)
    work = WORKLOADS[args.workload]
    sources = package_dir(args.parent_src), package_dir(args.change_src)
    labels = ("parent", "change")
    with tempfile.TemporaryDirectory() as tmp:  # kept until the end, for lazy imports
        sys.path.insert(0, tmp)
        try:
            trees = [import_copy(src, f"bellsim_{label}", Path(tmp))
                     for src, label in zip(sources, labels)]
            digests = [work.digest(bs) for bs in trees]
            for label, digest in zip(labels, digests):
                print(f"{label} {work.kind} sha256: {digest}")
            if digests[0] != digests[1]:
                print(f"the trees {work.verb} differently; no timing")
                return 1
            ops = [work.op(bs) for bs in trees]
            times, faults = paired_times(ops, work)
        finally:
            sys.path.remove(tmp)
            packages = {f"bellsim_{label}" for label in labels}
            for name in [m for m in sys.modules if m.split(".")[0] in packages]:
                del sys.modules[name]
    medians = [statistics.median(seconds) for seconds in times]
    for label, median, fault, op in zip(labels, medians, faults, ops):
        print(f"{label} median {median * 1e6:.2f} us per {work.unit} over {BLOCKS} blocks of "
              f"{work.count}, {fault / (BLOCKS * work.count):.1f} minor faults per {work.unit}")
        if hasattr(op, "stages"):
            generate, write, read = (statistics.median(stage) for stage in zip(*op.stages))
            print(f"{label} median generate {generate * 1e3:.2f} ms, write {write * 1e3:.2f} ms, "
                  f"read {read * 1e3:.2f} ms per op; (write + read) / generate = "
                  f"{(write + read) / generate:.2f}")
    ratio = statistics.median(c / p for p, c in zip(*times))
    print(f"paired median ratio change/parent: {ratio:.4f}")
    low, _, high = statistics.quantiles(times[0], n=4)
    print(json.dumps({
        "workload": args.workload, "digest": digests[0], "pairs": BLOCKS, "count": work.count,
        "parent_median_s": medians[0], "change_median_s": medians[1], "ratio": ratio,
        "change_wins": sum(c < p for p, c in zip(*times)), "parent_iqr_s": high - low,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
