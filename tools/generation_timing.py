"""Time bulk trial generation and the dataset CSV codec that serialises it.

First it runs ``PASSES`` passes of ``LOOP_N``-row generate, write and
``read_row_counts`` in turn, as ``bellsim simulate | bellsim test`` runs
them, and prints their median time and the minor page faults
(``ru_minflt``) a pass makes: memory that a call gets fresh from the kernel
and gives back, which best-of figures hide. It runs first, while the
allocator is as a fresh process has it.

Then it times ``run_experiment`` at ``SIZES`` trials for every source and
setting distribution: quantum and loophole at the angles (60, 0, 120), the
loophole model being ``demonstration_solution`` of those angles' match
table, criterion 7's boundary mixture, and the stochastic model
p1 = (0.2, 0.5, 0.9), p2 = (0.7, 0.1, 0.4). Each line ends in the first 16
hex digits of the SHA-256 of the row codes generated.

Then, on the table's quantum ``uniform-9`` dataset of ``SIZES[-1]`` trials,
it times ``write_dataset_csv`` into memory, and ``read_row_counts`` and
``read_dataset_csv`` from those bytes. It prints the ratio (write +
read_row_counts) / the table's generation time (ROADMAP item 7 targets 2),
the SHA-256 of the written bytes and, last, one over every code the table
generated: two checkouts that generate and write the same datasets print
the same digests. Every figure after the first line is the best of
``REPEAT`` calls in this one process, seed 1. Run from the repository root:

    PYTHONPATH=src python tools/generation_timing.py

Best-of figures from separate processes cannot resolve a change of a few
µs a run on a shared machine; ``tools/pair_timing.py`` times two checkouts
against each other, interleaved in one process.
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import resource
import statistics
import time
from pathlib import Path

import bellsim
from bellsim.experiment import (
    ExperimentConfig,
    read_dataset_csv,
    read_row_counts,
    run_experiment,
    write_dataset_csv,
)
from bellsim.lhv import StochasticLocalModel
from bellsim.loophole import demonstration_solution
from bellsim.quantum import AngleTriple, match_table

# tools/pair_timing.py, loaded by path: its boundary mixture is this script's.
_spec = importlib.util.spec_from_file_location(
    "pair_timing", Path(__file__).with_name("pair_timing.py"))
pair_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_timing)

SIZES = (2 * 10**4, 10**6)  # perfbench's pipeline datasets; ROADMAP item 7's codec size
REPEAT = 15
LOOP_N = 2 * 10**4  # the size of perfbench's pipeline datasets
PASSES = 200

ANGLES = AngleTriple.from_degrees(60, 0, 120)
PAYLOADS = {
    "quantum": {"angles": ANGLES},
    "deterministic-lhv": {"model": pair_timing.boundary_model(bellsim)},
    "stochastic-lhv": {"model": StochasticLocalModel((0.2, 0.5, 0.9), (0.7, 0.1, 0.4))},
    "loophole": {"angles": ANGLES, "solution": demonstration_solution(match_table(ANGLES))},
}


def best(call) -> tuple[float, object]:
    """The least wall time of ``REPEAT`` calls of ``call``, and its last result."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return min(times), result


def written(data) -> bytes:
    out = io.BytesIO()
    write_dataset_csv(data, out)
    return out.getvalue()


def main() -> None:
    small = ExperimentConfig(LOOP_N, 1, "quantum", angles=ANGLES)

    def one_pass():
        return read_row_counts(io.BytesIO(written(run_experiment(small))))

    one_pass()  # warms up
    times = []
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(PASSES):
        start = time.perf_counter()
        counts = one_pass()
        times.append(time.perf_counter() - start)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    assert counts.sum() == LOOP_N
    print(f"generate, write, read_row_counts of {LOOP_N} rows in turn: median "
          f"{statistics.median(times) * 1e3:.2f} ms, {faults / PASSES:.1f} minor faults "
          f"a pass ({PASSES} passes)")

    digest = hashlib.sha256()
    print("run_experiment, seed 1:")
    for n in SIZES:
        for source, payload in PAYLOADS.items():
            for distribution in ("uniform-9", "uniform-4"):
                config = ExperimentConfig(n, 1, source, setting_distribution=distribution,
                                          **payload)
                seconds, data = best(lambda: run_experiment(config))
                codes = data.code.tobytes()
                digest.update(codes)
                print(f"  {n:>8} {source:18} {distribution:10} {seconds * 1e3:8.2f} ms "
                      f"{seconds / n * 1e9:6.1f} ns/trial  "
                      f"{hashlib.sha256(codes).hexdigest()[:16]}")
                if (source, distribution) == ("quantum", "uniform-9"):
                    generate, quantum = seconds, data

    n = SIZES[-1]
    write, text = best(lambda: written(quantum))
    count, counts = best(lambda: read_row_counts(io.BytesIO(text)))
    read, back = best(lambda: read_dataset_csv(io.BytesIO(text)))
    assert back == quantum and counts.sum() == n
    print(f"quantum uniform-9, {n} rows:")
    for name, seconds in (("write_dataset_csv", write), ("read_row_counts", count),
                          ("read_dataset_csv", read)):
        print(f"  {name:18} {seconds * 1e3:8.1f} ms {seconds / n * 1e9:7.1f} ns/row")
    print(f"(write + read_row_counts) / run_experiment = {(write + count) / generate:.2f}")
    print(f"rows {n}, bytes {len(text)}, sha256 {hashlib.sha256(text).hexdigest()}")
    print(f"sha256 of every code generated: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
