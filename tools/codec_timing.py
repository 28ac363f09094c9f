"""Time the dataset CSV codec against the generation it serialises.

First it runs ``PASSES`` passes of ``LOOP_N``-row generate, write and
``read_row_counts`` in turn, as ``bellsim simulate | bellsim test`` runs
them, and prints their median time and the minor page faults
(``ru_minflt``) a pass makes: memory that a call gets fresh from the kernel
and gives back, which best-of figures hide. It runs first, while the
allocator is as a fresh process has it.

Then it generates ``N`` quantum trials at the canonical angles (60, 0, 120),
seed 1, and times, best of ``REPEAT`` in this one process,
``run_experiment``, ``write_dataset_csv`` into memory, and
``read_row_counts`` and ``read_dataset_csv`` from those bytes. It prints
each one's best time and ns per row, the ratio (write + read) / generation
with ``read_row_counts`` as the read (what ``bellsim test`` runs; ROADMAP
item 7 targets 2), and the SHA-256 of the written bytes, which two
checkouts with the same codec output share. Run from the repository root:

    PYTHONPATH=src python tools/codec_timing.py
"""

from __future__ import annotations

import hashlib
import io
import resource
import statistics
import time

from bellsim.experiment import (
    ExperimentConfig,
    read_dataset_csv,
    read_row_counts,
    run_experiment,
    write_dataset_csv,
)
from bellsim.quantum import AngleTriple

N = 10**6  # the size ROADMAP item 7 measures the codec at
REPEAT = 7
LOOP_N = 2 * 10**4  # the size of perfbench's pipeline datasets
PASSES = 200


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
    angles = AngleTriple.from_degrees(60, 0, 120)
    small = ExperimentConfig(LOOP_N, 1, "quantum", angles=angles)

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

    config = ExperimentConfig(N, 1, "quantum", angles=angles)
    generate, data = best(lambda: run_experiment(config))
    write, text = best(lambda: written(data))
    count, counts = best(lambda: read_row_counts(io.BytesIO(text)))
    read, back = best(lambda: read_dataset_csv(io.BytesIO(text)))
    assert back == data and counts.sum() == N
    for name, seconds in (("run_experiment", generate), ("write_dataset_csv", write),
                          ("read_row_counts", count), ("read_dataset_csv", read)):
        print(f"{name:18} {seconds * 1e3:8.1f} ms {seconds / N * 1e9:7.1f} ns/row")
    print(f"(write + read_row_counts) / run_experiment = {(write + count) / generate:.2f}")
    print(f"rows {N}, bytes {len(text)}, sha256 {hashlib.sha256(text).hexdigest()}")


if __name__ == "__main__":
    main()
