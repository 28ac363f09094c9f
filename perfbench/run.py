"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload {pipeline,montecarlo,loophole} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the run measures bellsim untraced and reports the
end-to-end metrics; with ``--trace 1`` it wraps bellsim's public calls (see
``tracing.py``) and reports the per-layer metrics plus the tracing overhead.
The line before the result is a ``{"detail": ...}`` object: the machine, the
seed, which reference the outputs were checked against, every timing under
the names ``README.md`` uses with its sample count, raw wall times, and the
failures.

Times are calibrated: a machine shared with other tenants can change speed
by 2x for tens of seconds. A fixed loop that resembles the
workload's work but runs no bellsim code is timed before and after every
block of ops (and every set-up probe), and each time in the block is scaled
by the loop's reference time over the mean of those two calibration times.
That reports it at the speed where the loop takes its reference time (see
``CALIBRATIONS``). The raw wall times are in the detail line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import tracing
from workloads import ROOT, WORKLOADS, import_bellsim, percentile

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
REFERENCE = HERE / "reference.json"
SETUP_RUNS = 5
# A traced run spends this share of --seconds measuring untraced, the rest traced.
UNTRACED_SHARE = 0.25
BLOCK_S = 0.5  # ops between two calibrations
SAMPLE_SIZE = 10_000  # op times kept per window
_MASK64 = (1 << 64) - 1


class _Pair:
    __slots__ = ("high", "low")

    def __init__(self, high: int, low: int) -> None:
        self.high = high
        self.low = low


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    return z ^ (z >> 31)


def python_calibration() -> float:
    """Wall time of a fixed interpreter-bound loop that uses no bellsim code.

    Half is inline integer hashing, half is calls, small objects and text
    formatting and parsing: a shared core slows these two kinds of work by
    different amounts, and trial generation and CSV I/O mix both.
    """
    start = perf_counter()
    z = 0
    for _ in range(50_000):
        z = (z + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    total = 0
    for i in range(12_500):
        z = _mix((z + 0x9E3779B97F4A7C15) & _MASK64)
        pair = _Pair(z >> 11, i & 7)
        total += int(f"{pair.high & 0xFFFF},{pair.low}".split(",")[0])
    return perf_counter() - start


def numpy_calibration() -> float:
    """Wall time of rank-one row updates of a 28 x 4130 array, the shape of a
    simplex pivot on the faking LP, done without bellsim code."""
    import numpy as np

    start = perf_counter()
    a = np.linspace(0.0, 1.0, 28 * 4130).reshape(28, 4130)
    for r in range(160):
        row = r % 28
        a[row] /= 1.0001
        factors = a[:, r].copy()
        factors[row] = 0.0
        a -= np.outer(factors, a[row]) * 1e-3
        np.flatnonzero(a[0] < 0.5)
    return perf_counter() - start


# Each workload's calibration loop, and the loop's wall time on an uncontended
# core of the reference machine: the speed its times are reported at.
CALIBRATIONS = {"python": (python_calibration, 0.022), "numpy": (numpy_calibration, 0.026)}


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def measure_setup(workload: str, work: Path) -> dict:
    """Start ``SETUP_RUNS`` fresh interpreters that import bellsim and make the
    workload's first call; time each from the outside."""
    calibration, reference_s = CALIBRATIONS["python"]
    walls, scaled, inner = [], [], []
    before = calibration()
    for _ in range(SETUP_RUNS):
        start = perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(work)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        walls.append(perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        inner.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        after = calibration()
        scaled.append(walls[-1] * 2 * reference_s / (before + after))
        before = after
    return {
        "setup_s": statistics.median(scaled),
        "samples": scaled,
        "raw_setup_s": statistics.median(walls),
        "import_s": statistics.median(p["import_s"] for p in inner),
        "first_call_s": statistics.median(p["first_call_s"] for p in inner),
    }


class Window(NamedTuple):
    ops: int
    total_s: float  # calibrated seconds of all ops
    times: array  # calibrated seconds of a uniform sample of the ops
    raw: array  # wall seconds of the same sample
    calls: dict[str, list[float]]  # calibrated seconds of each workload call, by label
    factors: list[float]  # calibration factor of each block


def measure(wl, op, seconds: float) -> Window:
    """Run ops in calibrated blocks until ``seconds`` have passed (at least one op).

    Op times are kept as a uniform sample of at most ``SAMPLE_SIZE`` ops
    (reservoir sampling), so that a run's memory does not grow with the
    number of ops a faster program fits into it.
    """
    calibration, reference_s = CALIBRATIONS[wl.calibration]
    pick = random.Random(0).randrange
    sample, sample_raw = array("d"), array("d")
    factors = []
    ops, total_s = 0, 0.0
    first_call = len(wl.calls)
    start = perf_counter()
    before = calibration()
    while not ops or perf_counter() - start < seconds:
        block, first_block_call = [], len(wl.calls)
        block_start = perf_counter()
        while not block or perf_counter() - block_start < BLOCK_S:
            block.append(op())
        after = calibration()
        factor = 2 * reference_s / (before + after)
        factors.append(factor)
        for t in block:
            ops += 1
            total_s += t * factor
            if len(sample) < SAMPLE_SIZE:
                sample.append(t * factor)
                sample_raw.append(t)
            elif (slot := pick(ops)) < SAMPLE_SIZE:
                sample[slot], sample_raw[slot] = t * factor, t
        wl.calls[first_block_call:] = [(label, t * factor)
                                       for label, t in wl.calls[first_block_call:]]
        before = after
    calls: dict[str, list[float]] = {}
    for label, t in wl.calls[first_call:]:
        calls.setdefault(label, []).append(t)
    return Window(ops, total_s, sample, sample_raw, calls, factors)


def dataset_peak_mb(wl, bs) -> float:
    """Peak traced allocation inside run_experiment over one more op."""
    peaks = []
    original = bs.experiment.run_experiment

    def run_experiment(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    undo = tracing.patch_all([(bs.cli, "run_experiment", run_experiment),
                              (bs.experiment, "run_experiment", run_experiment)])
    try:
        wl.op()
    finally:
        undo()
    return max(peaks, default=0) / 2**20


def layer_metrics(wl, bs, tracer, traced: Window, untraced: Window, setup) -> dict:
    """Per-op layer times (calibrated by the traced window's median factor) and counts."""
    factor = statistics.median(traced.factors)
    ops = traced.ops

    def t(name, field=1):
        value = tracer.total(name, field)
        return value if field == 0 else value * factor

    trials = tracer.counts["experiment.trials"]
    runs = t("experiment.run_experiment", 0)
    run_s = t("experiment.run_experiment")
    simplex_s = t("simplex.solve") + t("simplex.feasible")
    shape = wl.lp_shape()
    untraced_p50 = statistics.median(untraced.times)
    overhead = statistics.median(traced.times) - untraced_p50
    s, count = "s", "count"
    values = {
        "experiment.run_experiment_s": (run_s / ops, s),
        "experiment.run_experiment_self_s": (t("experiment.run_experiment", 2) / ops, s),
        "experiment.trials": (trials / ops, count),
        "experiment.calls": (runs / ops, count),
        "experiment.us_per_trial": (1e6 * run_s / trials if trials else 0.0, "us"),
        "experiment.us_per_call": (1e6 * run_s / runs if runs else 0.0, "us"),
        "rng.draws_per_trial": (tracer.counts["rng.draws"] / trials if trials else 0.0, count),
        "rng.busy_s": ((t("rng.draw") + t("rng.derive_seed")) / ops, s),
        "quantum.sample_s": (t("quantum.sample") / ops, s),
        "loophole.sample_s": (t("loophole.sample") / ops, s),
        "lhv.sample_s": (t("lhv.sample") / ops, s),
        "experiment.write_csv_s": (t("experiment.write_csv") / ops, s),
        "experiment.read_csv_s": (t("experiment.read_csv") / ops, s),
        "experiment.csv_bytes": (wl.csv_bytes, "bytes"),
        "experiment.dataset_peak_mb": (dataset_peak_mb(wl, bs), "MB"),
        "experiment.estimate_s": (t("experiment.estimate") / ops, s),
        "experiment.decide_s": (t("experiment.decide") / ops, s),
        "cli.simulate_self_s": (t("cli.simulate", 2) / ops, s),
        "cli.test_self_s": (t("cli.test", 2) / ops, s),
        # The loophole probe's first call is exactly one cold build_faking_lp.
        "loophole.build_lp_cold_s": (setup["first_call_s"] if wl.name == "loophole" else 0.0, s),
        "loophole.build_lp_s": (t("loophole.build_lp") / ops, s),
        "loophole.build_lp_calls": (t("loophole.build_lp", 0) / ops, count),
        "loophole.lp_columns": (shape["columns"], count),
        "loophole.distinct_columns": (shape["distinct"], count),
        "loophole.lp_rows": (shape["rows"], count),
        "simplex.solve_calls": (t("simplex.solve", 0) / ops, count),
        "simplex.feasible_calls": (t("simplex.feasible", 0) / ops, count),
        "simplex.solve_s": (t("simplex.solve") / ops, s),
        "simplex.feasible_s": (t("simplex.feasible") / ops, s),
        "simplex.busy_frac": (simplex_s / traced.total_s, "frac"),
        "trace.overhead_ms": (1e3 * overhead, "ms"),
        "trace.overhead_frac": (overhead / untraced_p50, "frac"),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def run(workload: str, seed: int, seconds: float, trace: bool,
        reference: dict, sizes: dict | None = None) -> tuple[dict, dict]:
    """Set up, measure and check one workload; return (detail, result)."""
    bs = import_bellsim()
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = WORKLOADS[workload](bs, work, seed, reference.get(workload), **(sizes or {}))
        wl.setup()
        setup = measure_setup(workload, work)
        wl.first_call()
        if not trace:
            window = measure(wl, wl.op, seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            untraced = measure(wl, wl.op, UNTRACED_SHARE * seconds)
            tracer = tracing.Tracer()
            undo = tracing.install(tracer, bs)
            try:
                window = measure(wl, tracer.wrap(wl.op, f"op.{workload}"),
                                 (1 - UNTRACED_SHARE) * seconds)
            finally:
                undo()
            metrics = layer_metrics(wl, bs, tracer, window, untraced, setup)
            spans_file = WORK / f"spans-{workload}-seed{seed}.json"
            tracer.write(spans_file)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = wl.failed
    op_p50 = percentile(sorted(window.times), 0.5)
    if not trace:
        metrics = {
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "work_per_s": {"value": wl.units_per_op() * window.ops / window.total_s,
                           "unit": "1/s"},
            "op_ms_p50": {"value": 1e3 * op_p50, "unit": "ms"},
        }
    named = {
        "setup_s": (setup["setup_s"], "s", SETUP_RUNS),
        "failed_frac": (failed / wl.attempted, "frac", wl.attempted),
        **wl.named_metrics(window),
    }
    if not trace:
        named["peak_rss_mb"] = (peak_mb, "MB", 1)
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "checked_against": wl.reference_note,
        "machine": machine(),
        "ops": window.ops,
        "op_unit": f"{wl.units_per_op()} {wl.unit}",
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in named.items()},
        "raw_op_ms_p50": 1e3 * percentile(sorted(window.raw), 0.5),
        "calibration_factors": {"median": statistics.median(window.factors),
                                "min": min(window.factors), "max": max(window.factors)},
        "setup": setup,
        "failures": wl.failures,
    }
    if workload == "montecarlo":
        detail["rejections_per_batch"] = wl.rejections()
        detail["batch"] = wl.batch
    if trace:
        detail["untraced_ops"] = untraced.ops
        detail["spans_file"] = str(spans_file.relative_to(ROOT))
    result = {"correct": failed == 0, "attempted": wl.attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    detail, result = run(args.workload, args.seed, args.seconds, bool(args.trace), reference)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
