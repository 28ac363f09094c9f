"""Time trial generation: the small-n Monte Carlo path and bulk runs.

First the path a type-I study repeats, at n = 90 on criterion 7's boundary
mixture (tables (1,1,1)/(-1,1,1), (-1,1,1)/(1,1,1) and (1,1,1)/(-1,-1,-1)
weighted 1/4, 1/4, 1/2, Bell statistic exactly 0): ``ExperimentConfig``,
``run_experiment``, ``estimate`` and ``decide``, each timed alone, then the
four in a row, as ``perfbench``'s ``montecarlo`` workload runs them, and
one SHA-256 over the verdicts of seeds ``VERDICT_SEEDS`` at n = 90 (the JSON
of ``estimate`` and ``decide``'s ``to_dict()``, or the ``EstimationError``
message of a refused run, under both conditionings): two checkouts that
decide alike print the same digest. Then
``run_experiment`` at ``SIZES`` trials for every source and setting
distribution: quantum and loophole at the angles (60, 0, 120), the loophole
model being ``demonstration_solution`` of those angles' match table, the
boundary mixture, and the stochastic model p1 = (0.2, 0.5, 0.9),
p2 = (0.7, 0.1, 0.4). Every figure is the best of ``REPEAT`` calls in this
one process, with the seed fixed at 1.

Each bulk line ends in the first 16 hex digits of the SHA-256 of the row
codes generated, and the last line is one SHA-256 over all of them and the
n = 90 codes: two checkouts that generate the same datasets print the same
digests. Run from the repository root:

    PYTHONPATH=src python tools/generation_timing.py

Best-of figures from separate processes cannot resolve a change of a few
µs a run on a shared machine; ``tools/pair_timing.py`` times two checkouts
against each other, interleaved in one process.
"""

from __future__ import annotations

import hashlib
import importlib.util
import time
from pathlib import Path

import bellsim
from bellsim.experiment import ExperimentConfig, decide, estimate, run_experiment
from bellsim.lhv import StochasticLocalModel
from bellsim.loophole import demonstration_solution
from bellsim.quantum import AngleTriple, match_table

# tools/pair_timing.py, loaded by path: its study, boundary mixture and
# verdict digest are this script's.
_spec = importlib.util.spec_from_file_location(
    "pair_timing", Path(__file__).with_name("pair_timing.py"))
pair_timing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pair_timing)

SMALL_N, VERDICT_SEEDS = pair_timing.SMALL_N, pair_timing.VERDICT_SEEDS
SIZES = (2 * 10**4, 10**6)
REPEAT = 15
SMALL_CALLS = 500  # calls per timing of an n = 90 step

ANGLES = AngleTriple.from_degrees(60, 0, 120)
BOUNDARY = pair_timing.boundary_model(bellsim)
PAYLOADS = {
    "quantum": {"angles": ANGLES},
    "deterministic-lhv": {"model": BOUNDARY},
    "stochastic-lhv": {"model": StochasticLocalModel((0.2, 0.5, 0.9), (0.7, 0.1, 0.4))},
    "loophole": {"angles": ANGLES, "solution": demonstration_solution(match_table(ANGLES))},
}


def best(call, number: int = 1) -> tuple[float, object]:
    """The least mean wall time of ``number`` calls of ``call``, over
    ``REPEAT`` tries, and the last call's result."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        for _ in range(number):
            result = call()
        times.append((time.perf_counter() - start) / number)
    return min(times), result


def config(n: int, source: str = "deterministic-lhv", distribution: str = "uniform-9"):
    return ExperimentConfig(n, 1, source, setting_distribution=distribution, **PAYLOADS[source])


def main() -> None:
    digest = hashlib.sha256()
    cfg = config(SMALL_N)
    data = run_experiment(cfg)
    est = estimate(data)
    digest.update(data.code.tobytes())
    one_run = pair_timing.study(bellsim)
    small = (
        ("ExperimentConfig", lambda: config(SMALL_N)),
        ("run_experiment", lambda: run_experiment(cfg)),
        ("estimate", lambda: estimate(data)),
        ("decide", lambda: decide(est, alpha=0.01)),
        ("all four", lambda: one_run(1)),
    )
    print(f"n = {SMALL_N}, criterion 7's boundary mixture, seed 1:")
    for name, call in small:
        seconds, _ = best(call, SMALL_CALLS)
        print(f"  {name:18} {seconds * 1e6:8.1f} us")
    print(f"sha256 of every verdict of seeds {VERDICT_SEEDS.start} to "
          f"{VERDICT_SEEDS.stop - 1}: {pair_timing.verdict_digest(bellsim)}")
    print("run_experiment, seed 1:")
    for n in SIZES:
        for source in PAYLOADS:
            for distribution in ("uniform-9", "uniform-4"):
                cfg = config(n, source, distribution)
                seconds, data = best(lambda: run_experiment(cfg))
                codes = data.code.tobytes()
                digest.update(codes)
                print(f"  {n:>8} {source:18} {distribution:10} {seconds * 1e3:8.2f} ms "
                      f"{seconds / n * 1e9:6.1f} ns/trial  "
                      f"{hashlib.sha256(codes).hexdigest()[:16]}")
    print(f"sha256 of every code generated: {digest.hexdigest()}")


if __name__ == "__main__":
    main()
