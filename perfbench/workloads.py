"""The benchmark's three workloads: what one op does, and how its outputs are checked.

Each workload turns the run seed into inputs, runs one op at a time through
bellsim's public functions, times the calls into bellsim, and checks every
output against the reference outputs recorded at the seed commit
(``reference.json``) or, on a seed without a reference, against the verdicts
and tolerances that hold for every seed. A failed check counts one failed
operation; it never stops the run.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CANONICAL = "60,0,120"
BELL_CELLS = ((1, 2), (0, 2), (1, 0), (0, 0))
LP_TOLERANCE = 1e-4  # max_faking_efficiency bisects to 1e-4
RESIDUAL_TOLERANCE = 1e-9
MAX_MESSAGES = 20


def import_bellsim():
    """Import bellsim from this checkout's ``src``, never from anywhere else."""
    if not (SRC / "bellsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no bellsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bellsim
    import bellsim.cli

    if Path(bellsim.__file__).resolve().parent != SRC / "bellsim":
        sys.exit(f"perfbench: imported bellsim from {bellsim.__file__}, not {SRC}")
    return bellsim


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """Shared bookkeeping: checked operations, failures and per-call times."""

    name = ""
    unit = ""  # what work_per_s counts
    calibration = "python"  # the calibration loop whose work resembles this workload's

    def __init__(self, bs, work: Path, seed: int, reference: dict | None):
        self.bs = bs
        self.work = work
        self.seed = seed
        self.reference = reference or {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []  # the first MAX_MESSAGES failure messages
        # (label, seconds) of the calls whose times named_metrics reports
        self.calls: list[tuple[str, float]] = []
        self.csv_bytes = 0
        self.reference_note = "reference outputs of the seed commit"

    def check(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_MESSAGES:
                self.failures.append(f"{what}: {detail}")

    @staticmethod
    def timed(fn, *args):
        """Call ``fn``; return (result or the exception it raised, seconds)."""
        start = perf_counter()
        try:
            result = fn(*args)
        except (Exception, SystemExit) as exc:  # a failed operation, not a failed run
            result = exc
        return result, perf_counter() - start

    def setup(self) -> None:
        """Build inputs that need a bellsim analysis of their own; not timed."""

    def first_call(self) -> None:
        """The first call a user makes, which fills bellsim's lazy caches."""
        raise NotImplementedError

    def op(self) -> float:
        """Run one op, check it, and return the seconds spent inside bellsim."""
        raise NotImplementedError

    def lp_shape(self) -> dict:
        """Columns, distinct columns and rows of the faking LP this workload solves."""
        return {"columns": 0, "distinct": 0, "rows": 0}


class Pipeline(Workload):
    """``bellsim simulate`` then ``bellsim test``, in-process through ``cli.main``.

    Dataset A: quantum source at the canonical angles, ``uniform-9`` settings.
    Dataset B: the stealth faking model built once in set-up, ``uniform-4``.
    ``test`` runs on A, and on B under both accountings. One op is one pass.
    """

    name = "pipeline"
    unit = "trials"

    def __init__(self, bs, work, seed, reference, n: int = 20_000):
        super().__init__(bs, work, seed, reference)
        self.n = n
        self.solution = work / "demo_solution.json"
        self.csv = {"A": work / "A.csv", "B": work / "B.csv"}
        self.first_hash: dict[str, str] = {}
        self.expected: dict[str, str] = {}

    def units_per_op(self) -> int:
        return 2 * self.n

    def cli(self, argv: list[str]) -> tuple[object, str, float]:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code, seconds = self.timed(self.bs.cli.main, argv)
        return code, out.getvalue(), seconds

    def setup(self) -> None:
        code, _, _ = self.cli(
            ["loophole", "--angles", CANONICAL, "--demo", "--save", str(self.solution)]
        )
        if code != 0 or not self.solution.is_file():
            raise RuntimeError(f"building the demonstration solution failed: {code!r}")
        ref = self.reference
        entry = ref.get("seeds", {}).get(str(self.seed))
        if ref.get("n") != self.n or entry is None:
            self.reference_note = (
                f"no reference outputs for seed {self.seed} at n={self.n}: "
                "verdicts and same-hash-every-pass only"
            )
            return
        self.expected["A"] = entry["A"]
        if sha256(self.solution) == ref.get("solution_sha256"):
            self.expected["B"] = entry["B"]
        else:
            self.reference_note = (
                "demonstration solution differs from the reference one: dataset B "
                "checked by verdicts and same-hash-every-pass only"
            )

    def simulate_args(self, key: str, n: int, out: Path) -> list[str]:
        if key == "A":
            source = ["--source", "quantum", "--angles", CANONICAL,
                      "--setting-distribution", "uniform-9"]
        else:
            source = ["--source", "loophole", "--solution", str(self.solution),
                      "--setting-distribution", "uniform-4"]
        return ["simulate", *source, "--n", str(n), "--seed", str(self.seed),
                "--out", str(out)]

    def first_call(self) -> None:
        for key in ("A", "B"):
            code, _, _ = self.cli(self.simulate_args(key, 1, self.work / f"first-{key}.csv"))
            if code != 0:
                raise RuntimeError(f"first simulate of dataset {key} failed: {code!r}")

    def op(self) -> float:
        seconds = 0.0
        size = 0
        for key in ("A", "B"):
            path = self.csv[key]
            code, _, spent = self.cli(self.simulate_args(key, self.n, path))
            seconds += spent
            digest = sha256(path) if code == 0 and path.is_file() else None
            size += path.stat().st_size if digest else 0
            expected = self.expected.get(key) or self.first_hash.setdefault(key, digest)
            self.check(f"simulate {key}", code == 0 and digest == expected,
                       f"exit {code!r}, sha256 {digest}, expected {expected}")
        self.csv_bytes = size
        for key, conditioning, verdict in (
            ("A", "coincidences-only", "reject"),
            ("B", "coincidences-only", "reject"),
            ("B", "all-pairs", "retain"),
        ):
            code, out, spent = self.cli(
                ["test", "--in", str(self.csv[key]), "--conditioning", conditioning]
            )
            seconds += spent
            want = 0 if verdict == "reject" else 1
            ok = code == want and f"decision: {verdict} local hidden variables" in out
            self.check(f"test {key} {conditioning}", ok,
                       f"exit {code!r}, expected {want} ({verdict})")
        return seconds

    def named_metrics(self, window) -> dict:
        return {"pipeline.trials_per_s": (self.units_per_op() * window.ops / window.total_s,
                                          "trials/s", window.ops)}


def boundary_lhv_model():
    """Criterion 7's mixture: Bell statistic exactly 0 with fractional cells."""
    from bellsim.counterfactuals import CounterfactualTable, Population
    from bellsim.lhv import DeterministicLhv

    return DeterministicLhv(Population(
        units=(CounterfactualTable((1, 1, 1), (-1, 1, 1)),
               CounterfactualTable((-1, 1, 1), (1, 1, 1)),
               CounterfactualTable((1, 1, 1), (-1, -1, -1))),
        weights=(0.25, 0.25, 0.5),
    ))


class MonteCarlo(Workload):
    """A type-I study: ``run_experiment -> estimate -> decide`` at small n.

    Run k of the batch uses simulation seed ``batch * seed + k``; the batch
    repeats until the run time is up. Each run's verdict is checked: reject,
    retain, or refused (``EstimationError``), and a refusal is correct only
    when a Bell cell of the dataset really holds no coincidence. The
    reference pins every verdict, so the rejection count is reproduced
    exactly; it exceeds alpha at this n, which is the decision rule's known
    small-n defect and is not what this check is about.
    """

    name = "montecarlo"
    unit = "runs"
    alpha = 0.01

    def __init__(self, bs, work, seed, reference, n: int = 90, batch: int = 300):
        super().__init__(bs, work, seed, reference)
        self.n = n
        self.batch = batch
        self.k = 0
        self.model = boundary_lhv_model()
        # Verdict of each run of the batch: the reference's, or else the
        # first batch's, which every later batch must repeat.
        self.verdicts: dict[int, str] = {}
        ref = self.reference
        entry = ref.get("seeds", {}).get(str(seed))
        if (ref.get("n"), ref.get("batch")) != (n, batch) or entry is None:
            self.reference_note = (
                f"no reference outputs for seed {seed} at n={n}, batch={batch}: "
                "same-verdict-every-batch and refusals only"
            )
            return
        self.verdicts = {k: "retain" for k in range(batch)}
        for verdict in ("reject", "refused"):
            for k in entry[verdict]:
                self.verdicts[k] = verdict

    def units_per_op(self) -> int:
        return 1

    def run_once(self, seed: int):
        exp = self.bs.experiment
        records = None
        start = perf_counter()
        try:
            config = exp.ExperimentConfig(n_trials=self.n, seed=seed,
                                          source="deterministic-lhv", model=self.model)
            records = exp.run_experiment(config)
            decision = exp.decide(exp.estimate(records), alpha=self.alpha)
            verdict = "reject" if decision.reject_lhv else "retain"
        except exp.EstimationError:
            verdict = "refused"
        except Exception as exc:  # a failed operation, not a failed run
            verdict = f"error {exc!r}"
        return verdict, records, perf_counter() - start

    def first_call(self) -> None:
        verdict, _, _ = self.run_once(0)
        if verdict.startswith("error"):
            raise RuntimeError(f"first Monte Carlo run failed: {verdict}")

    def op(self) -> float:
        k = self.k
        self.k = (k + 1) % self.batch
        verdict, records, seconds = self.run_once(self.batch * self.seed + k)
        expected = self.verdicts.setdefault(k, verdict)
        ok = verdict == expected
        if ok and verdict == "refused":
            ok = any(
                not any(r.x1 == i and r.x2 == j and r.d1 and r.d2 for r in records)
                for i, j in BELL_CELLS
            )
        self.check(f"run {k}", ok, f"verdict {verdict}, expected {expected}")
        return seconds

    def rejections(self) -> int | None:
        """Rejections in one batch, once every run's verdict is known."""
        if len(self.verdicts) < self.batch:
            return None
        return sum(v == "reject" for v in self.verdicts.values())

    def named_metrics(self, window) -> dict:
        ordered = sorted(window.times)
        out = {
            "mc.runs_per_s": (window.ops / window.total_s, "runs/s", window.ops),
            "mc.run_ms_p50": (1e3 * percentile(ordered, 0.5), "ms", window.ops),
        }
        if len(ordered) >= 100:  # at least ten samples beyond p90
            out["mc.run_ms_p90"] = (1e3 * percentile(ordered, 0.9), "ms", window.ops)
        return out


class Loophole(Workload):
    """Faking-LP analyses; one op is one pass over all five, in a seeded order."""

    name = "loophole"
    unit = "passes"
    calibration = "numpy"
    ANALYSES = ("max_efficiency 60,0,120", "max_efficiency 45,0,90",
                "demo 60,0,120", "floor0 60,0,120", "floor1 60,0,120")

    def __init__(self, bs, work, seed, reference):
        super().__init__(bs, work, seed, reference)
        from bellsim.quantum import AngleTriple, match_table

        self.targets = {
            angles: match_table(AngleTriple.from_degrees(*map(float, angles.split(","))))
            for angles in ("60,0,120", "45,0,90")
        }
        self.order = list(self.ANALYSES)
        random.Random(seed).shuffle(self.order)

    def units_per_op(self) -> int:
        return 1

    def floor_lp(self, floor: float):
        lh = self.bs.loophole
        return lh.build_faking_lp(
            lh.FakingProblem(targets=self.targets[CANONICAL], efficiency_floor=floor)
        )

    def first_call(self) -> None:
        self.floor_lp(0.0)

    def lp_shape(self) -> dict:
        import numpy as np

        program = self.floor_lp(0.0).program
        matrix = np.vstack([program.objective, program.eq_matrix, program.ub_matrix])
        return {"columns": matrix.shape[1], "distinct": len(np.unique(matrix.T, axis=0)),
                "rows": matrix.shape[0] - 1}

    def residual(self, solution, targets, floor: float) -> float:
        """Largest violation of the faking program by the rescored weights."""
        import numpy as np

        rates, match_rates, weight_sum = self.bs.loophole.rescore_solution(solution)
        t = targets.as_array()
        return max(
            abs(weight_sum - 1.0),
            float(np.abs(match_rates - t * rates).max()),
            max(0.0, floor - float(rates.min())),
            -min(solution.weights.values(), default=0.0),
        )

    def run_analysis(self, name: str) -> float:
        seconds = self.check_analysis(name)
        self.calls.append((name, seconds))
        return seconds

    def check_analysis(self, name: str) -> float:
        """Run one analysis, check its output, and return its seconds."""
        lh = self.bs.loophole
        kind, angles = name.split()
        targets = self.targets.get(angles)
        ref = self.reference
        if kind == "max_efficiency":
            value, seconds = self.timed(lh.max_faking_efficiency, targets)
            want = ref["max_efficiency"][angles]
            ok = isinstance(value, float) and abs(value - want) <= LP_TOLERANCE
            self.check(name, ok, f"got {value!r}, expected {want} within {LP_TOLERANCE}")
            return seconds
        if kind == "demo":
            sol, seconds = self.timed(lh.demonstration_solution, targets)
            ok = getattr(sol, "status", None) == "feasible"
            detail = f"got {sol!r}"
            if ok:
                rates, match_rates, _ = lh.rescore_solution(sol)
                bell = (match_rates[1, 2] - match_rates[0, 2]
                        - match_rates[1, 0] - match_rates[0, 0])
                res = self.residual(sol, targets, 0.0)
                want = ref["demo_min_rate"]
                ok = (abs(sol.min_coincidence_rate - want) <= LP_TOLERANCE
                      and res <= RESIDUAL_TOLERANCE
                      and bell <= -lh.DEMO_STEALTH_MARGIN + RESIDUAL_TOLERANCE)
                detail = (f"min rate {sol.min_coincidence_rate} (expected {want}), "
                          f"residual {res}, all-pairs Bell statistic {bell}")
            self.check(name, ok, detail)
            return seconds
        floor = 0.0 if kind == "floor0" else 1.0
        sol, seconds = self.timed(lambda: lh.solve_lp(self.floor_lp(floor)))
        status = getattr(sol, "status", None)
        if kind == "floor1":
            want = ref["floor1_status"]
            self.check(name, status == want, f"got {sol!r}, expected status {want}")
            return seconds
        ok = status == "feasible"
        detail = f"got {sol!r}"
        if ok:
            res = self.residual(sol, targets, floor)
            want = ref["floor0_min_rate"]
            ok = abs(sol.min_coincidence_rate - want) <= LP_TOLERANCE and res <= RESIDUAL_TOLERANCE
            detail = f"min rate {sol.min_coincidence_rate} (expected {want}), residual {res}"
        self.check(name, ok, detail)
        return seconds

    def op(self) -> float:
        return sum(self.run_analysis(name) for name in self.order)

    def named_metrics(self, window) -> dict:
        def p50(*labels):
            samples = sorted(t for label in labels for t in window.calls.get(label, ()))
            return percentile(samples, 0.5), "s", len(samples)

        return {
            "lp.max_efficiency_s_p50": p50("max_efficiency 60,0,120"),
            "lp.max_efficiency_45_0_90_s_p50": p50("max_efficiency 45,0,90"),
            "lp.demo_s_p50": p50("demo 60,0,120"),
            "lp.floor_s_p50": p50("floor0 60,0,120", "floor1 60,0,120"),
        }


def percentile(ordered: list[float], q: float) -> float:
    """Percentile of an ascending list: the median for q = 0.5, else nearest rank."""
    if q == 0.5:
        return statistics.median(ordered)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


WORKLOADS = {w.name: w for w in (Pipeline, MonteCarlo, Loophole)}
