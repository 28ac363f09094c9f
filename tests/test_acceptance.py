"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. Every tolerance and runtime budget is pinned here; the budgets are
wall-clock and generous for the implementations in this package.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from bellsim import loophole as loophole_mod
from bellsim.counterfactuals import (
    WITNESS_PATTERN,
    CounterfactualTable,
    MPattern,
    Population,
    all_tables,
    exists_local_table_with_pattern,
    theorem1_contradiction_trace,
)
from bellsim.experiment import (
    CONDITION_ALL_PAIRS,
    CONDITION_COINCIDENCES,
    SOURCE_DETERMINISTIC_LHV,
    SOURCE_LOOPHOLE,
    SOURCE_QUANTUM,
    EstimationError,
    ExperimentConfig,
    decide,
    estimate,
    run_experiment,
)
from bellsim.lhv import DeterministicLhv, stochastic_bell_search
from bellsim.quantum import AngleTriple, match_table, singlet_match_probabilities

CANONICAL = AngleTriple.from_degrees(60, 0, 120)


@contextmanager
def criterion(number: int, budget_seconds: float, description: str):
    start = time.perf_counter()
    failed = True
    try:
        yield
        failed = False
    finally:
        elapsed = time.perf_counter() - start
        verdict = "FAIL" if failed else "PASS"
        print(f"[criterion {number}] {verdict} - {description} ({elapsed:.3f}s)")
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its {budget_seconds}s budget: {elapsed:.3f}s"
    )


def test_criterion_1_correlation_law_oracle_agreement():
    with criterion(1, 1.0, "statevector oracle matches sin^2 law on the 1-degree grid"):
        thetas = np.deg2rad(np.arange(360, dtype=float))
        oracle = singlet_match_probabilities(thetas, thetas)
        diff = np.abs(thetas[:, None] - thetas[None, :]) % (2 * math.pi)
        diff = np.where(diff > math.pi, 2 * math.pi - diff, diff)
        formula = np.sin(diff / 2.0) ** 2
        deviation = float(np.max(np.abs(oracle - formula)))
        assert deviation <= 1e-10, f"max deviation {deviation}"


def test_criterion_2_theorem1_by_exhaustion():
    # Warm the table cache so the timed section measures the checks themselves.
    all_tables()
    exists_local_table_with_pattern(WITNESS_PATTERN)
    theorem1_contradiction_trace("a")
    with criterion(2, 1e-3, "witness pattern unrealizable in 64 tables; both traces render"):
        assert exists_local_table_with_pattern(WITNESS_PATTERN) is None
        for branch in ("a", "b"):
            trace = theorem1_contradiction_trace(branch)
            assert trace.ends_in_contradiction()
            assert "contradiction" in trace.render()


def test_criterion_3_theorem2_local_bound():
    with criterion(3, 1.0, "deterministic max is 0; 10^4 random mixtures stay below 1e-12"):
        bell_values = np.array(
            [MPattern.from_table(t).bell_value() for t in all_tables()], dtype=float
        )
        assert bell_values.max() == 0.0
        rng = np.random.default_rng(2024)
        weights = rng.dirichlet(np.ones(64), size=10_000)
        mixture_stats = weights @ bell_values
        assert float(mixture_stats.max()) <= 1e-12


def test_criterion_4_quantum_violation_at_desk_scale():
    with criterion(4, 5.0, "n=90000 quantum run: statistic in 0.25 +/- 0.03, 99% bound > 0"):
        config = ExperimentConfig(
            n_trials=90_000, seed=7, source=SOURCE_QUANTUM, angles=CANONICAL
        )
        est = estimate(run_experiment(config), confidence=0.99)
        assert abs(est.statistic - 0.25) <= 0.03, f"statistic {est.statistic}"
        decision = decide(est, alpha=0.01)
        assert decision.reject_lhv and decision.margin > 0.0


def test_criterion_5_stochastic_locality_supremum():
    with criterion(5, 10.0, "stochastic supremum is 0 (within 1e-12) at grids 2, 5, 11"):
        for grid_steps in (2, 5, 11):
            result = stochastic_bell_search(grid_steps)
            assert abs(result.value) <= 1e-12, f"grid {grid_steps}: {result.value}"
            assert result.argmax_is_vertex, f"grid {grid_steps}: argmax {result.argmax}"


def test_criterion_6_loophole_demonstration():
    with criterion(6, 60.0, "faking LP infeasible at floor 1, feasible at 0; sampled model "
                            "fools coincidence analysis, and the all-pairs test retains it"):
        targets = match_table(CANONICAL)
        full = loophole_mod.solve_lp(
            loophole_mod.FakingProblem(targets=targets, efficiency_floor=1.0)
        )
        assert full.status == "infeasible"
        free = loophole_mod.solve_lp(
            loophole_mod.FakingProblem(targets=targets, efficiency_floor=0.0)
        )
        assert free.status == "feasible"

        demo = loophole_mod.demonstration_solution(targets)
        config = ExperimentConfig(
            n_trials=1_000_000, seed=11, source=SOURCE_LOOPHOLE, solution=demo
        )
        dataset = run_experiment(config)
        conditioned = estimate(dataset, conditioning=CONDITION_COINCIDENCES)
        assert abs(conditioned.statistic - 0.25) <= 0.02, (
            f"conditioned statistic {conditioned.statistic}"
        )
        # The model is local, and all-pairs accounting, which scores an
        # undetected particle as a fixed spin, is a locality test.
        all_pairs = estimate(dataset, conditioning=CONDITION_ALL_PAIRS)
        assert all_pairs.statistic <= 0.0, f"all-pairs statistic {all_pairs.statistic}"
        assert not decide(all_pairs, alpha=0.01).reject_lhv


def boundary_lhv_model() -> DeterministicLhv:
    """Mixture whose Bell statistic is exactly 0 with noisy fractional cells.

    Expectations (e12, e02, e10, e00) = (0.5, 0.25, 0.25, 0).
    """
    t_a = CounterfactualTable((1, 1, 1), (-1, 1, 1))  # M values (0,1,1,0)
    t_b = CounterfactualTable((-1, 1, 1), (1, 1, 1))  # M values (0,1,0,1)
    t_c = CounterfactualTable((1, 1, 1), (-1, -1, -1))  # never matches
    return DeterministicLhv(
        Population(units=(t_a, t_b, t_c), weights=(0.25, 0.25, 0.5))
    )


def test_criterion_7_type_one_error_control():
    with criterion(7, 60.0, "boundary LHV: at most 6 rejections in 200 runs at alpha 0.01"):
        model = boundary_lhv_model()
        # Exact check of the boundary property before simulating.
        from bellsim.counterfactuals import bell_statistic
        from bellsim.lhv import lhv_match_table

        table = lhv_match_table(model)
        assert bell_statistic(table[1, 2], table[0, 2], table[1, 0], table[0, 0]) == 0.0

        rejections = 0
        for seed in range(200):
            config = ExperimentConfig(
                n_trials=9_000,
                seed=seed,
                source=SOURCE_DETERMINISTIC_LHV,
                model=model,
            )
            est = estimate(run_experiment(config))
            if decide(est, alpha=0.01).reject_lhv:
                rejections += 1
        assert rejections <= 6, f"{rejections} rejections out of 200"


def wilson_interval(successes: int, trials: int, z: float = 1.959963984540054):
    """The 95% Wilson score interval of a binomial proportion."""
    p = successes / trials
    centre = (p + z * z / (2 * trials)) / (1 + z * z / trials)
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2)) / (1 + z * z / trials)
    return centre - half, centre + half


def test_small_n_type_one_table_in_the_readme():
    """The README's small-n table: below criterion 7's n the delta-method
    rule rejects the boundary mixture more often than alpha."""
    model = boundary_lhv_model()
    table = []
    for n in (45, 90, 360):
        rejections = refused = 0
        for seed in range(10_000):
            config = ExperimentConfig(n, seed, SOURCE_DETERMINISTIC_LHV, model=model)
            try:
                est = estimate(run_experiment(config))
            except EstimationError:
                refused += 1
                continue
            rejections += decide(est, alpha=0.01).reject_lhv
        low, high = wilson_interval(rejections, 10_000 - refused)
        table.append((n, rejections, 10_000 - refused, refused,
                      f"[{low:.1%}, {high:.1%}]"))
    assert table == [
        (45, 800, 9_822, 178, "[7.6%, 8.7%]"),
        (90, 379, 9_996, 4, "[3.4%, 4.2%]"),
        (360, 169, 10_000, 0, "[1.5%, 2.0%]"),
    ]
