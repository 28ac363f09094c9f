import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from bellsim import simplex
from bellsim.counterfactuals import CounterfactualTable, Population, all_tables
from bellsim.lhv import DeterministicLhv, lhv_match_table
from bellsim.loophole import (
    DEMO_STEALTH_MARGIN,
    N_STRATEGIES,
    AugmentedStrategy,
    FakingLp,
    FakingProblem,
    LpSolution,
    _assemble_lp,
    _distinct_strategies,
    _solve_on,
    build_faking_lp,
    demonstration_solution,
    enumerate_augmented_strategies,
    load_solution,
    max_faking_efficiency,
    rescore_solution,
    sample_loophole_model,
    save_solution,
    solve_lp,
)
from bellsim.quantum import AngleTriple, MatchProbabilityTable, match_table
from bellsim.rng import SplitMix64

CANONICAL_TARGETS = match_table(AngleTriple.from_degrees(60, 0, 120))
ZERO_TARGETS = MatchProbabilityTable(((0.0,) * 3,) * 3)

#: Regression values produced by this package's own solver and cross-checked
#: against the bisection route; see the loophole tests below.
FROZEN_MAX_EFFICIENCY = 2.0 / 3.0
FROZEN_DEMO_MIN_RATE = 0.4

BISECTION_TOLERANCE = 1e-4


def bisect_max_efficiency(targets):
    """The maximum faking efficiency by bisection on the floor, each probe
    decided by the solver's phase 1 alone: an independent route to the
    number :func:`max_faking_efficiency` reads off one epigraph solve."""

    def is_feasible(floor):
        built = build_faking_lp(FakingProblem(targets=targets, efficiency_floor=floor))
        return simplex.feasible(built.program)

    if is_feasible(1.0):
        return 1.0
    assert is_feasible(0.0)  # zero detection satisfies every target
    lo, hi = 0.0, 1.0
    while hi - lo > BISECTION_TOLERANCE:
        mid = (lo + hi) / 2.0
        if is_feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


@pytest.fixture(scope="module")
def floor0_solution():
    return solve_lp(build_faking_lp(FakingProblem(targets=CANONICAL_TARGETS)))


@pytest.fixture(scope="module")
def demo_solution():
    return demonstration_solution(CANONICAL_TARGETS)


class TestEnumeration:
    def test_exactly_4096_distinct_strategies(self):
        strategies = enumerate_augmented_strategies()
        assert len(strategies) == N_STRATEGIES
        assert len(set(strategies)) == N_STRATEGIES

    def test_index_zero_is_all_down_never_detect(self):
        first = enumerate_augmented_strategies()[0]
        assert first.table.y1 == (-1, -1, -1) and first.table.y2 == (-1, -1, -1)
        assert first.d1 == (0, 0, 0) and first.d2 == (0, 0, 0)

    def test_index_round_trip(self):
        strategies = enumerate_augmented_strategies()
        for idx in (0, 1, 63, 64, 1000, 4095):
            assert strategies[idx].index == idx
            assert AugmentedStrategy.from_index(idx) == strategies[idx]

    def test_always_detect_slice_reproduces_table_enumeration(self):
        always = [
            s
            for s in enumerate_augmented_strategies()
            if s.d1 == (1, 1, 1) and s.d2 == (1, 1, 1)
        ]
        assert len(always) == 64
        assert [s.table for s in always] == list(all_tables())

    def test_rejects_bad_flags_and_indices(self):
        with pytest.raises(ValueError):
            AugmentedStrategy(all_tables()[0], (1, 1), (1, 1, 1))
        with pytest.raises(ValueError):
            AugmentedStrategy.from_index(4096)


class TestBuildFakingLp:
    def test_program_dimensions(self):
        built = build_faking_lp(FakingProblem(targets=CANONICAL_TARGETS))
        program = built.program
        assert program.n_vars == N_STRATEGIES + 1
        assert program.eq_matrix.shape == (1 + 9, program.n_vars)
        assert program.ub_matrix.shape == (9 + 9, program.n_vars)

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            FakingProblem(targets=CANONICAL_TARGETS, efficiency_floor=1.5)

    def test_full_detection_floor_forces_always_detect_support(self):
        built = build_faking_lp(
            FakingProblem(targets=ZERO_TARGETS, efficiency_floor=1.0)
        )
        solution = solve_lp(built)
        assert solution.status == "feasible"
        strategies = enumerate_augmented_strategies()
        for idx in solution.weights:
            assert strategies[idx].d1 == (1, 1, 1)
            assert strategies[idx].d2 == (1, 1, 1)


class TestSolveLp:
    def test_zero_targets_have_a_perfect_witness(self):
        solution = solve_lp(build_faking_lp(FakingProblem(targets=ZERO_TARGETS)))
        assert solution.status == "feasible"
        assert solution.min_coincidence_rate == pytest.approx(1.0)

    def test_quantum_targets_infeasible_at_full_detection(self):
        built = build_faking_lp(
            FakingProblem(targets=CANONICAL_TARGETS, efficiency_floor=1.0)
        )
        assert solve_lp(built).status == "infeasible"

    def test_quantum_targets_feasible_at_floor_zero(self, floor0_solution):
        assert floor0_solution.status == "feasible"
        assert floor0_solution.min_coincidence_rate == pytest.approx(
            FROZEN_MAX_EFFICIENCY, abs=1e-9
        )

    def test_solution_rescoring_invariants(self, floor0_solution):
        rates, match_rates, weight_sum = rescore_solution(floor0_solution)
        assert weight_sum == pytest.approx(1.0, abs=1e-9)
        assert all(w >= 0.0 for w in floor0_solution.weights.values())
        reported = np.array(floor0_solution.coincidence_rates)
        assert np.max(np.abs(rates - reported)) <= 1e-9
        targets = CANONICAL_TARGETS.as_array()
        detected = rates > 1e-12
        conditional = match_rates[detected] / rates[detected]
        assert np.max(np.abs(conditional - targets[detected])) <= 1e-9


class TestMaxFakingEfficiency:
    def test_quantum_targets_frozen_value(self):
        eta = max_faking_efficiency(CANONICAL_TARGETS)
        assert abs(eta - FROZEN_MAX_EFFICIENCY) <= 1e-9
        assert 0.0 < eta < 1.0

    def test_bisection_agrees_with_direct_objective(self):
        # Dual route: bisection on phase-1 feasibility approximates the same
        # quantity the floor-0 epigraph optimum returns exactly.
        for degrees in ((60, 0, 120), (45, 0, 90)):
            targets = match_table(AngleTriple.from_degrees(*degrees))
            eta = max_faking_efficiency(targets)
            assert abs(bisect_max_efficiency(targets) - eta) <= BISECTION_TOLERANCE

    def test_highs_agrees_on_random_angles(self):
        # Independent solver: scipy's HiGHS (installed, not a declared
        # dependency) on the same floor-0 program, over all 4097 columns.
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(2012)
        for degrees in rng.uniform(0.0, 360.0, size=(20, 3)):
            targets = match_table(AngleTriple.from_degrees(*degrees))
            program = build_faking_lp(FakingProblem(targets=targets)).program
            highs = optimize.linprog(
                -program.objective,
                A_ub=program.ub_matrix, b_ub=program.ub_rhs,
                A_eq=program.eq_matrix, b_eq=program.eq_rhs,
                bounds=(0.0, None), method="highs",
            )
            assert highs.status == 0, (degrees, highs.message)
            assert max_faking_efficiency(targets) == pytest.approx(-highs.fun, abs=1e-9), degrees

    def test_highs_agrees_on_floor_programs(self):
        # Independent solver on the full floor programs, whose phase 1 this
        # package's simplex does not always finish; solve_lp decides them
        # from the floor-0 solve and must neither raise nor disagree.
        optimize = pytest.importorskip("scipy.optimize")
        rng = np.random.default_rng(1)
        for degrees in rng.integers(0, 360, size=(30, 3)):
            targets = match_table(AngleTriple.from_degrees(*map(int, degrees)))
            eta = max_faking_efficiency(targets)
            for floor in (0.6, 1.0):
                built = build_faking_lp(FakingProblem(targets=targets, efficiency_floor=floor))
                program = built.program
                highs = optimize.linprog(
                    -program.objective,
                    A_ub=program.ub_matrix, b_ub=program.ub_rhs,
                    A_eq=program.eq_matrix, b_eq=program.eq_rhs,
                    bounds=(0.0, None), method="highs",
                )
                assert highs.status in (0, 2), (degrees, floor, highs.message)
                solution = solve_lp(built)
                expected = "feasible" if highs.status == 0 else "infeasible"
                assert solution.status == expected, (degrees, floor)
                if expected == "feasible":
                    assert solution.min_coincidence_rate == pytest.approx(eta, abs=1e-9)

    def test_one_solve_matches_floor0_optimum(self, floor0_solution):
        assert max_faking_efficiency(CANONICAL_TARGETS) == floor0_solution.min_coincidence_rate

    def test_zero_targets_reach_full_efficiency(self):
        assert max_faking_efficiency(ZERO_TARGETS) == 1.0

    def test_lhv_reachable_targets_reach_full_efficiency(self):
        mixture = DeterministicLhv(
            Population(units=(all_tables()[5], all_tables()[40]), weights=(0.5, 0.5))
        )
        assert max_faking_efficiency(lhv_match_table(mixture)) == 1.0

    def test_below_full_efficiency_whenever_margin_positive(self):
        triple = AngleTriple.from_degrees(45, 0, 90)
        eta = max_faking_efficiency(match_table(triple))
        assert eta < 1.0
        # Independent reference for this geometry: 1/sqrt(2).
        assert eta == pytest.approx(2.0**-0.5, abs=1e-9)

    def test_feasibility_is_monotone_in_the_floor(self):
        def is_feasible(floor):
            built = build_faking_lp(
                FakingProblem(targets=CANONICAL_TARGETS, efficiency_floor=floor)
            )
            return simplex.feasible(built.program)

        results = [is_feasible(f) for f in (0.0, 0.25, 0.5, 0.65, 0.68, 0.9)]
        assert results == [True, True, True, True, False, False]

    # Phase 1 of these floor programs takes pivots as small as 1e-9, its
    # right-hand side drifts to -1e12 or beyond, and it does not finish even
    # within the default budget; the floor is decided from the floor-0 solve
    # instead. At (207, 20, 200) that optimum is exactly 1, and a floor-1
    # phase 1 to confirm it would not finish either. HiGHS agrees with the
    # expected statuses. A budget of 5,000 pivots keeps each case under a
    # second should the floor program be solved again.
    @pytest.mark.parametrize(
        "angles, floor",
        (((212, 177, 0), 1.0), ((162, 15, 11), 1.0), ((8, 231, 7), 0.6),
         ((207, 20, 200), 1.0)),
    )
    def test_floor_program_agrees_with_max_efficiency(self, angles, floor, monkeypatch):
        targets = match_table(AngleTriple.from_degrees(*angles))
        eta = max_faking_efficiency(targets)
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 5_000)
        solution = solve_lp(build_faking_lp(FakingProblem(targets=targets, efficiency_floor=floor)))
        if eta < floor:
            assert solution.status == "infeasible"
        else:
            assert solution.status == "feasible"
            assert solution.min_coincidence_rate == pytest.approx(eta, abs=1e-9)

    # Known defect: a mixture of tables 13, 24 and 53 with weights 0.685,
    # 0.315 and 6.3e-10. Its floor-0 phase 2 reports unbounded after 3,775
    # pivots, although z <= 1 bounds the program; HiGHS finds the optimum 1.
    BREAKDOWN = MatchProbabilityTable((
        (0.31478760013516033, 0.9999999993735484, 0.31478760013516033),
        (6.264515891236387e-10, 0.6852123998648397, 6.264515891236387e-10),
        (0.6852123998648397, 6.264515891236387e-10, 0.6852123998648397),
    ))

    @pytest.mark.xfail(raises=simplex.SimplexError,
                       reason="floor-0 phase 2 breaks down on this local mixture")
    def test_floor_zero_breakdown_reaches_full_efficiency(self):
        assert max_faking_efficiency(self.BREAKDOWN) == 1.0

    # Known defect: a mixture of tables 4 and 54 with weights 3.5e-10 and
    # 1 - 3.5e-10. Its floor-0 solve stops as optimal after (5, 3233) pivots
    # at 0.5587432611454236, silently; HiGHS finds the optimum 1.
    WRONG_OPTIMUM = MatchProbabilityTable((
        (0.9999999996517236, 1.0, 3.482764527360542e-10),
        (0.9999999996517236, 1.0, 3.482764527360542e-10),
        (0.0, 3.482764527360542e-10, 1.0),
    ))

    @pytest.mark.xfail(raises=AssertionError,
                       reason="floor-0 solve returns a wrong optimum on this local mixture")
    def test_floor_zero_wrong_optimum_reaches_full_efficiency(self):
        assert max_faking_efficiency(self.WRONG_OPTIMUM) == 1.0


class TestOptimumJustBelowOne:
    # Local targets reached with full detection have a true optimum of 1,
    # but the floor-0 solve may return an optimum a few ulps below it; only
    # the floor-1 program can tell such targets apart.
    CONFIRMED = MatchProbabilityTable(((0.0, 1.0, 1.0),) * 3)
    # A 1:99 mixture of two full-detection tables, whose floor-1 phase 1
    # on all the distinct strategies does not finish.
    DIVERGING = MatchProbabilityTable(((0.99,) * 3, (0.01,) * 3, (1.0,) * 3))

    @staticmethod
    def floor_zero_optimum(targets):
        z = _solve_on(FakingLp(targets.as_array(), 0.0), _distinct_strategies(), 0.0).objective
        assert 1.0 - simplex.ARTIFICIAL_MASS_TOL < z < 1.0
        return z

    @staticmethod
    def count_solves(monkeypatch):
        calls = []
        solve = simplex.solve

        def counted(lp):
            calls.append(lp)
            return solve(lp)

        def refuse(lp):
            raise AssertionError("a phase 1 at floor 1 was run")

        monkeypatch.setattr(simplex, "solve", counted)
        monkeypatch.setattr(simplex, "feasible", refuse)
        return calls

    def test_floor_one_optimum_answers_the_floors_above(self):
        z = self.floor_zero_optimum(self.CONFIRMED)
        assert max_faking_efficiency(self.CONFIRMED) == 1.0
        for floor in (float(np.nextafter(z, 1.0)), 1.0):
            built = build_faking_lp(FakingProblem(targets=self.CONFIRMED, efficiency_floor=floor))
            solution = solve_lp(built)
            assert solution.status == "feasible", floor
            assert min(map(min, solution.coincidence_rates)) >= floor

    def test_floor_at_most_the_optimum_is_one_solve(self, monkeypatch):
        z = self.floor_zero_optimum(self.DIVERGING)
        calls = self.count_solves(monkeypatch)
        for floor in (0.0, 0.5, z):
            built = build_faking_lp(FakingProblem(targets=self.DIVERGING, efficiency_floor=floor))
            solution = solve_lp(built)
            assert solution.status == "feasible", floor
            assert solution.min_coincidence_rate == z
        assert demonstration_solution(self.DIVERGING).status == "feasible"
        assert len(calls) == 4

    # Deciding floor 1 for these targets needs the floor-1 program, solved
    # on the always-detect strategies alone; HiGHS finds it feasible.
    def test_diverging_floor_one_reaches_full_efficiency(self, monkeypatch):
        self.floor_zero_optimum(self.DIVERGING)
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 5_000)
        assert max_faking_efficiency(self.DIVERGING) == 1.0


class TestDistinctStrategies:
    # The faking program solved on one strategy per group of equal detect
    # and detect_match must be the full program's solve, bit for bit.
    @staticmethod
    def targets():
        rng = np.random.default_rng(2026)
        triples = [(60, 0, 120), (45, 0, 90)]
        triples += [tuple(t) for t in rng.uniform(0.0, 360.0, size=(4, 3))]
        triples += [tuple(int(v) for v in t) for t in rng.integers(0, 360, size=(4, 3))]
        return [ZERO_TARGETS] + [match_table(AngleTriple.from_degrees(*t)) for t in triples]

    def test_kept_columns_are_the_distinct_program_columns(self):
        assert len(_distinct_strategies()) == 339
        for targets in self.targets():
            for margin in (None, DEMO_STEALTH_MARGIN):
                program = FakingLp(targets.as_array(), 0.0, margin).program
                columns = np.vstack([program.objective, program.eq_matrix, program.ub_matrix])
                kept = np.sort(np.unique(columns.T, axis=0, return_index=True)[1])
                assert np.array_equal(kept[:-1], _distinct_strategies())
                assert kept[-1] == N_STRATEGIES

    def test_reduced_solve_is_the_full_solve(self):
        statuses = set()
        for targets in self.targets():
            for margin in (None, DEMO_STEALTH_MARGIN):
                lp = FakingLp(targets.as_array(), 0.0, margin)
                full = simplex.solve(lp.program)
                reduced = _solve_on(lp, _distinct_strategies(), 0.0)
                statuses.add(full.status)
                assert reduced.status == full.status
                assert (reduced.x is None) == (full.x is None)
                if full.x is not None:
                    assert reduced.x.tobytes() == full.x.tobytes()
                assert repr(reduced.objective) == repr(full.objective)
                assert reduced.pivots == full.pivots
        assert statuses == {"optimal", "infeasible"}  # the demo program is infeasible at zero targets

    def test_loophole_sends_the_simplex_no_twin_columns(self, monkeypatch):
        # The simplex has no twin presolve, so every program the analyses
        # solve must hold each column once.
        programs = []
        solve = simplex.solve

        def recorded(lp):
            programs.append(lp)
            return solve(lp)

        monkeypatch.setattr(simplex, "solve", recorded)
        for targets in (CANONICAL_TARGETS, match_table(AngleTriple.from_degrees(45, 0, 90)),
                        ZERO_TARGETS, TestOptimumJustBelowOne.CONFIRMED,
                        TestOptimumJustBelowOne.DIVERGING):
            max_faking_efficiency(targets)
            demonstration_solution(targets)
            for floor in (0.0, 1.0):
                solve_lp(build_faking_lp(FakingProblem(targets=targets, efficiency_floor=floor)))
        floors = {float(-program.ub_rhs[0]) for program in programs}
        assert floors == {0.0, 1.0}  # the floor-1 confirmation ran
        for program in programs:
            columns = np.vstack([program.objective, program.eq_matrix, program.ub_matrix])
            assert len(np.unique(columns.T, axis=0)) == columns.shape[1]


class TestDemonstrationSolution:
    def test_demo_is_feasible_with_frozen_floor(self, demo_solution):
        assert demo_solution.status == "feasible"
        assert demo_solution.min_coincidence_rate == pytest.approx(
            FROZEN_DEMO_MIN_RATE, abs=1e-9
        )

    def test_demo_keeps_unconditional_statistic_below_margin(self, demo_solution):
        _, match_rates, _ = rescore_solution(demo_solution)
        unconditional = (
            match_rates[1, 2] - match_rates[0, 2] - match_rates[1, 0] - match_rates[0, 0]
        )
        assert unconditional <= -DEMO_STEALTH_MARGIN + 1e-9

    def test_demo_reproduces_targets_conditionally(self, demo_solution):
        rates, match_rates, _ = rescore_solution(demo_solution)
        targets = CANONICAL_TARGETS.as_array()
        detected = rates > 1e-12
        conditional = match_rates[detected] / rates[detected]
        assert np.max(np.abs(conditional - targets[detected])) <= 1e-9

    def test_rejects_negative_margin(self):
        with pytest.raises(ValueError):
            demonstration_solution(CANONICAL_TARGETS, stealth_margin=-0.1)


class TestSolutionDocument:
    def test_demo_solution_round_trips(self, demo_solution):
        doc = json.loads(json.dumps(demo_solution.to_dict()))
        assert LpSolution.from_dict(doc) == demo_solution

    def test_infeasible_solution_round_trips(self):
        bad = LpSolution(
            status="infeasible", weights={}, coincidence_rates=None, min_coincidence_rate=None
        )
        assert LpSolution.from_dict(bad.to_dict()) == bad

    @pytest.mark.parametrize(
        "status, weights",
        (
            ("optimal", {"7": 1.0}),  # unknown status
            ("feasible", {"-1": 1.0}),  # index below range
            ("feasible", {"4096": 1.0}),
            ("feasible", {"5000": 1.0}),
            ("feasible", {"1.5": 1.0}),  # non-integer index
            ("feasible", {"7": 1.0, "07": 0.0}),  # repeated index
            ("feasible", {"7": 1.5, "8": -0.5}),  # negative weight
            ("feasible", {"7": float("nan")}),
            ("feasible", {"7": float("inf")}),
            ("feasible", {"7": 0.5, "8": 0.4}),  # sums to 0.9
            ("feasible", {"7": "heavy"}),
            ("feasible", []),
            ("infeasible", {"7": 1.0}),
            ("feasible", {"7": 10**400}),  # overflows a float
            ("feasible", {"7": "1.0"}),  # a string, not a JSON number
            ("feasible", {"7": True}),
        ),
    )
    def test_from_dict_rejects_invalid_documents(self, status, weights):
        with pytest.raises(ValueError):
            LpSolution.from_dict({"status": status, "weights": weights})

    @pytest.mark.parametrize(
        "field, value",
        (
            ("coincidence_rates", 5),
            ("coincidence_rates", "abc"),
            ("coincidence_rates", [[0.5] * 3] * 2),  # 2x3
            ("coincidence_rates", [[0.5] * 3, [0.5] * 3, [0.5] * 2]),
            ("coincidence_rates", [[0.5] * 3, [0.5] * 3, [0.5, 0.5, "x"]]),
            ("coincidence_rates", [[0.5] * 3, [0.5] * 3, [0.5, 0.5, float("nan")]]),
            ("coincidence_rates", [[0.5] * 3, [0.5] * 3, [0.5, 0.5, None]]),
            ("min_coincidence_rate", "abc"),
            ("min_coincidence_rate", float("inf")),
            ("min_coincidence_rate", [0.5]),
            ("min_coincidence_rate", 10**400),
        ),
    )
    def test_from_dict_rejects_invalid_rates(self, field, value):
        doc = {"status": "feasible", "weights": {"7": 1.0}, field: value}
        with pytest.raises(ValueError):
            LpSolution.from_dict(doc)

    def test_from_dict_accepts_integer_rates(self):
        doc = {
            "status": "feasible",
            "weights": {"7": 1},
            "coincidence_rates": [[1, 0, 1]] * 3,
            "min_coincidence_rate": 0,
        }
        solution = LpSolution.from_dict(doc)
        assert solution.coincidence_rates == ((1.0, 0.0, 1.0),) * 3
        assert solution.min_coincidence_rate == 0.0

    def test_from_dict_accepts_rounding_in_the_weight_sum(self):
        doc = {"status": "feasible", "weights": {"7": 0.5, "8": 0.5 + 5e-10}}
        assert LpSolution.from_dict(doc).weights == {7: 0.5, 8: 0.5 + 5e-10}


class TestSampling:
    def test_infeasible_solution_cannot_be_sampled(self):
        bad = LpSolution(
            status="infeasible", weights={}, coincidence_rates=None, min_coincidence_rate=None
        )
        with pytest.raises(ValueError):
            sample_loophole_model(bad, (0, 0), SplitMix64(0))

    def test_always_detect_solution_always_detects(self):
        # Point mass on the never-matching full-detection strategy.
        table = CounterfactualTable((1, 1, 1), (-1, -1, -1))
        idx = AugmentedStrategy(table, (1, 1, 1), (1, 1, 1)).index
        solution = LpSolution(
            status="feasible",
            weights={idx: 1.0},
            coincidence_rates=((1.0,) * 3,) * 3,
            min_coincidence_rate=1.0,
        )
        rng = SplitMix64(1)
        for pair in itertools.product(range(3), repeat=2):
            y1, y2, d1, d2 = sample_loophole_model(solution, pair, rng)
            assert d1 == 1 and d2 == 1
            assert y1 == 1 and y2 == -1

    def test_every_strategy_samples_its_own_flags_and_spins(self):
        # A point mass on each strategy makes the draw deterministic, so the
        # bit arithmetic must reproduce the dataclass enumeration exactly.
        rng = SplitMix64(0)
        for strategy in enumerate_augmented_strategies():
            solution = LpSolution(
                status="feasible",
                weights={strategy.index: 1.0},
                coincidence_rates=None,
                min_coincidence_rate=None,
            )
            for x1, x2 in itertools.product(range(3), repeat=2):
                expected = (
                    strategy.table.y1[x1] if strategy.d1[x1] else None,
                    strategy.table.y2[x2] if strategy.d2[x2] else None,
                    strategy.d1[x1],
                    strategy.d2[x2],
                )
                assert sample_loophole_model(solution, (x1, x2), rng) == expected

    def test_detection_flags_gate_outcomes(self, demo_solution):
        rng = SplitMix64(2)
        seen_missing = False
        for k in range(2000):
            pair = (k % 3, (k // 3) % 3)
            y1, y2, d1, d2 = sample_loophole_model(demo_solution, pair, rng)
            assert (y1 is None) == (d1 == 0)
            assert (y2 is None) == (d2 == 0)
            seen_missing = seen_missing or d1 == 0 or d2 == 0
        assert seen_missing

    def test_coincidence_conditional_matches_converge(self, demo_solution):
        rng = SplitMix64(3)
        pair = (1, 2)
        n = 60_000
        coinc = 0
        matches = 0
        for _ in range(n):
            y1, y2, d1, d2 = sample_loophole_model(demo_solution, pair, rng)
            if d1 and d2:
                coinc += 1
                matches += y1 == y2
        assert coinc / n == pytest.approx(demo_solution.coincidence_rate(1, 2), abs=0.01)
        assert matches / coinc == pytest.approx(0.75, abs=0.01)


class TestSerialization:
    def test_solution_round_trip(self, tmp_path, demo_solution):
        path = tmp_path / "solution.json"
        save_solution(demo_solution, path)
        restored = load_solution(path)
        assert restored == demo_solution
        doc = json.loads(path.read_text())
        assert doc["status"] == "feasible"

    def test_problem_dumps_to_json(self):
        built = build_faking_lp(
            FakingProblem(targets=CANONICAL_TARGETS, efficiency_floor=0.25)
        )
        doc = json.loads(json.dumps(built.to_dict()))
        assert doc["efficiency_floor"] == 0.25
        assert doc["n_strategies"] == N_STRATEGIES
        assert len(doc["program"]["objective"]) == N_STRATEGIES + 1
        assert len(doc["program"]["eq_matrix"]) == 10
        assert len(doc["program"]["ub_matrix"]) == 18


# --- miniature-instance cross-validation -----------------------------------
#
# Independent 2-setting scenario built from scratch: 256 strategies, exact
# rational feasibility oracle over a coarse weight grid (supports of size one
# or two with small denominators). Wherever the oracle exhibits a feasible
# point, the solver must agree; every feasible solver answer is re-scored
# against the constraints. The oracle cannot prove infeasibility, so solver
# "feasible" with a silent oracle is accepted after re-scoring.


def mini_strategies():
    spins = (-1, 1)
    flags = (0, 1)
    out = []
    for y1 in itertools.product(spins, repeat=2):
        for y2 in itertools.product(spins, repeat=2):
            for d1 in itertools.product(flags, repeat=2):
                for d2 in itertools.product(flags, repeat=2):
                    out.append((y1, y2, d1, d2))
    return out


def mini_signature(strategy):
    y1, y2, d1, d2 = strategy
    sig = []
    for i in (0, 1):
        for j in (0, 1):
            detected = d1[i] * d2[j]
            sig.append((detected, detected * int(y1[i] == y2[j])))
    return tuple(sig)


def mini_matrices(strategies):
    detect = np.zeros((len(strategies), 2, 2))
    detect_match = np.zeros((len(strategies), 2, 2))
    for s, (y1, y2, d1, d2) in enumerate(strategies):
        for i in (0, 1):
            for j in (0, 1):
                detect[s, i, j] = d1[i] * d2[j]
                detect_match[s, i, j] = d1[i] * d2[j] * int(y1[i] == y2[j])
    return detect, detect_match


def exact_mixture_feasible(signatures, targets, floor):
    """Search supports of size <= 2 with denominators 1, 2, 3, 4 in exact
    arithmetic; returns True when some grid mixture meets every constraint."""

    def satisfies(support):
        for cell in range(4):
            match_mass = sum(w * sig[cell][1] for w, sig in support)
            detect_mass = sum(w * sig[cell][0] for w, sig in support)
            if match_mass != targets[cell] * detect_mass:
                return False
            if detect_mass < floor:
                return False
        return True

    unique = sorted(set(signatures))
    for sig in unique:
        if satisfies(((Fraction(1), sig),)):
            return True
    for sig_a, sig_b in itertools.combinations(unique, 2):
        for denom in (2, 3, 4):
            for k in range(1, denom):
                w_a = Fraction(k, denom)
                if satisfies(((w_a, sig_a), (1 - w_a, sig_b))):
                    return True
    return False


class TestMiniatureOracle:
    @pytest.mark.parametrize("seed", range(10))
    def test_solver_agrees_with_exact_grid_oracle(self, seed):
        rng = np.random.default_rng(seed)
        rational_choices = [
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 2),
            Fraction(3, 4),
            Fraction(1),
        ]
        targets = [rational_choices[k] for k in rng.integers(0, 5, size=4)]
        floor = [Fraction(0), Fraction(1, 4), Fraction(1, 2)][int(rng.integers(0, 3))]

        strategies = mini_strategies()
        assert len(strategies) == 256
        signatures = [mini_signature(s) for s in strategies]
        oracle_says_feasible = exact_mixture_feasible(signatures, targets, floor)

        detect, detect_match = mini_matrices(strategies)
        targets_arr = np.array(
            [[float(targets[0]), float(targets[1])], [float(targets[2]), float(targets[3])]]
        )
        program = _assemble_lp(detect, detect_match, targets_arr, float(floor))
        result = simplex.solve(program)

        if oracle_says_feasible:
            assert result.status == "optimal"
        if result.status == "optimal":
            w = result.x[:256]
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w >= -1e-12)
            rates = np.einsum("s,sij->ij", w, detect)
            match_rates = np.einsum("s,sij->ij", w, detect_match)
            assert np.all(rates >= float(floor) - 1e-9)
            assert np.max(np.abs(match_rates - targets_arr * rates)) <= 1e-9
