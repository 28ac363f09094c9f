import dataclasses
import importlib.util
import itertools
import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bellsim import simplex
from bellsim.counterfactuals import CounterfactualTable, Population, all_tables, match_indicator
from bellsim.lhv import DeterministicLhv, lhv_match_table
from bellsim.loophole import (
    DEMO_STEALTH_MARGIN,
    N_STRATEGIES,
    FakingProblem,
    LpSolution,
    _assemble_lp,
    _distinct_strategies,
    _full_detection_weights,
    _largest_bell_sum,
    _local_polytope,
    _optimum,
    _relabeled_bell_coefficients,
    _scored,
    _solve_on,
    _strategy_matrices,
    _strategy_spins,
    build_faking_lp,
    demonstration_solution,
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
#: against phase 1 alone on the floor programs; see the loophole tests below.
FROZEN_MAX_EFFICIENCY = 2.0 / 3.0
FROZEN_DEMO_MIN_RATE = 0.4


@pytest.fixture(scope="module")
def floor0_solution():
    return solve_lp(FakingProblem(targets=CANONICAL_TARGETS))


@pytest.fixture(scope="module")
def demo_solution():
    return demonstration_solution(CANONICAL_TARGETS)


def distinct_program(targets, floor=0.0, stealth=False):
    """The faking program on the 339 distinct strategies, which hold every
    column of the full program once (TestDistinctStrategies): its optimum
    and feasibility are the full program's."""
    detect, detect_match = (m[_distinct_strategies()] for m in _strategy_matrices())
    return _assemble_lp(detect, detect_match, targets.as_array(), floor, stealth)


def highs(program):
    """scipy's HiGHS (installed, not a declared dependency) on ``program``,
    every variable at least 0: an independent solver."""
    optimize = pytest.importorskip("scipy.optimize")
    return optimize.linprog(-program.objective, A_ub=program.ub_matrix, b_ub=program.ub_rhs,
                            A_eq=program.eq_matrix, b_eq=program.eq_rhs,
                            bounds=(0.0, None), method="highs")


class TestEnumeration:
    def test_index_zero_never_detects(self):
        y1, y2 = _strategy_spins()
        assert y1[0].tolist() == y2[0].tolist() == [0, 0, 0]

    def test_always_detect_strategies_reproduce_table_enumeration(self):
        # Strategy 64 t + 63 is table t with every flag up.
        y1, y2 = _strategy_spins()
        always = np.flatnonzero((y1 != 0).all(axis=1) & (y2 != 0).all(axis=1))
        assert always.tolist() == [(t.index << 6) | 0x3F for t in all_tables()]
        assert y1[always].tolist() == [list(t.y1) for t in all_tables()]
        assert y2[always].tolist() == [list(t.y2) for t in all_tables()]

    def test_spins_are_the_tables_and_flags_are_the_low_bits(self):
        # Strategy s shows table s >> 6's spin at setting x where its flag
        # d1[x] (bit 5 - x) or d2[x] (bit 2 - x) is up, and 0 elsewhere.
        tables = all_tables()
        y1, y2 = _strategy_spins()
        for s in range(N_STRATEGIES):
            table = tables[s >> 6]
            assert y1[s].tolist() == [table.y1[x] * (s >> (5 - x) & 1) for x in range(3)]
            assert y2[s].tolist() == [table.y2[x] * (s >> (2 - x) & 1) for x in range(3)]


class TestBuildFakingLp:
    def test_program_dimensions(self):
        # At floor 0 the program has only the nine epigraph rows; a positive
        # floor puts each "coincidence rate >= floor" row before its
        # epigraph row.
        program = FakingProblem(targets=CANONICAL_TARGETS).program
        assert program.n_vars == N_STRATEGIES + 1
        assert program.eq_matrix.shape == (1 + 9, program.n_vars)
        assert program.ub_matrix.shape == (9, program.n_vars)
        assert np.array_equal(program.ub_rhs, np.zeros(9))
        assert np.all(program.ub_matrix[:, -1] == 1.0)
        floored = FakingProblem(targets=CANONICAL_TARGETS, efficiency_floor=0.5).program
        assert floored.ub_matrix.shape == (9 + 9, program.n_vars)
        assert np.array_equal(floored.ub_rhs, np.tile([-0.5, 0.0], 9))
        assert np.all(floored.ub_matrix[0::2, -1] == 0.0)
        assert np.array_equal(floored.ub_matrix[1::2], program.ub_matrix)
        assert np.array_equal(floored.ub_matrix[0::2, :-1], program.ub_matrix[:, :-1])

    @pytest.mark.parametrize("floor", (1.5, math.nan, -2.0, math.inf))
    def test_floor_validation(self, floor):
        with pytest.raises(ValueError, match="outside"):
            FakingProblem(targets=CANONICAL_TARGETS, efficiency_floor=floor)

    def test_equal_problems_compare_equal_and_hash(self):
        first = FakingProblem(CANONICAL_TARGETS, 0.5, stealth=True)
        second = FakingProblem(match_table(AngleTriple.from_degrees(60, 0, 120)), 0.5, True)
        first.program  # a cached program takes no part in equality
        assert first == second and hash(first) == hash(second)
        assert first != FakingProblem(CANONICAL_TARGETS, 0.5)

    def test_build_faking_lp_returns_its_problem(self):
        problem = FakingProblem(CANONICAL_TARGETS)
        assert build_faking_lp(problem) is problem

    def test_full_detection_floor_forces_always_detect_support(self):
        solution = solve_lp(FakingProblem(targets=ZERO_TARGETS, efficiency_floor=1.0))
        assert solution.status == "feasible"
        assert all(idx & 0x3F == 0x3F for idx in solution.weights)


class TestSolveLp:
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

    def test_phase_one_brackets_the_direct_objective(self):
        # Dual route: phase 1 alone reads the floor program at z* - 1e-6
        # feasible and at z* + 1e-6 infeasible, z* the floor-0 epigraph
        # optimum. At 1e-8 both read feasible, within the artificial-mass
        # tolerance of 1e-7.
        for degrees in ((60, 0, 120), (45, 0, 90)):
            targets = match_table(AngleTriple.from_degrees(*degrees))
            eta = max_faking_efficiency(targets)
            assert simplex.feasible(FakingProblem(targets, eta - 1e-6).program)
            assert not simplex.feasible(FakingProblem(targets, eta + 1e-6).program)

    def test_highs_agrees_on_random_angles(self):
        # HiGHS on the same floor-0 program: over all 4097 columns for the
        # first triple, on the distinct columns for the other 19.
        rng = np.random.default_rng(2012)
        for k, degrees in enumerate(rng.uniform(0.0, 360.0, size=(20, 3))):
            targets = match_table(AngleTriple.from_degrees(*degrees))
            result = highs(FakingProblem(targets=targets).program if k == 0
                           else distinct_program(targets))
            assert result.status == 0, (degrees, result.message)
            assert max_faking_efficiency(targets) == pytest.approx(-result.fun, abs=1e-9), degrees

    def test_highs_agrees_on_floor_programs(self):
        # HiGHS on the floor programs, with their floor rows, whose phase 1 this
        # package's simplex does not always finish; solve_lp decides them
        # from the floor-0 solve, or floor 1 from a relabeled Bell sum, and
        # must neither raise nor disagree.
        for k, targets in enumerate(INTEGER_TRIPLES[:30]):
            eta = max_faking_efficiency(targets)
            for floor in (0.6, 1.0):
                result = highs(distinct_program(targets, floor))
                assert result.status in (0, 2), (k, floor, result.message)
                solution = solve_lp(FakingProblem(targets=targets, efficiency_floor=floor))
                expected = "feasible" if result.status == 0 else "infeasible"
                assert solution.status == expected, (k, floor)
                if expected == "feasible":
                    assert solution.min_coincidence_rate == pytest.approx(eta, abs=1e-9)

    def test_one_solve_matches_floor0_optimum(self, floor0_solution):
        assert max_faking_efficiency(CANONICAL_TARGETS) == floor0_solution.min_coincidence_rate

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
            return simplex.feasible(
                FakingProblem(targets=CANONICAL_TARGETS, efficiency_floor=floor).program
            )

        results = [is_feasible(f) for f in (0.0, 0.25, 0.5, 0.65, 0.68, 0.9)]
        assert results == [True, True, True, True, False, False]

    # Phase 1 of these floor programs takes pivots as small as 1e-9, its
    # right-hand side drifts to -1e12 or beyond, and it does not finish even
    # within the default budget; the floor is decided instead from a
    # relabeled Bell sum at floor 1 and from the floor-0 solve at 0.6. At
    # (207, 20, 200) the optimum is exactly 1, and a floor-1 phase 1 over
    # all the distinct columns to confirm it would not finish either. HiGHS
    # agrees with the expected statuses. A budget of 5,000 pivots keeps each
    # case under a second should the floor program be solved again.
    @pytest.mark.parametrize(
        "angles, floor",
        (((212, 177, 0), 1.0), ((162, 15, 11), 1.0), ((8, 231, 7), 0.6),
         ((207, 20, 200), 1.0)),
    )
    def test_floor_program_agrees_with_max_efficiency(self, angles, floor, monkeypatch):
        targets = match_table(AngleTriple.from_degrees(*angles))
        eta = max_faking_efficiency(targets)
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 5_000)
        solution = solve_lp(FakingProblem(targets=targets, efficiency_floor=floor))
        if eta < floor:
            assert solution.status == "infeasible"
        else:
            assert solution.status == "feasible"
            assert solution.min_coincidence_rate == pytest.approx(eta, abs=1e-9)

    # A mixture of tables 13, 24 and 53 with weights 0.685, 0.315 and
    # 6.3e-10. Its floor-0 solve hits the pivot limit (under Bland's rule
    # phase 2 reports unbounded after (9, 1458) pivots, although z <= 1
    # bounds the program); the local polytope's facets, asked first, give
    # the optimum 1, as HiGHS does.
    BREAKDOWN = MatchProbabilityTable((
        (0.31478760013516033, 0.9999999993735484, 0.31478760013516033),
        (6.264515891236387e-10, 0.6852123998648397, 6.264515891236387e-10),
        (0.6852123998648397, 6.264515891236387e-10, 0.6852123998648397),
    ))

    def test_floor_zero_breakdown_reaches_full_efficiency(self):
        assert max_faking_efficiency(self.BREAKDOWN) == 1.0

    # A mixture of tables 4 and 54 with weights 3.5e-10 and 1 - 3.5e-10.
    # Its floor-0 solve hits the pivot limit under either rule; the local
    # polytope's facets, asked first, give the optimum 1, as HiGHS does.
    WRONG_OPTIMUM = MatchProbabilityTable((
        (0.9999999996517236, 1.0, 3.482764527360542e-10),
        (0.9999999996517236, 1.0, 3.482764527360542e-10),
        (0.0, 3.482764527360542e-10, 1.0),
    ))

    def test_floor_zero_wrong_optimum_reaches_full_efficiency(self):
        assert max_faking_efficiency(self.WRONG_OPTIMUM) == 1.0

    # Triple 91 of default_rng(2).uniform(0, 360, (240, 3)). Its Bell
    # statistic is 0.00036, so the floor-0 program decides it. Under Bland's
    # rule that solve does not finish; under Dantzig's it finishes, certified,
    # in (10, 108) pivots. HiGHS finds 0.9996440399774037. A budget of 5,000
    # pivots keeps a failure at about 0.2 s.
    NON_LOCAL = (301.4804809673983, 125.58231232781922, 304.8986802749712)

    def test_non_local_breakdown_reaches_its_optimum(self, monkeypatch):
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 5_000)
        targets = match_table(AngleTriple.from_degrees(*self.NON_LOCAL))
        assert max_faking_efficiency(targets) == pytest.approx(0.9996440399774037, abs=1e-9)
        answer = _optimum(FakingProblem(targets))
        assert answer.route == "floor 0" and answer.certificate is not None


def load_census():
    """``tools/census.py``, loaded by path: its target sets are the test sets here."""
    path = Path(__file__).resolve().parents[1] / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CENSUS = load_census()
INTEGER_TRIPLES = CENSUS.TARGET_SETS["300 integer triples"]
#: 150 local mixtures of 2 to 4 tables, one of weight in [1e-12, 1e-9].
TINY_WEIGHT_CENSUS = CENSUS.TARGET_SETS["150 tiny-weight mixtures"]


def refuse_solves(monkeypatch):
    """Make every simplex solve or phase 1 raise ``AssertionError``."""
    def refuse(lp, **pricing):
        raise AssertionError("a simplex solve was run")

    monkeypatch.setattr(simplex, "solve", refuse)
    monkeypatch.setattr(simplex, "feasible", refuse)


class TestTinyWeightCensus:
    # Every target is a local mixture with full detection, so the local
    # polytope's facets answer floor 1 with no solve. The demonstration is
    # that same solution exactly when its unconditional Bell statistic
    # b = m12 - m02 - m10 - m00 meets the stealth row; else it solves.
    @pytest.mark.parametrize("k", range(len(TINY_WEIGHT_CENSUS)))
    def test_demo_is_the_facets_solution_when_it_meets_the_stealth_row(self, k, monkeypatch):
        refuse_solves(monkeypatch)
        targets = TINY_WEIGHT_CENSUS[k]
        facets = solve_lp(FakingProblem(targets, 1.0))
        _, m, _ = rescore_solution(facets)
        if m[1, 2] - m[0, 2] - m[1, 0] - m[0, 0] <= -DEMO_STEALTH_MARGIN:
            assert demonstration_solution(targets) == facets
        else:
            with pytest.raises(AssertionError, match="a simplex solve was run"):
                demonstration_solution(targets)

    # solve_lp returns only weights that load_solution reads back.
    @pytest.mark.parametrize("k", range(len(TINY_WEIGHT_CENSUS)))
    def test_full_detection_solution_is_one_load_solution_reads(self, k, monkeypatch):
        refuse_solves(monkeypatch)
        targets = TINY_WEIGHT_CENSUS[k]
        solution = solve_lp(FakingProblem(targets=targets, efficiency_floor=1.0))
        assert LpSolution.from_dict(solution.to_dict()) == solution
        assert solution.min_coincidence_rate == 1.0 == max_faking_efficiency(targets)


class TestFullDetectionFirst:
    # Local targets reached with full detection have an optimum of 1, which
    # the local polytope's facets, asked first, give with no solve; the
    # floor-0 solve under Bland's rule reads a few ulps below 1 for these two
    # (under Dantzig's, 1.0 and 1.000000000000085).
    CONFIRMED = MatchProbabilityTable(((0.0, 1.0, 1.0),) * 3)
    # A 1:99 mixture of two full-detection tables, whose floor-1 phase 1
    # on all the distinct strategies does not finish.
    DIVERGING = MatchProbabilityTable(((0.99,) * 3, (0.01,) * 3, (1.0,) * 3))

    @staticmethod
    def floor_zero_optimum(targets):
        z = simplex.solve(FakingProblem(targets).program, dantzig=False).objective
        assert z < 1.0
        return z

    # The facets decide the floors above that floor-0 solve's optimum,
    # feasible, as HiGHS finds.
    @pytest.mark.parametrize("targets", (CONFIRMED, DIVERGING), ids=("CONFIRMED", "DIVERGING"))
    def test_floor_one_optimum_answers_the_floors_above(self, targets, monkeypatch):
        z = self.floor_zero_optimum(targets)
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 5_000)
        assert max_faking_efficiency(targets) == 1.0
        for floor in (float(np.nextafter(z, 1.0)), 1.0):
            solution = solve_lp(FakingProblem(targets=targets, efficiency_floor=floor))
            assert solution.status == "feasible", floor
            assert min(map(min, solution.coincidence_rates)) >= floor

    # The facets answer every floor of these local targets with no solve.
    @pytest.mark.parametrize(
        "targets",
        (TestMaxFakingEfficiency.BREAKDOWN, TestMaxFakingEfficiency.WRONG_OPTIMUM,
         CONFIRMED, DIVERGING, ZERO_TARGETS),
        ids=("BREAKDOWN", "WRONG_OPTIMUM", "CONFIRMED", "DIVERGING", "ZERO"),
    )
    def test_local_targets_are_facet_answers(self, targets):
        assert max_faking_efficiency(targets) == 1.0
        for floor in (0.0, 0.5, 1.0):
            answer = _optimum(FakingProblem(targets, floor))
            assert (answer.route, answer.pivots) == ("facets", (0, 0))
            solution = solve_lp(FakingProblem(targets, floor))
            assert solution.status == "feasible"
            assert LpSolution.from_dict(solution.to_dict()) == solution
            assert solution.min_coincidence_rate == 1.0


UNBOUNDED_DEMO = match_table(AngleTriple.from_degrees(181, 7, 6))
FORTY_FIVE = match_table(AngleTriple.from_degrees(45, 0, 90))


class TestAnswer:
    # _optimum's answer to fixed problems: its route, how the program ended,
    # z* and the pivots of each phase, (0, 0) where no solve ran. A Bell sum
    # answers floor 1 of non-local targets. The facets' model of the zero
    # targets fails the stealth row, and that solve ends in phase 1.
    # UNBOUNDED_DEMO is triple 117 of the census's integer triples.
    @pytest.mark.parametrize("targets, floor, stealth, end", (
        (CANONICAL_TARGETS, 0.0, False, ["floor 0", "optimal", 0.666666666666667, (10, 86)]),
        (CANONICAL_TARGETS, 1.0, False, ["bell sum", None, None, (0, 0)]),
        (CANONICAL_TARGETS, 0.0, True, ["floor 0", "optimal", 0.40000000000000013, (11, 252)]),
        (FORTY_FIVE, 0.0, False, ["floor 0", "optimal", 0.707106781186547, (10, 90)]),
        (FORTY_FIVE, 1.0, False, ["bell sum", None, None, (0, 0)]),
        (FORTY_FIVE, 0.0, True, ["floor 0", "optimal", 0.27279220613578603, (11, 216)]),
        (TestFullDetectionFirst.CONFIRMED, 0.0, False, ["facets", "optimal", 1.0, (0, 0)]),
        (ZERO_TARGETS, 0.0, True, ["floor 0", "infeasible", None, (9, 0)]),
        (UNBOUNDED_DEMO, 0.0, True, ["floor 0", "unbounded", None, (11, 3084)]),
    ), ids=("60,0,120", "60,0,120 floor 1", "60,0,120 demo", "45,0,90", "45,0,90 floor 1",
            "45,0,90 demo", "CONFIRMED", "zero demo", "181,7,6 demo"))
    def test_route_and_end(self, targets, floor, stealth, end):
        answer = _optimum(FakingProblem(targets, floor, stealth))
        assert [answer.route, answer.status, answer.objective, answer.pivots] == end
        assert (answer.x is None) == (answer.objective is None)
        # Every floor-0 optimum carries its certificate; the facets need none.
        assert (answer.certificate is not None) == (end[:2] == ["floor 0", "optimal"])

    # The census on five targets: integer triples 0 and 117, real triple 0
    # and tiny-weight mixtures 6 and 18, whose demonstrations end infeasible
    # in phase 1 and at the facets. Triple 117's demonstration raises. The
    # eight floor-0 optima each carry a certificate.
    def test_census_runs(self, capsys):
        real = CENSUS.TARGET_SETS["240 real triples"]
        CENSUS.census([INTEGER_TRIPLES[0], INTEGER_TRIPLES[117], real[0],
                       TINY_WEIGHT_CENSUS[6], TINY_WEIGHT_CENSUS[18]])
        lines = [line.split(", median")[0] for line in capsys.readouterr().out.splitlines()]
        assert lines[:4] == [
            "max_faking_efficiency: routes {'facets': 2, 'floor 0': 3}, "
            "outcomes {'value': 5}, pivots 30 + 425",
            "solve_lp floor 0: routes {'facets': 2, 'floor 0': 3}, "
            "outcomes {'feasible': 5}, pivots 30 + 425",
            "solve_lp floor 1: routes {'bell sum': 3, 'facets': 2}, "
            "outcomes {'feasible': 2, 'infeasible': 3}, pivots 0 + 0",
            "demonstration_solution: routes {'facets': 1, 'floor 0': 4}, "
            "outcomes {'SimplexError': 1, 'feasible': 3, 'infeasible': 1}, pivots 38 + 3708",
        ]
        found = re.fullmatch(r"certified 8, refused 0, largest gap (\S+), largest residual (\S+)",
                             lines[4])
        assert found and len(lines) == 5
        assert all(0.0 <= float(v) <= simplex.ARTIFICIAL_MASS_TOL for v in found.groups())


def refuses(answer, certificate, message="gap"):
    """``answer`` carrying ``certificate`` instead: its reading raises the
    refusal, and the gap lies outside [0, ARTIFICIAL_MASS_TOL] or the
    residual above it."""
    gap, residual = certificate
    tol = simplex.ARTIFICIAL_MASS_TOL
    assert not 0.0 <= gap <= tol or residual > tol, certificate
    with pytest.raises(simplex.SimplexError, match=f"^optimum not certified: .*{message}"):
        dataclasses.replace(answer, certificate=certificate).efficiency()


class TestCertificate:
    # Every optimal floor-0 answer carries (gap, residual): hi - z*, hi a
    # rigorous dual bound on the optimum, and the largest violation of a
    # program row by x. simplex.certify only measures them; the answer's
    # reading refuses either above simplex.ARTIFICIAL_MASS_TOL, or a
    # negative gap.
    PROBLEMS = (FakingProblem(CANONICAL_TARGETS), FakingProblem(CANONICAL_TARGETS, stealth=True),
                FakingProblem(FORTY_FIVE), FakingProblem(FORTY_FIVE, stealth=True))

    @pytest.mark.parametrize("problem", PROBLEMS, ids=("60,0,120", "60,0,120 demo",
                                                       "45,0,90", "45,0,90 demo"))
    def test_a_perturbed_dual_or_weight_breaks_it(self, problem, monkeypatch):
        calls, certify = [], simplex.certify
        monkeypatch.setattr(simplex, "certify", lambda *args: calls.append(args) or certify(*args))
        answer = _solve_on(problem)
        gap, residual = answer.certificate
        assert 0.0 <= gap <= 1e-10 and residual <= 1e-13
        lp, result, upper = calls[0]
        assert certify(lp, result, upper) == (gap, residual)
        y = result.duals
        assert y.shape == (19 + problem.stealth,)
        # Rows 1, 5 and 9 match equal settings, whose targets are 0: their
        # entries are all at least 0, so raising y there only lowers reduced
        # costs, and the bound holds. Every other shift breaks it.
        for k, by in itertools.product(range(len(y)), (-1e-3, 1e-3)):
            shifted = dataclasses.replace(result, duals=y.copy())
            shifted.duals[k] += by
            if by > 0.0 and k in (1, 5, 9):
                assert certify(lp, shifted, upper)[0] <= 1e-10
                continue
            refuses(answer, certify(lp, shifted, upper))
        for k in (0, 100, 338):
            x = result.x.copy()
            x[k] += 1e-6
            refuses(answer, certify(lp, dataclasses.replace(result, x=x), upper),
                    "residual 1e-06$")

    # HiGHS's optimum of the program lies within 1e-9 of [z*, z* + gap]
    # for the benchmark's targets and the first 40 integer triples, with and
    # without the stealth row; where no floor-0 optimum is certified, the
    # facets answer 1 or both find the stealth program infeasible.
    def test_highs_lies_in_the_interval(self):
        certified = 0
        for k, targets in enumerate([CANONICAL_TARGETS, FORTY_FIVE, *INTEGER_TRIPLES[:40]]):
            for stealth in (False, True):
                result = highs(distinct_program(targets, stealth=stealth))
                answer = _optimum(FakingProblem(targets, stealth=stealth))
                case = (k, stealth, answer.route, answer.status)
                if answer.status == "infeasible":
                    assert result.status == 2, case
                    continue
                assert result.status == 0, case
                gap = 0.0 if answer.route == "facets" else answer.certificate[0]
                certified += answer.route == "floor 0"
                assert answer.objective - 1e-9 <= -result.fun <= answer.objective + gap + 1e-9, case
        assert certified >= 80

    # The threshold is ARTIFICIAL_MASS_TOL. At 1e-7 it certifies the
    # demonstrations of tiny-weight mixtures 72, 98, 100 and 108, whose gaps
    # lie between 1.1e-9 and 6.9e-9; at 1e-9 their readings refuse them.
    # Mixture 123's demonstration ends optimal at a vertex whose certificate
    # (gap 1.46) is refused first; its weights, summing to 1.26, would fail
    # LpSolution too. The record keeps the certificate.
    def test_the_threshold_is_the_artificial_mass_tolerance(self, monkeypatch):
        assert simplex.ARTIFICIAL_MASS_TOL == 1e-7
        near = [FakingProblem(TINY_WEIGHT_CENSUS[k], stealth=True) for k in (72, 98, 100, 108)]
        certificates = []
        for problem in near:
            gap, residual = _optimum(problem).certificate
            assert 1e-9 < gap < 1e-8 and residual < 1e-9
            assert solve_lp(problem).status == "feasible"
            certificates.append((gap, residual))
        wrong = FakingProblem(TINY_WEIGHT_CENSUS[123], stealth=True)
        answer = _optimum(wrong)
        assert (answer.route, answer.status) == ("floor 0", "optimal")
        gap, residual = answer.certificate
        assert (f"{gap:.3g}", f"{residual:.3g}") == ("1.46", "0.263")
        assert float(answer.x[:N_STRATEGIES].sum()) == pytest.approx(1.2631980086905983)
        for refused in (answer.efficiency, lambda: solve_lp(wrong),
                        lambda: demonstration_solution(TINY_WEIGHT_CENSUS[123])):
            with pytest.raises(simplex.SimplexError,
                               match="^optimum not certified: gap 1.46, residual 0.263$"):
                refused()
        monkeypatch.setattr(simplex, "ARTIFICIAL_MASS_TOL", 1e-9)
        for problem, certificate in zip(near, certificates):
            answer = _optimum(problem)
            assert answer.certificate == certificate
            for refused in (answer.efficiency, lambda: solve_lp(problem)):
                with pytest.raises(simplex.SimplexError, match="^optimum not certified: gap"):
                    refused()

    # The census counts the certificates an answer record certifies and
    # those it refuses apart, and takes its largest gap and residual from
    # the certified ones. Integer triple 0 has three certified optima, the
    # demonstration of tiny-weight mixture 6 ends infeasible in phase 1, and
    # that of mixture 123 is refused, on the floor-0 route.
    def test_census_counts_a_refused_certificate(self, capsys):
        CENSUS.census([INTEGER_TRIPLES[0], TINY_WEIGHT_CENSUS[6], TINY_WEIGHT_CENSUS[123]])
        lines = [line.split(", median")[0] for line in capsys.readouterr().out.splitlines()]
        assert lines[3] == ("demonstration_solution: routes {'floor 0': 3}, outcomes "
                            "{'SimplexError': 1, 'feasible': 1, 'infeasible': 1}, pivots 26 + 10668")
        found = re.fullmatch(r"certified 3, refused 1, largest gap (\S+), largest residual (\S+)",
                             lines[4])
        assert found and all(0.0 <= float(v) <= 1e-9 for v in found.groups())
        assert lines[5:] == ["refused: demonstration_solution target 2, gap 1.46, residual 0.263"]

    # An answer must pass two checks: the certificate, whose gap and
    # residual may reach ARTIFICIAL_MASS_TOL (1e-7), and the 1e-9 on the
    # weight sum that LpSolution holds a document to. The demonstrations of
    # tiny-weight mixtures 48, 125 and 126 pass the first, with residuals of
    # 1.1e-9 to 1.8e-9, and fail the second.
    @pytest.mark.parametrize("k, residual", ((48, 1.07e-9), (125, 1.77e-9), (126, 1.24e-9)))
    def test_a_certified_answer_can_fail_the_weight_sum(self, k, residual):
        problem = FakingProblem(TINY_WEIGHT_CENSUS[k], stealth=True)
        answer = _optimum(problem)
        assert (answer.route, answer.status) == ("floor 0", "optimal")
        gap, got = answer.certificate
        assert 0.0 <= gap < 1e-9 and got == pytest.approx(residual, abs=0.01e-9)
        total = float(answer.x[:N_STRATEGIES].sum())
        assert 1e-9 < total - 1.0 < 2e-9
        for refused in (answer.solution, lambda: solve_lp(problem)):
            with pytest.raises(simplex.SimplexError, match="^optimal faking solution refused: "
                               f".*weights sum to {re.escape(repr(total))}, not 1$"):
                refused()


def relabeled_sums(p):
    """The 72 relabeled Bell sums of the 3x3 match probabilities ``p``, in
    its own arithmetic: P12 - P02 - P10 - P00 after permuting each
    particle's settings, and again with particle 2's spin flipped."""
    sums = []
    settings = list(itertools.permutations(range(3)))
    for s1, s2, flip in itertools.product(settings, settings, (0, 1)):
        q = [[flip + (1 - 2 * flip) * p[s1[i]][s2[j]] for j in range(3)] for i in range(3)]
        sums.append(q[1][2] - q[0][2] - q[1][0] - q[0][0])
    return sums


def relabeled_only(targets):
    """The targets whose fixed-orientation Bell statistic is within the
    phase-1 threshold but whose largest relabeled sum is not."""
    return [t for t in targets
            if t[1, 2] - t[0, 2] - t[1, 0] - t[0, 0] <= simplex.ARTIFICIAL_MASS_TOL
            < _largest_bell_sum(t)]


class TestRelabeledBellSums:
    def test_every_table_keeps_all_72_sums_at_most_zero(self):
        # Theorem 2, relabeled, in exact arithmetic; the maximum 0 is met.
        largest = []
        for unit in all_tables():
            m = [[Fraction(match_indicator(unit, i, j)) for j in range(3)] for i in range(3)]
            sums = relabeled_sums(m)
            assert len(sums) == 72 and max(sums) <= 0, unit
            largest.append(max(sums))
        assert max(largest) == 0

    def test_coefficient_table_is_the_72_sums(self):
        coefficients = _relabeled_bell_coefficients()
        assert coefficients.shape == (36, 9)
        assert len({tuple(row) for row in coefficients}) == 36
        for unit in all_tables():
            m = [Fraction(match_indicator(unit, i, j)) for i in range(3) for j in range(3)]
            table_sums = [sum(Fraction(int(c)) * v for c, v in zip(row, m))
                          for row in coefficients]
            rows = [m[0:3], m[3:6], m[6:9]]
            assert sorted(table_sums + [-2 - b for b in table_sums]) == sorted(
                relabeled_sums(rows)), unit
            targets = MatchProbabilityTable(tuple(tuple(map(float, r)) for r in rows))
            assert _largest_bell_sum(targets) == max(relabeled_sums(rows))

    def test_largest_sum_agrees_with_the_enumeration(self):
        rng = np.random.default_rng(21)
        for rows in rng.uniform(0.0, 1.0, (50, 3, 3)):
            targets = MatchProbabilityTable(rows)
            assert _largest_bell_sum(targets) == pytest.approx(
                max(relabeled_sums(targets.rows)), abs=1e-15)

    def test_local_mixtures_prove_nothing(self):
        assert max(map(_largest_bell_sum, TINY_WEIGHT_CENSUS)) <= 1e-15

    # These targets keep the fixed-orientation statistic within the phase-1
    # threshold, so only a relabeling proves them non-local: the floor-1
    # program on the always-detect strategies ends infeasible too.
    def test_a_relabeled_violation_leaves_full_detection_infeasible(self):
        targets = relabeled_only(INTEGER_TRIPLES)
        assert len(targets) == 212
        keep = _distinct_strategies()
        always_detect = keep[(keep & 0x3F) == 0x3F]
        detect, detect_match = (m[always_detect] for m in _strategy_matrices())
        for t in targets[:10]:
            assert _largest_bell_sum(t) > simplex.ARTIFICIAL_MASS_TOL
            program = _assemble_lp(detect, detect_match, t.as_array(), 1.0)
            assert simplex.solve(program).status == "infeasible"

    # Floor 1 of a target a relabeled sum proves non-local is infeasible
    # with no simplex call, even where the floor-0 solve does not finish,
    # as at the non-local triple of TestMaxFakingEfficiency.
    @pytest.mark.parametrize("targets", (
        CANONICAL_TARGETS,
        FORTY_FIVE,
        match_table(AngleTriple.from_degrees(*TestMaxFakingEfficiency.NON_LOCAL)),
        *relabeled_only(INTEGER_TRIPLES)[:3],
    ), ids=("60,0,120", "45,0,90", "NON_LOCAL", "relabeled-0", "relabeled-1", "relabeled-2"))
    def test_floor_one_of_a_proven_violation_makes_no_solve(self, targets, monkeypatch):
        refuse_solves(monkeypatch)
        for stealth in (False, True):
            solution = solve_lp(FakingProblem(targets, 1.0, stealth))
            assert solution == LpSolution("infeasible", {}, None, None)


def exact_rank(rows):
    """The rank of the integer matrix ``rows``, by Gaussian elimination in
    Fraction."""
    m = [[Fraction(int(v)) for v in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                f = m[r][col] / m[rank][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def always_detect_tables():
    """The 32 always-detect strategies and their 0/1 match tables, one row
    of nine each."""
    tables, _, _ = _local_polytope()
    return tables, _strategy_matrices()[1][tables].reshape(-1, 9).astype(np.int64)


class TestLocalPolytope:
    def test_facets_are_the_relabeled_sums_and_the_bounds(self):
        _, (facets, bound), gaps = _local_polytope()
        bell = _relabeled_bell_coefficients().astype(np.int64)
        eye = np.eye(9, dtype=np.int64)
        assert np.array_equal(facets, np.vstack([bell, -bell, eye, -eye]))
        assert bound.tolist() == [0] * 36 + [2] * 36 + [1] * 9 + [0] * 9
        assert len({(*f, c) for f, c in zip(facets.tolist(), bound.tolist())}) == 90
        assert gaps.dtype == np.int64 and gaps.shape == (90, 32)

    # Exact, in integers: every table meets all 90 facets, and each facet is
    # tight on tables of affine rank 9, so it is a facet of the 9-dimensional
    # hull of the 32 tables.
    def test_every_facet_is_met_by_all_tables_and_tight_on_a_facet(self):
        tables, (facets, bound), gaps = _local_polytope()
        _, points = always_detect_tables()
        assert len(tables) == 32 and len({tuple(p) for p in points.tolist()}) == 32
        assert np.array_equal(gaps, bound[:, None] - facets @ points.T)
        assert gaps.min() == 0
        lifted = np.hstack([points, np.ones((32, 1), dtype=np.int64)])
        assert exact_rank(lifted) == 10
        for f in range(90):
            assert exact_rank(lifted[gaps[f] == 0]) == 9, f

    def test_qhull_finds_exactly_these_facets(self):
        spatial = pytest.importorskip("scipy.spatial")
        _, (facets, bound), _ = _local_polytope()
        _, points = always_detect_tables()
        hull = spatial.ConvexHull(points.astype(float))
        # qhull writes n.p + offset <= 0 with |n| = 1, once per simplex of a facet.
        found = {tuple(np.round(eq, 9)) for eq in hull.equations}
        norms = np.linalg.norm(facets, axis=1)[:, None]
        ours = {tuple(np.round(eq, 9)) for eq in np.hstack([facets, -bound[:, None]]) / norms}
        assert found == ours

    # Just outside the identity facet of the zero table, by 5e-8: the
    # shrink toward the centre runs. With a subnormal entry as well, the
    # common denominator is 2**1074.
    SHRUNK = MatchProbabilityTable(((0.0, 0.0, 0.0), (0.0, 0.0, 5e-8), (0.0, 0.0, 0.0)))
    SUBNORMAL = MatchProbabilityTable(((5e-324, 0.0, 0.0), (0.0, 0.0, 5e-8), (0.0, 0.0, 0.0)))
    NAMED = {
        "BREAKDOWN": TestMaxFakingEfficiency.BREAKDOWN,
        "WRONG_OPTIMUM": TestMaxFakingEfficiency.WRONG_OPTIMUM,
        "CONFIRMED": TestFullDetectionFirst.CONFIRMED,
        "DIVERGING": TestFullDetectionFirst.DIVERGING,
        "SHRUNK": SHRUNK,
        "SUBNORMAL": SUBNORMAL,
    }

    @pytest.mark.parametrize("targets", (*NAMED.values(), *TINY_WEIGHT_CENSUS),
                             ids=(*NAMED, *(f"census-{k}" for k in range(150))))
    def test_weights_reproduce_the_targets(self, targets, monkeypatch):
        weights = _full_detection_weights(targets)
        tables, _, _ = _local_polytope()
        assert 1 <= len(weights) <= 10 and set(weights) <= set(tables.tolist())
        assert sum(weights.values()) == 1 and min(weights.values()) > 0
        b = max(_largest_bell_sum(targets), 0.0)
        assert b <= simplex.ARTIFICIAL_MASS_TOL
        w = np.zeros(N_STRATEGIES)
        for s, v in weights.items():
            w[s] = v
        # Each weight is rounded once, so their exact sum is within 2**-53
        # of 1, and so is its correct rounding.
        assert abs(math.fsum(w) - 1.0) <= 2.0**-53
        rates, matches = _scored(w)
        assert np.abs(matches - targets.as_array()).max() <= b / 2 + np.spacing(1.0)
        assert np.all(np.abs(rates - 1.0) <= 2 * np.spacing(1.0))
        refuse_solves(monkeypatch)
        assert solve_lp(FakingProblem(targets, 1.0)).min_coincidence_rate == 1.0

    def test_the_shrink_runs_and_a_table_is_its_own_decomposition(self):
        for targets in (self.SHRUNK, self.SUBNORMAL):
            assert 0.0 < _largest_bell_sum(targets) < 1e-7
        assert _full_detection_weights(TestFullDetectionFirst.CONFIRMED) == {319: 1}

    # These meet the stealth row at full detection, so the demonstration is
    # the full-detection model; the floor-0 stealth solves of BREAKDOWN and
    # census-18 do not finish.
    @pytest.mark.parametrize("targets", (TestMaxFakingEfficiency.BREAKDOWN,
                                         TestFullDetectionFirst.DIVERGING,
                                         TINY_WEIGHT_CENSUS[18]),
                             ids=("BREAKDOWN", "DIVERGING", "census-18"))
    def test_demo_of_a_local_target_detects_everything(self, targets, monkeypatch):
        refuse_solves(monkeypatch)
        demo = demonstration_solution(targets)
        assert demo.status == "feasible" and demo.min_coincidence_rate == 1.0
        assert LpSolution.from_dict(demo.to_dict()) == demo
        _, match_rates, _ = rescore_solution(demo)
        assert _relabeled_bell_coefficients()[0] @ match_rates.ravel() <= -DEMO_STEALTH_MARGIN


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
            for stealth in (False, True):
                program = FakingProblem(targets, stealth=stealth).program
                columns = np.vstack([program.objective, program.eq_matrix, program.ub_matrix])
                kept = np.sort(np.unique(columns.T, axis=0, return_index=True)[1])
                assert np.array_equal(kept[:-1], _distinct_strategies())
                assert kept[-1] == N_STRATEGIES

    def test_reduced_solve_is_the_full_solve(self):
        statuses = set()
        for targets in self.targets():
            for stealth in (False, True):
                problem = FakingProblem(targets, stealth=stealth)
                full = simplex.solve(problem.program, dantzig=not stealth)  # _solve_on's rule
                reduced = _solve_on(problem)
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

        def recorded(lp, **pricing):
            programs.append(lp)
            return solve(lp, **pricing)

        monkeypatch.setattr(simplex, "solve", recorded)
        for targets in (CANONICAL_TARGETS, match_table(AngleTriple.from_degrees(45, 0, 90)),
                        ZERO_TARGETS, TestFullDetectionFirst.CONFIRMED,
                        TestFullDetectionFirst.DIVERGING):
            max_faking_efficiency(targets)
            demonstration_solution(targets)
            for floor in (0.0, 1.0):
                solve_lp(FakingProblem(targets=targets, efficiency_floor=floor))
        floors = {float(-program.ub_rhs[0]) for program in programs}
        assert floors == {0.0}  # no floor-1 program was solved
        for program in programs:
            columns = np.vstack([program.objective, program.eq_matrix, program.ub_matrix])
            assert len(np.unique(columns.T, axis=0)) == columns.shape[1]


class TestFloorRows:
    # At floor 0 the nine rows "coincidence rate >= 0" follow from w >= 0,
    # and the program is assembled without them. The solve must reach the
    # vertex of the program that keeps them, bit for bit, pivots included.
    @staticmethod
    def with_floor_rows(program):
        """``program`` with each epigraph row's "-d w <= 0" row put back
        before it, in the interleaved order of a positive floor."""
        floor_rows = program.ub_matrix[:9].copy()
        floor_rows[:, -1] = 0.0  # the row without z
        return simplex.LinearProgram(
            objective=program.objective,
            eq_matrix=program.eq_matrix,
            eq_rhs=program.eq_rhs,
            ub_matrix=np.insert(program.ub_matrix, range(9), floor_rows, axis=0),
            ub_rhs=np.insert(program.ub_rhs, range(9), 0.0),
        )

    def test_floor_zero_solve_is_the_solve_with_floor_rows(self):
        keep = _distinct_strategies()
        detect, detect_match = (m[keep] for m in _strategy_matrices())
        for k, targets in enumerate(INTEGER_TRIPLES[:30]):
            for stealth in (False, True):
                solved = _solve_on(FakingProblem(targets, stealth=stealth))
                program = _assemble_lp(detect, detect_match, targets.as_array(), 0.0, stealth)
                assert program.ub_matrix.shape[0] == 9 + stealth
                reference = simplex.solve(self.with_floor_rows(program), dantzig=not stealth)
                case = (k, stealth)
                assert solved.status == reference.status == "optimal", case
                x = solved.x[np.append(keep, N_STRATEGIES)]
                assert x.tobytes() == reference.x.tobytes(), case
                assert repr(solved.objective) == repr(reference.objective), case
                assert solved.pivots == reference.pivots, case


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


class TestSolutionDocument:
    INVALID_DOCUMENTS = (
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
    )
    INVALID_RATES = (
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
    )

    def test_demo_solution_round_trips(self, demo_solution):
        doc = json.loads(json.dumps(demo_solution.to_dict()))
        assert LpSolution.from_dict(doc) == demo_solution

    def test_infeasible_solution_round_trips(self):
        bad = LpSolution(
            status="infeasible", weights={}, coincidence_rates=None, min_coincidence_rate=None
        )
        assert LpSolution.from_dict(bad.to_dict()) == bad

    @pytest.mark.parametrize("status, weights", INVALID_DOCUMENTS)
    def test_from_dict_rejects_invalid_documents(self, status, weights):
        with pytest.raises(ValueError):
            LpSolution.from_dict({"status": status, "weights": weights})

    @pytest.mark.parametrize("doc", ([], 0, None, "feasible"))
    def test_from_dict_rejects_a_document_that_is_no_object(self, doc):
        with pytest.raises(ValueError, match="^a solution document must be a JSON object$"):
            LpSolution.from_dict(doc)

    @pytest.mark.parametrize("field, value", INVALID_RATES)
    def test_from_dict_rejects_invalid_rates(self, field, value):
        doc = {"status": "feasible", "weights": {"7": 1.0}, field: value}
        with pytest.raises(ValueError):
            LpSolution.from_dict(doc)

    @staticmethod
    def python_weights(weights):
        """A document's weights as Python values: decimal keys become ints,
        others floats, so the repeated "7" and "07" become one key 7 of
        weight 0, a sum the rule refuses too."""
        if not isinstance(weights, dict):
            return weights
        numbers = {}
        for key, value in weights.items():
            try:
                numbers[int(key)] = value
            except ValueError:
                numbers[float(key)] = value
        return numbers

    # The rule is the solution's own: built in code, as the solver builds
    # it, a solution holds to what from_dict holds a document to.
    @pytest.mark.parametrize("status, weights", INVALID_DOCUMENTS)
    def test_constructor_rejects_invalid_values(self, status, weights):
        with pytest.raises(ValueError):
            LpSolution(status, self.python_weights(weights), None, None)

    @pytest.mark.parametrize("field, value", INVALID_RATES)
    def test_constructor_rejects_invalid_rates(self, field, value):
        rates = {"coincidence_rates": None, "min_coincidence_rate": None, field: value}
        with pytest.raises(ValueError):
            LpSolution("feasible", {7: 1.0}, **rates)

    @pytest.mark.parametrize("index", (True, np.int64(7), "7", 7.0))
    def test_constructor_takes_only_int_indices(self, index):
        with pytest.raises(ValueError, match="^bad strategy index"):
            LpSolution("feasible", {index: 1.0}, None, None)

    def test_constructor_stores_floats_and_tuples(self):
        solution = LpSolution("feasible", {7: 1}, [[1, 0, 1]] * 3, 0)
        assert solution.weights == {7: 1.0} and type(solution.weights[7]) is float
        assert solution.coincidence_rates == ((1.0, 0.0, 1.0),) * 3
        assert type(solution.coincidence_rates[0][0]) is float
        assert type(solution.min_coincidence_rate) is float
        assert LpSolution.from_dict(solution.to_dict()) == solution

    # Keys that int() reads as an index, but to_dict never writes.
    @pytest.mark.parametrize("key", ("7_0", " 7 ", "+7", "\u0667", "07", "7\n"))
    def test_from_dict_takes_only_ascii_decimal_keys(self, key):
        with pytest.raises(ValueError, match="^bad strategy index"):
            LpSolution.from_dict({"status": "feasible", "weights": {key: 1.0}})

    @pytest.mark.parametrize("key", ("0", "7", "4095"))
    def test_from_dict_reads_decimal_keys(self, key):
        doc = {"status": "feasible", "weights": {key: 1.0}}
        assert LpSolution.from_dict(doc).weights == {int(key): 1.0}

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
        idx = (table.index << 6) | 0x3F
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
        # scalar bit arithmetic must reproduce the vectorised decoding exactly.
        y1, y2 = (spins.tolist() for spins in _strategy_spins())
        rng = SplitMix64(0)
        for s in range(N_STRATEGIES):
            solution = LpSolution(
                status="feasible",
                weights={s: 1.0},
                coincidence_rates=None,
                min_coincidence_rate=None,
            )
            for x1, x2 in itertools.product(range(3), repeat=2):
                one, two = y1[s][x1], y2[s][x2]
                expected = (one or None, two or None, int(one != 0), int(two != 0))
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
        assert coinc / n == pytest.approx(demo_solution.coincidence_rates[1][2], abs=0.01)
        assert matches / coinc == pytest.approx(0.75, abs=0.01)


class TestSerialization:
    def test_solution_round_trip(self, tmp_path, demo_solution):
        path = tmp_path / "solution.json"
        save_solution(demo_solution, path)
        restored = load_solution(path)
        assert restored == demo_solution
        doc = json.loads(path.read_text())
        assert doc["status"] == "feasible"

    # json keeps the last of two equal keys, so this file would read as
    # {4095: 1.0}, a feasible model.
    @pytest.mark.parametrize("text", (
        '{"status": "feasible", "weights": {"4095": 0.5, "4095": 1.0}}',
        '{"status": "infeasible", "status": "feasible", "weights": {"7": 1.0}}',
    ), ids=("weight key", "status key"))
    def test_load_refuses_a_key_given_twice(self, text, tmp_path):
        path = tmp_path / "solution.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="given twice"):
            load_solution(path)


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
