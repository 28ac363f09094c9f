import numpy as np
import pytest

from bellsim import simplex
from bellsim.loophole import FakingProblem
from bellsim.quantum import AngleTriple, match_table
from bellsim.simplex import LinearProgram, SimplexError, feasible, solve


def lp(c, a_eq=None, b_eq=None, a_ub=None, b_ub=None):
    n = len(c)
    return LinearProgram(
        objective=np.asarray(c, dtype=float),
        eq_matrix=np.asarray(a_eq if a_eq is not None else np.zeros((0, n))),
        eq_rhs=np.asarray(b_eq if b_eq is not None else np.zeros(0)),
        ub_matrix=np.asarray(a_ub if a_ub is not None else np.zeros((0, n))),
        ub_rhs=np.asarray(b_ub if b_ub is not None else np.zeros(0)),
    )


class TestKnownSolutions:
    def test_simple_box(self):
        # max x + y subject to x + y <= 1
        res = solve(lp([1, 1], a_ub=[[1, 1]], b_ub=[1]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)

    def test_two_constraint_vertex(self):
        # max 3x + 4y s.t. x + 2y <= 14, 3x - y <= 0, x - y <= 2: optimum at (2, 6)
        res = solve(lp([3, 4], a_ub=[[1, 2], [3, -1], [1, -1]], b_ub=[14, 0, 2]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(30.0)
        assert res.x == pytest.approx([2.0, 6.0])

    def test_equality_constraint(self):
        # max x with x + y = 1: optimum x = 1, y = 0
        res = solve(lp([1, 0], a_eq=[[1, 1]], b_eq=[1]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)
        assert res.x == pytest.approx([1.0, 0.0])

    def test_negative_rhs_inequality(self):
        # -x <= -0.5 means x >= 0.5; maximize -x pushes x down to the bound.
        res = solve(lp([-1], a_ub=[[-1]], b_ub=[-0.5]))
        assert res.status == "optimal"
        assert res.x == pytest.approx([0.5])

    def test_degenerate_vertex_terminates(self):
        # Three planes through the same vertex; Bland's rule must not cycle.
        res = solve(
            lp(
                [1, 1, 1],
                a_ub=[[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]],
                b_ub=[1, 1, 1, 1.5],
            )
        )
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.5)

    def test_empty_program(self):
        # No variable and no row: the only point is the empty x, worth 0.
        res = solve(lp([]))
        assert res.status == "optimal"
        assert res.x.shape == (0,)
        assert res.objective == 0.0


class TestStatuses:
    def test_infeasible_inequalities(self):
        # x <= -1 with x >= 0
        res = solve(lp([1], a_ub=[[1]], b_ub=[-1]))
        assert res.status == "infeasible"
        assert not feasible(lp([1], a_ub=[[1]], b_ub=[-1]))

    def test_infeasible_equalities(self):
        res = solve(lp([1, 1], a_eq=[[1, 1], [1, 1]], b_eq=[1, 2]))
        assert res.status == "infeasible"

    def test_unbounded(self):
        res = solve(lp([1, 0], a_ub=[[0, 1]], b_ub=[1]))
        assert res.status == "unbounded"

    def test_redundant_equality_rows_are_tolerated(self):
        res = solve(lp([1, 1], a_eq=[[1, 1], [2, 2]], b_eq=[1, 2]))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(1.0)

    def test_feasible_reports_true_on_trivial_program(self):
        assert feasible(lp([1], a_ub=[[1]], b_ub=[1]))


class TestValidation:
    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearProgram(
                objective=np.array([1.0, 2.0]),
                eq_matrix=np.array([[1.0]]),
                eq_rhs=np.array([1.0]),
                ub_matrix=np.zeros((0, 2)),
                ub_rhs=np.zeros(0),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            lp([np.nan])

    def test_iteration_guard_raises_solver_error(self, monkeypatch):
        program = lp([1, 1], a_ub=[[1, 1]], b_ub=[1])
        monkeypatch.setattr(simplex, "MAX_PIVOTS", 0)
        with pytest.raises(SimplexError):
            solve(program)


class TestRandomFeasiblePrograms:
    def test_optimum_dominates_known_feasible_points(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            m_eq = int(rng.integers(0, 3))
            m_ub = int(rng.integers(1, 4))
            x_star = rng.uniform(0.0, 2.0, n)
            a_eq = rng.normal(size=(m_eq, n))
            b_eq = a_eq @ x_star
            a_ub = rng.normal(size=(m_ub, n))
            b_ub = a_ub @ x_star + rng.uniform(0.0, 1.0, m_ub)
            # Cap the feasible region so the maximum exists.
            a_ub = np.vstack([a_ub, np.ones(n)])
            b_ub = np.append(b_ub, x_star.sum() + 5.0)
            c = rng.normal(size=n)
            program = lp(c, a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub)
            res = solve(program)
            assert res.status == "optimal"
            assert res.objective >= c @ x_star - 1e-7
            assert np.all(res.x >= -1e-12)
            if m_eq:
                assert np.max(np.abs(a_eq @ res.x - b_eq)) <= 1e-8
            assert np.max(a_ub @ res.x - b_ub) <= 1e-8


def random_feasible_program(rng, n):
    m_eq = int(rng.integers(1, 3))
    m_ub = int(rng.integers(1, 4))
    x_star = rng.uniform(0.0, 2.0, n)
    a_eq = rng.normal(size=(m_eq, n))
    a_ub = np.vstack([rng.normal(size=(m_ub, n)), np.ones(n)])
    b_ub = a_ub @ x_star + np.append(rng.uniform(0.0, 1.0, m_ub), 5.0)
    return lp(rng.normal(size=n), a_eq=a_eq, b_eq=a_eq @ x_star, a_ub=a_ub, b_ub=b_ub)


def with_columns(program, order):
    """``program`` with its columns rearranged (and repeated) as ``order``."""
    return LinearProgram(
        objective=program.objective[order],
        eq_matrix=program.eq_matrix[:, order],
        eq_rhs=program.eq_rhs,
        ub_matrix=program.ub_matrix[:, order],
        ub_rhs=program.ub_rhs,
    )


class TestDuplicateColumns:
    # Each order lists every original column once, first occurrences in
    # ascending order, with twins inserted before, between and after.
    ORDERS = (
        [0, 0, 1, 2, 3],
        [0, 1, 2, 3, 3, 3],
        [0, 1, 0, 2, 1, 3, 0],
        [0, 1, 1, 1, 2, 2, 3, 0, 3],
    )

    @pytest.mark.parametrize("order", ORDERS)
    def test_twins_leave_the_vertex_bit_identical(self, order):
        rng = np.random.default_rng(len(order))
        for _ in range(10):
            program = random_feasible_program(rng, 4)
            plain = solve(program)
            twinned = solve(with_columns(program, order))
            assert plain.status == twinned.status == "optimal"
            first = [order.index(k) for k in range(4)]
            later = [p for p in range(len(order)) if p not in first]
            assert np.array_equal(twinned.x[first], plain.x)
            assert np.all(twinned.x[later] == 0.0)
            assert twinned.objective == pytest.approx(plain.objective, abs=1e-12)

    def test_columns_differing_only_in_cost_are_kept(self):
        # Same constraint column, different objective: the dearer one wins.
        res = solve(lp([1, 2, 1], a_eq=[[1, 1, 1]], b_eq=[1]))
        assert res.status == "optimal"
        assert res.x.tolist() == [0.0, 1.0, 0.0]
        assert res.objective == 2.0

    @pytest.mark.parametrize("order", ORDERS)
    def test_feasible_agrees_with_solve(self, order):
        # Random right-hand sides make about half of these programs infeasible.
        rng = np.random.default_rng(100 + len(order))
        statuses = set()
        for _ in range(20):
            program = random_feasible_program(rng, 4)
            program = lp(
                program.objective,
                a_eq=program.eq_matrix,
                b_eq=rng.normal(size=program.eq_rhs.shape),
                a_ub=program.ub_matrix,
                b_ub=program.ub_rhs,
            )
            twinned = with_columns(program, order)
            status = solve(twinned).status
            statuses.add(status)
            assert status == solve(program).status
            assert feasible(twinned) == (status == "optimal")
        assert statuses == {"optimal", "infeasible"}

    def test_infeasible_program_with_twins_stays_infeasible(self):
        # x0 + x1 = 1 and x0 + x1 = 2 with both columns repeated.
        program = lp(
            [1, 1, 1, 1],
            a_eq=[[1, 1, 1, 1], [1, 1, 1, 1]],
            b_eq=[1, 2],
        )
        assert solve(program).status == "infeasible"
        assert not feasible(program)
        twinned = with_columns(
            lp([1, 0], a_ub=[[1, 1], [-1, -1]], b_ub=[1, -2]), [0, 1, 0, 1, 1]
        )
        assert solve(twinned).status == "infeasible"
        assert not feasible(twinned)

    def test_one_variable_program(self):
        # max x subject to 2x <= 1: one column and no equality rows.
        res = solve(LinearProgram([1.0], np.zeros((0, 1)), np.zeros(0), [[2.0]], [1.0]))
        assert res.status == "optimal"
        assert res.x.tolist() == [0.5] and res.objective == 0.5
        assert feasible(lp([1.0], a_ub=[[2.0]], b_ub=[1.0]))


class DictRatioTableau(simplex._Tableau):
    """The reference ``run``: pricing over a Python list of the eligible
    columns, sorted by reduced cost for Dantzig's rule (a stable sort keeps
    the lowest index among equals), and a ratio test that keeps a dict of
    the eligible rows' ratios, takes ``min`` over its values, then a keyed
    ``min`` over the rows within the bound. In phase 1 a column with no row
    is passed over for the next in pricing order."""

    def run(self, dantzig=False, bounded=False):
        t, basis = self.t, self.basis
        cost, rhs = t[-1, :self._entering.size], t[:-1, -1]
        if cost.size == 0:
            return "optimal"
        bland = not dantzig
        for _ in range(simplex.MAX_PIVOTS):
            eligible = [j for j, r in enumerate(cost.tolist()) if r < -simplex.PIVOT_TOL]
            if not bland:
                eligible.sort(key=lambda j: cost[j])
            if not eligible:
                return "optimal"
            for col in eligible:
                ratios = {r: b / a for r, (a, b) in enumerate(zip(t[:-1, col].tolist(),
                                                                  rhs.tolist()))
                          if a > simplex.PIVOT_TOL}
                if ratios or not bounded:
                    break
            if not ratios:
                return "stalled" if bounded else "unbounded"
            best = min(ratios.values())
            bound = best + simplex.PIVOT_TOL * max(1.0, abs(best))
            row = min((r for r, q in ratios.items() if q <= bound), key=basis.__getitem__)
            self.pivot(row, col)
            self.pivots += 1
            bland = not dantzig or best <= simplex.PIVOT_TOL
        raise SimplexError("no convergence")


def degenerate_program(rng):
    """A small program whose ratio tests tie: right-hand sides mostly 0 or
    PIVOT_TOL, entries of a few values with -0.0 and PIVOT_TOL among them,
    and, now and then, a column with no entry above PIVOT_TOL and a
    positive cost, so that a feasible program is unbounded."""
    n, m_eq, m_ub = (int(k) for k in rng.integers((1, 0, 0), (8, 4, 6)))
    entries = np.array([-2.0, -1.0, -0.0, 0.0, simplex.PIVOT_TOL, 1.0, 1.0, 2.0])
    rhs = np.array([0.0, 0.0, 0.0, simplex.PIVOT_TOL, 1.0, 2.0])
    a_eq, a_ub = rng.choice(entries, (m_eq, n)), rng.choice(entries, (m_ub, n))
    c = rng.choice([-1.0, 0.0, 1.0, 2.0], n)
    if rng.random() < 0.3:
        j = int(rng.integers(n))
        a_eq[:, j] = 0.0
        a_ub[:, j] = rng.choice([-1.0, -0.0, 0.0], m_ub)
        c[j] = 1.0
    return lp(c, a_eq=a_eq, b_eq=rng.choice(rhs, m_eq), a_ub=a_ub, b_ub=rng.choice(rhs, m_ub))


def outcome(program, dantzig):
    """Status, pivots per phase, objective, vertex bytes and dual bytes of
    ``solve`` under either pricing rule, or the error it raised."""
    try:
        res = solve(program, dantzig=dantzig)
    except SimplexError as exc:
        return str(exc)
    x = None if res.x is None else res.x.tobytes()
    return res.status, res.pivots, res.objective, x, getattr(res.duals, "tobytes", lambda: None)()


class TestRatioTestOracle:
    # The shipped pricing and two-pass ratio test pick the reference's pivot
    # at every step, under both rules, so every status, pivot count,
    # objective, vertex byte and dual byte is the same. One program raises
    # under Bland's rule: phase 1 stalls at artificial mass 2 on a column
    # that only 1e-9 entries limit (HiGHS: infeasible).
    @pytest.mark.parametrize("dantzig", (False, True), ids=("bland", "dantzig"))
    @pytest.mark.parametrize("seed", range(4))
    def test_pivots_as_the_dict_rule_does(self, seed, dantzig, monkeypatch):
        rng = np.random.default_rng(seed)
        programs = [degenerate_program(rng) for _ in range(150)]
        shipped = [outcome(program, dantzig) for program in programs]
        monkeypatch.setattr(simplex, "_Tableau", DictRatioTableau)
        assert shipped == [outcome(program, dantzig) for program in programs]
        errors = [res for res in shipped if isinstance(res, str)]
        assert [e.split(" at ")[0] for e in errors] == ["phase 1 stalled"] * (
            (seed, dantzig) == (1, False))
        assert {res[0] for res in shipped if res not in errors} == {
            "optimal", "infeasible", "unbounded"}

    # max +-x subject to 1e-9 x = 0 twice. Phase 1 prices x at -2e-9, below
    # -PIVOT_TOL, but no entry exceeds PIVOT_TOL, so no row limits x: phase 1,
    # bounded below, passes x over and finds the program feasible. Phase 2
    # reads the entries as 0, so +x is unbounded and -x optimal at 0.
    @pytest.mark.parametrize("dantzig", (False, True), ids=("bland", "dantzig"))
    def test_phase_one_passes_over_a_column_no_row_limits(self, dantzig):
        tiny = [[simplex.PIVOT_TOL], [simplex.PIVOT_TOL]]
        assert feasible(lp([1.0], a_eq=tiny, b_eq=[0.0, 0.0]))
        assert solve(lp([1.0], a_eq=tiny, b_eq=[0.0, 0.0]), dantzig=dantzig).status == "unbounded"
        res = solve(lp([-1.0], a_eq=tiny, b_eq=[0.0, 0.0]), dantzig=dantzig)
        assert (res.status, res.x.tolist(), res.pivots) == ("optimal", [0.0], (0, 0))
        # With a second column that a row limits, phase 1 takes it instead.
        two = lp([-1.0, -1.0], a_eq=[[1e-9, 1.0], [1e-9, 0.0]], b_eq=[1.0, 0.0])
        res = solve(two, dantzig=dantzig)
        assert (res.status, res.x.tolist(), res.pivots) == ("optimal", [0.0, 1.0], (1, 0))

    # 1e-9 x = 1e-6 twice is feasible at x = 1000, but phase 1 passes x over
    # as above and stops with 2e-6 of artificial mass: that is no proof of
    # infeasibility, so solve and feasible raise.
    @pytest.mark.parametrize("dantzig", (False, True), ids=("bland", "dantzig"))
    def test_phase_one_that_stalls_above_the_mass_tolerance_raises(self, dantzig):
        tiny = lp([1.0], a_eq=[[simplex.PIVOT_TOL]] * 2, b_eq=[1e-6, 1e-6])
        with pytest.raises(SimplexError, match="phase 1 stalled at artificial mass 2e-06"):
            solve(tiny, dantzig=dantzig)
        with pytest.raises(SimplexError, match="phase 1 stalled"):
            feasible(tiny)


    # Column 2 prices cheapest, and no row limits it. Phase 1 passes it over
    # for the next column in pricing order: 1 under Dantzig's rule, one
    # pivot; 0 under Bland's, then 1. Then only column 2 prices in, and the
    # run reports that it stalled; phase 2 stops there, unbounded.
    @pytest.mark.parametrize("tableau", (simplex._Tableau, DictRatioTableau))
    def test_phase_one_passes_over_in_pricing_order(self, tableau):
        for dantzig, pivots in ((False, 2), (True, 1)):
            tab = tableau(np.array([[1.0, 1.0, -1.0, 1.0, 1.0]]), [3],
                          np.array([-1.0, -2.0, -3.0, 0.0]))
            assert (tab.run(dantzig, bounded=True), tab.basis, tab.pivots) == (
                "stalled", [1], pivots)
            assert tab.run(dantzig) == "unbounded"


class TestPivotCounts:
    # Pivots inside each phase's run, counted on the faking LPs before the
    # right-hand side moved into the tableau: the same pivot path gives the
    # same counts. Phase 1's drive-out of leftover artificials is not counted.
    @pytest.mark.parametrize("angles, kind, status, pivots", (
        ((60, 0, 120), "floor0", "optimal", (10, 319)),
        ((45, 0, 90), "floor0", "optimal", (10, 184)),
        ((60, 0, 120), "demo", "optimal", (11, 252)),
        ((60, 0, 120), "floor1", "infeasible", (357, 0)),
    ))
    def test_faking_programs(self, angles, kind, status, pivots):
        targets = match_table(AngleTriple.from_degrees(*angles))
        floor = 1.0 if kind == "floor1" else 0.0
        program = FakingProblem(targets, floor, stealth=kind == "demo").program
        res = solve(program)
        assert (res.status, res.pivots) == (status, pivots)

    def test_small_programs(self):
        # max 3x + 4y s.t. x + 2y <= 14, 3x - y <= 0, x - y <= 2: every row
        # starts on its slack, so phase 1 has nothing to do.
        res = solve(lp([3, 4], a_ub=[[1, 2], [3, -1], [1, -1]], b_ub=[14, 0, 2]))
        assert res.status == "optimal" and res.pivots[0] == 0 and res.pivots[1] > 0
        assert solve(lp([1, 0], a_ub=[[0, 1]], b_ub=[1])).pivots == (0, 0)  # unbounded at once
