import numpy as np
import pytest

from bellsim import simplex
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
