"""Dense two-phase simplex solver with Bland's anti-cycling rule.

Solves   maximize c . x   subject to   A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.

Sized for this package's problems: tens of rows by a few thousand columns,
where a dense tableau with vectorized row operations is simple, debuggable
and fast enough. Bland's rule (always pick the lowest-index eligible
entering column; break ratio-test ties by lowest basic-variable index)
guarantees termination on the degenerate programs the loophole analysis
produces.

Columns of ``[objective; A_eq; A_ub]`` byte-identical to a lower-index
column are dropped before phase 1 and reported at 0 (the faking LP's 4096
strategy columns hold 339 distinct ones). This is exact: twins have equal
reduced costs, so Bland's rule never enters the higher-index one; keeping
the rest in order keeps every entering choice and ratio-test tie-break; and
row operations are elementwise, so the vertex is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Phase 1 calls a program infeasible when its artificial mass exceeds this.
ARTIFICIAL_MASS_TOL = 1e-7


class SimplexError(RuntimeError):
    """Numerical breakdown inside the solver, with the offending pivot."""


@dataclass(frozen=True)
class LinearProgram:
    """Standard-form program over nonnegative variables."""

    objective: np.ndarray  # maximize objective @ x
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    ub_matrix: np.ndarray
    ub_rhs: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.objective, dtype=float)
        a_eq = np.atleast_2d(np.asarray(self.eq_matrix, dtype=float))
        b_eq = np.atleast_1d(np.asarray(self.eq_rhs, dtype=float))
        a_ub = np.atleast_2d(np.asarray(self.ub_matrix, dtype=float))
        b_ub = np.atleast_1d(np.asarray(self.ub_rhs, dtype=float))
        n = c.shape[0]
        if a_eq.size == 0:
            a_eq = a_eq.reshape(0, n)
        if a_ub.size == 0:
            a_ub = a_ub.reshape(0, n)
        if a_eq.shape != (b_eq.shape[0], n) or a_ub.shape != (b_ub.shape[0], n):
            raise ValueError(
                f"inconsistent shapes: c {c.shape}, eq {a_eq.shape}/{b_eq.shape}, "
                f"ub {a_ub.shape}/{b_ub.shape}"
            )
        for name, arr in (("objective", c), ("eq", a_eq), ("ub", a_ub),
                          ("eq_rhs", b_eq), ("ub_rhs", b_ub)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        object.__setattr__(self, "objective", c)
        object.__setattr__(self, "eq_matrix", a_eq)
        object.__setattr__(self, "eq_rhs", b_eq)
        object.__setattr__(self, "ub_matrix", a_ub)
        object.__setattr__(self, "ub_rhs", b_ub)

    @property
    def n_vars(self) -> int:
        return self.objective.shape[0]

    def to_dict(self) -> dict:
        """JSON-ready dump of the full program, for inspection and archiving."""
        return {
            "objective": self.objective.tolist(),
            "eq_matrix": self.eq_matrix.tolist(),
            "eq_rhs": self.eq_rhs.tolist(),
            "ub_matrix": self.ub_matrix.tolist(),
            "ub_rhs": self.ub_rhs.tolist(),
        }


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal", "infeasible" or "unbounded"
    x: np.ndarray | None
    objective: float | None


class _Tableau:
    """Constraint rows plus a running cost row, reduced over the current basis.

    Internally minimizes; the public entry points negate the objective of a
    maximization program. The cost row holds reduced costs; entering columns
    are those with reduced cost below -tol.
    """

    def __init__(self, rows: np.ndarray, rhs: np.ndarray, basis: list[int], tol: float):
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.tol = tol
        self.cost: np.ndarray | None = None
        self.cost_value = 0.0

    def install_cost(self, c: np.ndarray) -> None:
        """Load minimization costs and reduce them against the current basis."""
        cost = c.astype(float).copy()
        value = 0.0
        for r, b in enumerate(self.basis):
            if cost[b] != 0.0:
                coef = cost[b]
                cost -= coef * self.rows[r]
                value -= coef * self.rhs[r]
        self.cost = cost
        self.cost_value = value

    def pivot(self, row: int, col: int) -> None:
        piv = self.rows[row, col]
        if abs(piv) <= self.tol:
            raise SimplexError(
                f"degenerate pivot {piv!r} at row {row}, column {col} "
                f"(basis {self.basis[row]})"
            )
        self.rows[row] /= piv
        self.rhs[row] /= piv
        factors = self.rows[:, col].copy()
        factors[row] = 0.0
        self.rows -= np.outer(factors, self.rows[row])
        self.rhs -= factors * self.rhs[row]
        if self.cost is not None:
            coef = self.cost[col]
            if coef != 0.0:
                self.cost -= coef * self.rows[row]
                self.cost_value -= coef * self.rhs[row]
        self.basis[row] = col

    def run(self, max_iterations: int) -> str:
        """Iterate to optimality. Returns "optimal" or "unbounded"."""
        assert self.cost is not None
        for _ in range(max_iterations):
            eligible = np.flatnonzero(self.cost < -self.tol)
            if eligible.size == 0:
                return "optimal"
            col = int(eligible[0])  # Bland: lowest index enters
            column = self.rows[:, col]
            positive = np.flatnonzero(column > self.tol)
            if positive.size == 0:
                return "unbounded"
            ratios = self.rhs[positive] / column[positive]
            best = ratios.min()
            # Bland tie-break: among minimum ratios, lowest basic-variable index.
            tied = positive[ratios <= best + self.tol * max(1.0, abs(best))]
            row = int(min(tied, key=lambda r: self.basis[r]))
            self.pivot(row, col)
        raise SimplexError(
            f"no convergence within {max_iterations} pivots "
            f"(last basis size {len(self.basis)})"
        )


def _phase_one(lp: LinearProgram, tol: float, max_iterations: int) -> tuple[_Tableau, int] | None:
    """Build a feasible tableau, or None when the program is infeasible.

    Adds one slack per inequality and one artificial per row whose slack
    cannot start basic, then minimizes the artificial mass.
    """
    n = lp.n_vars
    m_eq = lp.eq_rhs.shape[0]
    m_ub = lp.ub_rhs.shape[0]
    m = m_eq + m_ub

    rows = np.zeros((m, n + m_ub))
    rhs = np.zeros(m)
    if m_eq:
        rows[:m_eq, :n] = lp.eq_matrix
        rhs[:m_eq] = lp.eq_rhs
    if m_ub:
        rows[m_eq:, :n] = lp.ub_matrix
        rows[m_eq:, n:] = np.eye(m_ub)
        rhs[m_eq:] = lp.ub_rhs

    negative = rhs < 0.0
    rows[negative] *= -1.0
    rhs[negative] *= -1.0

    # A row can start with its slack basic only if the slack kept coefficient +1.
    needs_artificial = np.ones(m, dtype=bool)
    basis = [-1] * m
    for r in range(m_eq, m):
        if not negative[r]:
            basis[r] = n + (r - m_eq)
            needs_artificial[r] = False

    art_rows = np.flatnonzero(needs_artificial)
    n_art = art_rows.size
    full = np.zeros((m, n + m_ub + n_art))
    full[:, : n + m_ub] = rows
    for k, r in enumerate(art_rows):
        col = n + m_ub + k
        full[r, col] = 1.0
        basis[r] = col

    tab = _Tableau(full, rhs, basis, tol)
    cost = np.zeros(n + m_ub + n_art)
    cost[n + m_ub :] = 1.0
    tab.install_cost(cost)
    status = tab.run(max_iterations)
    if status != "optimal":  # phase-1 objective is bounded below by 0
        raise SimplexError("phase 1 reported unbounded; artificial costs are nonnegative")
    artificial_mass = -tab.cost_value  # cost_value tracks the negated objective
    if artificial_mass > ARTIFICIAL_MASS_TOL:
        return None

    # Drive any artificial still basic out of the basis; a row with no real
    # column to pivot on is redundant and can be zeroed in place.
    n_real = n + m_ub
    for r in range(m):
        if tab.basis[r] >= n_real:
            candidates = np.flatnonzero(np.abs(tab.rows[r, :n_real]) > tol)
            if candidates.size:
                tab.pivot(r, int(candidates[0]))
            else:
                tab.rows[r, :] = 0.0
                tab.rhs[r] = 0.0

    trimmed = _Tableau(tab.rows[:, :n_real].copy(), tab.rhs.copy(), list(tab.basis), tol)
    return trimmed, n_real


def _without_twins(lp: LinearProgram) -> tuple[LinearProgram, np.ndarray]:
    """The program on the first column of each group of byte-identical
    columns, and those columns' indices in ascending order."""
    cols = np.ascontiguousarray(np.vstack([lp.objective, lp.eq_matrix, lp.ub_matrix]).T)
    _, first = np.unique(cols.view(np.dtype((np.void, cols.strides[0]))), return_index=True)
    keep = np.sort(first)
    return LinearProgram(lp.objective[keep], lp.eq_matrix[:, keep], lp.eq_rhs,
                         lp.ub_matrix[:, keep], lp.ub_rhs), keep


def solve(lp: LinearProgram, tol: float = 1e-9, max_iterations: int = 50_000) -> SimplexResult:
    """Two-phase simplex. Statuses: optimal, infeasible, unbounded."""
    small, columns = _without_twins(lp)
    phase1 = _phase_one(small, tol, max_iterations)
    if phase1 is None:
        return SimplexResult(status="infeasible", x=None, objective=None)
    tab, n_real = phase1

    # Rows whose basis marker still points at a dropped artificial are the
    # redundant all-zero rows left by phase 1; park them on a harmless basic.
    keep = [r for r in range(len(tab.basis)) if tab.basis[r] < n_real]
    if len(keep) < len(tab.basis):
        tab.rows = tab.rows[keep]
        tab.rhs = tab.rhs[keep]
        tab.basis = [tab.basis[r] for r in keep]

    cost = np.zeros(n_real)
    cost[: small.n_vars] = -small.objective  # maximize via minimizing the negation
    tab.install_cost(cost)
    status = tab.run(max_iterations)
    if status == "unbounded":
        return SimplexResult(status="unbounded", x=None, objective=None)

    basic = np.zeros(n_real)
    basic[np.asarray(tab.basis, dtype=int)] = tab.rhs
    np.clip(basic, 0.0, None, out=basic)  # snap -1e-15 round-off on basic zeros
    x = np.zeros(lp.n_vars)
    x[columns] = basic[: small.n_vars]
    return SimplexResult(status="optimal", x=x, objective=float(lp.objective @ x))


def feasible(lp: LinearProgram, tol: float = 1e-9, max_iterations: int = 50_000) -> bool:
    """Phase-1 feasibility test without optimizing the objective."""
    return _phase_one(_without_twins(lp)[0], tol, max_iterations) is not None
