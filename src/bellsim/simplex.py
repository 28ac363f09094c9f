"""Dense two-phase simplex solver with Bland's anti-cycling rule.

Solves   maximize c . x   subject to   A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.

Sized for this package's problems: tens of rows by a few thousand columns,
where a dense tableau with vectorized row operations is simple, debuggable
and fast enough. Bland's rule (always pick the lowest-index eligible
entering column; break ratio-test ties by lowest basic-variable index)
guarantees termination on the degenerate programs the loophole analysis
produces. Its ratio test makes two plain passes over Python floats.

Programs are solved as given, with no presolve. Under Bland's rule a column
identical to a lower-index one never enters: twins have equal reduced costs,
and the elementwise row operations keep them equal, so the lower-index twin
is always picked first and the higher one stays at 0. A program with
repeated columns thus reaches the vertex of the program without them, bit
for bit.

The tableau is one array: the constraint rows, then the cost row of reduced
costs, with the right-hand side as the last column. That column holds the
basic values, then minus the cost of the basic solution, so a pivot moves
constraints, costs and right-hand side alike: one row division, then one
rank-1 product, formed in a buffer the tableau allocates once and
subtracted from every row, the pivot row (factor 0) and the cost row
included. Each entry goes through the same two roundings in the same order
on every pivot, so pivot counts and vertices are fixed bit for bit. A fused
update (BLAS ``dger`` or ``matmul``) may round once instead of twice, and
skipping zero factors or zero pivot-row entries keeps a -0.0 that the
subtraction would turn into +0.0: either moves the pivot path.
``SimplexResult.pivots`` counts the pivots of each phase. Three constants
tune the solver: ``PIVOT_TOL``, below which an entry counts as 0;
``ARTIFICIAL_MASS_TOL``, above which phase 1 calls a program infeasible; and
``MAX_PIVOTS``, the pivot budget of each phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import constant

#: Phase 1 calls a program infeasible when its artificial mass exceeds this.
ARTIFICIAL_MASS_TOL = 1e-7
#: Entries within this of 0 count as 0 in pricing, the ratio test and pivots.
PIVOT_TOL = 1e-9
#: Each phase raises ``SimplexError`` after this many pivots.
MAX_PIVOTS = 50_000
_ENTERS_BELOW = constant(-PIVOT_TOL, np.float64)  # see "Constant operands" in the README


class SimplexError(RuntimeError):
    """Numerical breakdown: the solver did not finish, or its result cannot hold."""


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


@dataclass(frozen=True)
class SimplexResult:
    status: str  # "optimal", "infeasible" or "unbounded"
    x: np.ndarray | None
    objective: float | None
    pivots: tuple[int, int]  # inside phase 1 and phase 2; phase 2 is 0 when infeasible


class _Tableau:
    """One array ``t``: the constraint rows, then the cost row, with the
    right-hand side as the last column, reduced over the basis.

    Internally minimizes; the public entry points negate the objective of a
    maximization program. The cost row holds reduced costs and, in its last
    column, minus the cost of the basic solution; entering columns are those
    with reduced cost below -PIVOT_TOL, pricing's read-only 0-d operand.
    ``pivots`` counts the pivots ``run`` takes. ``pivot`` and ``run`` reuse
    buffers allocated here, so a pivot allocates no array: it does
    ``t[row] /= t[row, col]``, then ``t[r] -= t[row] * f_r`` for every row
    r, f_r being r's entry in the pivot column (0 at ``row``). For the
    product, one buffer holds each row's factor across the row and another
    the pivot row in every row, and one contiguous multiply joins them:
    numpy runs the two broadcast copies and that multiply faster than a
    multiply with an operand broadcast. A product is the same double in
    either operand order.
    """

    def __init__(self, body: np.ndarray, basis: list[int], cost: np.ndarray):
        self.t = np.vstack([body, np.append(cost, 0.0)])
        self.basis = basis
        self.pivots = 0
        self._scale = np.empty_like(self.t)
        self._update = np.empty_like(self.t)
        self._entering = np.empty(self.t.shape[1] - 1, dtype=bool)
        for r, b in enumerate(basis):
            coef = self.t[-1, b]
            if coef != 0.0:
                self.t[-1] -= coef * self.t[r]

    def pivot(self, row: int, col: int) -> None:
        t, scale, update = self.t, self._scale, self._update
        scale[:] = t[:, col, None]
        scale[row] = 0.0
        t[row] /= t[row, col]
        update[:] = t[row]
        update *= scale
        t -= update
        self.basis[row] = col

    def run(self) -> str:
        """Iterate to optimality. Returns "optimal" or "unbounded". The ratio
        test is two plain passes over Python floats, which divide and compare
        as numpy does, and a step allocates no array, only short lists."""
        t, basis, entering = self.t, self.basis, self._entering
        cost, rhs = t[-1, :-1], t[:-1, -1]
        if cost.size == 0:  # no column can enter
            return "optimal"
        for _ in range(MAX_PIVOTS):
            # Bland: the lowest eligible index enters.
            col = int(np.less(cost, _ENTERS_BELOW, out=entering).argmax())
            if not entering[col]:
                return "optimal"
            ratios, best = [], math.inf
            for r, (a, b) in enumerate(zip(t[:-1, col].tolist(), rhs.tolist())):
                if a > PIVOT_TOL:
                    ratios.append((q := b / a, r))
                    if q < best:
                        best = q
            if not ratios:
                return "unbounded"
            # Bland tie-break: among minimum ratios, lowest basic-variable index.
            bound = best + PIVOT_TOL * max(1.0, abs(best))
            row, low = -1, len(entering)
            for q, r in ratios:
                if q <= bound and basis[r] < low:
                    row, low = r, basis[r]
            if row < 0:
                raise SimplexError("ratio test found no row: its ratios are not finite")
            self.pivot(row, col)
            self.pivots += 1
        raise SimplexError(
            f"no convergence within {MAX_PIVOTS} pivots "
            f"(last basis size {len(basis)})"
        )


def _phase_one(lp: LinearProgram) -> tuple[np.ndarray | None, list[int] | None, int]:
    """A feasible tableau body over the program and slack columns, with the
    right-hand side as its last column, its basis, and the pivots phase 1
    took; body and basis are None when the program is infeasible.

    Adds one slack per inequality and one artificial per row whose slack
    cannot start basic, then minimizes the artificial mass. Redundant rows
    are dropped.
    """
    n = lp.n_vars
    m_eq = lp.eq_rhs.shape[0]
    m_ub = lp.ub_rhs.shape[0]
    m = m_eq + m_ub
    n_real = n + m_ub

    rhs = np.concatenate([lp.eq_rhs, lp.ub_rhs])
    negative = rhs < 0.0
    # A row can start with its slack basic only if the slack keeps coefficient +1.
    needs_artificial = negative.copy()
    needs_artificial[:m_eq] = True
    art_rows = np.flatnonzero(needs_artificial)

    body = np.zeros((m, n_real + art_rows.size + 1))
    body[:m_eq, :n] = lp.eq_matrix
    body[m_eq:, :n] = lp.ub_matrix
    body[m_eq:, n:n_real] = np.eye(m_ub)
    body[negative, :n_real] *= -1.0
    rhs[negative] *= -1.0
    body[:, -1] = rhs
    body[art_rows, n_real + np.arange(art_rows.size)] = 1.0

    basis = [-1] * m_eq + list(range(n, n_real))  # inequality rows start on their slacks
    for k, r in enumerate(art_rows):
        basis[r] = n_real + k
    cost = np.zeros(body.shape[1] - 1)
    cost[n_real:] = 1.0

    tab = _Tableau(body, basis, cost)
    if tab.run() != "optimal":  # phase-1 objective is bounded below by 0
        raise SimplexError("phase 1 reported unbounded; artificial costs are nonnegative")
    if -tab.t[-1, -1] > ARTIFICIAL_MASS_TOL:  # the artificial mass
        return None, None, tab.pivots

    # Drive any artificial still basic out of the basis; a row with no real
    # column to pivot on is redundant and is dropped.
    for r in range(m):
        if tab.basis[r] >= n_real:
            candidates = np.flatnonzero(np.abs(tab.t[r, :n_real]) > PIVOT_TOL)
            if candidates.size:
                tab.pivot(r, int(candidates[0]))
    keep = [r for r in range(m) if tab.basis[r] < n_real]
    body = np.delete(tab.t[keep], np.s_[n_real:-1], axis=1)  # drop the artificial columns
    return body, [tab.basis[r] for r in keep], tab.pivots


def solve(lp: LinearProgram) -> SimplexResult:
    """Two-phase simplex for ``lp``. Statuses: optimal, infeasible, unbounded."""
    body, basis, phase1_pivots = _phase_one(lp)
    if body is None:
        return SimplexResult(status="infeasible", x=None, objective=None,
                             pivots=(phase1_pivots, 0))
    n_real = body.shape[1] - 1

    cost = np.zeros(n_real)
    cost[: lp.n_vars] = -lp.objective  # maximize via minimizing the negation
    tab = _Tableau(body, basis, cost)
    status = tab.run()
    pivots = (phase1_pivots, tab.pivots)
    if status == "unbounded":
        return SimplexResult(status="unbounded", x=None, objective=None, pivots=pivots)

    basic = np.zeros(n_real)
    basic[np.asarray(tab.basis, dtype=int)] = tab.t[:-1, -1]
    np.clip(basic, 0.0, None, out=basic)  # snap -1e-15 round-off on basic zeros
    x = basic[: lp.n_vars]
    return SimplexResult(status="optimal", x=x, objective=float(lp.objective @ x), pivots=pivots)


def feasible(lp: LinearProgram) -> bool:
    """Phase-1 feasibility test of ``lp``, without optimizing its objective."""
    return _phase_one(lp)[0] is not None
