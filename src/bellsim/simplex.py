"""Dense two-phase simplex solver, priced by Bland's rule or Dantzig's.

Solves   maximize c . x   subject to   A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.

Sized for this package's problems: tens of rows by a few thousand columns,
where a dense tableau with vectorized row operations is simple, debuggable
and fast enough. Bland's rule (Bland, Math. Oper. Res. 2, 103 (1977): the
lowest-index eligible column enters, ratio-test ties go to the lowest
basic-variable index), the default, cannot cycle. ``dantzig=True`` enters
the most negative reduced cost, but Bland's column after each degenerate
pivot, so a cycle would run under Bland's rule alone. :func:`certify`
checks an optimum against a rigorous dual bound.

Programs are solved as given, with no presolve. A column identical to a
lower-index one never enters under either rule: twins have equal reduced
costs, and the elementwise row operations keep them equal, so the
lower-index twin is always picked first and the higher one stays at 0. A
program with repeated columns thus reaches the vertex of the program
without them, bit for bit.

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
``ARTIFICIAL_MASS_TOL``, above which phase 1 calls a program infeasible and
``loophole`` refuses a gap or residual that :func:`certify` measures; and
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
    duals: np.ndarray | None = None  # an optimum's row prices y, equality rows first


class _Tableau:
    """One array ``t``: the constraint rows, then the cost row, with the
    right-hand side as the last column, reduced over the basis.

    Internally minimizes; the public entry points negate the objective of a
    maximization program. The cost row holds reduced costs and, in its last
    column, minus the cost of the basic solution; entering columns are those
    of the first ``cost.size`` with reduced cost below -PIVOT_TOL, pricing's
    read-only 0-d operand; later columns are carried, never priced.
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
        self.t = np.vstack([body, np.pad(cost, (0, body.shape[1] - cost.size))])
        self.basis = basis
        self.pivots = 0
        self._scale = np.empty_like(self.t)
        self._update = np.empty_like(self.t)
        self._entering = np.empty(cost.size, dtype=bool)
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

    def run(self, dantzig: bool = False, bounded: bool = False) -> str:
        """Iterate to optimality: "optimal" or "unbounded". With ``dantzig``
        the most negative reduced cost enters (the lowest index among equals),
        but after a degenerate pivot, one whose least ratio is at most
        PIVOT_TOL, Bland's rule prices. With ``bounded`` (phase 1) a column no
        row limits is passed over for the next, "stalled" if none is left."""
        t, basis, entering = self.t, self.basis, self._entering
        cost = t[-1, :entering.size]
        if cost.size == 0:  # no column can enter
            return "optimal"
        bland = not dantzig
        for _ in range(MAX_PIVOTS):
            np.less(cost, _ENTERS_BELOW, out=entering)
            col = int(entering.argmax() if bland else cost.argmin())
            if not entering[col]:
                return "optimal"
            while not (test := self._ratios(col))[0] and bounded:
                entering[col] = False
                if not entering.any():
                    return "stalled"
                col = int(entering.argmax() if bland else np.where(entering, cost, 0.0).argmin())
            ratios, best = test
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
            bland = not dantzig or best <= PIVOT_TOL
        raise SimplexError(
            f"no convergence within {MAX_PIVOTS} pivots "
            f"(last basis size {len(basis)})"
        )

    def _ratios(self, col: int) -> tuple[list[tuple[float, int]], float]:
        """(ratio, row) for each row whose entry in ``col`` exceeds PIVOT_TOL,
        and the least ratio: one pass over Python floats, which act as numpy's."""
        ratios, best = [], math.inf
        for r, (a, b) in enumerate(zip(self.t[:-1, col].tolist(), self.t[:-1, -1].tolist())):
            if a > PIVOT_TOL:
                ratios.append((q := b / a, r))
                if q < best:
                    best = q
        return ratios, best


def _phase_one(lp: LinearProgram, dantzig: bool = False
               ) -> tuple[np.ndarray | None, list[int] | None, int]:
    """A feasible tableau body over the program, slack and equality rows'
    artificial columns, with the right-hand side last, its basis, and the
    pivots phase 1 took; body and basis are None when it is infeasible.

    Adds one slack per inequality and one artificial per row whose slack
    cannot start basic, then minimizes the artificial mass. Redundant rows
    are dropped. The artificial columns kept are signed as their rows were
    given, so, like a slack's, each one's reduced cost is its row's dual.
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
    stalled = tab.run(dantzig, bounded=True) == "stalled"  # artificial costs are nonnegative
    if -tab.t[-1, -1] > ARTIFICIAL_MASS_TOL:  # the artificial mass
        if stalled:  # no proof of infeasibility
            raise SimplexError(f"phase 1 stalled at artificial mass {-tab.t[-1, -1]:.3g}")
        return None, None, tab.pivots

    # Drive any artificial still basic out of the basis; a row with no real
    # column to pivot on is redundant and is dropped.
    for r in range(m):
        if tab.basis[r] >= n_real:
            candidates = np.flatnonzero(np.abs(tab.t[r, :n_real]) > PIVOT_TOL)
            if candidates.size:
                tab.pivot(r, int(candidates[0]))
    keep = [r for r in range(m) if tab.basis[r] < n_real]
    body = np.delete(tab.t[keep], np.s_[n_real + m_eq:-1], axis=1)
    body[:, n_real + np.flatnonzero(negative[:m_eq])] *= -1.0
    return body, [tab.basis[r] for r in keep], tab.pivots


def solve(lp: LinearProgram, *, dantzig: bool = False) -> SimplexResult:
    """Two-phase simplex for ``lp``, by Bland's rule or with ``dantzig`` by
    Dantzig's (:meth:`_Tableau.run`). Statuses: optimal, infeasible, unbounded. With
    ``dantzig``, the floor-0 faking programs of two local mixtures with a weight near
    1e-9 run to :data:`MAX_PIVOTS` and raise ``SimplexError`` (about 1 s each)."""
    body, basis, phase1_pivots = _phase_one(lp, dantzig)
    if body is None:
        return SimplexResult(status="infeasible", x=None, objective=None,
                             pivots=(phase1_pivots, 0))
    n_real = lp.n_vars + lp.ub_rhs.shape[0]

    cost = np.zeros(n_real)
    cost[: lp.n_vars] = -lp.objective  # maximize via minimizing the negation
    tab = _Tableau(body, basis, cost)
    status = tab.run(dantzig)
    pivots = (phase1_pivots, tab.pivots)
    if status == "unbounded":
        return SimplexResult(status="unbounded", x=None, objective=None, pivots=pivots)

    basic = np.zeros(n_real)
    basic[np.asarray(tab.basis, dtype=int)] = tab.t[:-1, -1]
    np.clip(basic, 0.0, None, out=basic)  # snap -1e-15 round-off on basic zeros
    x = basic[: lp.n_vars]
    duals = np.append(tab.t[-1, n_real:-1], tab.t[-1, lp.n_vars:n_real])  # artificials', slacks'
    return SimplexResult("optimal", x, float(lp.objective @ x), pivots, duals)


def certify(lp: LinearProgram, result: SimplexResult, upper: np.ndarray) -> tuple[float, float]:
    """(gap, residual) of ``result``, an optimum of ``lp`` whose variables,
    then slacks, lie in [0, upper] wherever feasible. For any y, such as the
    result's duals, the optimum is at most hi = b^T y + sum_j max(0, (c -
    A^T y)_j) upper_j over all columns (Neumaier and Shcherbina, Math.
    Program. 99, 283 (2004)); adding 2 gamma_(m+2) and 2 gamma_(n+m+2) times
    the absolute values summed bounds its rounding (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 2nd ed., 3.1). The residual is x's
    largest row violation. It only measures: ``loophole._Answer`` refuses a
    gap outside [0, ARTIFICIAL_MASS_TOL] or a residual above it."""
    rows, b = np.vstack([lp.eq_matrix, lp.ub_matrix]), np.append(lp.eq_rhs, lp.ub_rhs)
    m, m_eq, y, c = rows.shape[0], lp.eq_rhs.shape[0], result.duals, lp.objective
    gamma = [2 * k * 2**-53 / (1 - k * 2**-53) for k in (m + 2, upper.size + m + 2)]
    reduced = c - y @ rows + gamma[0] * (abs(c) + abs(y) @ abs(rows))
    bound = np.maximum(np.append(reduced, -y[m_eq:]), 0.0) @ upper  # a slack's is -y, exact
    gap = float(b @ y + bound + gamma[1] * (bound + abs(b) @ abs(y)) - result.objective)
    excess = rows @ result.x - b
    residual = float(np.append(abs(excess[:m_eq]), excess[m_eq:]).max(initial=0.0))
    return gap, residual


def feasible(lp: LinearProgram) -> bool:
    """Phase-1 feasibility test of ``lp``, without optimizing its objective."""
    return _phase_one(lp)[0] is not None
