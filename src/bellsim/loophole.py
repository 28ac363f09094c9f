"""Detection-loophole analysis as a linear feasibility/optimization problem.

When a detector can silently drop trials, a local model may condition its
detections on the hidden spins, so the statistics among detected
coincidences need not represent all pairs. Any such local
missing-not-at-random model is a mixture of deterministic augmented
strategies (a counterfactual table plus per-setting detection flags for
each particle), so the question "can local strategies reproduce the quantum
coincidence statistics at a given detection efficiency" is a linear program
over the 4096 strategy weights. Larger feasible efficiency floors mean the
loophole survives better detectors; the maximum feasible floor is the
efficiency an experiment must beat to close it.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations, product
from pathlib import Path

import numpy as np

from . import simplex
from .counterfactuals import BELL_PAIRS, BELL_SIGNS, CounterfactualTable
from .lhv import CANONICAL_INT, finite_number, mixture_arrays, unique_keys
from .quantum import MatchProbabilityTable

N_STRATEGIES = 4096
SOLUTION_STATUSES = ("feasible", "infeasible")
#: A feasible :class:`LpSolution`'s weights sum to 1 within this.
_WEIGHT_SUM_TOL = 1e-9

#: Margin by which the demonstration model keeps the unconditional
#: Bell statistic that scores an undetected pair as a non-match below 0;
#: see :func:`demonstration_solution`.
DEMO_STEALTH_MARGIN = 0.05


def _check_bits(values, name: str) -> tuple[int, ...]:
    vals = tuple(values)
    if len(vals) != 3 or any(v not in (0, 1) for v in vals):
        raise ValueError(f"{name} must be three flags in {{0, 1}}, got {values!r}")
    return tuple(int(v) for v in vals)


@dataclass(frozen=True)
class AugmentedStrategy:
    """A counterfactual table extended with per-setting detection flags."""

    table: CounterfactualTable
    d1: tuple[int, int, int]
    d2: tuple[int, int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "d1", _check_bits(self.d1, "d1"))
        object.__setattr__(self, "d2", _check_bits(self.d2, "d2"))

    @classmethod
    def from_index(cls, index: int) -> "AugmentedStrategy":
        """Decode strategy ``index`` in the documented enumeration order.

        Twelve bits: the six spin bits are most significant (same order as
        CounterfactualTable indices), then d1[0..2], then d2[0..2] least
        significant.
        """
        if not 0 <= index < N_STRATEGIES:
            raise ValueError(f"strategy index {index!r} outside [0, {N_STRATEGIES})")
        table = CounterfactualTable.from_index(index >> 6)
        det = index & 0x3F
        bits = [(det >> (5 - k)) & 1 for k in range(6)]
        return cls(table=table, d1=tuple(bits[:3]), d2=tuple(bits[3:]))

    @property
    def index(self) -> int:
        code = self.table.index
        for b in (*self.d1, *self.d2):
            code = (code << 1) | b
        return code


@lru_cache(maxsize=1)
def enumerate_augmented_strategies() -> tuple[AugmentedStrategy, ...]:
    """All 4096 augmented strategies, in documented index order."""
    return tuple(AugmentedStrategy.from_index(i) for i in range(N_STRATEGIES))


@lru_cache(maxsize=1)
def _strategy_spins() -> tuple[np.ndarray, np.ndarray]:
    """The int8 spins y1[s, x] and y2[s, x] strategy ``s`` shows at setting
    ``x``, 0 where it does not detect, read off the 12-bit index in its
    documented bit order: y1[x] is bit 11 - x, y2[x] bit 8 - x, d1[x] bit
    5 - x and d2[x] bit 2 - x."""
    s = np.arange(N_STRATEGIES)[:, None]
    x = np.arange(3)
    y1 = (((s >> (11 - x)) & 1) * 2 - 1) * ((s >> (5 - x)) & 1)
    y2 = (((s >> (8 - x)) & 1) * 2 - 1) * ((s >> (2 - x)) & 1)
    return y1.astype(np.int8), y2.astype(np.int8)


@lru_cache(maxsize=1)
def _strategy_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Per-strategy cell data: detect[s, i, j] and detect_match[s, i, j].

    detect is 1 when both particles are detected at settings (i, j);
    detect_match additionally requires the spins to agree there.
    """
    y1, y2 = _strategy_spins()
    products = y1[:, :, None] * y2[:, None, :]
    return (products != 0).astype(float), (products == 1).astype(float)


@lru_cache(maxsize=1)
def _distinct_strategies() -> np.ndarray:
    """The lowest index of each group of strategies with equal detect and
    detect_match, in ascending order: 339 of the 4096.

    Strategies in one group give bit-identical faking-program columns for
    any targets. Strategies in different groups differ in a ``-detect`` row,
    or, where detect is equal, in a ``detect_match - target * detect`` entry
    for every target in [0, 1]. So these columns hold each distinct column
    of the full program once, and under either of the simplex's pricing
    rules the program on them reaches the full program's vertex bit for
    bit: the higher-index twin of a column never enters.
    """
    cells = np.hstack([m.reshape(N_STRATEGIES, -1) for m in _strategy_matrices()])
    keep = np.sort(np.unique(cells, axis=0, return_index=True)[1])
    keep.flags.writeable = False
    return keep


@dataclass(frozen=True)
class FakingProblem:
    """Can local strategies reproduce ``targets`` among coincidences, with
    every setting pair's coincidence rate at least ``efficiency_floor``?

    Its program's variables are the 4096 strategy weights followed by one
    epigraph variable z (the minimum pairwise coincidence rate, which the
    objective maximizes). Constraints: weights sum to 1; for each of the
    nine setting pairs, the conditional match equality written in
    linearized form (match mass equals target times coincidence mass), the
    floor inequality on the coincidence rate, only for a positive floor,
    and the epigraph inequality z <= coincidence rate; with ``stealth``,
    the row of :func:`demonstration_solution`. ``program`` assembles the
    full program on first read, for inspection; the analyses solve it by
    the route of :func:`_optimum`.
    """

    targets: MatchProbabilityTable
    efficiency_floor: float = 0.0
    stealth: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency_floor <= 1.0:
            raise ValueError(
                f"efficiency_floor {self.efficiency_floor!r} outside [0, 1]"
            )

    @cached_property
    def program(self) -> simplex.LinearProgram:
        return _assemble_lp(*_strategy_matrices(), self.targets.as_array(),
                            self.efficiency_floor, self.stealth)


def _assemble_lp(
    detect: np.ndarray,
    detect_match: np.ndarray,
    targets: np.ndarray,
    floor: float,
    stealth: bool = False,
) -> simplex.LinearProgram:
    """Build the faking LP for arbitrary scenario size (tests use 2 settings).

    Setting pairs (i, j) take rows in row-major order; the last variable is z.
    A positive floor puts each pair's row "coincidence rate >= floor" before
    its epigraph row. At floor 0 those rows follow from w >= 0 and are left
    out; the solve then reaches the same vertex in the same pivots as with
    them, except where it breaks down numerically either way.
    """
    n_strat = detect.shape[0]
    z = n_strat  # the epigraph variable's column
    d = detect.reshape(n_strat, -1).T  # one row per setting pair
    cells = d.shape[0]
    eq_matrix = np.zeros((1 + cells, n_strat + 1))
    eq_matrix[0, :z] = 1.0  # weights sum to 1
    eq_matrix[1:, :z] = detect_match.reshape(n_strat, -1).T - targets.reshape(-1, 1) * d
    ub_matrix = np.zeros((2 * cells, n_strat + 1))
    ub_matrix[0::2, :z] = -d  # coincidence rate >= floor
    ub_matrix[1::2, :z] = -d
    ub_matrix[1::2, z] = 1.0  # z <= coincidence rate
    ub_rhs = np.tile([-floor, 0.0], cells)
    if floor <= 0.0:  # w >= 0 already keeps every coincidence rate >= 0
        ub_matrix, ub_rhs = ub_matrix[1::2], ub_rhs[1::2]
    if stealth:
        # Unconditional Bell statistic (relabeling 0, the identity) stays below
        # -DEMO_STEALTH_MARGIN; each entry is a sum of four 0/±1 terms, exact.
        bell = detect_match.reshape(n_strat, -1) @ _relabeled_bell_coefficients()[0]
        ub_matrix = np.vstack([ub_matrix, np.append(bell, 0.0)])
        ub_rhs = np.append(ub_rhs, -DEMO_STEALTH_MARGIN)
    objective = np.zeros(n_strat + 1)
    objective[z] = 1.0
    return simplex.LinearProgram(
        objective=objective,
        eq_matrix=eq_matrix,
        eq_rhs=np.append(1.0, np.zeros(cells)),
        ub_matrix=ub_matrix,
        ub_rhs=ub_rhs,
    )


def build_faking_lp(problem: FakingProblem) -> FakingProblem:
    """``problem`` itself: a FakingProblem is its own program. Kept only
    because the benchmark in ``perfbench/`` calls it."""
    return problem


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome: status, strategy weights and achieved coincidence
    rates. Read, solved or built in code, it holds to one rule, else raises
    ``ValueError``: a status in :data:`SOLUTION_STATUSES`; int indices in
    [0, 4096) weighted by finite non-negative numbers, summing to 1 within
    1e-9 when feasible, none otherwise; rates None or finite, 3x3 for
    ``coincidence_rates``. Values are stored as floats and tuples.
    """

    status: str  # "feasible" or "infeasible"
    weights: dict[int, float]
    coincidence_rates: tuple[tuple[float, float, float], ...] | None
    min_coincidence_rate: float | None

    def __post_init__(self) -> None:
        if self.status not in SOLUTION_STATUSES:
            raise ValueError(f"unknown solution status {self.status!r}")
        if not isinstance(self.weights, dict):
            raise ValueError("solution weights must map strategy indices to weights")
        weights: dict[int, float] = {}
        for index, value in self.weights.items():
            if not isinstance(index, int) or isinstance(index, bool):
                raise ValueError(f"bad strategy index {index!r}")
            if not 0 <= index < N_STRATEGIES:
                raise ValueError(f"strategy index {index!r} outside [0, {N_STRATEGIES})")
            weights[index] = finite_number(value, f"weight of strategy {index}")
            if weights[index] < 0.0:
                raise ValueError(f"weight {value!r} of strategy {index} is negative")
        if self.status == "feasible":
            total = math.fsum(weights.values())
            if abs(total - 1.0) > _WEIGHT_SUM_TOL:
                raise ValueError(f"feasible solution weights sum to {total!r}, not 1")
        elif weights:
            raise ValueError(f"a {self.status} solution carries no weights")
        rates = self.coincidence_rates
        if rates is not None:
            if not (isinstance(rates, (list, tuple)) and len(rates) == 3
                    and all(isinstance(r, (list, tuple)) and len(r) == 3 for r in rates)):
                raise ValueError(f"coincidence_rates {rates!r} is not a 3x3 table")
            rates = tuple(tuple(finite_number(v, "coincidence rate") for v in r) for r in rates)
        min_rate = self.min_coincidence_rate
        if min_rate is not None:
            min_rate = finite_number(min_rate, "min_coincidence_rate")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "coincidence_rates", rates)
        object.__setattr__(self, "min_coincidence_rate", min_rate)

    @cached_property
    def _sampling_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The :func:`~bellsim.lhv.mixture_arrays` of the strategies in
        increasing index order, with their :func:`_strategy_spins`."""
        indices = sorted(self.weights)
        y1, y2 = _strategy_spins()
        return mixture_arrays([self.weights[i] for i in indices], y1[indices], y2[indices])

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "weights": {str(k): v for k, v in self.weights.items()},
            "coincidence_rates": [list(r) for r in self.coincidence_rates]
            if self.coincidence_rates is not None
            else None,
            "min_coincidence_rate": self.min_coincidence_rate,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "LpSolution":
        """Parse a solution document, as :meth:`to_dict` writes it: a JSON
        object whose ``weights`` object is keyed by strategy indices in
        ASCII decimal, with no plus sign, space, underscore or leading zero,
        so that no two keys name one index (:func:`load_solution` refuses a
        key given twice); a negative one is read, for the range check to
        refuse. The solution itself checks every value; anything it refuses
        raises ``ValueError`` too.
        """
        if not isinstance(doc, dict):
            raise ValueError("a solution document must be a JSON object")
        weights = raw = doc.get("weights")
        if isinstance(raw, dict):
            weights = {}
            for key, value in raw.items():
                if not (isinstance(key, str) and CANONICAL_INT.fullmatch(key)):
                    raise ValueError(f"bad strategy index {key!r}")
                weights[int(key)] = value
        return cls(doc.get("status"), weights, doc.get("coincidence_rates"),
                   doc.get("min_coincidence_rate"))


def load_solution(path: str | Path) -> LpSolution:
    """The solution in the JSON file ``path``; ``ValueError`` on a key given
    twice in any of its objects, or on a document :meth:`LpSolution.from_dict`
    refuses."""
    with open(path, "r", encoding="utf-8") as fh:
        return LpSolution.from_dict(json.load(fh, object_pairs_hook=unique_keys))


def save_solution(solution: LpSolution, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution.to_dict(), fh, indent=2)
        fh.write("\n")


def _scored(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coincidence rates and unconditional match rates, per setting
    pair, of the strategy weights ``w``."""
    detect, detect_match = _strategy_matrices()
    return np.einsum("s,sij->ij", w, detect), np.einsum("s,sij->ij", w, detect_match)


@dataclass(frozen=True)
class _Answer:
    """How :func:`_optimum` answered ``problem``: the route it took, how the
    floor-0 program ended, z* and x at its vertex, else None, and the pivots
    of each phase of its solve, (0, 0) where none ran."""

    problem: FakingProblem
    route: str  # "facets", "bell sum" or "floor 0"
    status: str | None  # "optimal", "infeasible" or "unbounded"; None for a Bell sum
    objective: float | None = None
    x: np.ndarray | None = None
    pivots: tuple[int, int] = (0, 0)
    certificate: tuple[float, float] | None = None  # a floor-0 optimum's simplex.certify

    def efficiency(self) -> float | None:
        """z*, at most 1.0, or None with no vertex: :func:`max_faking_efficiency`'s
        reading. A floor-0 solve that breaks down raises ``simplex.SimplexError``:
        the program is bounded (z <= 1) and, without the stealth row, feasible.
        So does a certificate's gap outside [0, ARTIFICIAL_MASS_TOL] or residual above it."""
        if self.status == "unbounded" or self.status == "infeasible" and not self.problem.stealth:
            raise simplex.SimplexError(f"floor-0 faking program reported {self.status}")
        gap, residual = self.certificate or (0.0, 0.0)
        if not 0.0 <= gap <= simplex.ARTIFICIAL_MASS_TOL or residual > simplex.ARTIFICIAL_MASS_TOL:
            raise simplex.SimplexError(f"optimum not certified: gap {gap:.3g}, residual {residual:.3g}")
        return None if self.objective is None else min(self.objective, 1.0)

    def solution(self) -> LpSolution:
        """:func:`solve_lp`'s reading: infeasible without z* or below the floor."""
        if (z := self.efficiency()) is None or self.problem.efficiency_floor > z:
            return LpSolution("infeasible", {}, None, None)
        w = self.x[:N_STRATEGIES]
        try:
            return LpSolution("feasible", {int(i): w[i] for i in np.flatnonzero(w > 0.0)},
                              _scored(w)[0].tolist(), self.x[N_STRATEGIES])
        except ValueError as exc:
            raise simplex.SimplexError(f"optimal faking solution refused: {exc}") from None


def _solve_on(problem: FakingProblem) -> _Answer:
    """The "floor 0" answer: ``simplex.solve`` of ``problem``'s program at floor 0
    on the distinct strategy columns, Dantzig-priced (Bland's with the stealth
    row), and z, x expanded back to all 4097 variables. An optimum carries
    its ``simplex.certify`` (weights, z and epigraph slacks are at most 1,
    the stealth slack at most 4), which :meth:`_Answer.efficiency` judges."""
    keep = _distinct_strategies()
    lp = _assemble_lp(*(m[keep] for m in _strategy_matrices()), problem.targets.as_array(),
                      0.0, problem.stealth)
    result = simplex.solve(lp, dantzig=not problem.stealth)
    if result.x is None:
        return _Answer(problem, "floor 0", result.status, pivots=result.pivots)
    upper = np.append(np.ones(lp.n_vars + lp.ub_rhs.shape[0] - 1), 4.0 if problem.stealth else 1.0)
    x = np.zeros(N_STRATEGIES + 1)
    x[np.append(keep, N_STRATEGIES)] = result.x
    return _Answer(problem, "floor 0", result.status, result.objective, x, result.pivots,
                   simplex.certify(lp, result, upper))


@lru_cache(maxsize=1)
def _relabeled_bell_coefficients() -> np.ndarray:
    """One row per pair of permutations of particle 1's and particle 2's
    settings, 36 in all: the coefficients, on the nine match probabilities
    in row-major order, of the Bell statistic P12 - P02 - P10 - P00 with
    the settings relabeled."""
    rows = np.zeros((36, 3, 3))
    for row, (p1, p2) in zip(rows, product(permutations(range(3)), repeat=2)):
        for (i, j), sign in zip(BELL_PAIRS, BELL_SIGNS):
            row[p1[i], p2[j]] = sign
    return rows.reshape(36, 9)


def _largest_bell_sum(targets: MatchProbabilityTable) -> float:
    """The largest of the 72 relabeled Bell sums of ``targets``: the 36
    setting relabelings of :func:`_relabeled_bell_coefficients`, each also
    with particle 2's spin flipped, P -> 1 - P, which turns a sum b into
    -2 - b. Theorem 2, relabeled, keeps all 72 at most 0 on every table."""
    sums = _relabeled_bell_coefficients() @ targets.as_array().ravel()
    return float(max(sums.max(), -2.0 - sums.min()))


@lru_cache(maxsize=1)
def _local_polytope() -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The full-detection local polytope, the hull of the always-detect
    tables: those 32 distinct strategies; its 90 facets F p <= c, the 72
    relabeled Bell sums and 0 <= P_ij <= 1 (Fine, PRL 48, 291 (1982)); the tables' gaps c - F p."""
    keep = _distinct_strategies()
    tables = keep[(keep & 0x3F) == 0x3F]
    bell, eye = _relabeled_bell_coefficients().astype(int), np.eye(9, dtype=int)
    facets = np.vstack([bell, -bell, eye, -eye])
    bound = np.repeat([0, 2, 1, 0], [36, 36, 9, 9])
    gaps = bound[:, None] - facets @ _strategy_matrices()[1][tables].reshape(-1, 9).T.astype(int)
    return tables, (facets, bound), gaps


def _full_detection_weights(targets: MatchProbabilityTable) -> dict[int, Fraction]:
    """Exact weights, summing to 1, on at most 10 always-detect strategies,
    whose tables mix to ``targets`` within b/2 (b their largest relabeled
    sum): a Caratheodory peel of :func:`_local_polytope` on the gaps
    g = c - F x = n / d. If b > 0, x first moves to the centre 1/2 (every sum
    -1) by b / (1 + b). Then the lowest table k on every facet tight at x
    takes 1 - 1/t of the rest, and x moves on to k + t (x - k), on one more facet."""
    tables, (facets, bound), gaps = _local_polytope()
    exact, c = gaps.astype(object), bound.astype(object)  # Python ints: d outgrows int64
    x = [Fraction(p) for p in targets.as_array().ravel()]
    d = max(v.denominator for v in x)  # a power of 2, so a multiple of every other
    n = c * d - facets @ np.array([int(v * d) for v in x], dtype=object)
    if (b := -n[:72].min()) > 0:  # this b is d b; g -> (g + b g(1/2)) / (1 + b)
        n, d = 2 * n + b * (2 * c - facets.sum(axis=1)), 2 * (d + b)
    weights, rest = {}, Fraction(1)
    while True:
        k = np.flatnonzero(~gaps[n == 0].any(axis=0))[0]
        rise = exact[:, k] * d - n  # d (G_k - g), G_k the gaps of table k
        if not rise.any():
            return weights | {int(tables[k]): rest}
        r = min(np.flatnonzero(rise > 0), key=lambda r: Fraction(exact[r, k], rise[r]))
        t = Fraction(exact[r, k] * d, rise[r])
        weights[int(tables[k])], rest = rest * (1 - 1 / t), rest / t
        n, d = exact[:, k] * rise[r] - exact[r, k] * rise, rise[r]


def _optimum(problem: FakingProblem) -> _Answer:
    """The optimum z* of ``problem``'s program at floor 0, with its vertex,
    from which every analysis is answered, by the first of three routes:

    1. "facets": the targets' largest relabeled Bell sum b
       (:func:`_largest_bell_sum`) is at most ``simplex.ARTIFICIAL_MASS_TOL``,
       so they count as local at full detection (exactly so for b <= 0, by
       :func:`_local_polytope`): z* = 1, with no solve, on the weights of
       :func:`_full_detection_weights`. A stealth problem whose identity sum,
       the targets' own, exceeds -:data:`DEMO_STEALTH_MARGIN` goes on to 3.
    2. "bell sum": else floor 1 is infeasible, as no table has a positive sum.
    3. "floor 0": else the floor-0 program on the 339 distinct columns, as
       the simplex ends it; :meth:`_Answer.efficiency` tells a breakdown.
    """
    if _largest_bell_sum(problem.targets) <= simplex.ARTIFICIAL_MASS_TOL:
        weights = _full_detection_weights(problem.targets)
        x = np.zeros(N_STRATEGIES + 1)
        x[[*weights, N_STRATEGIES]] = [*map(float, weights.values()), 1.0]
        identity = _relabeled_bell_coefficients()[0] @ _scored(x[:N_STRATEGIES])[1].ravel()
        if not problem.stealth or identity <= -DEMO_STEALTH_MARGIN:
            return _Answer(problem, "facets", "optimal", 1.0, x)
    elif problem.efficiency_floor == 1.0:
        return _Answer(problem, "bell sum", None)
    return _solve_on(problem)


def solve_lp(problem: FakingProblem) -> LpSolution:
    """Answer ``problem`` by :func:`_optimum`: infeasible where it holds no
    z* or where the floor f exceeds its z*, else feasible at that optimum.
    The floor-f program maximizes the same minimum coincidence rate z and
    only adds the rows "coincidence rate >= f", so it is feasible exactly
    when z* is at least f, and that optimum is optimal at floor f too. A
    floor near z* may be misreported either way (at the canonical angles z*
    is 3e-16 above the optimum, 2/3 + 2.47e-17, and 0.6666666666666667 reads
    feasible). z* + gap bounds the optimum from above only: z* may exceed it
    by about the residual's effect (2.75e-9, at residual 3.7e-10, on one
    tiny-weight stealth program). A breakdown, or an optimum its certificate
    or :class:`LpSolution` refuses, raises ``simplex.SimplexError``.
    """
    return _optimum(problem).solution()


def rescore_solution(solution: LpSolution) -> tuple[np.ndarray, np.ndarray, float]:
    """Recompute (coincidence rates, unconditional match rates, weight sum)
    from the weights alone; used to validate reported solutions."""
    w = np.zeros(N_STRATEGIES)
    for idx, weight in solution.weights.items():
        w[idx] = weight
    return (*_scored(w), float(w.sum()))


def max_faking_efficiency(targets: MatchProbabilityTable) -> float:
    """Largest efficiency floor at which faking stays feasible: the optimum
    z* of :func:`_optimum` at floor 0, at most 1.0. It may break down where
    :func:`solve_lp` at floor 1 makes no solve. A solver breakdown raises
    ``simplex.SimplexError``.
    """
    return _optimum(FakingProblem(targets)).efficiency()


def demonstration_solution(targets: MatchProbabilityTable) -> LpSolution:
    """A faking model whose sampled data fool coincidence conditioning.

    The data reproduce the quantum targets among coincidences. Being local,
    the model scores at most 0 under all-pairs accounting, which fills in
    undetected spins (-0.10 at (60,0,120), where the plain maximum-coincidence
    model scores exactly 0). This variant adds one inequality pushing the
    unconditional Bell statistic that scores an undetected pair as a
    non-match, no locality test, to at most -:data:`DEMO_STEALTH_MARGIN`;
    it only moves the model below the bound. The program has no efficiency
    floor; it maximizes the minimum coincidence rate under that inequality.
    """
    return solve_lp(FakingProblem(targets, stealth=True))


def sample_loophole_model(
    solution: LpSolution, pair: tuple[int, int], rng
) -> tuple[int | None, int | None, int, int]:
    """Draw one trial (y1, y2, d1, d2) from a feasible faking model.

    A strategy is drawn by cumulative-weight inversion; each particle's spin
    is reported only when its detection flag for the requested setting is up.
    Spins and flags are read off the 12-bit strategy index in its documented
    bit order, as :meth:`AugmentedStrategy.from_index` decodes it.
    """
    if solution.status != "feasible":
        raise ValueError(f"cannot sample from a {solution.status} solution")
    x1, x2 = pair
    s = sorted(solution.weights)[bisect_right(solution._sampling_arrays[0], rng.random())]
    d1 = (s >> (5 - x1)) & 1
    d2 = (s >> (2 - x2)) & 1
    y1 = ((s >> (11 - x1)) & 1) * 2 - 1 if d1 else None
    y2 = ((s >> (8 - x2)) & 1) * 2 - 1 if d2 else None
    return y1, y2, d1, d2

