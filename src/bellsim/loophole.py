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
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import simplex
from .counterfactuals import CounterfactualTable
from .lhv import cumulative_weights
from .quantum import MatchProbabilityTable

N_STRATEGIES = 4096
SOLUTION_STATUSES = ("feasible", "infeasible", "unbounded-error")

#: Default margin by which the demonstration model keeps the unconditional
#: Bell statistic that scores an undetected pair as a non-match below 0;
#: see :func:`demonstration_solution`.
DEMO_STEALTH_MARGIN = 0.05


def _check_bits(values, name: str) -> tuple[int, ...]:
    vals = tuple(int(v) for v in values)
    if len(vals) != 3 or any(v not in (0, 1) for v in vals):
        raise ValueError(f"{name} must be three flags in {{0, 1}}, got {values!r}")
    return vals


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
def _strategy_matrices() -> tuple[np.ndarray, np.ndarray]:
    """Per-strategy cell data: detect[s, i, j] and detect_match[s, i, j].

    detect is 1 when both particles are detected at settings (i, j);
    detect_match additionally requires the spins to agree there. Both are
    read off the 12-bit index in its documented bit order: y1[i] is bit
    11 - i, y2[j] bit 8 - j, d1[i] bit 5 - i and d2[j] bit 2 - j.
    """
    s = np.arange(N_STRATEGIES)[:, None, None]
    i = np.arange(3)[:, None]
    j = np.arange(3)
    detect = (s >> (5 - i)) & (s >> (2 - j)) & 1
    agree = ~((s >> (11 - i)) ^ (s >> (8 - j))) & 1
    return detect.astype(float), (detect & agree).astype(float)


@lru_cache(maxsize=1)
def _distinct_strategies() -> np.ndarray:
    """The lowest index of each group of strategies with equal detect and
    detect_match, in ascending order: 339 of the 4096.

    Strategies in one group give bit-identical faking-program columns for
    any targets. Strategies in different groups differ in a ``-detect`` row,
    or, where detect is equal, in a ``detect_match - target * detect`` entry
    for every target in [0, 1]. So these columns hold each distinct column
    of the full program once, and under Bland's rule the program on them
    reaches the full program's vertex bit for bit: the higher-index twin of
    a column never enters.
    """
    cells = np.hstack([m.reshape(N_STRATEGIES, -1) for m in _strategy_matrices()])
    keep = np.sort(np.unique(cells, axis=0, return_index=True)[1])
    keep.flags.writeable = False
    return keep


@dataclass(frozen=True)
class FakingProblem:
    """Can local strategies reproduce ``targets`` among coincidences, with
    every setting pair's coincidence rate at least ``efficiency_floor``?"""

    targets: MatchProbabilityTable
    efficiency_floor: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency_floor <= 1.0:
            raise ValueError(
                f"efficiency_floor {self.efficiency_floor!r} outside [0, 1]"
            )


@dataclass(frozen=True)
class FakingLp:
    """Assembled program plus the data that defines it.

    Variables are the 4096 strategy weights followed by one epigraph
    variable z (the minimum pairwise coincidence rate, which the objective
    maximizes). Constraints: weights sum to 1; for each of the nine setting
    pairs, the conditional match equality written in linearized form
    (match mass equals target times coincidence mass) and the floor and
    epigraph inequalities on the coincidence rate. ``program`` assembles
    the full program on first read, for inspection and archiving;
    :func:`solve_lp` works from the defining data, on the distinct strategy
    columns.
    """

    targets: np.ndarray
    efficiency_floor: float
    stealth_margin: float | None = None

    @cached_property
    def program(self) -> simplex.LinearProgram:
        return _assemble_lp(*_strategy_matrices(), self.targets,
                            self.efficiency_floor, self.stealth_margin)

    def to_dict(self) -> dict:
        """JSON-ready dump: the assembled program plus its defining data."""
        return {
            "targets": self.targets.tolist(),
            "efficiency_floor": self.efficiency_floor,
            "stealth_margin": self.stealth_margin,
            "n_strategies": N_STRATEGIES,
            "program": self.program.to_dict(),
        }


def _assemble_lp(
    detect: np.ndarray,
    detect_match: np.ndarray,
    targets: np.ndarray,
    floor: float,
    stealth_margin: float | None = None,
) -> simplex.LinearProgram:
    """Build the faking LP for arbitrary scenario size (tests use 2 settings).

    Setting pairs (i, j) take rows in row-major order; the last variable is z.
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
    if stealth_margin is not None:
        # Unconditional Bell statistic of the mixture stays below -margin.
        bell = (detect_match[:, 1, 2] - detect_match[:, 0, 2]
                - detect_match[:, 1, 0] - detect_match[:, 0, 0])
        ub_matrix = np.vstack([ub_matrix, np.append(bell, 0.0)])
        ub_rhs = np.append(ub_rhs, -stealth_margin)
    objective = np.zeros(n_strat + 1)
    objective[z] = 1.0
    return simplex.LinearProgram(
        objective=objective,
        eq_matrix=eq_matrix,
        eq_rhs=np.append(1.0, np.zeros(cells)),
        ub_matrix=ub_matrix,
        ub_rhs=ub_rhs,
    )


def build_faking_lp(problem: FakingProblem) -> FakingLp:
    """The 4097-variable faking LP of ``problem``, for the 3-setting scenario."""
    return FakingLp(problem.targets.as_array(), problem.efficiency_floor)


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome: status, strategy weights and achieved coincidence rates."""

    status: str  # "feasible", "infeasible" or "unbounded-error"
    weights: dict[int, float]
    coincidence_rates: tuple[tuple[float, float, float], ...] | None
    min_coincidence_rate: float | None

    @cached_property
    def _sampling_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Strategy indices in increasing order and their cumulative weights,
        for :func:`sample_loophole_model` and its block form."""
        indices = sorted(self.weights)
        return np.array(indices), cumulative_weights([self.weights[i] for i in indices])

    def coincidence_rate(self, i: int, j: int) -> float:
        if self.coincidence_rates is None:
            raise ValueError(f"no rates on a {self.status} solution")
        return self.coincidence_rates[i][j]

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
        """Parse a solution document, as :meth:`to_dict` writes it.

        The status must be one of :data:`SOLUTION_STATUSES`. Strategy
        indices must be distinct integers in [0, 4096) and weights finite
        non-negative numbers; a feasible solution's weights sum to 1 within
        1e-9, any other carries none. ``coincidence_rates`` is null or a
        3x3 table of finite numbers, ``min_coincidence_rate`` null or a
        finite number. Anything else raises ``ValueError``.
        """
        if not isinstance(doc, dict):
            raise ValueError("a solution document must be a JSON object")
        status = doc.get("status")
        if status not in SOLUTION_STATUSES:
            raise ValueError(f"unknown solution status {status!r}")
        raw = doc.get("weights")
        if not isinstance(raw, dict):
            raise ValueError("solution weights must map strategy indices to weights")
        weights: dict[int, float] = {}
        for key, value in raw.items():
            try:
                index = int(key)
            except (TypeError, ValueError):
                raise ValueError(f"bad strategy index {key!r}") from None
            if not 0 <= index < N_STRATEGIES or index in weights:
                raise ValueError(
                    f"strategy index {key!r} outside [0, {N_STRATEGIES}) or repeated"
                )
            weight = _finite_number(value, f"weight of strategy {index}")
            if weight < 0.0:
                raise ValueError(f"weight {value!r} of strategy {index} is negative")
            weights[index] = weight
        if status == "feasible":
            total = math.fsum(weights.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"feasible solution weights sum to {total!r}, not 1")
        elif weights:
            raise ValueError(f"a {status} solution carries no weights")
        rates = doc.get("coincidence_rates")
        if rates is not None:
            if not (isinstance(rates, (list, tuple)) and len(rates) == 3
                    and all(isinstance(r, (list, tuple)) and len(r) == 3 for r in rates)):
                raise ValueError(f"coincidence_rates {rates!r} is not a 3x3 table")
            rates = tuple(tuple(_finite_number(v, "coincidence rate") for v in r) for r in rates)
        min_rate = doc.get("min_coincidence_rate")
        if min_rate is not None:
            min_rate = _finite_number(min_rate, "min_coincidence_rate")
        return cls(
            status=status,
            weights=weights,
            coincidence_rates=rates,
            min_coincidence_rate=min_rate,
        )


def _finite_number(value, name: str) -> float:
    """``value`` as a float when it is a finite JSON number, else ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(number := float(value)):
                return number
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"{name} {value!r} is not a finite number")


def load_solution(path: str | Path) -> LpSolution:
    with open(path, "r", encoding="utf-8") as fh:
        return LpSolution.from_dict(json.load(fh))


def save_solution(solution: LpSolution, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution.to_dict(), fh, indent=2)
        fh.write("\n")


def _scored(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The coincidence rates and unconditional match rates, per setting
    pair, of the strategy weights ``w``."""
    detect, detect_match = _strategy_matrices()
    return np.einsum("s,sij->ij", w, detect), np.einsum("s,sij->ij", w, detect_match)


def _no_solution(status: str) -> LpSolution:
    return LpSolution(status=status, weights={}, coincidence_rates=None, min_coincidence_rate=None)


def _package_solution(result: simplex.SimplexResult) -> LpSolution:
    if result.status != "optimal":
        return _no_solution("infeasible" if result.status == "infeasible" else "unbounded-error")
    w = result.x[:N_STRATEGIES]
    weights = {int(i): float(w[i]) for i in np.flatnonzero(w > 0.0)}
    rates, _ = _scored(w)
    return LpSolution(
        status="feasible",
        weights=weights,
        coincidence_rates=tuple(tuple(float(v) for v in row) for row in rates),
        min_coincidence_rate=float(result.x[N_STRATEGIES]),
    )


def _solve_on(lp: FakingLp, columns: np.ndarray, floor: float) -> simplex.SimplexResult:
    """``simplex.solve`` of ``lp``'s program at ``floor`` on the strategy
    ``columns`` (ascending) and z, with x expanded back to all 4097 variables.
    """
    detect, detect_match = _strategy_matrices()
    result = simplex.solve(
        _assemble_lp(detect[columns], detect_match[columns], lp.targets, floor,
                     lp.stealth_margin)
    )
    if result.x is None:
        return result
    x = np.zeros(N_STRATEGIES + 1)
    x[columns] = result.x[:-1]
    x[N_STRATEGIES] = result.x[-1]
    return replace(result, x=x)


def _floor_one_solve(lp: FakingLp, z: float) -> simplex.SimplexResult | None:
    """The optimum of ``lp``'s program at floor 1, when the floor-0 optimum
    ``z`` lies within the phase-1 threshold below 1 and that program is
    feasible; otherwise None.

    Such a ``z`` may be 1 but for rounding, and only the floor-1 program
    tells. Its optimum meets every floor up to 1, so it answers each floor
    above ``z``. A floor-1 program weights only strategies that detect in
    all nine cells, so it is solved on those alone: the 32 distinct
    strategies whose six detection bits are all set.
    """
    if not 1.0 - simplex.ARTIFICIAL_MASS_TOL < z < 1.0:
        return None
    keep = _distinct_strategies()
    result = _solve_on(lp, keep[(keep & 0x3F) == 0x3F], 1.0)
    return result if result.status == "optimal" else None


def solve_lp(lp: FakingLp) -> LpSolution:
    """Solve ``lp``'s program with the in-package simplex, on the distinct
    strategy columns.

    Every floor is answered from the floor-0 solve. The floor-f program
    maximizes the same minimum coincidence rate z and only adds the rows
    "coincidence rate >= f", so it is feasible exactly when the floor-0
    optimum z* is at least f, and that optimum, optimal at floor f too, is
    what a feasible floor returns. A floor above z* is feasible only when
    z* is within the phase-1 threshold below 1 and the floor-1 program has
    an optimum, which is then returned. So floor f is feasible exactly when
    f is at most :func:`max_faking_efficiency`. That comparison is with the
    computed z*: a floor within rounding of the true optimum may be
    misreported (at the canonical angles the optimum is 2/3, z* is one ulp
    below the double nearest it, and that double reads infeasible).
    """
    result = _solve_on(lp, _distinct_strategies(), 0.0)
    if result.status == "optimal" and lp.efficiency_floor > result.objective:
        result = _floor_one_solve(lp, result.objective)
        if result is None:
            return _no_solution("infeasible")
    return _package_solution(result)


def rescore_solution(solution: LpSolution) -> tuple[np.ndarray, np.ndarray, float]:
    """Recompute (coincidence rates, unconditional match rates, weight sum)
    from the weights alone; used to validate reported solutions."""
    w = np.zeros(N_STRATEGIES)
    for idx, weight in solution.weights.items():
        w[idx] = weight
    return (*_scored(w), float(w.sum()))


def max_faking_efficiency(targets: MatchProbabilityTable) -> float:
    """Largest efficiency floor at which faking stays feasible.

    Floor f is feasible exactly when the largest achievable minimum
    coincidence rate is at least f, so the answer is the epigraph optimum of
    the floor-0 program, from one solve. An optimum of 1 or more is reported
    as exactly 1.0, and so is one within the phase-1 threshold below 1 when
    the floor-1 program has an optimum. :func:`solve_lp` decides every floor
    by this same number. The test suite cross-checks the value against a
    bisection on the feasibility of floor programs. A floor-0 solve that
    ends other than optimal raises ``simplex.SimplexError``.
    """
    lp = FakingLp(targets.as_array(), 0.0)
    result = _solve_on(lp, _distinct_strategies(), 0.0)
    if result.status != "optimal":
        # The program is feasible (zero detection satisfies every target) and
        # bounded (z <= 1), so any other status is a numerical breakdown.
        raise simplex.SimplexError(f"floor-0 faking program reported {result.status}")
    if result.objective >= 1.0 or _floor_one_solve(lp, result.objective) is not None:
        return 1.0
    return result.objective


def demonstration_solution(
    targets: MatchProbabilityTable, stealth_margin: float = DEMO_STEALTH_MARGIN
) -> LpSolution:
    """A faking model whose sampled data fool coincidence conditioning.

    The data reproduce the quantum targets among coincidences. Being local,
    the model scores at most 0 under all-pairs accounting, which fills in
    undetected spins (-0.10 at (60,0,120), where the plain maximum-coincidence
    model scores exactly 0). This variant adds one inequality pushing the
    unconditional Bell statistic that scores an undetected pair as a
    non-match, no locality test, to at most ``-stealth_margin``; it only
    moves the model below the bound. The program has no efficiency floor;
    it maximizes the minimum coincidence rate under the stealth inequality.
    """
    if stealth_margin < 0.0:
        raise ValueError(f"stealth_margin must be nonnegative, got {stealth_margin!r}")
    return solve_lp(FakingLp(targets.as_array(), 0.0, stealth_margin))


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
    indices, cumulative = solution._sampling_arrays
    s = int(indices[bisect_right(cumulative, rng.random())])
    d1 = (s >> (5 - x1)) & 1
    d2 = (s >> (2 - x2)) & 1
    y1 = ((s >> (11 - x1)) & 1) * 2 - 1 if d1 else None
    y2 = ((s >> (8 - x2)) & 1) * 2 - 1 if d2 else None
    return y1, y2, d1, d2


def sample_loophole_model_lanes(
    solution: LpSolution, x1: np.ndarray, x2: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sample_loophole_model` for a block of trials at once.

    ``x1``/``x2`` hold each trial's settings and ``u`` is a ``(1, trials)``
    matrix holding each trial's uniform in [0, 1); the arguments are those
    of every source's sampler, the source's payload first. Returns the spins
    (y1, y2) as integer arrays, with 0 where a particle is not detected, so
    a detection flag is a spin's being nonzero. Spins and flags are read off
    the 12-bit strategy index in its documented bit order.
    """
    if solution.status != "feasible":
        raise ValueError(f"cannot sample from a {solution.status} solution")
    indices, cumulative = solution._sampling_arrays
    s = indices[np.searchsorted(cumulative, u[0], side="right")]
    y1 = (((s >> (11 - x1)) & 1) * 2 - 1) * ((s >> (5 - x1)) & 1)
    y2 = (((s >> (8 - x2)) & 1) * 2 - 1) * ((s >> (2 - x2)) & 1)
    return y1, y2
