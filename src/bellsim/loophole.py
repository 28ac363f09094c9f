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
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import simplex
from .counterfactuals import CounterfactualTable
from .lhv import draw_mixture_index, draw_mixture_indices
from .quantum import MatchProbabilityTable

SETTINGS = (0, 1, 2)
N_STRATEGIES = 4096
SOLUTION_STATUSES = ("feasible", "infeasible", "unbounded-error")

#: Default margin by which the demonstration model keeps the all-pairs
#: (unconditional) Bell statistic below the local bound; see
#: :func:`demonstration_solution`.
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
    detect_match additionally requires the spins to agree there.
    """
    detect = np.zeros((N_STRATEGIES, 3, 3))
    detect_match = np.zeros((N_STRATEGIES, 3, 3))
    for s, strat in enumerate(enumerate_augmented_strategies()):
        for i in SETTINGS:
            for j in SETTINGS:
                d = strat.d1[i] * strat.d2[j]
                detect[s, i, j] = d
                if d and strat.table.y1[i] == strat.table.y2[j]:
                    detect_match[s, i, j] = 1.0
    return detect, detect_match


@dataclass(frozen=True)
class FakingProblem:
    """Can local strategies reproduce ``targets`` among coincidences, with
    every setting pair's coincidence rate at least ``efficiency_floor``?"""

    targets: MatchProbabilityTable
    efficiency_floor: float = 0.0
    constraint_mode: str = "per-pair-equality"

    def __post_init__(self) -> None:
        if not 0.0 <= self.efficiency_floor <= 1.0:
            raise ValueError(
                f"efficiency_floor {self.efficiency_floor!r} outside [0, 1]"
            )
        if self.constraint_mode != "per-pair-equality":
            raise ValueError(f"unknown constraint mode {self.constraint_mode!r}")


@dataclass(frozen=True)
class FakingLp:
    """Assembled program plus the strategy data needed to score solutions.

    Variables are the 4096 strategy weights followed by one epigraph
    variable z (the minimum pairwise coincidence rate, which the objective
    maximizes). Constraints: weights sum to 1; for each of the nine setting
    pairs, the conditional match equality written in linearized form
    (match mass equals target times coincidence mass) and the floor and
    epigraph inequalities on the coincidence rate.
    """

    program: simplex.LinearProgram
    detect: np.ndarray
    detect_match: np.ndarray
    targets: np.ndarray
    efficiency_floor: float
    stealth_margin: float | None = None

    @property
    def n_strategies(self) -> int:
        return self.detect.shape[0]

    def to_dict(self) -> dict:
        """JSON-ready dump: the assembled program plus its defining data."""
        return {
            "targets": self.targets.tolist(),
            "efficiency_floor": self.efficiency_floor,
            "stealth_margin": self.stealth_margin,
            "n_strategies": self.n_strategies,
            "program": self.program.to_dict(),
        }


def _assemble_lp(
    detect: np.ndarray,
    detect_match: np.ndarray,
    targets: np.ndarray,
    floor: float,
    stealth_margin: float | None = None,
) -> simplex.LinearProgram:
    """Build the faking LP for arbitrary scenario size (tests use 2 settings)."""
    n_strat, n_set, _ = detect.shape
    n_vars = n_strat + 1  # strategy weights + epigraph variable z
    z = n_strat

    eq_rows = [np.concatenate([np.ones(n_strat), [0.0]])]
    eq_rhs = [1.0]
    for i in range(n_set):
        for j in range(n_set):
            row = np.zeros(n_vars)
            row[:n_strat] = detect_match[:, i, j] - targets[i, j] * detect[:, i, j]
            eq_rows.append(row)
            eq_rhs.append(0.0)

    ub_rows = []
    ub_rhs = []
    for i in range(n_set):
        for j in range(n_set):
            floor_row = np.zeros(n_vars)
            floor_row[:n_strat] = -detect[:, i, j]
            ub_rows.append(floor_row)  # coincidence rate >= floor
            ub_rhs.append(-floor)
            epi_row = np.zeros(n_vars)
            epi_row[:n_strat] = -detect[:, i, j]
            epi_row[z] = 1.0  # z <= coincidence rate
            ub_rows.append(epi_row)
            ub_rhs.append(0.0)
    if stealth_margin is not None:
        # Unconditional Bell statistic of the mixture stays below -margin.
        row = np.zeros(n_vars)
        row[:n_strat] = (
            detect_match[:, 1, 2]
            - detect_match[:, 0, 2]
            - detect_match[:, 1, 0]
            - detect_match[:, 0, 0]
        )
        ub_rows.append(row)
        ub_rhs.append(-stealth_margin)

    objective = np.zeros(n_vars)
    objective[z] = 1.0
    return simplex.LinearProgram(
        objective=objective,
        eq_matrix=np.array(eq_rows),
        eq_rhs=np.array(eq_rhs),
        ub_matrix=np.array(ub_rows),
        ub_rhs=np.array(ub_rhs),
    )


def build_faking_lp(problem: FakingProblem) -> FakingLp:
    """Assemble the 4097-variable program for the 3-setting scenario."""
    detect, detect_match = _strategy_matrices()
    targets = problem.targets.as_array()
    program = _assemble_lp(detect, detect_match, targets, problem.efficiency_floor)
    return FakingLp(
        program=program,
        detect=detect,
        detect_match=detect_match,
        targets=targets,
        efficiency_floor=problem.efficiency_floor,
    )


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome: status, strategy weights and achieved coincidence rates."""

    status: str  # "feasible", "infeasible" or "unbounded-error"
    weights: dict[int, float]
    coincidence_rates: tuple[tuple[float, float, float], ...] | None
    min_coincidence_rate: float | None

    @cached_property
    def _sampling_arrays(self) -> tuple[tuple[int, ...], tuple[float, ...]]:
        indices = tuple(sorted(self.weights))
        return indices, tuple(self.weights[i] for i in indices)

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
        and non-negative; a feasible solution's weights sum to 1 within
        1e-9, any other carries none. Anything else raises ``ValueError``.
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
                weight = float(value)
            except (TypeError, ValueError):
                raise ValueError(f"bad solution entry {key!r}: {value!r}") from None
            if not 0 <= index < N_STRATEGIES or index in weights:
                raise ValueError(
                    f"strategy index {key!r} outside [0, {N_STRATEGIES}) or repeated"
                )
            if not (math.isfinite(weight) and weight >= 0.0):
                raise ValueError(f"weight {value!r} of strategy {index} is not a finite w >= 0")
            weights[index] = weight
        if status == "feasible":
            total = math.fsum(weights.values())
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"feasible solution weights sum to {total!r}, not 1")
        elif weights:
            raise ValueError(f"a {status} solution carries no weights")
        rates = doc.get("coincidence_rates")
        return cls(
            status=status,
            weights=weights,
            coincidence_rates=tuple(tuple(float(v) for v in r) for r in rates)
            if rates is not None
            else None,
            min_coincidence_rate=doc.get("min_coincidence_rate"),
        )


def load_solution(path: str | Path) -> LpSolution:
    with open(path, "r", encoding="utf-8") as fh:
        return LpSolution.from_dict(json.load(fh))


def save_solution(solution: LpSolution, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(solution.to_dict(), fh, indent=2)
        fh.write("\n")


def _package_solution(lp: FakingLp, result: simplex.SimplexResult) -> LpSolution:
    if result.status == "infeasible":
        return LpSolution(
            status="infeasible", weights={}, coincidence_rates=None,
            min_coincidence_rate=None,
        )
    if result.status != "optimal":
        return LpSolution(
            status="unbounded-error", weights={}, coincidence_rates=None,
            min_coincidence_rate=None,
        )
    n = lp.n_strategies
    w = result.x[:n]
    weights = {int(i): float(w[i]) for i in np.flatnonzero(w > 0.0)}
    rates = np.einsum("s,sij->ij", w, lp.detect)
    return LpSolution(
        status="feasible",
        weights=weights,
        coincidence_rates=tuple(tuple(float(v) for v in row) for row in rates),
        min_coincidence_rate=float(result.x[n]),
    )


def solve_lp(lp: FakingLp) -> LpSolution:
    """Solve the assembled program with the in-package simplex."""
    return _package_solution(lp, simplex.solve(lp.program))


def rescore_solution(solution: LpSolution) -> tuple[np.ndarray, np.ndarray, float]:
    """Recompute (coincidence rates, unconditional match rates, weight sum)
    from the weights alone; used to validate reported solutions."""
    detect, detect_match = _strategy_matrices()
    w = np.zeros(N_STRATEGIES)
    for idx, weight in solution.weights.items():
        w[idx] = weight
    rates = np.einsum("s,sij->ij", w, detect)
    match_rates = np.einsum("s,sij->ij", w, detect_match)
    return rates, match_rates, float(w.sum())


def max_faking_efficiency(targets: MatchProbabilityTable, tolerance: float = 1e-4) -> float:
    """Largest efficiency floor at which faking stays feasible, by bisection.

    Feasibility of each probe is decided by the solver's phase 1 alone. The
    returned value matches the direct epigraph optimum of the floor-0
    program; the two routes are cross-checked in the test suite.
    """
    if not 0.0 < tolerance < 1.0:
        raise ValueError(f"tolerance {tolerance!r} outside (0, 1)")

    def is_feasible(floor: float) -> bool:
        lp = build_faking_lp(FakingProblem(targets=targets, efficiency_floor=floor))
        return simplex.feasible(lp.program)

    lo, hi = 0.0, 1.0
    if is_feasible(1.0):
        return 1.0
    if not is_feasible(0.0):  # cannot happen: zero detection satisfies everything
        raise AssertionError("floor-0 faking program reported infeasible")
    while hi - lo > tolerance:
        mid = (lo + hi) / 2.0
        if is_feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def demonstration_solution(
    targets: MatchProbabilityTable,
    stealth_margin: float = DEMO_STEALTH_MARGIN,
    efficiency_floor: float = 0.0,
) -> LpSolution:
    """A faking model built to defeat both analyses of a simulated experiment.

    Maximizing the minimum coincidence rate alone yields a model whose
    unconditional (all-pairs) match rates violate the local bound, so simple
    bookkeeping of undetected trials would expose it. This variant adds one
    inequality pushing the unconditional Bell statistic to at most
    ``-stealth_margin``: the sampled data then reproduce the quantum targets
    among coincidences while the all-pairs accounting stays safely local.
    """
    if stealth_margin < 0.0:
        raise ValueError(f"stealth_margin must be nonnegative, got {stealth_margin!r}")
    detect, detect_match = _strategy_matrices()
    targets_arr = targets.as_array()
    program = _assemble_lp(
        detect, detect_match, targets_arr, efficiency_floor, stealth_margin=stealth_margin
    )
    lp = FakingLp(
        program=program,
        detect=detect,
        detect_match=detect_match,
        targets=targets_arr,
        efficiency_floor=efficiency_floor,
        stealth_margin=stealth_margin,
    )
    return solve_lp(lp)


def sample_loophole_model(
    solution: LpSolution, pair: tuple[int, int], rng
) -> tuple[int | None, int | None, int, int]:
    """Draw one trial (y1, y2, d1, d2) from a feasible faking model.

    A strategy is drawn by cumulative-weight inversion; each particle's spin
    is reported only when its detection flag for the requested setting is up.
    """
    if solution.status != "feasible":
        raise ValueError(f"cannot sample from a {solution.status} solution")
    x1, x2 = pair
    indices, weights = solution._sampling_arrays
    strategies = enumerate_augmented_strategies()
    strat = strategies[indices[draw_mixture_index(weights, rng.random())]]
    d1 = strat.d1[x1]
    d2 = strat.d2[x2]
    y1 = strat.table.y1[x1] if d1 else None
    y2 = strat.table.y2[x2] if d2 else None
    return y1, y2, d1, d2


def sample_loophole_model_lanes(
    solution: LpSolution, x1: np.ndarray, x2: np.ndarray, lanes
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sample_loophole_model` for a block of trials at once.

    ``x1``/``x2`` hold each trial's settings and ``lanes`` is a
    :class:`~bellsim.rng.SplitMix64Lanes` over the same trials. Returns
    (y1, y2, d1, d2) as integer arrays, with spin 0 where a particle is not
    detected. Spins and flags are read off the 12-bit strategy index in its
    documented bit order.
    """
    if solution.status != "feasible":
        raise ValueError(f"cannot sample from a {solution.status} solution")
    indices, weights = solution._sampling_arrays
    s = np.array(indices)[draw_mixture_indices(weights, lanes.random())]
    d1 = (s >> (5 - x1)) & 1
    d2 = (s >> (2 - x2)) & 1
    y1 = (((s >> (11 - x1)) & 1) * 2 - 1) * d1
    y2 = (((s >> (8 - x2)) & 1) * 2 - 1) * d2
    return y1, y2, d1, d2
