"""Local hidden-variable models as data generators, and their Bell bounds.

Two model families: deterministic (a weighted mixture of counterfactual
tables drawn at the source) and stochastic (each particle's spin is an
independent Bernoulli draw whose success probability depends only on its own
setting). The grid search here checks that stochastic locality buys nothing:
the Bell statistic is multilinear in the six probabilities, so its maximum
over the probability box sits at a vertex, where the model degenerates to a
deterministic table already bounded by the enumeration result.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

from .counterfactuals import CounterfactualTable, Population
from .quantum import SETTINGS, MatchProbabilityTable


@dataclass(frozen=True)
class DeterministicLhv:
    """Hidden-variable model: the source emits a counterfactual table by weight."""

    mixture: Population

    def __post_init__(self) -> None:
        if not all(isinstance(u, CounterfactualTable) for u in self.mixture.units):
            raise ValueError("DeterministicLhv mixture must contain CounterfactualTables")

    @classmethod
    def single(cls, table: CounterfactualTable) -> "DeterministicLhv":
        return cls(Population(units=(table,)))

    @cached_property
    def _sampling_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cumulative weights and every unit's ``y1`` and ``y2`` spins, for
        :func:`sample_from_lhv` and :func:`sample_from_lhv_lanes`."""
        units = self.mixture.units
        return (
            cumulative_weights(self.mixture.weights),
            np.array([u.y1 for u in units], dtype=np.int8),
            np.array([u.y2 for u in units], dtype=np.int8),
        )


@dataclass(frozen=True)
class StochasticLocalModel:
    """Per-setting spin-up probabilities for each particle, independent draws."""

    p1: tuple[float, float, float]
    p2: tuple[float, float, float]

    def __post_init__(self) -> None:
        for name in ("p1", "p2"):
            probs = tuple(float(v) for v in getattr(self, name))
            if len(probs) != 3 or any(not 0.0 <= v <= 1.0 for v in probs):
                raise ValueError(f"{name} must be three probabilities in [0, 1]")
            object.__setattr__(self, name, probs)

    @cached_property
    def _sampling_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """``p1`` and ``p2`` as arrays, for :func:`sample_from_lhv_lanes`."""
        return np.array(self.p1), np.array(self.p2)


LocalModel = Union[DeterministicLhv, StochasticLocalModel]


def lhv_match_table(model: DeterministicLhv) -> MatchProbabilityTable:
    """Expected match probabilities of the mixture, for all nine setting pairs."""
    rows = []
    for i in SETTINGS:
        row = []
        for j in SETTINGS:
            mass = sum(
                w
                for w, u in zip(model.mixture.weights, model.mixture.units)
                if u.y1[i] == u.y2[j]
            )
            # Weight sums are only within 1e-12 of 1; clamp the round-off.
            row.append(min(1.0, max(0.0, mass)))
        rows.append(tuple(row))
    return MatchProbabilityTable(tuple(rows))


def stochastic_expected_match(model: StochasticLocalModel, x1: int, x2: int) -> float:
    """Probability two independent Bernoulli spins agree at settings (x1, x2)."""
    a = model.p1[x1]
    b = model.p2[x2]
    return a * b + (1.0 - a) * (1.0 - b)


#: Largest grid :func:`stochastic_bell_search` takes: its n**4 int64 arrays peak near 103 MiB.
MAX_GRID_STEPS = 51


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of the exhaustive grid search over stochastic models."""

    value: float
    argmax: tuple[float, float, float, float, float, float]
    argmax_is_vertex: bool
    evaluations: int


def stochastic_bell_search(grid_steps: int) -> GridSearchResult:
    """Maximize the Bell statistic over stochastic models on a probability grid.

    The grid is {0, 1/m, ..., 1}, m = g - 1, in each of the six
    probabilities (p1[0..2], p2[0..2]); ties resolve to the lexicographically
    lowest grid point. The statistic is computed in integers: at a = i/m and
    b = j/m, m² times the agreement probability ab + (1-a)(1-b) is
    ij + (m-i)(m-j). It is multilinear, so no interior point beats the best
    vertex, and vertices are deterministic tables with maximum 0: every grid
    reports exactly 0, at the vertex (0, 0, 0, 1, 0, 0). A grid outside 2
    to :data:`MAX_GRID_STEPS` raises ``ValueError`` before any allocation.
    """
    if not 2 <= grid_steps <= MAX_GRID_STEPS:
        raise ValueError(f"grid_steps must be 2 to {MAX_GRID_STEPS}, got {grid_steps!r}")
    m = grid_steps - 1
    k = np.arange(grid_steps, dtype=np.int64)

    # m² times the agreement probability of each pair in the statistic; only
    # p1[0], p1[1], p2[0], p2[2] enter, so p1[2] and p2[1] are flat axes, and
    # the first maximum in C order of the 6-D grid has both at index 0.
    a0 = k[:, None, None, None]
    a1 = k[None, :, None, None]
    b0 = k[None, None, :, None]
    b2 = k[None, None, None, :]

    def agree(a, b):
        return a * b + (m - a) * (m - b)

    stat4 = agree(a1, b2) - agree(a0, b2) - agree(a1, b0) - agree(a0, b0)
    i0, i1, j0, j2 = np.unravel_index(int(np.argmax(stat4)), stat4.shape)
    argmax = tuple(int(i) / m for i in (i0, i1, 0, j0, 0, j2))
    return GridSearchResult(
        value=int(stat4[i0, i1, j0, j2]) / m**2,
        argmax=argmax,
        argmax_is_vertex=all(v in (0.0, 1.0) for v in argmax),
        evaluations=grid_steps**6,
    )


def stochastic_bell_supremum(grid_steps: int) -> float:
    """Maximum Bell statistic over the stochastic-model grid; 0 for every grid
    that includes the box endpoints."""
    return stochastic_bell_search(grid_steps).value


def cumulative_weights(weights: tuple[float, ...]) -> np.ndarray:
    """Running sums of ``weights``, added left to right, that a mixture's
    samplers invert: the component drawn by uniform ``u`` is the number of
    sums at most ``u``."""
    out = np.cumsum(weights, dtype=float)
    out[-1] = max(out[-1], 1.0)  # guard the inversion against rounding shortfall
    return out


def sample_from_lhv(model: LocalModel, pair: tuple[int, int], rng) -> tuple[int, int]:
    """Draw one outcome pair (y1, y2) from a local model at the given settings.

    Deterministic mixtures draw a table by cumulative-weight inversion on a
    single uniform, then read the spins off; stochastic models draw the two
    spins as independent Bernoullis. ``rng`` needs a ``random()`` method.
    """
    x1, x2 = pair
    if isinstance(model, DeterministicLhv):
        k = bisect_right(model._sampling_arrays[0], rng.random())
        unit = model.mixture.units[k]
        return unit.y1[x1], unit.y2[x2]
    if isinstance(model, StochasticLocalModel):
        y1 = 1 if rng.random() < model.p1[x1] else -1
        y2 = 1 if rng.random() < model.p2[x2] else -1
        return y1, y2
    raise TypeError(f"not a local model: {model!r}")


def sample_from_lhv_lanes(
    model: LocalModel, x1: np.ndarray, x2: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sample_from_lhv` for a block of trials at once.

    ``x1``/``x2`` hold each trial's settings and ``u`` is a matrix whose
    column holds the trial's uniforms in [0, 1), in the order ``random()``
    would return them: one row for a deterministic mixture, two for a
    stochastic model. The arguments are those of every source's sampler, the
    source's payload first. Returns int8 spin arrays equal, trial by trial,
    to the scalar draws.
    """
    if isinstance(model, DeterministicLhv):
        cumulative, y1, y2 = model._sampling_arrays
        k = np.searchsorted(cumulative, u[0], side="right")
        return y1[k, x1], y2[k, x2]
    if isinstance(model, StochasticLocalModel):
        p1, p2 = model._sampling_arrays
        y1 = np.where(u[0] < p1[x1], np.int8(1), np.int8(-1))
        y2 = np.where(u[1] < p2[x2], np.int8(1), np.int8(-1))
        return y1, y2
    raise TypeError(f"not a local model: {model!r}")


def model_to_dict(model: LocalModel) -> dict:
    """JSON-ready representation; spins encode as +1/-1 integers."""
    if isinstance(model, DeterministicLhv):
        return {
            "tables": [
                {"y1": list(u.y1), "y2": list(u.y2)} for u in model.mixture.units
            ],
            "weights": list(model.mixture.weights),
        }
    if isinstance(model, StochasticLocalModel):
        return {"p1": list(model.p1), "p2": list(model.p2)}
    raise TypeError(f"not a local model: {model!r}")


def _numbers(value, name: str) -> tuple:
    """``value`` as a tuple when it is a JSON list of finite numbers, else
    ``ValueError`` naming the entry ``name``."""
    if isinstance(value, list):
        try:
            if all(not isinstance(v, bool) and math.isfinite(v) for v in value):
                return tuple(value)
        except (TypeError, OverflowError):  # not a number, or an int beyond the float range
            pass
    raise ValueError(f"{name} must be a list of finite numbers, got {value!r}")


def model_from_dict(doc: dict) -> LocalModel:
    """Parse a model document: a JSON object holding either ``p1`` and
    ``p2``, three probabilities each, or ``tables``, a list of objects with
    three spins ``y1`` and three spins ``y2``, and optionally ``weights``, a
    list of numbers, one per table. Anything else raises ``ValueError``
    naming the bad entry."""
    if not isinstance(doc, dict):
        raise ValueError(f"a model document must be a JSON object, got {type(doc).__name__}")
    if "tables" in doc:
        if not isinstance(doc["tables"], list):
            raise ValueError(f"model tables must be a list, got {doc['tables']!r}")
        units = []
        for k, table in enumerate(doc["tables"]):
            if not isinstance(table, dict) or not {"y1", "y2"} <= table.keys():
                raise ValueError(f"model tables[{k}] must be an object with 'y1' and 'y2' entries")
            try:
                y1, y2 = (_numbers(table[name], name) for name in ("y1", "y2"))
                units.append(CounterfactualTable(y1, y2))
            except ValueError as exc:
                raise ValueError(f"model tables[{k}]: {exc}") from None
        weights = ()
        if doc.get("weights") is not None:
            weights = _numbers(doc["weights"], "model weights")
            if len(weights) != len(units):
                raise ValueError(
                    f"model weights must hold one weight per table, got {len(weights)} "
                    f"for {len(units)} tables"
                )
        return DeterministicLhv(Population(units=tuple(units), weights=weights))
    if "p1" in doc and "p2" in doc:
        return StochasticLocalModel(_numbers(doc["p1"], "model p1"), _numbers(doc["p2"], "model p2"))
    raise ValueError("model document needs either 'tables' or 'p1'/'p2' entries")


def load_model(path: str | Path) -> LocalModel:
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))


def save_model(model: LocalModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
