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
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Union

import numpy as np

from .counterfactuals import CounterfactualTable, Population
from .quantum import SETTINGS, MatchProbabilityTable, _row_code, two_draw_codes
from .rng import constant, thresholds


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
        """The :func:`mixture_arrays` of the tables."""
        units = self.mixture.units
        return mixture_arrays(self.mixture.weights, [u.y1 for u in units], [u.y2 for u in units])


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
    def _sampling_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For :func:`sample_two_draw_lanes`: the thresholds of ``p1[x1]``
        and ``p2[x2]`` at each pair ``3 * x1 + x2``, and the codes."""
        return np.repeat(thresholds(self.p1), 3), np.tile(thresholds(self.p2), 3), _SPIN_CODES


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


def mixture_arrays(weights, y1, y2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A mixture's ``_sampling_arrays``, from its units' weights and spins
    ``y1[k, x1]`` and ``y2[k, x2]`` (0 where unit ``k`` does not detect):
    the running sums of the weights, added left to right, that the scalar
    samplers invert (the unit a uniform draws is the number of sums at most
    it); their :func:`~bellsim.rng.thresholds`, which
    :func:`sample_mixture_lanes` inverts alike; and the units x 9 uint8
    table of each unit's row code at each setting pair ``3 * x1 + x2``."""
    cumulative = np.cumsum(weights, dtype=float)
    cumulative[-1] = max(cumulative[-1], 1.0)  # guard the inversion against rounding shortfall
    x1, x2 = np.divmod(np.arange(9), 3)
    codes = _row_code(x1, x2, np.asarray(y1)[:, x1], np.asarray(y2)[:, x2]).astype(np.uint8)
    return cumulative, thresholds(cumulative), codes


def sample_mixture_lanes(mixture, pair: np.ndarray, m: np.ndarray) -> np.ndarray:
    """A block of trials, one a column, from a :class:`DeterministicLhv` or
    a feasible :class:`~bellsim.loophole.LpSolution` (its ``_sampling_arrays``
    are its :func:`mixture_arrays`). Row 0 of ``m``, the top 53 bits of each
    trial's draw, picks its unit as the number of thresholds at most it, as
    the scalar samplers invert the cumulative weights. Returns the uint8 row
    codes of those units at each trial's setting pair ``pair``.
    """
    _, limits, codes = mixture._sampling_arrays
    k = limits.searchsorted(m[0], "right")  # the method skips np.searchsorted's dispatch
    k *= _NINE
    k += pair
    return codes.take(k)  # codes[unit, pair], flat; faster than a 2-D index


# k = 2 * (y1 is +1) + (y2 is +1).
_SPIN_CODES = two_draw_codes(((-1, -1), (-1, 1), (1, -1), (1, 1)))
_ONE, _FOUR, _NINE = constant(1, np.uint8), constant(4, np.intp), constant(9, np.intp)


def sample_two_draw_lanes(payload, pair: np.ndarray, m: np.ndarray) -> np.ndarray:
    """A block of trials, one a column, from an
    :class:`~bellsim.quantum.AngleTriple` or a :class:`StochasticLocalModel`,
    whose ``_sampling_arrays`` are the :func:`~bellsim.rng.thresholds` of
    its two comparisons at each setting pair, ``first`` and ``second``, and
    a :func:`~bellsim.quantum.two_draw_codes` table. Rows 0 and 1 of ``m``
    are the top 53 bits of each trial's two draws, and its code at ``pair``
    is ``codes[4 * pair + 2 * (m[0] < first[pair]) + (m[1] < second[pair])]``,
    the scalar sampler's comparisons. Writes over ``pair`` and ``m``.
    """
    first, second, codes = payload._sampling_arrays
    bits = np.less(m[0], first.take(pair)).view(np.uint8)
    bits <<= _ONE
    bits |= m[1] < second.take(pair, None, m[0], "clip")
    k = np.multiply(pair, _FOUR, pair)
    k += bits
    return codes.take(k)


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


#: An integer in canonical ASCII decimal: no sign but a leading ``-``, no leading
#: zero, no ``-0``; ``int`` reads ``+7``, ``7_0``, `` 7 `` and other digits too.
CANONICAL_INT = re.compile(r"-?[1-9][0-9]*|0")


def finite_number(value, name: str) -> float:
    """``value`` as a float when it is a finite JSON number, else ValueError."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(number := float(value)):
                return number
        except OverflowError:  # an int beyond the float range
            pass
    raise ValueError(f"{name} {value!r} is not a finite number")


def _numbers(value, name: str) -> tuple:
    """``value`` as a tuple when it is a JSON list of finite numbers, else
    ``ValueError`` naming the entry ``name``."""
    if isinstance(value, list):
        try:
            for v in value:
                finite_number(v, name)
            return tuple(value)
        except ValueError:
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


def unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, for ``json.load``'s ``object_pairs_hook``:
    ``ValueError`` when a key is given twice, where ``json`` keeps the last."""
    doc: dict = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} given twice in a JSON object")
        doc[key] = value
    return doc


def load_model(path: str | Path) -> LocalModel:
    """The model in the JSON file ``path``; ``ValueError`` on a key given
    twice in any of its objects, or on a document :func:`model_from_dict`
    refuses."""
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh, object_pairs_hook=unique_keys))


def save_model(model: LocalModel, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2)
        fh.write("\n")
