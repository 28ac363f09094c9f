"""Seeded Monte Carlo harness: randomized settings, trial datasets, inference.

Each trial draws a setting pair from the configured distribution, asks the
configured source (quantum predictions, a local hidden-variable model, or a
detection-loophole faking model) for outcomes, and records the detection
flags. Estimation turns a dataset into the Bell statistic with a
delta-method confidence interval, and the decision rule rejects local
hidden variables when the one-sided lower confidence bound clears 0.

Every trial's randomness is keyed by (seed, trial index) through the
counter-based generator, so datasets are reproducible and independent of
how generation is partitioned. Generation runs a block of consecutive
trials at a time as numpy ``uint64`` lanes, and a dataset is held as
columns (:class:`TrialDataset`), not as one object per trial.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from statistics import NormalDist
from typing import Callable, Iterable

import numpy as np

from . import loophole as loophole_mod
from .counterfactuals import BELL_PAIRS
from .lhv import (
    DeterministicLhv,
    LocalModel,
    StochasticLocalModel,
    model_from_dict,
    model_to_dict,
    sample_from_lhv,
    sample_from_lhv_lanes,
)
from .quantum import AngleTriple, match_table, sample_outcome_pair, sample_outcome_pair_lanes
from .rng import SplitMix64, SplitMix64Lanes, derive_seed

SOURCE_QUANTUM = "quantum"
SOURCE_DETERMINISTIC_LHV = "deterministic-lhv"
SOURCE_STOCHASTIC_LHV = "stochastic-lhv"
SOURCE_LOOPHOLE = "loophole"
SOURCES = (
    SOURCE_QUANTUM,
    SOURCE_DETERMINISTIC_LHV,
    SOURCE_STOCHASTIC_LHV,
    SOURCE_LOOPHOLE,
)

UNIFORM_9 = "uniform-9"
UNIFORM_4 = "uniform-4"

CONDITION_COINCIDENCES = "coincidences-only"
CONDITION_ALL_PAIRS = "all-pairs"

CSV_HEADER = ("index", "x1", "x2", "y1", "y2", "d1", "d2")

#: Trials generated, written or read per block; bounds the temporaries.
BLOCK_TRIALS = 1 << 16


class ConfigError(ValueError):
    """Experiment configuration does not match its source tag."""


class EstimationError(ValueError):
    """Dataset cannot support the requested estimate."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulated experiment."""

    n_trials: int
    seed: int
    source: str
    angles: AngleTriple | None = None
    model: LocalModel | None = None
    solution: loophole_mod.LpSolution | None = None
    setting_distribution: str = UNIFORM_9

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be at least 1, got {self.n_trials!r}")
        if self.setting_distribution not in (UNIFORM_9, UNIFORM_4):
            raise ConfigError(
                f"unknown setting distribution {self.setting_distribution!r}"
            )
        if self.source == SOURCE_QUANTUM:
            if self.angles is None:
                raise ConfigError("quantum source needs angles")
        elif self.source == SOURCE_DETERMINISTIC_LHV:
            if not isinstance(self.model, DeterministicLhv):
                raise ConfigError("deterministic-lhv source needs a DeterministicLhv model")
        elif self.source == SOURCE_STOCHASTIC_LHV:
            if not isinstance(self.model, StochasticLocalModel):
                raise ConfigError("stochastic-lhv source needs a StochasticLocalModel")
        elif self.source == SOURCE_LOOPHOLE:
            if self.solution is None or self.solution.status != "feasible":
                raise ConfigError("loophole source needs a feasible LpSolution")
        else:
            raise ConfigError(f"unknown source {self.source!r}")


@dataclass(frozen=True)
class TrialRecord:
    """One measurement event: settings, outcomes where detected, detection flags."""

    index: int
    x1: int
    x2: int
    y1: int | None
    y2: int | None
    d1: int
    d2: int

    def __post_init__(self) -> None:
        for setting, name in ((self.x1, "x1"), (self.x2, "x2")):
            if setting not in (0, 1, 2):
                raise ValueError(f"{name} must be 0, 1 or 2, got {setting!r}")
        for flag, outcome, name in ((self.d1, self.y1, "1"), (self.d2, self.y2, "2")):
            if flag not in (0, 1):
                raise ValueError(f"d{name} must be 0 or 1, got {flag!r}")
            if (outcome is None) == bool(flag):
                raise ValueError(
                    f"y{name}={outcome!r} inconsistent with d{name}={flag!r}"
                )
            if outcome is not None and outcome not in (-1, 1):
                raise ValueError(f"y{name} must be -1 or +1, got {outcome!r}")


class TrialDataset:
    """A dataset as columns: ``index`` (int64) and ``x1, x2, y1, y2, d1, d2``
    (int8), with spin 0 where a particle was not detected.

    Iterating yields one :class:`TrialRecord` per trial, and a dataset
    compares equal to a list of equal records. The columns are trusted to
    hold valid records: :func:`run_experiment`, :func:`read_dataset_csv` and
    :meth:`from_records` only build valid ones.
    """

    __slots__ = CSV_HEADER
    __hash__ = None

    def __init__(self, index, x1, x2, y1, y2, d1, d2) -> None:
        self.index = np.asarray(index, dtype=np.int64)
        for name, column in zip(CSV_HEADER[1:], (x1, x2, y1, y2, d1, d2)):
            setattr(self, name, np.asarray(column, dtype=np.int8))

    @classmethod
    def from_records(cls, records: Iterable[TrialRecord]) -> "TrialDataset":
        rows = [(r.index, r.x1, r.x2, r.y1 or 0, r.y2 or 0, r.d1, r.d2) for r in records]
        return cls(*np.array(rows, dtype=np.int64).reshape(-1, 7).T)

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in CSV_HEADER)

    def __len__(self) -> int:
        return len(self.index)

    def rows(self):
        """Each trial as a tuple of the CSV fields, with None for a spin not detected."""
        for i, x1, x2, y1, y2, d1, d2 in zip(*(c.tolist() for c in self.columns())):
            yield i, x1, x2, y1 or None, y2 or None, d1, d2

    def __iter__(self):
        return (TrialRecord(*row) for row in self.rows())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, tuple)):
            if not all(isinstance(r, TrialRecord) for r in other):
                return False
            other = TrialDataset.from_records(other)
        if not isinstance(other, TrialDataset):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.columns(), other.columns()))

    def __repr__(self) -> str:
        return f"TrialDataset(<{len(self)} trials>)"


def _as_dataset(dataset: Iterable[TrialRecord]) -> TrialDataset:
    if isinstance(dataset, TrialDataset):
        return dataset
    return TrialDataset.from_records(dataset)


Sampler = Callable[[int, int, SplitMix64], tuple[int | None, int | None, int, int]]
LanesSampler = Callable[[np.ndarray, np.ndarray, SplitMix64Lanes], tuple]


def _make_samplers(config: ExperimentConfig) -> tuple[Sampler, LanesSampler]:
    """The source's per-trial sampler and its block form, which draws the
    same values for every trial."""
    if config.source == SOURCE_QUANTUM:
        table = match_table(config.angles)

        def one(x1, x2, rng):
            return (*sample_outcome_pair((x1, x2), table, rng), 1, 1)

        def block(x1, x2, lanes):
            return (*sample_outcome_pair_lanes(x1, x2, table, lanes), 1, 1)

    elif config.source in (SOURCE_DETERMINISTIC_LHV, SOURCE_STOCHASTIC_LHV):
        model = config.model

        def one(x1, x2, rng):
            return (*sample_from_lhv(model, (x1, x2), rng), 1, 1)

        def block(x1, x2, lanes):
            return (*sample_from_lhv_lanes(model, x1, x2, lanes), 1, 1)

    else:
        solution = config.solution

        def one(x1, x2, rng):
            return loophole_mod.sample_loophole_model(solution, (x1, x2), rng)

        def block(x1, x2, lanes):
            return loophole_mod.sample_loophole_model_lanes(solution, x1, x2, lanes)

    return one, block


def _draw_settings(distribution: str, rng: SplitMix64) -> tuple[int, int]:
    if distribution == UNIFORM_9:
        return rng.randbelow(3), rng.randbelow(3)
    return BELL_PAIRS[rng.randbelow(4)]


def _draw_settings_lanes(distribution: str, lanes: SplitMix64Lanes):
    """Settings of every lane, plus a mask of the lanes whose draws
    ``randbelow`` would have rejected (None when none can be)."""
    if distribution == UNIFORM_9:
        u1 = lanes.next_uint64()
        u2 = lanes.next_uint64()
        # randbelow(3) rejects the draw 2**64 - 1 and only that one.
        rejected = (u1 == np.uint64(2**64 - 1)) | (u2 == np.uint64(2**64 - 1))
        return (u1 % np.uint64(3)).astype(np.intp), (u2 % np.uint64(3)).astype(np.intp), rejected
    # randbelow(4) never rejects: 4 divides 2**64.
    pairs = np.array(BELL_PAIRS)[(lanes.next_uint64() & np.uint64(3)).astype(np.intp)]
    return pairs[:, 0], pairs[:, 1], None


def _scalar_trial(config: ExperimentConfig, sampler: Sampler, i: int) -> tuple[int, ...]:
    """Trial ``i`` drawn one value at a time: (x1, x2, y1, y2, d1, d2), spin 0
    where undetected."""
    rng = SplitMix64(derive_seed(config.seed, i))
    x1, x2 = _draw_settings(config.setting_distribution, rng)
    y1, y2, d1, d2 = sampler(x1, x2, rng)
    return x1, x2, y1 or 0, y2 or 0, d1, d2


def run_experiment(config: ExperimentConfig, workers: int = 1) -> TrialDataset:
    """Generate the dataset for ``config``; identical config and seed give an
    identical dataset, regardless of ``workers``.

    ``workers`` splits the index range into that many consecutive parts,
    generated one after another in blocks of :data:`BLOCK_TRIALS` trials.
    Trial randomness is keyed by (seed, trial index), so no partition can
    change what any trial draws.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers!r}")
    n = config.n_trials
    data = TrialDataset(np.arange(n), *(np.empty(n, dtype=np.int8) for _ in range(6)))
    columns = data.columns()[1:]
    sample_one, sample_block = _make_samplers(config)
    parts = min(workers, n)
    bounds = [round(k * n / parts) for k in range(parts + 1)]
    for low, high in zip(bounds[:-1], bounds[1:]):
        for start in range(low, high, BLOCK_TRIALS):
            stop = min(start + BLOCK_TRIALS, high)
            lanes = SplitMix64Lanes(config.seed, start, stop)
            x1, x2, rejected = _draw_settings_lanes(config.setting_distribution, lanes)
            for column, value in zip(columns, (x1, x2, *sample_block(x1, x2, lanes))):
                column[start:stop] = value
            if rejected is not None:
                for i in (start + np.flatnonzero(rejected)).tolist():
                    for column, value in zip(columns, _scalar_trial(config, sample_one, i)):
                        column[i] = value
    return data


@dataclass(frozen=True)
class BellEstimate:
    """Estimated Bell statistic with per-cell counts and a normal interval.

    ``trials``/``coincidences``/``matches`` are 3x3 grids indexed by the
    setting pair; the statistic recomputes from them exactly. The drop count
    per cell (trials minus coincidences) makes the coincidence rate
    reportable alongside either conditioning.
    """

    trials: tuple[tuple[int, int, int], ...]
    coincidences: tuple[tuple[int, int, int], ...]
    matches: tuple[tuple[int, int, int], ...]
    statistic: float
    std_error: float
    ci_low: float
    ci_high: float
    confidence: float
    conditioning: str

    def cell_match_rate(self, i: int, j: int) -> float:
        denom = (
            self.coincidences[i][j]
            if self.conditioning == CONDITION_COINCIDENCES
            else self.trials[i][j]
        )
        return self.matches[i][j] / denom if denom else math.nan

    def to_dict(self) -> dict:
        return {
            "trials": [list(r) for r in self.trials],
            "coincidences": [list(r) for r in self.coincidences],
            "matches": [list(r) for r in self.matches],
            "statistic": self.statistic,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "confidence": self.confidence,
            "conditioning": self.conditioning,
        }


@dataclass(frozen=True)
class Decision:
    """Outcome of the one-sided test of the Bell statistic against 0."""

    reject_lhv: bool
    margin: float
    alpha: float

    def to_dict(self) -> dict:
        return {"reject_lhv": self.reject_lhv, "margin": self.margin, "alpha": self.alpha}


def estimate(
    dataset: Iterable[TrialRecord],
    conditioning: str = CONDITION_COINCIDENCES,
    confidence: float = 0.99,
) -> BellEstimate:
    """Estimate the Bell statistic from a dataset.

    Per cell, the match rate is matches over coincidences
    ("coincidences-only") or matches over all trials of that cell
    ("all-pairs", scoring an undetected pair as a non-match). The standard
    error treats the four cells as independent binomials and the interval is
    the two-sided normal one at ``confidence``. Each of the four statistic
    cells must contain at least one coincident trial. ``dataset`` is a
    :class:`TrialDataset` or any iterable of :class:`TrialRecord`, which is
    converted to one first.
    """
    if conditioning not in (CONDITION_COINCIDENCES, CONDITION_ALL_PAIRS):
        raise ValueError(f"unknown conditioning {conditioning!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence {confidence!r} outside (0, 1)")

    data = _as_dataset(dataset)
    cell = data.x1.astype(np.intp) * 3 + data.x2
    coincident = (data.d1 & data.d2).astype(bool)
    matching = coincident & (data.y1 == data.y2)
    trials, coinc, matches = (
        np.bincount(cell[mask], minlength=9).reshape(3, 3).tolist()
        for mask in (slice(None), coincident, matching)
    )

    rates = []
    variance = 0.0
    for i, j in BELL_PAIRS:
        if coinc[i][j] == 0:
            raise EstimationError(f"no coincident trials in cell ({i},{j})")
        denom = coinc[i][j] if conditioning == CONDITION_COINCIDENCES else trials[i][j]
        rate = matches[i][j] / denom
        rates.append(rate)
        variance += rate * (1.0 - rate) / denom

    statistic = rates[0] - rates[1] - rates[2] - rates[3]
    std_error = math.sqrt(variance)
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    return BellEstimate(
        trials=tuple(tuple(r) for r in trials),
        coincidences=tuple(tuple(r) for r in coinc),
        matches=tuple(tuple(r) for r in matches),
        statistic=statistic,
        std_error=std_error,
        ci_low=statistic - z * std_error,
        ci_high=statistic + z * std_error,
        confidence=confidence,
        conditioning=conditioning,
    )


def decide(est: BellEstimate, alpha: float = 0.01) -> Decision:
    """Reject local hidden variables iff the one-sided lower confidence bound
    on the Bell statistic at level ``alpha`` exceeds 0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha!r} outside (0, 1)")
    z = NormalDist().inv_cdf(1.0 - alpha)
    margin = est.statistic - z * est.std_error
    return Decision(reject_lhv=margin > 0.0, margin=margin, alpha=alpha)


@lru_cache(maxsize=1)
def _csv_row_tails() -> np.ndarray:
    """Text after the index of every possible row, at :func:`_csv_tail_keys`.

    Byte for byte what ``csv.writer`` writes for the row, ``\\r\\n`` included.
    """
    tails = [
        f",{x1},{x2},{y1 or ''},{y2 or ''},{d1},{d2}\r\n"
        for x1, x2, y1, y2, d1, d2 in itertools.product(
            (0, 1, 2), (0, 1, 2), (-1, 0, 1), (-1, 0, 1), (0, 1), (0, 1)
        )
    ]
    return np.array(tails, dtype=object)


def _csv_tail_keys(data: TrialDataset, part: slice) -> np.ndarray:
    x1, x2, y1, y2, d1, d2 = (c[part].astype(np.intp) for c in data.columns()[1:])
    return ((((x1 * 3 + x2) * 3 + y1 + 1) * 3 + y2 + 1) * 2 + d1) * 2 + d2


def write_dataset_csv(records: Iterable[TrialRecord], target) -> None:
    """Write records as CSV; missing outcomes serialize as empty fields.

    ``records`` is a :class:`TrialDataset` or any iterable of
    :class:`TrialRecord`; ``target`` is a path or a text file object.
    """
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8", newline="") as fh:
            write_dataset_csv(records, fh)
        return
    data = _as_dataset(records)
    tails = _csv_row_tails()
    target.write(",".join(CSV_HEADER) + "\r\n")
    for start in range(0, len(data), BLOCK_TRIALS):
        part = slice(start, start + BLOCK_TRIALS)
        index = map(str, data.index[part].tolist())
        target.write("".join(map(str.__add__, index, tails[_csv_tail_keys(data, part)])))


class _OutcomeField(dict):
    """Outcome column parser: an empty field is an undetected spin (0). An
    explicit 0 maps to 2, which the spin check rejects."""

    def __missing__(self, text: str) -> int:
        return int(text) or 2


_OUTCOME_FIELD = _OutcomeField({"": 0, "1": 1, "-1": -1})


def _check_rows(table: np.ndarray) -> None:
    """Reject a block of parsed rows that are not valid :class:`TrialRecord` s,
    checked in the order ``TrialRecord`` checks them."""
    x1, x2, y1, y2, d1, d2 = table[:, 1:].T
    checks = (
        ((x1 < 0) | (x1 > 2), "x1 must be 0, 1 or 2"),
        ((x2 < 0) | (x2 > 2), "x2 must be 0, 1 or 2"),
        ((d1 != 0) & (d1 != 1), "d1 must be 0 or 1"),
        ((y1 == 0) == (d1 == 1), "y1 must be present exactly when d1 is 1"),
        ((y1 != 0) & (y1 != 1) & (y1 != -1), "y1 must be -1 or +1"),
        ((d2 != 0) & (d2 != 1), "d2 must be 0 or 1"),
        ((y2 == 0) == (d2 == 1), "y2 must be present exactly when d2 is 1"),
        ((y2 != 0) & (y2 != 1) & (y2 != -1), "y2 must be -1 or +1"),
    )
    for bad, message in checks:
        if bad.any():
            raise ValueError(f"trial {table[np.flatnonzero(bad)[0], 0]}: {message}")


def read_dataset_csv(source) -> TrialDataset:
    """Read a dataset written by :func:`write_dataset_csv`.

    ``source`` is a path or an iterable of lines (a text file object); it
    is parsed :data:`BLOCK_TRIALS` lines at a time. Every row must have the
    seven fields of a valid :class:`TrialRecord`, and indices must be
    strictly increasing, as generation produces them; anything else raises
    ``ValueError``.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", newline="") as fh:
            return read_dataset_csv(fh)
    lines = iter(source)
    header = next(csv.reader([next(lines, "")]), None)
    if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
        raise ValueError(f"unexpected dataset header {header!r}")
    blocks = []
    previous = None
    for first in lines:
        block = itertools.chain([first], itertools.islice(lines, BLOCK_TRIALS - 1))
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(
                block, delimiter=",", dtype=np.int64, ndmin=2, comments=None,
                converters={3: _OUTCOME_FIELD.__getitem__, 4: _OUTCOME_FIELD.__getitem__},
            )
        if not table.size:  # blank lines only
            continue
        if table.shape[1] != len(CSV_HEADER):
            raise ValueError(f"dataset rows need {len(CSV_HEADER)} fields, got {table.shape[1]}")
        _check_rows(table)
        index = table[:, 0]
        steps = np.diff(index if previous is None else np.concatenate([[previous], index]))
        if (steps <= 0).any():
            at = int(np.flatnonzero(steps <= 0)[0]) + (previous is None)
            raise ValueError(f"trial indices not strictly increasing at {index[at]}")
        previous = index[-1]
        blocks.append(TrialDataset(index.copy(), *table[:, 1:].T))  # copy: drop the int64 table
    if not blocks:
        return TrialDataset(*np.zeros((7, 0), dtype=np.int64))
    return TrialDataset(*(np.concatenate(c) for c in zip(*(b.columns() for b in blocks))))


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-ready metadata describing a run (the dataset sidecar)."""
    return {
        "n_trials": config.n_trials,
        "seed": config.seed,
        "source": config.source,
        "setting_distribution": config.setting_distribution,
        "angles_degrees": list(config.angles.degrees()) if config.angles else None,
        "model": model_to_dict(config.model) if config.model else None,
        "solution": config.solution.to_dict() if config.solution else None,
    }


def config_from_dict(doc: dict) -> ExperimentConfig:
    angles = doc.get("angles_degrees")
    model = doc.get("model")
    solution = doc.get("solution")
    return ExperimentConfig(
        n_trials=doc["n_trials"],
        seed=doc["seed"],
        source=doc["source"],
        angles=AngleTriple.from_degrees(*angles) if angles else None,
        model=model_from_dict(model) if model else None,
        solution=loophole_mod.LpSolution.from_dict(solution) if solution else None,
        setting_distribution=doc.get("setting_distribution", UNIFORM_9),
    )


def write_metadata(config: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")
