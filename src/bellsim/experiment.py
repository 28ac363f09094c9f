"""Seeded Monte Carlo harness: randomized settings, trial datasets, inference.

Each trial draws a setting pair from the configured distribution, asks the
configured source (quantum predictions, a local hidden-variable model, or a
detection-loophole faking model) for outcomes, and records the detection
flags. Estimation turns a dataset into the Bell statistic with a
delta-method confidence interval, and the decision rule rejects local
hidden variables when the one-sided lower confidence bound clears 0.

Every trial's randomness is keyed by (seed, trial index) through the
counter-based generator, so datasets are reproducible and independent of
the block size. Generation runs a block of consecutive trials at a time as
numpy ``uint64`` lanes, all of a block's draws in one matrix, and a dataset
is held as two arrays, each trial's index and row code (:class:`TrialDataset`),
not as one object per trial.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from statistics import NormalDist
from typing import Iterable, Iterator

import numpy as np

from . import loophole as loophole_mod
from .counterfactuals import BELL_PAIRS
# Unused here; perfbench/tracing.py patches SplitMix64, derive_seed and the scalar samplers.
from .lhv import (
    DeterministicLhv,
    LocalModel,
    StochasticLocalModel,
    model_from_dict,
    model_to_dict,
    sample_from_lhv,
    sample_from_lhv_lanes,
)
from .quantum import AngleTriple, _check_setting, sample_outcome_pair, sample_outcome_pair_lanes
from .rng import SplitMix64, derive_seed, lane_draws, uniform_lanes

SOURCE_QUANTUM = "quantum"
SOURCE_DETERMINISTIC_LHV = "deterministic-lhv"
SOURCE_STOCHASTIC_LHV = "stochastic-lhv"
SOURCE_LOOPHOLE = "loophole"
#: Every source, in the order of the ``--source`` choices: the payloads of
#: :class:`ExperimentConfig` it uses, the last of them read by its sampler
#: and of type ``kind``, the uniforms its sampler draws per trial, and the
#: sampler, which maps ``(payload, x1, x2, u)`` to the spins (y1, y2), 0
#: where undetected. A loophole run keeps the angles its demonstration
#: solution was built for.
_Source = namedtuple("_Source", "uses kind draws sample_lanes")
_SOURCES = {
    SOURCE_QUANTUM: _Source(("angles",), AngleTriple, 2, sample_outcome_pair_lanes),
    SOURCE_DETERMINISTIC_LHV: _Source(("model",), DeterministicLhv, 1, sample_from_lhv_lanes),
    SOURCE_STOCHASTIC_LHV: _Source(("model",), StochasticLocalModel, 2, sample_from_lhv_lanes),
    SOURCE_LOOPHOLE: _Source(("angles", "solution"), loophole_mod.LpSolution, 1,
                             loophole_mod.sample_loophole_model_lanes),
}
SOURCES = tuple(_SOURCES)

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


def _integer(value, name: str) -> int:
    """``value`` as a Python int; it must be an int or a numpy integer, and
    not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulated experiment; a payload
    its source (:data:`_SOURCES`) does not use raises :class:`ConfigError`."""

    n_trials: int
    seed: int
    source: str
    angles: AngleTriple | None = None
    model: LocalModel | None = None
    solution: loophole_mod.LpSolution | None = None
    setting_distribution: str = UNIFORM_9

    def __post_init__(self) -> None:
        for name in ("n_trials", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be at least 1, got {self.n_trials!r}")
        if self.setting_distribution not in _SETTINGS:
            raise ConfigError(f"unknown setting distribution {self.setting_distribution!r}")
        source = _SOURCES.get(self.source)
        if source is None:
            raise ConfigError(f"unknown source {self.source!r}")
        for name in ("angles", "model", "solution"):
            if getattr(self, name) is not None and name not in source.uses:
                raise ConfigError(f"{self.source} source does not use {name}")
        payload = getattr(self, source.uses[-1])
        if not isinstance(payload, source.kind):
            raise ConfigError(f"{self.source} source needs {source.uses[-1]} of type "
                              f"{source.kind.__name__}, got {type(payload).__name__}")
        if self.source == SOURCE_LOOPHOLE and payload.status != "feasible":
            raise ConfigError("loophole source needs a feasible LpSolution")


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
        _check_setting(self.x1, "x1")
        _check_setting(self.x2, "x2")
        for flag, outcome, name in ((self.d1, self.y1, "1"), (self.d2, self.y2, "2")):
            if flag not in (0, 1):
                raise ValueError(f"d{name} must be 0 or 1, got {flag!r}")
            if (outcome is None) == bool(flag):
                raise ValueError(
                    f"y{name}={outcome!r} inconsistent with d{name}={flag!r}"
                )
            if outcome is not None and outcome not in (-1, 1):
                raise ValueError(f"y{name} must be -1 or +1, got {outcome!r}")


def _row_code(x1, x2, y1, y2):
    """A trial's row code, 0 to 80, from its settings and spins (0 undetected)."""
    return ((x1 * 3 + x2) * 3 + y1 + 1) * 3 + y2 + 1


#: The fields ``x1, x2, y1, y2, d1, d2`` of every valid row at its code;
#: spin 0 means undetected.
_ROW_FIELDS = np.array(
    [
        (x1, x2, y1, y2, y1 != 0, y2 != 0)
        for x1, x2, y1, y2 in itertools.product((0, 1, 2), (0, 1, 2), (-1, 0, 1), (-1, 0, 1))
    ],
    dtype=np.int8,
)


def _row_field(k: int) -> property:
    """Field ``k`` of :data:`_ROW_FIELDS` at each trial's code, read-only."""

    def get(self) -> np.ndarray:
        column = _ROW_FIELDS[:, k].take(self.code)
        column.flags.writeable = False
        return column

    return property(get)


class TrialDataset:
    """A dataset as two arrays: ``index`` (int64) and ``code`` (uint8), each
    trial's row code. ``x1, x2, y1, y2, d1, d2`` are read-only int8 columns
    read off the codes through :data:`_ROW_FIELDS`, with spin 0 where a
    particle was not detected.

    Iterating yields one :class:`TrialRecord` per trial, and a dataset
    compares equal to a list of equal records. The codes are trusted to be
    valid: :func:`run_experiment`, :func:`read_dataset_csv` and
    :meth:`from_records` only build valid ones.
    """

    __slots__ = ("index", "code")
    __hash__ = None

    x1, x2, y1, y2, d1, d2 = (_row_field(k) for k in range(6))

    def __init__(self, index, code) -> None:
        self.index = np.asarray(index, dtype=np.int64)
        self.code = np.asarray(code, dtype=np.uint8)

    @classmethod
    def from_records(cls, records: Iterable[TrialRecord]) -> "TrialDataset":
        rows = [(r.index, _row_code(r.x1, r.x2, r.y1 or 0, r.y2 or 0)) for r in records]
        return cls(*np.array(rows, dtype=np.int64).reshape(-1, 2).T)

    def columns(self) -> tuple[np.ndarray, ...]:
        return self.index, self.x1, self.x2, self.y1, self.y2, self.d1, self.d2

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
        return np.array_equal(self.index, other.index) and np.array_equal(self.code, other.code)

    def __repr__(self) -> str:
        return f"TrialDataset(<{len(self)} trials>)"


def _as_dataset(dataset: Iterable[TrialRecord]) -> TrialDataset:
    if isinstance(dataset, TrialDataset):
        return dataset
    return TrialDataset.from_records(dataset)


_THREE = np.uint64(3)
_REJECTED = np.uint64(2**64 - 1)  # the one draw randbelow(3) rejects
_BELL_PAIR_SETTINGS = np.array(BELL_PAIRS).T  # column k holds BELL_PAIRS[k]


def _uniform_9(words: np.ndarray, seed: int, start: int) -> np.ndarray:
    """x1 and x2 as ``randbelow(3)`` of rows 0 and 1 of ``words``, after
    giving, in place, every lane whose setting draw is the word it rejects
    the draws its trial makes one at a time. ``mix64`` is a bijection and a
    stream's counters are distinct, so the word occurs at most once in a
    trial's stream: the trial's draws are the first ``len(words) + 1`` of its
    stream with that word deleted."""
    settings = words[:2]
    for hit in np.flatnonzero(settings == _REJECTED).tolist():
        row, lane = divmod(hit, words.shape[1])
        i = start + lane
        stream = lane_draws(seed, i, i + 1, len(words) + 1)[:, 0]
        words[:, lane] = np.delete(stream, row)
    return (settings % _THREE).astype(np.intp)


def _uniform_4(words: np.ndarray, seed: int, start: int) -> np.ndarray:
    """x1 and x2 as the statistic pair ``randbelow(4)`` of row 0 of ``words``
    picks; ``randbelow(4)`` never rejects, since 4 divides 2**64."""
    return _BELL_PAIR_SETTINGS[:, words[0] & _THREE]


#: Each setting distribution: its draws per trial, and ``decode(words, seed,
#: start)``, the ``(2, trials)`` array of x1 and x2 of the block of trials
#: from ``start`` whose draws, the setting rows first, are ``words``.
_Settings = namedtuple("_Settings", "draws decode")
_SETTINGS = {UNIFORM_9: _Settings(2, _uniform_9), UNIFORM_4: _Settings(1, _uniform_4)}


def run_experiment(config: ExperimentConfig) -> TrialDataset:
    """Generate the dataset for ``config``; identical config and seed give an
    identical dataset.

    Trials are generated in blocks of :data:`BLOCK_TRIALS`. A block takes
    every draw its trials make as one ``(draws, trials)`` matrix from
    :func:`~bellsim.rng.lane_draws`: the settings' rows first, then the
    source's, which its sampler receives as uniforms. Trial randomness is
    keyed by (seed, trial index), so the block size cannot change what any
    trial draws. The distribution and the source are looked up in
    :data:`_SETTINGS` and :data:`_SOURCES` once per call.
    """
    n = config.n_trials
    data = TrialDataset(np.arange(n), np.empty(n, dtype=np.uint8))
    settings = _SETTINGS[config.setting_distribution]
    source = _SOURCES[config.source]
    payload = getattr(config, source.uses[-1])
    for start in range(0, n, BLOCK_TRIALS):
        stop = min(start + BLOCK_TRIALS, n)
        words = lane_draws(config.seed, start, stop, settings.draws + source.draws)
        x1, x2 = settings.decode(words, config.seed, start)
        y1, y2 = source.sample_lanes(payload, x1, x2, uniform_lanes(words[settings.draws:]))
        data.code[start:stop] = _row_code(x1, x2, y1, y2)
    return data


@dataclass(frozen=True)
class BellEstimate:
    """Estimated Bell statistic with per-cell counts and a normal interval.

    ``trials``/``coincidences``/``matches`` are 3x3 grids indexed by the
    setting pair, ``matches`` as the conditioning counts them; the statistic
    recomputes from them exactly. The drop count per cell (trials minus
    coincidences) makes the coincidence rate reportable alongside either
    conditioning.
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
        denoms = self.coincidences if self.conditioning == CONDITION_COINCIDENCES else self.trials
        return self.matches[i][j] / denoms[i][j] if denoms[i][j] else math.nan

    def to_dict(self) -> dict:
        grids = ("trials", "coincidences", "matches")
        return {**vars(self), **{key: [list(r) for r in getattr(self, key)] for key in grids}}


@dataclass(frozen=True)
class Decision:
    """Outcome of the one-sided test of the Bell statistic against 0."""

    reject_lhv: bool
    margin: float
    alpha: float

    def to_dict(self) -> dict:
        return {"reject_lhv": self.reject_lhv, "margin": self.margin, "alpha": self.alpha}


#: The spins "all-pairs" scores for an undetected particle 1 and particle 2.
_FILL = (1, -1)


def _cell_folds() -> dict:
    """Per conditioning, the ``(3, 3, 3, 81)`` 0/1 matrix that sends the
    count of each row code to the trials, the coincidences and the matches
    the conditioning counts, of its setting pair."""
    fold = np.zeros((4, 3, 3, len(_ROW_FIELDS)), dtype=np.int64)
    for code, (x1, x2, y1, y2, d1, d2) in enumerate(_ROW_FIELDS.tolist()):
        filled = (y1 or _FILL[0]) * (y2 or _FILL[1]) == 1
        fold[:, x1, x2, code] = 1, d1 & d2, y1 * y2 == 1, filled
    return {CONDITION_COINCIDENCES: fold[[0, 1, 2]], CONDITION_ALL_PAIRS: fold[[0, 1, 3]]}


_CELL_FOLDS = _cell_folds()


@lru_cache(maxsize=64)
def _normal_quantile(p: float) -> float:
    return NormalDist().inv_cdf(p)


def _counted(code_blocks: Iterable[np.ndarray]) -> np.ndarray:
    """How often each of the 81 row codes occurs in ``code_blocks``, as int64."""
    counts = np.zeros(len(_ROW_FIELDS), dtype=np.int64)
    for codes in code_blocks:
        counts += np.bincount(codes, minlength=len(_ROW_FIELDS))
    return counts


def _row_counts(dataset) -> np.ndarray:
    """The 81 row-code counts of ``dataset``; an array of them is checked and cast to int64."""
    if not isinstance(dataset, np.ndarray):
        code = _as_dataset(dataset).code
        return _counted(code[i:i + BLOCK_TRIALS] for i in range(0, len(code), BLOCK_TRIALS))
    if dataset.shape != (len(_ROW_FIELDS),) or dataset.dtype.kind not in "iu":
        raise ValueError(f"row counts need shape (81,) and an integer dtype, "
                         f"got shape {dataset.shape} and dtype {dataset.dtype}")
    counts = dataset.astype(np.int64)  # a uint64 count from 2**63 wraps negative
    if (counts < 0).any() or sum(counts.tolist()) >= 2**63:
        raise ValueError(f"row counts must be non-negative and total below 2**63, "
                         f"got least {dataset.min()} and total {sum(dataset.tolist())}")
    return counts


def estimate(
    dataset: Iterable[TrialRecord] | np.ndarray,
    conditioning: str = CONDITION_COINCIDENCES,
    confidence: float = 0.99,
) -> BellEstimate:
    """Estimate the Bell statistic from a dataset or its row counts.

    Per cell, the match rate is matches over coincidences
    ("coincidences-only") or over all trials of that cell ("all-pairs").
    "all-pairs" scores an undetected particle as the spin :data:`_FILL`
    gives it, as Garg and Mermin, Phys. Rev. D 35, 3831 (1987), do, so
    every local model scores at most 0; scored as a non-match, some would
    score 1. The standard error treats the four cells as independent
    binomials and the interval is the two-sided normal one at
    ``confidence``. Each of the four statistic cells must contain at least
    one coincident trial. ``dataset`` is a :class:`TrialDataset`, any
    iterable of :class:`TrialRecord`, or a numpy array of its 81 row-code
    counts, non-negative integers, as :func:`read_row_counts` returns. The
    counts fold into the cell counts.
    """
    if conditioning not in (CONDITION_COINCIDENCES, CONDITION_ALL_PAIRS):
        raise ValueError(f"unknown conditioning {conditioning!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence {confidence!r} outside (0, 1)")

    counts = _row_counts(dataset)
    grids = (_CELL_FOLDS[conditioning] @ counts).tolist()
    trials, coinc, matches = (tuple(map(tuple, grid)) for grid in grids)
    denoms = coinc if conditioning == CONDITION_COINCIDENCES else trials

    rates = []
    variance = 0.0
    for i, j in BELL_PAIRS:
        if coinc[i][j] == 0:
            raise EstimationError(f"no coincident trials in cell ({i},{j})")
        denom = denoms[i][j]
        rate = matches[i][j] / denom
        rates.append(rate)
        variance += rate * (1.0 - rate) / denom

    statistic = rates[0] - rates[1] - rates[2] - rates[3]
    std_error = math.sqrt(variance)
    z = _normal_quantile((1.0 + confidence) / 2.0)
    return BellEstimate(
        trials=trials,
        coincidences=coinc,
        matches=matches,
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
    z = _normal_quantile(1.0 - alpha)
    margin = est.statistic - z * est.std_error
    return Decision(reject_lhv=margin > 0.0, margin=margin, alpha=alpha)


_HEADER = ",".join(CSV_HEADER).encode()

#: The 81 valid row tails ``,x1,x2,y1,y2,d1,d2`` as ``csv.writer`` writes
#: them, without the line end: a spin is empty exactly when its flag is 0.
#: The writer and the reader both use this table, so it defines the format.
_ROW_TAILS = tuple(
    f",{x1},{x2},{y1 or ''},{y2 or ''},{d1},{d2}".encode()
    for x1, x2, y1, y2, d1, d2 in _ROW_FIELDS.tolist()
)
_TAIL_BYTES = 16  # longest tail plus "\r\n"
# Writer: each tail with its "\r\n", zero-padded, and which bytes it uses.
_WRITE_TAILS = np.array([t + b"\r\n" for t in _ROW_TAILS], f"S{_TAIL_BYTES}").view(np.uint8)
_WRITE_TAILS = _WRITE_TAILS.reshape(len(_ROW_TAILS), _TAIL_BYTES)
_WRITE_USED = np.arange(_TAIL_BYTES) < np.array([[len(t) + 2] for t in _ROW_TAILS])
# Reader: each tail as two little-endian words of its zero-padded bytes, its
# length, and a table from a multiplicative hash of the words' XOR to the
# row code: the 81 tails fill 81 distinct slots of 2048.
_TAIL_W0, _TAIL_W1 = np.array(_ROW_TAILS, f"S{_TAIL_BYTES}").view("<u8").reshape(-1, 2).T
_TAIL_LENGTHS = np.array([len(t) for t in _ROW_TAILS])
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(64 - 11)
_TAIL_CODES = np.zeros(1 << 11, dtype=np.uint8)
_TAIL_CODES[((_TAIL_W0 ^ _TAIL_W1) * _HASH_MULTIPLIER) >> _HASH_SHIFT] = np.arange(len(_ROW_TAILS))
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_MAX_DIGITS = 19  # of an int64
_CANONICAL_INT = re.compile(rb"-?[1-9][0-9]*|0")


def _encode_rows(index: np.ndarray, codes: np.ndarray) -> bytes:
    """Rows as ``csv.writer`` writes them: each index in decimal, then the
    tail at its row code and ``\\r\\n``.

    Row ``r`` is laid out in a byte grid with its index right-aligned in the
    first ``width`` columns and its tail from column ``width``; the used
    bytes of the grid, in row-major order, are the text.
    """
    negative = index < 0
    magnitude = np.where(negative, -index.view(np.uint64), index.view(np.uint64))
    field = np.searchsorted(_POW10[1:], magnitude, side="right") + 1 + negative
    width = int(field.max(initial=1))
    grid = np.empty((len(index), width + _TAIL_BYTES), np.uint8)
    rest = magnitude
    for column in range(width - 1, -1, -1):  # beyond a row's digits this writes 0s
        rest, digit = np.divmod(rest, 10)
        grid[:, column] = digit + ord("0")
    rows = np.flatnonzero(negative)
    grid[rows, width - field[rows]] = ord("-")
    grid[:, width:] = _WRITE_TAILS[codes]
    used = np.empty(grid.shape, dtype=bool)
    used[:, :width] = (np.arange(width) >= width - np.arange(width + 1)[:, None])[field]
    used[:, width:] = _WRITE_USED[codes]
    return grid[used].tobytes()


def write_dataset_csv(records: Iterable[TrialRecord], target) -> None:
    """Write records as CSV, byte for byte what ``csv.writer`` writes: the
    header, then one row per trial, each ending in ``\\r\\n``, with an empty
    field for an undetected spin.

    ``records`` is a :class:`TrialDataset` or any iterable of
    :class:`TrialRecord`; ``target`` is a path, a binary file object or a
    text file object.
    """
    if isinstance(target, (str, Path)):
        with open(target, "wb") as fh:
            write_dataset_csv(records, fh)
        return
    data = _as_dataset(records)
    if isinstance(target, io.TextIOBase):
        def write(chunk: bytes) -> None:
            target.write(chunk.decode("ascii"))
    else:
        write = target.write
    write(_HEADER + b"\r\n")
    for start in range(0, len(data), BLOCK_TRIALS):
        part = slice(start, start + BLOCK_TRIALS)
        write(_encode_rows(data.index[part], data.code[part]))


def _line_blocks(source) -> Iterator[bytes]:
    """The bytes of ``source`` in blocks of whole lines, each ending in
    ``\\n`` (supplied if the last line lacks it).

    ``source`` is a binary or text file object, read a mebibyte at a time,
    or an iterable of text lines, taken :data:`BLOCK_TRIALS` at a time.
    """
    if hasattr(source, "read"):
        chunks = iter(lambda: source.read(BLOCK_TRIALS * 16), source.read(0))  # b"" or ""
    else:
        lines = iter(source)
        chunks = iter(lambda: "".join(itertools.islice(lines, BLOCK_TRIALS)), "")
    pending = []  # the chunks of a line not yet ended
    for chunk in chunks:
        if isinstance(chunk, str):
            chunk = chunk.encode()
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield b"".join([*pending, chunk[:cut]])
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    if any(pending):
        yield b"".join([*pending, b"\n"])


def _shown(text: bytes) -> str:
    """``text`` decoded for an error message, cut to 60 bytes."""
    return text[:60].decode("utf-8", "replace") + ("..." if len(text) > 60 else "")


def _row_error(line: bytes, number: int) -> ValueError:
    """Why line ``number``, which is not in the row table, is not a valid
    row; settings, spins and flags are judged by :class:`TrialRecord`."""
    fields = line.split(b",")
    if len(fields) != len(CSV_HEADER):
        return ValueError(
            f"line {number}: dataset rows need {len(CSV_HEADER)} fields, got {len(fields)}"
        )
    for name, field in zip(CSV_HEADER, fields):
        if not (_CANONICAL_INT.fullmatch(field) or (field == b"" and name in ("y1", "y2"))):
            return ValueError(
                f"line {number}: {name} {_shown(field)!r} is not a canonical integer"
            )
    index, *values = (int(field) if field else None for field in fields)
    if not -(2**63) <= index < 2**63:
        return ValueError(f"line {number}: index {index} outside the int64 range")
    try:
        TrialRecord(index, *values)
    except ValueError as exc:
        return ValueError(f"trial {index}: {exc}")
    return ValueError(f"line {number}: malformed row {_shown(line)!r}")


def _decode_rows(block: bytes, first_line: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The index and row code of every row in ``block``, and its number
    of lines, which are whole and numbered from ``first_line``.

    Blank lines are skipped; any other line that is not an int64 index in
    canonical decimal followed by a tail of :data:`_ROW_TAILS` raises
    ``ValueError``.
    """
    buf = block + bytes(_TAIL_BYTES)  # room for the two words read after a comma
    a = np.frombuffer(buf, np.uint8)
    ends = np.flatnonzero(a == ord("\n"))
    starts = np.concatenate(([0], ends + 1))[:-1]
    stops = ends - (a[ends - 1] == ord("\r"))  # a[-1] is padding
    lines = np.flatnonzero(stops > starts)
    starts, stops = starts[lines], stops[lines]
    # A tail is 10 to 14 bytes long, so the first comma of a valid row is
    # the leftmost comma of the line among the 10th to 14th bytes from its
    # end; any other line fails a check below whichever comma is found.
    comma = stops.copy()  # no comma: a tail of length 0
    for length in range(_TAIL_LENGTHS.min(), _TAIL_LENGTHS.max() + 1):
        at = stops - length
        comma = np.where((at >= starts) & (a.take(at, mode="clip") == ord(",")), at, comma)

    # The tail: two unaligned words from the first comma, the second cut to
    # the line, looked up by hash and compared in full.
    words = np.ndarray((len(buf) - 7,), "<u8", buf, strides=(1,))
    length = stops - comma
    w0 = words[comma]
    w1 = words[comma + 8] & _LOW_BYTES[np.clip(length - 8, 0, 8)]
    codes = _TAIL_CODES[((w0 ^ w1) * _HASH_MULTIPLIER) >> _HASH_SHIFT]
    valid = (_TAIL_W0[codes] == w0) & (_TAIL_W1[codes] == w1) & (_TAIL_LENGTHS[codes] == length)

    # The index, one decimal place at a time from the right.
    negative = a[starts] == ord("-")
    digits = comma - starts - negative
    leading = a[starts + negative]
    valid &= (digits >= 1) & (digits <= _MAX_DIGITS)
    valid &= (leading != ord("0")) | (digits == 1) & ~negative
    magnitude = np.zeros(len(starts), np.uint64)
    for place in range(min(int(digits.max(initial=1)), _MAX_DIGITS)):
        digit = a.take(comma - 1 - place, mode="clip") - np.uint8(ord("0"))
        inside = place < digits
        valid &= (digit <= 9) | ~inside
        magnitude += np.where(inside, digit, np.uint8(0)) * _POW10[place]
    valid &= magnitude <= np.uint64(2**63 - 1) + negative
    if not valid.all():
        bad = int(np.flatnonzero(~valid)[0])
        raise _row_error(block[starts[bad]:stops[bad]], first_line + int(lines[bad]))
    return np.where(negative, -magnitude, magnitude).view(np.int64), codes, len(ends)


def _dataset_blocks(source) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The index and row code of each row of the dataset CSV ``source``, a block at
    a time; only the last index read is kept across blocks, to check the order."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _dataset_blocks(fh)
        return
    blocks = _line_blocks(source)
    header, _, first = next(blocks, b"").partition(b"\n")
    header = header.removesuffix(b"\r")
    if header != _HEADER:
        raise ValueError(f"unexpected dataset header {_shown(header)!r}")
    last = np.empty(0, np.int64)
    line = 2
    for block in itertools.chain([first], blocks):
        index, codes, lines = _decode_rows(block, line)
        line += lines
        ordered = np.concatenate((last, index))
        backward = np.flatnonzero(ordered[1:] <= ordered[:-1])
        if len(backward):
            raise ValueError(f"trial indices not strictly increasing at {ordered[backward[0] + 1]}")
        last = ordered[-1:]
        yield index, codes


def read_dataset_csv(source) -> TrialDataset:
    """Read a dataset written by :func:`write_dataset_csv`.

    ``source`` is a path, a binary or text file object, or an iterable of
    text lines. The first line is the header ``index,x1,x2,y1,y2,d1,d2``.
    Every other line is blank, and skipped, or a row in exactly the form
    the writer writes: seven comma-separated fields with no whitespace,
    integers in canonical decimal (no sign but a leading ``-``, no leading
    zero, no ``-0``), the index within int64, and the fields of a valid
    :class:`TrialRecord`, whose undetected spins are empty. Lines end in
    ``\\r\\n`` or ``\\n``; the last may lack its end. Indices must be
    strictly increasing, as generation produces them. Anything else raises
    ``ValueError``.

    Lines are decoded a block at a time with numpy, each row's tail to its row
    code, and the blocks are joined; :func:`read_row_counts` needs no join.
    """
    index, code = [np.empty(0, np.int64)], [np.empty(0, np.uint8)]
    for block_index, block_code in _dataset_blocks(source):
        index.append(block_index)
        code.append(block_code)
    return TrialDataset(np.concatenate(index), np.concatenate(code))


def read_row_counts(source) -> np.ndarray:
    """The 81 row-code counts of the dataset CSV ``source``, read and checked
    as :func:`read_dataset_csv` does, but in constant memory: each block is
    counted and dropped."""
    return _counted(codes for _, codes in _dataset_blocks(source))


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


def _parsed(doc: dict, key: str, parse):
    """``parse`` of the sidecar's ``key`` entry, or None where it is absent
    or empty; an entry that does not parse raises :class:`ConfigError`."""
    value = doc.get(key)
    if not value:
        return None
    try:
        return parse(value)
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"sidecar {key} does not parse: {exc!r}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    """The configuration a sidecar written by :func:`config_to_dict`
    describes; a malformed sidecar raises :class:`ConfigError`."""
    if not isinstance(doc, dict):
        raise ConfigError(f"a sidecar must be a JSON object, got {type(doc).__name__}")
    missing = [key for key in ("n_trials", "seed", "source") if key not in doc]
    if missing:
        raise ConfigError(f"sidecar lacks {', '.join(map(repr, missing))}")
    return ExperimentConfig(
        n_trials=doc["n_trials"],
        seed=doc["seed"],
        source=doc["source"],
        angles=_parsed(doc, "angles_degrees", lambda degrees: AngleTriple.from_degrees(*degrees)),
        model=_parsed(doc, "model", model_from_dict),
        solution=_parsed(doc, "solution", loophole_mod.LpSolution.from_dict),
        setting_distribution=doc.get("setting_distribution", UNIFORM_9),
    )


def write_metadata(config: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2)
        fh.write("\n")
