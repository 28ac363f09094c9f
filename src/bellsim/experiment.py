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

import itertools
import json
import math
import operator
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from statistics import NormalDist
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from . import loophole as loophole_mod
from .counterfactuals import BELL_PAIRS, BELL_SIGNS
# sample_from_lhv and sample_outcome_pair are unused here; perfbench/tracing.py patches them.
from .lhv import (
    CANONICAL_INT,
    DeterministicLhv,
    LocalModel,
    StochasticLocalModel,
    model_to_dict,
    sample_from_lhv,
    sample_mixture_lanes,
    sample_two_draw_lanes,
)
from .quantum import AngleTriple, _check_setting, _row_code, sample_outcome_pair
from .rng import _SHIFT11, SplitMix64, _draw_lanes, constant, derive_seed, scratch

SOURCE_QUANTUM = "quantum"
SOURCE_DETERMINISTIC_LHV = "deterministic-lhv"
SOURCE_STOCHASTIC_LHV = "stochastic-lhv"
SOURCE_LOOPHOLE = "loophole"
#: Every source, in the order of the ``--source`` choices: the payloads of
#: :class:`ExperimentConfig` it uses, each mapped to its type; the one of
#: them its sampler reads, which is required; the draws its sampler makes
#: per trial; and the sampler, which maps ``(payload, pair, m)``, the
#: block's setting pairs ``3 * x1 + x2`` and the top 53 bits of its
#: ``(draws, trials)`` draws, to the block's uint8 row codes, free to write
#: over ``pair`` and ``m``. A loophole run keeps the angles its
#: demonstration solution was built for.
_Source = namedtuple("_Source", "uses sampled draws sample_lanes")
_SOURCES = {
    SOURCE_QUANTUM: _Source({"angles": AngleTriple}, "angles", 2, sample_two_draw_lanes),
    SOURCE_DETERMINISTIC_LHV: _Source({"model": DeterministicLhv}, "model", 1,
                                      sample_mixture_lanes),
    SOURCE_STOCHASTIC_LHV: _Source({"model": StochasticLocalModel}, "model", 2,
                                   sample_two_draw_lanes),
    SOURCE_LOOPHOLE: _Source({"angles": AngleTriple, "solution": loophole_mod.LpSolution},
                             "solution", 1, sample_mixture_lanes),
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
    not a bool. This is the API's rule, not :data:`~bellsim.lhv.CANONICAL_INT`'s:
    code hands over integers, which have no spelling to check, and
    ``CANONICAL_INT`` is the rule for integers read as text."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ConfigError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one simulated experiment; a payload
    its source (:data:`_SOURCES`) does not use, or of another type than it
    takes, raises :class:`ConfigError`."""

    n_trials: int
    seed: int
    source: str
    angles: AngleTriple | None = None
    model: LocalModel | None = None
    solution: loophole_mod.LpSolution | None = None
    setting_distribution: str = UNIFORM_9

    def __post_init__(self) -> None:
        for name in ("n_trials", "seed"):
            if type(value := getattr(self, name)) is not int:  # an int is its own index
                object.__setattr__(self, name, _integer(value, name))
        if self.n_trials < 1:
            raise ConfigError(f"n_trials must be at least 1, got {self.n_trials!r}")
        if not (isinstance(self.setting_distribution, str)
                and self.setting_distribution in _SETTINGS):
            raise ConfigError(f"unknown setting distribution {self.setting_distribution!r}")
        source = _SOURCES.get(self.source) if isinstance(self.source, str) else None
        if source is None:
            raise ConfigError(f"unknown source {self.source!r}")
        payloads = {"angles": self.angles, "model": self.model, "solution": self.solution}
        for name, payload in payloads.items():
            if payload is not None and name not in source.uses:
                raise ConfigError(f"{self.source} source does not use {name}")
        for name, kind in source.uses.items():
            payload = payloads[name]
            if (payload is not None or name == source.sampled) and not isinstance(payload, kind):
                raise ConfigError(f"{self.source} source needs {name} of type "
                                  f"{kind.__name__}, got {type(payload).__name__}")
        if self.source == SOURCE_LOOPHOLE and payloads["solution"].status != "feasible":
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
    compares equal to a list of equal records. The constructor checks its
    input: ``index`` and ``code`` must be one-dimensional integer arrays (or
    lists) of one length, unsigned indices must fit in int64, and codes of
    any dtype must lie in 0 to 80; else ``ValueError``.
    :meth:`_trusted` checks nothing: it takes int64 and uint8 arrays that
    bellsim has just built itself, as :func:`run_experiment` does.
    """

    __slots__ = ("index", "code")
    __hash__ = None

    x1, x2, y1, y2, d1, d2 = (_row_field(k) for k in range(6))

    def __init__(self, index, code) -> None:
        index, code = np.asarray(index), np.asarray(code)
        for name, array in (("index", index), ("code", code)):
            if array.ndim != 1 or (array.dtype.kind not in "iu" and array.size):
                raise ValueError(f"TrialDataset {name} must be a one-dimensional integer "
                                 f"array, got {array.dtype} of shape {array.shape}")
        if len(index) != len(code):
            raise ValueError(f"TrialDataset has {len(index)} indices but {len(code)} codes")
        if index.dtype.kind == "u" and index.size and index.max() >= 2**63:
            raise ValueError(f"TrialDataset indices must fit in int64, got {index.max()}")
        if code.size and not 0 <= code.min() <= code.max() <= 80:
            raise ValueError(f"TrialDataset codes must lie in 0 to 80, got {code.min()} "
                             f"to {code.max()}")
        self.index = index.astype(np.int64, copy=False)
        self.code = code.astype(np.uint8, copy=False)

    @classmethod
    def _trusted(cls, index: np.ndarray, code: np.ndarray) -> "TrialDataset":
        data = cls.__new__(cls)
        data.index, data.code = index, code
        return data

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


_THREE = constant(3)
_REJECTED = constant(2**64 - 1)  # the one draw randbelow(3) rejects
_BELL_PAIR_INDEX = np.array([3 * x1 + x2 for x1, x2 in BELL_PAIRS])  # BELL_PAIRS[k] as a pair


def _uniform_9(words: np.ndarray, seed: int, start: int) -> np.ndarray:
    """Each trial's setting pair ``3 * x1 + x2``, x1 and x2 being
    ``randbelow(3)`` of rows 0 and 1 of ``words``, after giving, in place,
    every lane whose setting draw is the word it rejects the draws its
    trial makes one at a time.
    ``mix64`` is a bijection and a stream's counters are distinct, so the
    word occurs at most once in a trial's stream: the trial's draws are the
    first ``len(words) + 1`` of its stream with that word deleted."""
    settings = words[:2]
    if settings.max() == _REJECTED:
        for hit in np.flatnonzero(settings == _REJECTED).tolist():
            row, lane = divmod(hit, words.shape[1])
            stream = SplitMix64(derive_seed(seed, start + lane))
            draws = [stream.next_uint64() for _ in range(len(words) + 1)]
            words[:, lane] = draws[:row] + draws[row + 1:]
    settings %= _THREE
    pair = settings[0]
    pair *= _THREE
    pair += settings[1]
    return pair.view(np.intp)  # below 9, so the same value as intp


def _uniform_4(words: np.ndarray, seed: int, start: int) -> np.ndarray:
    """Each trial's setting pair ``3 * x1 + x2``, the statistic pair that
    ``randbelow(4)`` of row 0 of ``words`` picks; ``randbelow(4)`` never
    rejects, since 4 divides 2**64."""
    draw = np.bitwise_and(words[0], _THREE, words[0]).view(np.intp)
    return _BELL_PAIR_INDEX.take(draw, None, draw, "clip")  # reads each index before its slot


#: Each setting distribution: its draws per trial, and ``decode(words, seed,
#: start)``, the setting pairs ``3 * x1 + x2`` (intp, 0 to 8) of the block
#: of trials from ``start`` whose draws, the setting rows first, are
#: ``words``, written over the setting rows.
_Settings = namedtuple("_Settings", "draws decode")
_SETTINGS = {UNIFORM_9: _Settings(2, _uniform_9), UNIFORM_4: _Settings(1, _uniform_4)}


def run_experiment(config: ExperimentConfig) -> TrialDataset:
    """Generate the dataset for ``config``; identical config and seed give an
    identical dataset.

    Trials are generated in blocks of :data:`BLOCK_TRIALS`. A block takes
    every draw its trials make as one ``(draws, trials)`` matrix from
    :func:`~bellsim.rng.lane_draws`: the settings' rows first, which decode
    to each trial's setting pair, then the source's, whose top 53 bits its
    sampler compares with its thresholds to turn them, with the pairs, into
    the row codes.
    Trial randomness is keyed by (seed, trial index), so the block size
    cannot change what any trial draws. The distribution and the source are
    looked up in :data:`_SETTINGS` and :data:`_SOURCES` once per call.
    The matrix lives in this thread's :func:`~bellsim.rng.scratch` arena,
    overwritten by the pairs, the shifted draws and the sampler; only the
    result is fresh.
    """
    n = config.n_trials
    code = np.empty(n, dtype=np.uint8)
    settings = _SETTINGS[config.setting_distribution]
    source = _SOURCES[config.source]
    payload = getattr(config, source.sampled)
    for start in range(0, n, BLOCK_TRIALS):
        stop = min(start + BLOCK_TRIALS, n)
        words = _draw_lanes(config.seed, start, stop, settings.draws + source.draws)
        pair = settings.decode(words, config.seed, start)
        top = words[settings.draws:]
        top >>= _SHIFT11
        code[start:stop] = source.sample_lanes(payload, pair, top)
    return TrialDataset._trusted(np.arange(n, dtype=np.int64), code)


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
    """Per conditioning, the ``(3, 9)`` 0/1 matrix that sends the counts of
    a setting pair's nine row codes, ``9 * pair`` to ``9 * pair + 8``, to
    the pair's trials, coincidences and the matches the conditioning
    counts."""
    fold = np.zeros((4, 9), dtype=np.int64)
    for k, (_, _, y1, y2, d1, d2) in enumerate(_ROW_FIELDS[:9].tolist()):
        filled = (y1 or _FILL[0]) * (y2 or _FILL[1]) == 1
        fold[:, k] = 1, d1 & d2, y1 * y2 == 1, filled
    return {CONDITION_COINCIDENCES: fold[[0, 1, 2]], CONDITION_ALL_PAIRS: fold[[0, 1, 3]]}


_CELL_FOLDS = _cell_folds()
_BELL_CELLS = _BELL_PAIR_INDEX.tolist()


@lru_cache(maxsize=64)
def _normal_quantile(p: float) -> float:
    return NormalDist().inv_cdf(p)


def _counted(code_blocks: Iterator[np.ndarray]) -> np.ndarray:
    """How often each of the 81 row codes occurs in ``code_blocks``, as int64."""
    counts = np.bincount(next(code_blocks, ()), minlength=len(_ROW_FIELDS))
    for codes in code_blocks:
        counts += np.bincount(codes, minlength=len(_ROW_FIELDS))
    return counts


def _row_counts(dataset: TrialDataset | np.ndarray) -> np.ndarray:
    """The 81 row-code counts of ``dataset``; an array of them is checked and cast to int64."""
    if isinstance(dataset, TrialDataset):
        code = dataset.code
        if len(code) <= BLOCK_TRIALS:
            return np.bincount(code, minlength=len(_ROW_FIELDS))
        return _counted(code[i:i + BLOCK_TRIALS] for i in range(0, len(code), BLOCK_TRIALS))
    if not isinstance(dataset, np.ndarray):
        raise TypeError(f"estimate takes a TrialDataset or its row counts, "
                        f"got {type(dataset).__name__}")
    if dataset.shape != (len(_ROW_FIELDS),) or dataset.dtype.kind not in "iu":
        raise ValueError(f"row counts need shape (81,) and an integer dtype, "
                         f"got shape {dataset.shape} and dtype {dataset.dtype}")
    counts = dataset.astype(np.int64)  # a uint64 count from 2**63 wraps negative
    if (counts < 0).any() or sum(counts.tolist()) >= 2**63:
        raise ValueError(f"row counts must be non-negative and total below 2**63, "
                         f"got least {dataset.min()} and total {sum(dataset.tolist())}")
    return counts


def estimate(
    dataset: TrialDataset | np.ndarray,
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
    one coincident trial. ``dataset`` is a :class:`TrialDataset` or a numpy
    array of its 81 row-code counts, non-negative integers, as
    :func:`read_row_counts` returns; anything else raises ``TypeError``. The
    counts fold into the 27 cell counts in one integer product with
    :data:`_CELL_FOLDS`: each setting pair's trials, coincidences and matches.
    """
    if conditioning not in (CONDITION_COINCIDENCES, CONDITION_ALL_PAIRS):
        raise ValueError(f"unknown conditioning {conditioning!r}")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence {confidence!r} outside (0, 1)")
    upper = (1.0 + confidence) / 2.0  # the interval's upper quantile level
    if upper == 1.0:
        raise ValueError(f"confidence {confidence!r}: (1 + confidence) / 2 rounds to 1")

    cells = _CELL_FOLDS[conditioning].dot(_row_counts(dataset).reshape(9, 9).T).ravel().tolist()
    rows = tuple(zip(*[iter(cells)] * 3))  # the three grids, three cells a row
    denominators = 9 if conditioning == CONDITION_COINCIDENCES else 0  # coincidences or trials

    statistic = variance = 0.0
    for cell, sign in zip(_BELL_CELLS, BELL_SIGNS):  # the terms of BELL_PAIRS
        if cells[9 + cell] == 0:
            raise EstimationError(f"no coincident trials in cell ({cell // 3},{cell % 3})")
        denom = cells[denominators + cell]
        rate = cells[18 + cell] / denom
        statistic += sign * rate
        variance += rate * (1.0 - rate) / denom
    std_error = math.sqrt(variance)
    z = _normal_quantile(upper)
    est = BellEstimate.__new__(BellEstimate)  # the generated __init__ sets each field slower
    vars(est).update(
        trials=rows[:3],
        coincidences=rows[3:6],
        matches=rows[6:],
        statistic=statistic,
        std_error=std_error,
        ci_low=statistic - z * std_error,
        ci_high=statistic + z * std_error,
        confidence=confidence,
        conditioning=conditioning,
    )
    return est


def decide(est: BellEstimate, alpha: float = 0.01) -> Decision:
    """Reject local hidden variables iff the one-sided lower confidence bound
    on the Bell statistic at level ``alpha`` exceeds 0."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha {alpha!r} outside (0, 1)")
    upper = 1.0 - alpha
    if upper == 1.0:
        raise ValueError(f"alpha {alpha!r}: 1 - alpha rounds to 1")
    z = _normal_quantile(upper)
    margin = est.statistic - z * est.std_error
    return Decision(reject_lhv=margin > 0.0, margin=margin, alpha=alpha)


_HEADER = ",".join(CSV_HEADER).encode()

#: The 81 valid row tails ``,x1,x2,y1,y2,d1,d2`` as ``csv.writer`` writes
#: them, without the line end, NUL-padded to 16 bytes: a spin is empty
#: exactly when its flag is 0. No byte of a valid row is NUL. The writer and
#: the reader both use this table, so it defines the format.
_ROW_TAILS = np.array([
    f",{x1},{x2},{y1 or ''},{y2 or ''},{d1},{d2}".encode()
    for x1, x2, y1, y2, d1, d2 in _ROW_FIELDS.tolist()
], "S16")
# Text moves as little-endian words, the first byte lowest: a row ends in
# its code's two words of _ROW_LINES, tail and "\r\n"; a line's last two are
# hashed (81 of 2048 slots) and compared with the tails right-aligned.
_ROW_LINES = np.char.add(_ROW_TAILS, b"\r\n").astype("S16").view("<u8").reshape(-1, 2).T.copy()
_TAIL_W0, _TAIL_W1 = np.array([t.rjust(16, b"\0") for t in _ROW_TAILS.tolist()],
                              "S16").view("<u8").reshape(-1, 2).T.copy()
_TAIL_LENGTHS = np.char.str_len(_ROW_TAILS)
_HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_HASH_SHIFT = np.uint64(64 - 11)
_TAIL_CODES = np.zeros(1 << 11, dtype=np.uint8)
_TAIL_CODES[((_TAIL_W0 ^ _TAIL_W1) * _HASH_MULTIPLIER) >> _HASH_SHIFT] = np.arange(len(_ROW_TAILS))
_KEEP = np.array([2**64 - 2**(64 - 8 * k) for k in range(9)], "u8")  # a word's last k bytes
_COMMAS, _ZEROS, _LOW7, _SIXES, _HIGH_NIBBLES = (
    np.uint64(0x0101010101010101 * b) for b in (ord(","), ord("0"), 0x7F, 0x06, 0xF0))
_POW10 = np.array([10**k for k in range(20)], dtype=np.uint64)
_MAX_DIGITS = 19  # of an int64
_LONG_LINE = 4096  # bytes; no row is over 36, and int() takes at most 4300 digits
# The decimal places 0000 to 9999 as ASCII, the first byte lowest.
_DIGITS = np.char.zfill(np.arange(10**4).astype("S4"), 4).view("<u4")


def _encode_rows(index: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Rows as ``csv.writer`` writes them, as fresh uint8 text: each index
    in decimal, then the tail at its row code and ``\\r\\n``.

    A row is ``words + 2`` words: sign and digits right-aligned in the first
    ``words``, eight places a word after NULs, then :data:`_ROW_LINES` at its
    code. The non-NUL bytes of the rows, in order, are the text. Rows,
    temporaries and the NUL mask are scratch.
    """
    n = len(index)
    words = -(-max(len(str(int(index.max(initial=0)))), len(str(int(index.min(initial=0))))) // 8)
    arena = scratch((words + 2 + max(4, words + 2)) * n)
    grid, rest = arena[:(words + 2) * n].reshape(n, words + 2), arena[(words + 2) * n:]
    magnitude, part, high, low = rest[:4 * n].reshape(4, n)
    digits = _POW10[1:].searchsorted(np.abs(index, magnitude.view("i8")).view("u8"), "right")
    digits += 1  # np.abs leaves -2**63 as it is: 2**63 as uint64
    negative, keep = index < 0, part.view(np.intp)
    for k in range(words):  # the word of places 8k to 8k + 7
        word = np.divmod(magnitude, _POW10[8], magnitude, part)[1] if k < words - 1 else magnitude
        np.subtract(word, np.multiply(np.floor_divide(word, _POW10[4], high), _POW10[4], low), low)
        four = np.take(_DIGITS, rest[2 * n:4 * n].view(np.intp), None, part.view(np.uint32), "clip")
        np.bitwise_or(np.left_shift(four[n:], np.uint64(32), low), four[:n], low)  # high's first
        np.clip(np.subtract(digits, 8 * k, keep), 0, 8, keep)
        np.bitwise_and(low, _KEEP.take(keep, None, high, "clip"), grid[:, words - 1 - k])
    np.copyto(keep, codes)
    grid[:, words:] = _ROW_LINES.take(keep, 1, rest[2 * n:4 * n].reshape(2, n), "clip").T
    text = grid.view(np.uint8)
    text[negative, 8 * words - 1 - digits[negative]] = ord("-")
    return text[np.not_equal(text, 0, rest.view(np.bool_)[:text.size].reshape(text.shape))]


def _check_increasing(index: np.ndarray) -> None:
    """Raise ``ValueError`` at the first index of ``index`` not above the one before."""
    backward = np.flatnonzero(index[1:] <= index[:-1])
    if len(backward):
        raise ValueError(f"trial indices not strictly increasing at {index[backward[0] + 1]}")


def write_dataset_csv(data: TrialDataset, target: str | Path | BinaryIO) -> None:
    """Write ``data`` as CSV, byte for byte what ``csv.writer`` writes: the
    header, then one row per trial, each ending in ``\\r\\n``, with an empty
    field for an undetected spin.

    ``target`` is a path or a binary file object; a text file object raises
    ``TypeError`` at its first write. A ``data`` that is not a
    :class:`TrialDataset` raises ``TypeError``, and one whose indices are not
    strictly increasing, which the readers refuse, ``ValueError``, both
    before a path is opened.
    """
    if not isinstance(data, TrialDataset):
        raise TypeError(f"write_dataset_csv writes a TrialDataset, got {type(data).__name__}")
    _check_increasing(data.index)
    if isinstance(target, (str, Path)):
        with open(target, "wb") as fh:
            write_dataset_csv(data, fh)
        return
    target.write(_HEADER + b"\r\n")
    for start in range(0, len(data), BLOCK_TRIALS):
        part = slice(start, start + BLOCK_TRIALS)
        target.write(_encode_rows(data.index[part], data.code[part]))


def _shown(text: bytes) -> str:
    """``text`` decoded for an error message, cut to 60 bytes."""
    return text[:60].decode("utf-8", "replace") + ("..." if len(text) > 60 else "")


def _row_error(line: bytes, number: int) -> ValueError:
    """Why line ``number``, which is not in the row table, is not a valid
    row; settings, spins and flags are judged by :class:`TrialRecord`."""
    if len(line) >= _LONG_LINE:
        return ValueError(f"line {number}: a line of {_LONG_LINE} bytes or more is no dataset row")
    fields = line.split(b",")
    if len(fields) != len(CSV_HEADER):
        return ValueError(
            f"line {number}: dataset rows need {len(CSV_HEADER)} fields, got {len(fields)}"
        )
    for name, field in zip(CSV_HEADER, fields):
        if not (CANONICAL_INT.fullmatch(field.decode("latin-1"))  # one character a byte
                or (field == b"" and name in ("y1", "y2"))):
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


def _decode_rows(a: np.ndarray, first_line: int) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The index and row code of every row in the uint8 text ``a`` (40 bytes
    of room for the words read before a line, then lines up to the last
    ``\\n``, from line ``first_line``), their number, and where the rest starts.

    Blank lines are skipped; any other line that is not an int64 index in
    canonical decimal followed by a tail of :data:`_ROW_TAILS` raises
    ``ValueError``. A line is read in words: the last two hold the tail,
    and those that end at its comma the index, eight decimal places each.
    """
    words = np.ndarray((len(a) - 7,), "<u8", a, strides=(1,))
    room = len(a) // 8 + 1
    ends = np.flatnonzero(np.equal(a, ord("\n"), scratch(2 * room)[room:].view(np.bool_)[:len(a)]))
    rows = scratch(room + 7 * len(ends))[room:room + 7 * len(ends)].reshape(7, len(ends))
    (starts, stops, t, u, comma), (x, y) = rows[:5].view(np.intp), rows[5:]
    starts[:1] = 40
    np.add(ends[:-1], 1, starts[1:])
    blank = np.subtract(ends, a.take(np.subtract(ends, 1, t)) == ord("\r"), stops) == starts

    # The tail, 10 to 14 bytes, starts at the first comma among the line's
    # bytes in w0, which x marks exactly (its zero bytes): an index has none.
    w0, w1 = words[np.subtract(stops, 16, t)], words[np.subtract(stops, 8, t)]
    np.bitwise_or(np.add(np.bitwise_and(np.bitwise_xor(w0, _COMMAS, x), _LOW7, y), _LOW7, y), x, y)
    np.clip(np.subtract(np.subtract(stops, starts, t), 8, t), 0, 8, t)
    np.bitwise_and(np.invert(np.bitwise_or(y, _LOW7, y), y), _KEEP.take(t, None, x, "clip"), x)
    np.right_shift(np.bitwise_and(x, np.negative(x, y), y), np.uint64(7), y)
    w0 &= np.negative(y, y)  # the bytes from the lowest mark on
    np.right_shift(np.multiply(np.bitwise_xor(w0, w1, x), _HASH_MULTIPLIER, x), _HASH_SHIFT, x)
    np.copyto(t, codes := _TAIL_CODES.take(x.view(np.intp)))  # the codes, as intp in t
    valid = (_TAIL_W0.take(t, None, x, "clip") == w0) & (_TAIL_W1.take(t, None, y, "clip") == w1)
    np.subtract(stops, _TAIL_LENGTHS.take(t, None, comma, "clip"), comma)

    # The index, eight places a word from the comma leftward (Langdale and Lemire, 2019).
    negative = a.take(starts) == ord("-")
    digits = np.subtract(np.subtract(comma, starts, t), negative, t)
    leading = a.take(np.add(starts, negative, u))
    valid &= (digits >= 1) & (digits <= _MAX_DIGITS)
    valid &= (leading != ord("0")) | (digits == 1) & ~negative
    magnitude = np.multiply(y, 0, y)
    for place in range(0, min(int(digits.max(initial=1)), _MAX_DIGITS), 8):
        word = words[np.subtract(comma, place + 8, u)]
        word ^= _ZEROS
        word &= _KEEP.take(np.clip(np.subtract(digits, place, u), 0, 8, u), None, x, "clip")
        valid &= np.bitwise_or(np.add(word, _SIXES, x), word, x) & _HIGH_NIBBLES == 0  # 0 to 9
        for lane in (8, 16, 32):  # each pair of lanes joins: 10**(lane / 8) * first + second
            word *= np.uint64(10 ** (lane // 8) << lane | 1)
            word >>= np.uint64(lane)
            word &= np.uint64((2**64 - 1) // (2**lane + 1))  # keep the even lanes
        magnitude += np.multiply(word, _POW10[place], word)
    valid &= magnitude <= np.add(negative, np.uint64(2**63 - 1), x)
    if not (valid | blank).all():
        bad = int(np.flatnonzero(~(valid | blank))[0])
        raise _row_error(a[starts[bad]:stops[bad]].tobytes(), first_line + bad)
    index = np.negative(magnitude, magnitude, where=negative).view(np.int64)
    return index[~blank], codes[~blank], len(ends), int(ends[-1]) + 1 if len(ends) else 40


def _dataset_blocks(source: str | Path | BinaryIO) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The index and row code of each row of the dataset CSV ``source``, a block at
    a time; only the last index read is kept across blocks, to check the order.

    After the header, each block is the whole lines of a mebibyte read by
    ``readinto`` into this thread's :func:`~bellsim.rng.scratch` arena, after
    40 bytes of room and the unended line before, copied out before a yield.
    A header is read to 64 bytes, a line refused past ``_LONG_LINE`` bytes.
    """
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _dataset_blocks(fh)
        return
    if not hasattr(source, "readinto") or not isinstance(source.read(0), bytes):
        raise TypeError(f"a dataset CSV is read from a path or a binary file, "
                        f"got {type(source).__name__}")
    header = source.readline(64).removesuffix(b"\n").removesuffix(b"\r")
    if header != _HEADER:
        raise ValueError(f"unexpected dataset header {_shown(header)!r}")
    last = np.empty(0, np.int64)
    line, chunk, kept = 2, BLOCK_TRIALS * 16, bytes(40)
    while kept:
        if len(kept) > 40 + _LONG_LINE:
            raise _row_error(kept[40:], line)
        text = scratch((len(kept) + chunk) // 8 + 1).view(np.uint8)
        text[:len(kept) + 1] = np.frombuffer(kept + b"\n", np.uint8)  # ends an unended last line
        got = source.readinto(text[len(kept):len(kept) + chunk])
        end = len(kept) + (got or len(kept) > 40)
        if end == 40:  # the file ends after a whole line
            return
        index, codes, lines, cut = _decode_rows(text[:end], line)
        kept = bytes(40) + text[cut:end].tobytes() if got else b""
        line += lines
        ordered = np.concatenate((last, index))
        _check_increasing(ordered)
        last = ordered[-1:]
        yield index, codes


def read_dataset_csv(source: str | Path | BinaryIO) -> TrialDataset:
    """Read a dataset written by :func:`write_dataset_csv`.

    ``source`` is a path or a binary file object; anything else raises
    ``TypeError`` before a byte is read. The first line is the header
    ``index,x1,x2,y1,y2,d1,d2``. Every other line is blank, and skipped, or
    a row in exactly the form the writer writes: seven comma-separated
    fields with no whitespace, integers in canonical decimal (no sign but a
    leading ``-``, no leading zero, no ``-0``), the index within int64, and
    the fields of a valid :class:`TrialRecord`, whose undetected spins are
    empty. Lines end in ``\\r\\n`` or ``\\n``; the last may lack its end.
    Indices must be strictly increasing, as generation produces them.
    Anything else raises ``ValueError``.

    Lines are decoded a block at a time with numpy, eight bytes to a word:
    each line's last 16 bytes from its first comma to its row code, and the
    words that end at that comma to its index. The blocks are joined;
    :func:`read_row_counts` needs no join.
    """
    index, code = [np.empty(0, np.int64)], [np.empty(0, np.uint8)]
    for block_index, block_code in _dataset_blocks(source):
        index.append(block_index)
        code.append(block_code)
    return TrialDataset(np.concatenate(index), np.concatenate(code))


def read_row_counts(source: str | Path | BinaryIO) -> np.ndarray:
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


def write_metadata(config: ExperimentConfig, path: str | Path) -> None:
    """Write the sidecar of a run: :func:`config_to_dict`, and for a run
    with angles ``angles_radians``, which give them back bit for bit."""
    doc = config_to_dict(config)
    if config.angles:
        doc["angles_radians"] = [a.radians for a in config.angles.theta]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
