"""Exactness of generated datasets and faking-LP solutions: the bytes and
records a seed or a program produces are fixed.

Seven independent checks:

* golden SHA-256 digests of ``bellsim simulate`` stdout for every source and
  setting distribution, recorded from the original per-trial generator;
* ``run_experiment`` against a per-trial reference assembled here from the
  public scalar functions (``SplitMix64``, ``derive_seed`` and the three
  samplers), on several seeds, sizes and block sizes, in an order that
  hits, misses and evicts the cache of lane keys;
* ``estimate`` against a reference that counts record by record and does
  the same float arithmetic, field for field;
* the draws per trial that ``experiment`` declares for each source and
  setting distribution, against the calls the scalar samplers and the
  scalar setting recipe make;
* seeds built by inverting ``mix64`` so that one trial's ``randbelow(3)``
  draws the single rejected value ``2**64 - 1``, at either end of a block,
  or so that a draw that may take that value (``randbelow(4)``, a
  sampler's ``random()``) does;
* golden SHA-256 digests of the solution documents of four faking LPs,
  recorded from the solver that ran on all 4096 strategy columns;
* a golden SHA-256 digest of the simplex's status, vertex bytes, objective
  and feasibility verdict on 1,000 seeded random small programs.
"""

import hashlib
import itertools
import json
import math
from collections import Counter
from statistics import NormalDist

import numpy as np
import pytest

from bellsim import experiment, rng, simplex
from bellsim.cli import main
from bellsim.counterfactuals import BELL_PAIRS, CounterfactualTable, Population
from bellsim.experiment import (
    SOURCE_DETERMINISTIC_LHV,
    SOURCE_LOOPHOLE,
    SOURCE_QUANTUM,
    SOURCE_STOCHASTIC_LHV,
    UNIFORM_4,
    UNIFORM_9,
    BellEstimate,
    ExperimentConfig,
    TrialRecord,
    estimate,
    run_experiment,
)
from bellsim.lhv import DeterministicLhv, StochasticLocalModel, sample_from_lhv, save_model
from bellsim.loophole import (
    FakingProblem,
    LpSolution,
    build_faking_lp,
    demonstration_solution,
    sample_loophole_model,
    solve_lp,
)
from bellsim.quantum import AngleTriple, match_table, sample_outcome_pair
from bellsim.rng import SplitMix64, derive_seed, mix64
from bellsim.simplex import LinearProgram

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15

CANONICAL = AngleTriple.from_degrees(60, 0, 120)
# Cumulative weights 0.1, 0.30000000000000004, 0.6000000000000001, 1.0.
MIXTURE = DeterministicLhv(
    Population(
        units=(
            CounterfactualTable((1, 1, 1), (-1, 1, 1)),
            CounterfactualTable((-1, 1, -1), (1, 1, -1)),
            CounterfactualTable((1, -1, 1), (-1, -1, 1)),
            CounterfactualTable((-1, -1, -1), (1, -1, 1)),
        ),
        weights=(0.1, 0.2, 0.3, 0.4),
    )
)
STOCHASTIC = StochasticLocalModel((0.2, 0.5, 0.9), (0.7, 0.1, 0.5))
# A hand-written faking model (not an LP output, so solver changes cannot
# move it); its weights sum to 1 only within rounding.
FAKING = {
    "status": "feasible",
    "weights": {
        "4095": 0.25, "2730": 0.2, "1365": 0.15, "63": 0.1,
        "3000": 0.1, "7": 0.1, "4032": 0.1,
    },
    "coincidence_rates": None,
    "min_coincidence_rate": None,
}

# SHA-256 of ``simulate --n 2000 --seed 2024`` stdout, recorded from the
# per-trial generator.
GOLDEN_SHA256 = {
    (SOURCE_QUANTUM, UNIFORM_9, "csv"):
        "898a36700aac0c7d66ab82b1dacfd80628b63910bb2f960132317c709c6e8e1d",
    (SOURCE_QUANTUM, UNIFORM_4, "csv"):
        "1f2f2a416cf8d9ee1ab694f0879f7e242c3d821fe60524a2b49c29d853564d2d",
    (SOURCE_DETERMINISTIC_LHV, UNIFORM_9, "csv"):
        "feb7ac6f4c3e57612a3d3c020edc7e3368effa71bbfdbd01eb469138d2db6a93",
    (SOURCE_DETERMINISTIC_LHV, UNIFORM_4, "csv"):
        "109d96b19f6dc310ba9fa7661a2ce17a0503237ffbbb34b93c630045b08575c2",
    (SOURCE_STOCHASTIC_LHV, UNIFORM_9, "csv"):
        "eb669df0d15a9251c673f211442de9bb669f34cb4d3bf30a5d45520cde490328",
    (SOURCE_STOCHASTIC_LHV, UNIFORM_4, "csv"):
        "6a8dde24ab75b8a2381d84cd16458a82217a7e7010be7e44a2e576ac2d71d934",
    (SOURCE_LOOPHOLE, UNIFORM_9, "csv"):
        "d9eae3316d36aa2f95f3f2833a97626d3164230d0fb10f68619be0264674d47f",
    (SOURCE_LOOPHOLE, UNIFORM_4, "csv"):
        "68726f98c7027642d13a4e11b6578e5c5c99caa7bca4c520eecf71b01457a4c1",
    (SOURCE_QUANTUM, UNIFORM_9, "json"):
        "44abfd85a1a6b33dabf2d1a2f606311ccefe36cfc20fea68df81192d53bda900",
}

# SHA-256 of ``json.dumps(solution.to_dict())``, recorded from the simplex
# run on the full 4097-variable program (no column presolve).
GOLDEN_SOLUTION_SHA256 = {
    ("floor0", "60,0,120"):
        "abd993cd5957efc73d5d832e54c4c1109f08b7ccc733e82007632d96156c45d8",
    ("floor1", "60,0,120"):
        "0a2c82a4f716955892557acd7c2f5b00d2278a9f5f6d3ff0a22793f4c3761076",
    ("demo", "60,0,120"):
        "3082206230de84092aa5797825f1a547f9cb903998c7f93ac97a7a044beb2cf5",
    ("floor0", "45,0,90"):
        "3c3802799dc22a9caa7388cb9ff5d1e9d8c08684f71b4c2257699a74aa61f9bf",
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    save_model(MIXTURE, root / "mixture.json")
    save_model(STOCHASTIC, root / "stochastic.json")
    (root / "faking.json").write_text(json.dumps(FAKING), encoding="utf-8")
    return root


def source_args(source, root):
    if source == SOURCE_QUANTUM:
        return ["--angles", "60,0,120"]
    if source == SOURCE_DETERMINISTIC_LHV:
        return ["--model", str(root / "mixture.json")]
    if source == SOURCE_STOCHASTIC_LHV:
        return ["--model", str(root / "stochastic.json")]
    return ["--solution", str(root / "faking.json")]


@pytest.mark.parametrize("source, distribution, fmt", sorted(GOLDEN_SHA256))
def test_simulate_stdout_matches_golden_digest(source, distribution, fmt, input_files, capsys):
    code = main(
        ["simulate", "--source", source, *source_args(source, input_files),
         "--n", "2000", "--seed", "2024", "--setting-distribution", distribution,
         "--format", fmt]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_SHA256[
        (source, distribution, fmt)
    ]


def test_out_file_holds_the_stdout_bytes(input_files, tmp_path, capsys):
    argv = ["simulate", "--source", SOURCE_LOOPHOLE, *source_args(SOURCE_LOOPHOLE, input_files),
            "--n", "500", "--seed", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path / "d.csv")]) == 0
    assert (tmp_path / "d.csv").read_bytes() == out.encode("utf-8")
    assert out.startswith("index,x1,x2,y1,y2,d1,d2\r\n")


def reference_settings(distribution, rng):
    """One trial's settings (x1, x2), drawn one at a time from ``rng``."""
    if distribution == UNIFORM_9:
        return rng.randbelow(3), rng.randbelow(3)
    return BELL_PAIRS[rng.randbelow(4)]


def reference_outcomes(config, pair, rng):
    """One trial's (y1, y2, d1, d2) at ``pair`` from the source's scalar sampler."""
    if config.source == SOURCE_QUANTUM:
        return (*sample_outcome_pair(pair, match_table(config.angles), rng), 1, 1)
    if config.source == SOURCE_LOOPHOLE:
        return sample_loophole_model(config.solution, pair, rng)
    return (*sample_from_lhv(config.model, pair, rng), 1, 1)


def reference_dataset(config):
    """The per-trial generator, written out from the public scalar functions."""
    records = []
    for i in range(config.n_trials):
        rng = SplitMix64(derive_seed(config.seed, i))
        x1, x2 = reference_settings(config.setting_distribution, rng)
        y1, y2, d1, d2 = reference_outcomes(config, (x1, x2), rng)
        records.append(TrialRecord(index=i, x1=x1, x2=x2, y1=y1, y2=y2, d1=d1, d2=d2))
    return records


def make_config(source, n, seed, distribution=UNIFORM_9):
    extra = {
        SOURCE_QUANTUM: {"angles": CANONICAL},
        SOURCE_DETERMINISTIC_LHV: {"model": MIXTURE},
        SOURCE_STOCHASTIC_LHV: {"model": STOCHASTIC},
        SOURCE_LOOPHOLE: {"solution": LpSolution.from_dict(FAKING)},
    }[source]
    return ExperimentConfig(
        n_trials=n, seed=seed, source=source, setting_distribution=distribution, **extra
    )


ALL_SOURCES = (SOURCE_QUANTUM, SOURCE_DETERMINISTIC_LHV, SOURCE_STOCHASTIC_LHV, SOURCE_LOOPHOLE)


@pytest.mark.parametrize("source", ALL_SOURCES)
@pytest.mark.parametrize("distribution", (UNIFORM_9, UNIFORM_4))
def test_run_experiment_matches_per_trial_reference(source, distribution):
    for seed in (0, 1, 12345, MASK64, -5):
        config = make_config(source, 300, seed, distribution)
        reference = reference_dataset(config)
        assert run_experiment(config) == reference


@pytest.mark.parametrize("source", ALL_SOURCES)
@pytest.mark.parametrize("distribution", (UNIFORM_9, UNIFORM_4))
def test_small_runs_match_per_trial_reference(source, distribution):
    for n in (1, 2, 90):
        for seed in (3, 2**63 + 11):
            config = make_config(source, n, seed, distribution)
            assert run_experiment(config) == reference_dataset(config)


class CountingRng(SplitMix64):
    """A :class:`SplitMix64` that counts its ``random`` and ``randbelow`` calls."""

    __slots__ = ("calls",)

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = Counter()

    def random(self):
        self.calls["random"] += 1
        return super().random()

    def randbelow(self, n):
        self.calls["randbelow"] += 1
        return super().randbelow(n)


def test_source_table_keeps_the_source_order():
    assert tuple(experiment._SOURCES) == experiment.SOURCES == ALL_SOURCES


@pytest.mark.parametrize("source", ALL_SOURCES)
def test_source_table_declares_what_the_scalar_sampler_draws(source):
    # An over-declared count leaves every dataset as it is, since the extra
    # row is drawn and never read; only counting the scalar draws shows it.
    config = make_config(source, 1, 0)
    for i, pair in enumerate(itertools.product(range(3), repeat=2)):
        rng = CountingRng(derive_seed(6, i))
        reference_outcomes(config, pair, rng)
        assert rng.calls == {"random": experiment._SOURCES[source].draws}


@pytest.mark.parametrize("distribution", (UNIFORM_9, UNIFORM_4))
def test_settings_table_declares_what_the_scalar_recipe_draws(distribution):
    for i in range(20):
        rng = CountingRng(derive_seed(6, i))
        reference_settings(distribution, rng)
        assert rng.calls == {"randbelow": experiment._SETTINGS[distribution].draws}


def test_lane_key_cache_hits_misses_and_evicts(monkeypatch):
    # Seeds and trial ranges interleaved: the keys of a range are shared by
    # every seed, survive other ranges while the cache has room, and are
    # rebuilt after eviction; every run must match the reference throughout.
    rng.lane_keys.cache_clear()
    configs = [make_config(source, n, seed)
               for n, seed, source in ((90, 1, SOURCE_DETERMINISTIC_LHV), (2, 1, SOURCE_QUANTUM),
                                       (90, 2, SOURCE_LOOPHOLE), (2, 5, SOURCE_STOCHASTIC_LHV))]
    for config in configs:
        assert run_experiment(config) == reference_dataset(config)
    info = rng.lane_keys.cache_info()
    assert (info.hits, info.misses) == (2, 2)

    # 13 blocks of 7 trials: more ranges than the cache holds.
    monkeypatch.setattr(experiment, "BLOCK_TRIALS", 7)
    for config in configs[:2]:
        assert run_experiment(config) == reference_dataset(config)
    monkeypatch.undo()
    info = rng.lane_keys.cache_info()
    assert info.currsize == info.maxsize < 13
    for config in configs:
        assert run_experiment(config) == reference_dataset(config)
    assert rng.lane_keys.cache_info().misses > info.misses


def test_cached_lane_keys_are_read_only():
    keys = rng.lane_keys(0, 90)
    assert not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[0] = 0
    assert keys is rng.lane_keys(0, 90)
    assert keys.tolist() == [mix64((i + 1) * GOLDEN & MASK64) for i in range(90)]
    run_experiment(make_config(SOURCE_QUANTUM, 90, 4))
    assert keys.tolist() == [mix64((i + 1) * GOLDEN & MASK64) for i in range(90)]


@pytest.mark.parametrize("source", ALL_SOURCES)
def test_small_blocks_match_reference(source, monkeypatch):
    monkeypatch.setattr(experiment, "BLOCK_TRIALS", 7)
    for distribution in (UNIFORM_9, UNIFORM_4):
        config = make_config(source, 90, 77, distribution)
        assert run_experiment(config) == reference_dataset(config)


def reference_estimate(records, conditioning, confidence):
    """:func:`estimate` written out record by record, with its float
    arithmetic in the same order. "coincidences-only" counts the matches of
    coincident records; "all-pairs" counts the matches of every record, an
    undetected particle 1 read as spin +1 and an undetected particle 2 as
    spin -1."""
    trials = [[0] * 3 for _ in range(3)]
    coinc = [[0] * 3 for _ in range(3)]
    matches = [[0] * 3 for _ in range(3)]
    for r in records:
        trials[r.x1][r.x2] += 1
        coincident = r.d1 == r.d2 == 1
        coinc[r.x1][r.x2] += coincident
        if conditioning == "all-pairs":
            y1 = r.y1 if r.d1 else 1
            y2 = r.y2 if r.d2 else -1
            matches[r.x1][r.x2] += y1 == y2
        elif coincident:
            matches[r.x1][r.x2] += r.y1 == r.y2
    rates = []
    variance = 0.0
    for i, j in BELL_PAIRS:
        denom = coinc[i][j] if conditioning == "coincidences-only" else trials[i][j]
        rate = matches[i][j] / denom
        rates.append(rate)
        variance += rate * (1.0 - rate) / denom
    statistic = rates[0] - rates[1] - rates[2] - rates[3]
    std_error = math.sqrt(variance)
    z = NormalDist().inv_cdf((1.0 + confidence) / 2.0)
    return BellEstimate(
        trials=tuple(map(tuple, trials)),
        coincidences=tuple(map(tuple, coinc)),
        matches=tuple(map(tuple, matches)),
        statistic=statistic,
        std_error=std_error,
        ci_low=statistic - z * std_error,
        ci_high=statistic + z * std_error,
        confidence=confidence,
        conditioning=conditioning,
    )


@pytest.mark.parametrize("source", ALL_SOURCES)
def test_estimate_matches_record_by_record_reference(source):
    for n, seed in ((90, 8), (3000, 9)):
        records = list(run_experiment(make_config(source, n, seed)))
        for conditioning in ("coincidences-only", "all-pairs"):
            for confidence in (0.99, 0.9):
                expected = reference_estimate(records, conditioning, confidence)
                assert estimate(records, conditioning, confidence) == expected


def unmix64(z):
    """Inverse of the splitmix64 finalizer ``mix64``."""

    def unxorshift(v, k):
        out = v
        for _ in range(64 // k):
            out = v ^ (out >> k)
        return out

    z = unxorshift(z, 31)
    z = z * pow(0x94D049BB133111EB, -1, 1 << 64) & MASK64
    z = unxorshift(z, 27)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & MASK64
    return unxorshift(z, 30)


def rejecting_seed(trial, draw):
    """A master seed under which draw ``draw`` (1-based) of trial ``trial`` is
    ``2**64 - 1``, the one value ``randbelow(3)`` rejects."""
    state = (unmix64(MASK64) - draw * GOLDEN) & MASK64
    return unmix64(state) ^ mix64((trial + 1) * GOLDEN & MASK64)


def test_unmix64_inverts_mix64():
    for z in (0, 1, GOLDEN, MASK64, 0x0123456789ABCDEF):
        assert mix64(unmix64(z)) == z and unmix64(mix64(z)) == z


def test_rejecting_seed_forces_the_rejection():
    assert rejecting_seed(17, 1) == 9069661590397731002
    for trial, draw in ((17, 1), (4, 2)):
        rng = SplitMix64(derive_seed(rejecting_seed(trial, draw), trial))
        draws = [rng.next_uint64() for _ in range(draw)]
        assert draws[-1] == MASK64


@pytest.mark.parametrize("source", ALL_SOURCES)
@pytest.mark.parametrize("trial, draw", ((17, 1), (4, 2)))
def test_rejected_setting_draw_matches_reference(source, trial, draw):
    config = make_config(source, 40, rejecting_seed(trial, draw))
    assert run_experiment(config) == reference_dataset(config)


@pytest.mark.parametrize("source", ALL_SOURCES)
def test_rejected_draws_in_a_small_run_match_reference(source):
    for trial, draw in ((17, 1), (4, 2), (89, 2)):
        config = make_config(source, 90, rejecting_seed(trial, draw))
        assert run_experiment(config) == reference_dataset(config)


@pytest.mark.parametrize("source", ALL_SOURCES)
@pytest.mark.parametrize("trial, draw", ((14, 1), (20, 2)))
def test_rejected_lane_at_a_block_edge_matches_reference(source, trial, draw, monkeypatch):
    # With blocks of 7 trials, trial 14 is the first lane of its block and
    # trial 20 the last.
    monkeypatch.setattr(experiment, "BLOCK_TRIALS", 7)
    config = make_config(source, 30, rejecting_seed(trial, draw))
    assert run_experiment(config) == reference_dataset(config)


@pytest.mark.parametrize("source", ALL_SOURCES)
@pytest.mark.parametrize("distribution, draw", ((UNIFORM_4, 1), (UNIFORM_9, 3)))
def test_accepted_max_word_is_not_spliced(source, distribution, draw):
    # randbelow(4) and the samplers' random() accept 2**64 - 1: the first
    # draw of uniform-4 and the sampler's first draw of uniform-9 keep it.
    config = make_config(source, 40, rejecting_seed(17, draw), distribution)
    assert run_experiment(config) == reference_dataset(config)


def test_sampler_word_is_kept_where_its_splice_would_show():
    # A rejecting seed fixes every draw of its trial: the settings are
    # (0, 1) and the uniforms after 2**64 - 1 are 0.752 and 0.805. At a
    # 124-degree separation the match probability, 0.780, lies between them,
    # so y2 differs if the sampler's first word, 2**64 - 1, is spliced out.
    config = ExperimentConfig(n_trials=40, seed=rejecting_seed(17, 3), source=SOURCE_QUANTUM,
                              angles=AngleTriple.from_degrees(0, 124, 0))
    reference = reference_dataset(config)
    assert (reference[17].x1, reference[17].x2, reference[17].y2) == (0, 1, -1)
    assert run_experiment(config) == reference


@pytest.mark.parametrize("kind, angles", sorted(GOLDEN_SOLUTION_SHA256))
def test_faking_solution_matches_golden_digest(kind, angles):
    targets = match_table(AngleTriple.from_degrees(*map(float, angles.split(","))))
    if kind == "demo":
        solution = demonstration_solution(targets)
    else:
        floor = 0.0 if kind == "floor0" else 1.0
        solution = solve_lp(build_faking_lp(FakingProblem(targets=targets, efficiency_floor=floor)))
    digest = hashlib.sha256(json.dumps(solution.to_dict()).encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SOLUTION_SHA256[(kind, angles)]


def random_small_program(generator):
    """A program of at most 5 distinct columns, often degenerate, redundant,
    infeasible or unbounded: small-integer or two-decimal entries, right-hand
    sides of either sign, an equality row repeated (consistently or not),
    an inequality row repeated, and columns repeated in a shuffled order."""
    n = int(generator.integers(1, 6))
    m_eq = int(generator.integers(0, 3))
    m_ub = int(generator.integers(0, 4))

    def entries(*shape):
        if generator.random() < 0.5:
            return generator.integers(-3, 4, size=shape).astype(float)
        return np.round(generator.normal(size=shape), 2)

    a_eq, b_eq = entries(m_eq, n), entries(m_eq)
    a_ub, b_ub = entries(m_ub, n), entries(m_ub)
    if m_eq and generator.random() < 0.4:
        r = int(generator.integers(m_eq))
        scale = float(generator.integers(1, 3))
        a_eq = np.vstack([a_eq, scale * a_eq[r]])
        b_eq = np.append(b_eq, scale * b_eq[r] + float(generator.random() < 0.5))
    if m_ub and generator.random() < 0.4:
        r = int(generator.integers(m_ub))
        a_ub = np.vstack([a_ub, a_ub[r]])
        b_ub = np.append(b_ub, b_ub[r])
    if generator.random() < 0.5:  # a cap, so that more programs have an optimum
        a_ub = np.vstack([a_ub, np.ones(n)])
        b_ub = np.append(b_ub, float(generator.integers(1, 4)))
    order = np.concatenate([np.arange(n), generator.integers(0, n, size=int(generator.integers(0, 4)))])
    generator.shuffle(order)
    return LinearProgram(entries(n)[order], a_eq[:, order], b_eq, a_ub[:, order], b_ub)


# SHA-256 over 1,000 programs from ``random_small_program`` seeded with
# ``default_rng(2014)``: status, ``x`` bytes, ``repr`` of the objective and
# ``feasible``, recorded from the solver that updated its right-hand side
# apart from its rows and found twin columns with ``np.unique``.
GOLDEN_RANDOM_PROGRAMS_SHA256 = (
    "ce8594d57ad5410f5d96fb630efc2b891278c247a199e6c6ed8787f64bb2fe6a"
)


def test_random_programs_match_golden_digest():
    generator = np.random.default_rng(2014)
    digest = hashlib.sha256()
    statuses = set()
    for _ in range(1000):
        program = random_small_program(generator)
        result = simplex.solve(program)
        statuses.add(result.status)
        x = b"" if result.x is None else result.x.tobytes()
        digest.update(f"{result.status}|{result.objective!r}|{simplex.feasible(program)}|".encode())
        digest.update(x + b"\n")
    assert statuses == {"optimal", "infeasible", "unbounded"}
    assert digest.hexdigest() == GOLDEN_RANDOM_PROGRAMS_SHA256
