import csv
import io
import itertools
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim import experiment, rng
from bellsim.counterfactuals import CounterfactualTable, Population
from bellsim.experiment import (
    CONDITION_ALL_PAIRS,
    CONDITION_COINCIDENCES,
    SOURCE_DETERMINISTIC_LHV,
    SOURCE_LOOPHOLE,
    SOURCE_QUANTUM,
    SOURCE_STOCHASTIC_LHV,
    UNIFORM_4,
    BellEstimate,
    ConfigError,
    EstimationError,
    ExperimentConfig,
    TrialDataset,
    TrialRecord,
    config_to_dict,
    decide,
    estimate,
    read_dataset_csv,
    read_row_counts,
    run_experiment,
    write_dataset_csv,
    write_metadata,
)
from bellsim.counterfactuals import violation_margin
from bellsim.lhv import DeterministicLhv, StochasticLocalModel
from bellsim.loophole import N_STRATEGIES
from bellsim.quantum import AngleTriple

CANONICAL = AngleTriple.from_degrees(60, 0, 120)


def quantum_config(n=1000, seed=7, **kw):
    return ExperimentConfig(n_trials=n, seed=seed, source=SOURCE_QUANTUM, angles=CANONICAL, **kw)


def sidecar(config, tmp_path) -> dict:
    """The sidecar :func:`write_metadata` writes for ``config``, read back."""
    write_metadata(config, tmp_path / "side.json")
    return json.loads((tmp_path / "side.json").read_text())


def single_table_config(n=1000, seed=3):
    model = DeterministicLhv.single(CounterfactualTable((1, -1, 1), (-1, 1, -1)))
    return ExperimentConfig(
        n_trials=n, seed=seed, source=SOURCE_DETERMINISTIC_LHV, model=model
    )


class TestConfigValidation:
    def test_quantum_needs_angles(self):
        with pytest.raises(ConfigError, match="^quantum source needs angles of type AngleTriple"):
            ExperimentConfig(n_trials=10, seed=1, source=SOURCE_QUANTUM)

    def test_lhv_sources_need_matching_model(self):
        with pytest.raises(ConfigError, match="needs model of type DeterministicLhv, got NoneType"):
            ExperimentConfig(n_trials=10, seed=1, source=SOURCE_DETERMINISTIC_LHV)
        with pytest.raises(ConfigError,
                           match="needs model of type StochasticLocalModel, got DeterministicLhv"):
            ExperimentConfig(
                n_trials=10,
                seed=1,
                source=SOURCE_STOCHASTIC_LHV,
                model=DeterministicLhv.single(CounterfactualTable((1,) * 3, (1,) * 3)),
            )

    def test_loophole_needs_feasible_solution(self):
        from bellsim.loophole import LpSolution

        bad = LpSolution(
            status="infeasible", weights={}, coincidence_rates=None, min_coincidence_rate=None
        )
        with pytest.raises(ConfigError, match="^loophole source needs a feasible LpSolution$"):
            ExperimentConfig(n_trials=10, seed=1, source=SOURCE_LOOPHOLE, solution=bad)
        with pytest.raises(ConfigError, match="^loophole source needs solution of type LpSolution"):
            ExperimentConfig(n_trials=10, seed=1, source=SOURCE_LOOPHOLE, angles=CANONICAL)

    def test_loophole_angles_must_be_an_angle_triple(self):
        # Unchecked, a tuple generated a dataset and then broke config_to_dict.
        from bellsim.loophole import LpSolution

        solution = LpSolution(status="feasible", weights={7: 1.0},
                              coincidence_rates=None, min_coincidence_rate=None)
        with pytest.raises(ConfigError,
                           match="^loophole source needs angles of type AngleTriple, got tuple$"):
            ExperimentConfig(n_trials=10, seed=1, source=SOURCE_LOOPHOLE,
                             angles=(60, 0, 120), solution=solution)

    @pytest.mark.parametrize("source, payload", (
        (SOURCE_QUANTUM, "model"),
        (SOURCE_QUANTUM, "solution"),
        (SOURCE_DETERMINISTIC_LHV, "angles"),
        (SOURCE_DETERMINISTIC_LHV, "solution"),
        (SOURCE_STOCHASTIC_LHV, "angles"),
        (SOURCE_LOOPHOLE, "model"),
    ))
    def test_payload_the_source_does_not_use_is_rejected(self, source, payload):
        from bellsim.loophole import LpSolution

        solution = LpSolution(status="feasible", weights={7: 1.0},
                              coincidence_rates=None, min_coincidence_rate=None)
        stochastic = StochasticLocalModel(p1=(0.5,) * 3, p2=(0.5,) * 3)
        valid = {
            SOURCE_QUANTUM: {"angles": CANONICAL},
            SOURCE_DETERMINISTIC_LHV: {"model": single_table_config().model},
            SOURCE_STOCHASTIC_LHV: {"model": stochastic},
            SOURCE_LOOPHOLE: {"solution": solution, "angles": CANONICAL},
        }[source]
        ExperimentConfig(n_trials=10, seed=1, source=source, **valid)
        extra = {"angles": CANONICAL, "model": stochastic, "solution": solution}[payload]
        with pytest.raises(ConfigError, match=f"^{source} source does not use {payload}$"):
            ExperimentConfig(n_trials=10, seed=1, source=source, **valid, **{payload: extra})
        wrong = dict.fromkeys(valid, "of no payload type")  # judged after the unused payload
        with pytest.raises(ConfigError, match=f"^{source} source does not use {payload}$"):
            ExperimentConfig(n_trials=10, seed=1, source=source, **wrong, **{payload: extra})

    @pytest.mark.parametrize("weights, match", (
        ({63: -0.5, 4095: 1.5}, "weight -0.5 of strategy 63 is negative"),
        ({63: 1.0, 4095: 2.0}, "weights sum to 3.0, not 1"),
        ({63: math.nan}, "weight of strategy 63 nan is not a finite number"),
        ({63: math.inf}, "weight of strategy 63 inf is not a finite number"),
    ))
    def test_loophole_weights_must_be_a_mixture(self, weights, match):
        # Each of these once gave a dataset with Bell statistic -2.0.
        from bellsim.loophole import LpSolution

        with pytest.raises(ValueError, match=match):
            ExperimentConfig(n_trials=10, seed=1, source=SOURCE_LOOPHOLE,
                             solution=LpSolution("feasible", weights, None, None))

    def test_unknown_setting_distribution(self):
        with pytest.raises(ConfigError, match="^unknown setting distribution 'uniform-3'$"):
            quantum_config(setting_distribution="uniform-3")

    def test_unknown_source_and_bad_sizes(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n_trials=10, seed=1, source="telepathy")
        with pytest.raises(ConfigError):
            quantum_config(n=0)

    @pytest.mark.parametrize("field", ("n", "seed"))
    @pytest.mark.parametrize("value", (2.5, 3.0, 90.0, True, False, np.bool_(True), "7", "90",
                                       None, np.float64(4.0)))
    def test_sizes_and_seeds_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match="must be an integer"):
            quantum_config(**{field: value})

    @pytest.mark.parametrize("n, seed", (
        (np.int64(12), np.uint64(2**64 - 1)), (np.int64(90), np.uint64(2**64 - 1)),
        (np.uint64(90), np.int64(2**63 - 1)), (np.int32(90), np.uint8(7)),
    ))
    def test_numpy_integers_become_python_ints(self, n, seed):
        cfg = quantum_config(n=n, seed=seed)
        assert (cfg.n_trials, cfg.seed) == (int(n), int(seed))
        assert type(cfg.n_trials) is int and type(cfg.seed) is int
        data, same = run_experiment(cfg), run_experiment(quantum_config(n=int(n), seed=int(seed)))
        assert data.index.tobytes() == same.index.tobytes()
        assert data.code.tobytes() == same.code.tobytes()
        assert json.loads(json.dumps(config_to_dict(cfg)))["seed"] == int(seed)

    def test_sidecar_gives_back_the_angles_bit_for_bit(self, tmp_path):
        # Through degrees, 14 of the triples (d, 0, 120) came back an ulp off.
        random = np.random.default_rng(11).uniform(0, 360, (200, 3)).tolist()
        for degrees in [(d, 0, 120) for d in range(360)] + random:
            angles = AngleTriple.from_degrees(*degrees)
            doc = sidecar(ExperimentConfig(n_trials=1, seed=1, source=SOURCE_QUANTUM,
                                           angles=angles), tmp_path)
            restored = AngleTriple.from_radians(*doc["angles_radians"])
            assert [a.radians for a in restored.theta] == [a.radians for a in angles.theta]

    # The sidecar records the run: rebuilt from its fields, the configuration
    # regenerates the dataset. A run without angles gets no angles_radians.
    def test_sidecar_regenerates_the_dataset(self, tmp_path):
        config = ExperimentConfig(n_trials=20_000, seed=5, source=SOURCE_QUANTUM,
                                  angles=AngleTriple.from_degrees(228, 0, 120))
        doc = sidecar(config, tmp_path)
        restored = ExperimentConfig(doc["n_trials"], doc["seed"], doc["source"],
                                    AngleTriple.from_radians(*doc["angles_radians"]),
                                    setting_distribution=doc["setting_distribution"])
        written = []
        for cfg in (config, restored):
            buf = io.BytesIO()
            write_dataset_csv(run_experiment(cfg), buf)
            written.append(buf.getvalue())
        assert written[0] == written[1]
        assert sidecar(single_table_config(), tmp_path) == config_to_dict(single_table_config())


class TestTrialRecord:
    def test_outcome_presence_must_match_detection(self):
        with pytest.raises(ValueError):
            TrialRecord(index=0, x1=0, x2=0, y1=None, y2=1, d1=1, d2=1)
        with pytest.raises(ValueError):
            TrialRecord(index=0, x1=0, x2=0, y1=1, y2=1, d1=1, d2=0)

    def test_spins_validated(self):
        with pytest.raises(ValueError):
            TrialRecord(index=0, x1=0, x2=0, y1=2, y2=1, d1=1, d2=1)

    @pytest.mark.parametrize("x1, x2", ((-1, 0), (7, 0), (0, 3)))
    def test_settings_validated(self, x1, x2):
        with pytest.raises(ValueError, match="must be 0, 1 or 2"):
            TrialRecord(index=0, x1=x1, x2=x2, y1=1, y2=1, d1=1, d2=1)


class TestRunExperiment:
    def test_same_config_and_seed_reproduces_records(self):
        cfg = quantum_config()
        assert run_experiment(cfg) == run_experiment(cfg)

    def test_different_seed_changes_records(self):
        assert run_experiment(quantum_config(seed=7)) != run_experiment(quantum_config(seed=8))

    def test_degenerate_angles_force_anticorrelation_everywhere(self):
        cfg = ExperimentConfig(
            n_trials=2000,
            seed=5,
            source=SOURCE_QUANTUM,
            angles=AngleTriple.from_degrees(0, 0, 0),
        )
        for rec in run_experiment(cfg):
            assert rec.y2 == -rec.y1 and rec.d1 == rec.d2 == 1

    def test_single_table_source_is_a_function_of_settings(self):
        cfg = single_table_config()
        table = cfg.model.mixture.units[0]
        for rec in run_experiment(cfg):
            assert rec.y1 == table.y1[rec.x1]
            assert rec.y2 == table.y2[rec.x2]

    def test_indices_strictly_increase(self):
        recs = run_experiment(quantum_config(n=100))
        assert [r.index for r in recs] == list(range(100))

    def test_uniform_4_only_draws_statistic_pairs(self):
        cfg = quantum_config(n=2000, setting_distribution=UNIFORM_4)
        pairs = {(r.x1, r.x2) for r in run_experiment(cfg)}
        assert pairs == {(1, 2), (0, 2), (1, 0), (0, 0)}

    def test_uniform_9_draws_all_pairs(self):
        pairs = {(r.x1, r.x2) for r in run_experiment(quantum_config(n=2000))}
        assert len(pairs) == 9

    def test_block_size_does_not_change_records(self, monkeypatch):
        cfg = quantum_config(n=100, setting_distribution=UNIFORM_4)
        whole = run_experiment(cfg)
        monkeypatch.setattr(experiment, "BLOCK_TRIALS", 7)
        assert run_experiment(cfg) == whole

    def test_dataset_is_columnar_and_iterates_as_records(self):
        data = run_experiment(quantum_config(n=30))
        assert len(data) == 30
        assert data.index.dtype == np.int64 and data.x1.dtype == np.int8
        records = list(data)
        assert all(isinstance(r, TrialRecord) for r in records)
        assert data == records and records == data
        assert TrialDataset.from_records(records) == data
        assert data != records[:-1]
        assert data != records[:-1] + [TrialRecord(29, 0, 0, None, None, 0, 0)]


class TestTrialDatasetArrays:
    def test_empty_lists_are_an_empty_dataset(self):
        data = TrialDataset([], [])
        assert len(data) == 0 and list(data.rows()) == []
        assert data.index.dtype == np.int64 and data.code.dtype == np.uint8

    def test_valid_codes_of_any_integer_dtype_are_kept(self):
        data = TrialDataset([5, 2], np.array([0, 80], dtype=np.int64))
        assert data.code.dtype == np.uint8 and data.code.tolist() == [0, 80]
        assert data.index.tolist() == [5, 2]

    def test_mismatched_lengths_are_refused(self):
        # The writer spread the one code over three rows, and rows() yielded one.
        with pytest.raises(ValueError, match="^TrialDataset has 3 indices but 1 codes$"):
            TrialDataset([0, 1, 2], [40])

    @pytest.mark.parametrize("code", ([300, 296], [40, -1], [81], np.array([200, 5], np.uint8)))
    def test_codes_outside_0_to_80_are_refused(self, code):
        # 300 and 296 wrapped to codes 44 and 40, a valid-looking dataset;
        # uint8 200 was kept, and the writer clipped it to code 80.
        with pytest.raises(ValueError, match="^TrialDataset codes must lie in 0 to 80"):
            TrialDataset(np.arange(len(code)), np.array(code))

    @pytest.mark.parametrize("field", ("index", "code"))
    @pytest.mark.parametrize("values", (
        np.array([40.6, 40.0]),  # truncated to 40 once
        np.array([True, False]),
        np.array(["40", "41"]),
    ), ids=("float", "bool", "str"))
    def test_non_integer_arrays_are_refused(self, field, values):
        arrays = {"index": np.arange(2), "code": np.array([40, 41]), field: values}
        with pytest.raises(ValueError, match=f"^TrialDataset {field} must be a one-dimensional "
                                             "integer array"):
            TrialDataset(**arrays)

    # 2**63 was cast to -2**63 and round-tripped through the CSV.
    @pytest.mark.parametrize("index", (
        np.array([2**63], dtype=np.uint64),
        np.array([0, 2**64 - 1], dtype=np.uint64),
        [2**63],
    ), ids=("2**63", "2**64-1", "list"))
    def test_unsigned_indices_beyond_int64_are_refused(self, index):
        with pytest.raises(ValueError, match="^TrialDataset indices must fit in int64"):
            TrialDataset(index, [40] * len(index))

    def test_unsigned_indices_within_int64_are_kept(self):
        data = TrialDataset(np.array([0, 2**63 - 1], dtype=np.uint64), [40, 41])
        assert data.index.dtype == np.int64 and data.index.tolist() == [0, 2**63 - 1]

    @pytest.mark.parametrize("field", ("index", "code"))
    @pytest.mark.parametrize("values", (np.zeros((2, 2), dtype=int), 40), ids=("2-D", "scalar"))
    def test_arrays_must_be_one_dimensional(self, field, values):
        arrays = {"index": np.arange(2), "code": np.array([40, 41]), field: values}
        with pytest.raises(ValueError, match=f"^TrialDataset {field} must be a one-dimensional"):
            TrialDataset(**arrays)

    def test_equality_with_other_objects_and_repr(self):
        record = TrialRecord(index=0, x1=0, x2=0, y1=1, y2=1, d1=1, d2=1)
        data = TrialDataset.from_records([record])
        assert data == [record] and data != [record, "x"]
        assert data.__eq__(5) is NotImplemented
        assert repr(data) == "TrialDataset(<1 trials>)"


def _hand_dataset():
    """Four trials per statistic cell with matches 3, 1, 1, 0."""
    records = []
    idx = 0
    plan = {(1, 2): 3, (0, 2): 1, (1, 0): 1, (0, 0): 0}
    for (x1, x2), n_match in plan.items():
        for k in range(4):
            match = k < n_match
            y1 = 1
            records.append(
                TrialRecord(
                    index=idx, x1=x1, x2=x2, y1=y1, y2=y1 if match else -y1, d1=1, d2=1
                )
            )
            idx += 1
    return TrialDataset.from_records(records)


class TestEstimate:
    def test_hand_computed_statistic_and_error(self):
        est = estimate(_hand_dataset(), confidence=0.99)
        assert est.statistic == pytest.approx(0.25)
        # var = (0.1875 * 3) / 4 = 0.140625, SE = 0.375 exactly
        assert est.std_error == pytest.approx(0.375, abs=1e-15)
        assert est.ci_low == pytest.approx(0.25 - 2.5758293035489004 * 0.375, abs=1e-9)
        assert est.ci_high == pytest.approx(0.25 + 2.5758293035489004 * 0.375, abs=1e-9)

    def test_statistic_recomputes_from_cells(self):
        est = estimate(_hand_dataset())
        rates = [est.matches[i][j] / est.coincidences[i][j] for i, j in ((1, 2), (0, 2), (1, 0), (0, 0))]
        assert est.statistic == pytest.approx(rates[0] - rates[1] - rates[2] - rates[3], abs=1e-12)

    def test_all_match_dataset_scores_minus_two(self):
        records = [
            TrialRecord(index=i, x1=x1, x2=x2, y1=1, y2=1, d1=1, d2=1)
            for i, (x1, x2) in enumerate(((1, 2), (0, 2), (1, 0), (0, 0)))
        ]
        assert estimate(TrialDataset.from_records(records)).statistic == -2.0

    def test_empty_cell_raises_naming_the_cell(self):
        records = [r for r in _hand_dataset() if (r.x1, r.x2) != (0, 2)]
        with pytest.raises(EstimationError, match=r"\(0,2\)"):
            estimate(TrialDataset.from_records(records))

    def test_conditioning_changes_denominator(self):
        # One coincident match plus one undetected trial per statistic cell.
        records = []
        idx = 0
        for x1, x2 in ((1, 2), (0, 2), (1, 0), (0, 0)):
            records.append(TrialRecord(index=idx, x1=x1, x2=x2, y1=1, y2=1, d1=1, d2=1))
            idx += 1
            records.append(TrialRecord(index=idx, x1=x1, x2=x2, y1=1, y2=None, d1=1, d2=0))
            idx += 1
        data = TrialDataset.from_records(records)
        cond = estimate(data, conditioning=CONDITION_COINCIDENCES)
        assert cond.statistic == pytest.approx(-2.0)
        allp = estimate(data, conditioning=CONDITION_ALL_PAIRS)
        assert allp.statistic == pytest.approx(-1.0)
        assert allp.matches[1][2] / allp.trials[1][2] == pytest.approx(0.5)

    def test_estimator_consistency_with_growing_samples(self):
        truth = violation_margin(CANONICAL)
        for n in (1_000, 10_000, 100_000):
            est = estimate(run_experiment(quantum_config(n=n, seed=11)))
            assert abs(est.statistic - truth) <= 5 / math.sqrt(n / 9)

    def test_refuses_a_record_list(self):
        with pytest.raises(TypeError, match="TrialDataset or its row counts, got list"):
            estimate(list(_hand_dataset()))

    def test_rejects_bad_confidence_and_conditioning(self):
        with pytest.raises(ValueError):
            estimate(_hand_dataset(), confidence=1.0)
        with pytest.raises(ValueError, match=r"confidence 0\.9999999999999999: .* rounds to 1"):
            estimate(_hand_dataset(), confidence=0.9999999999999999)
        with pytest.raises(ValueError):
            estimate(_hand_dataset(), conditioning="sometimes")

    @pytest.mark.parametrize("dtype", (np.int64, np.int32, np.uint64))
    def test_row_counts_estimate_as_their_dataset(self, dtype, demo_dataset):
        counts = np.bincount(demo_dataset.code, minlength=81).astype(dtype)
        for conditioning in (CONDITION_COINCIDENCES, CONDITION_ALL_PAIRS):
            assert estimate(counts, conditioning) == estimate(demo_dataset, conditioning)

    @pytest.mark.parametrize(
        ("counts", "match"),
        (
            (np.ones(80, np.int64), r"shape \(81,\) .* got shape \(80,\)"),
            (np.ones((9, 9), np.int64), r"got shape \(9, 9\)"),
            (np.ones(81), "dtype float64"),
            (np.ones(81, bool), "dtype bool"),
            (np.ones(81, object), "dtype object"),
            (np.array([1] * 80 + [-3]), "non-negative .* got least -3"),
            (np.array([1] * 80 + [2**63], np.uint64), "non-negative .* got least 1 "),
            (np.full(81, 2**62, np.int64), f"total below 2\\*\\*63, .* total {81 * 2**62}"),
        ),
    )
    def test_rejects_malformed_row_counts(self, counts, match):
        with pytest.raises(ValueError, match=f"^row counts .*{match}"):
            estimate(counts)


def strategy_spins(s, fill):
    """The spins augmented strategy ``s`` (12 bits: y1, y2, d1, d2, each by
    setting, most significant first) shows at each setting, with ``fill``
    for particle 1 and particle 2 where it does not detect."""
    def spin(bit):
        return ((s >> bit) & 1) * 2 - 1

    y1 = [spin(11 - x) if (s >> (5 - x)) & 1 else fill[0] for x in range(3)]
    y2 = [spin(8 - x) if (s >> (2 - x)) & 1 else fill[1] for x in range(3)]
    return y1, y2


def filled_matches(s, fill):
    y1, y2 = strategy_spins(s, fill)
    return [[int(a == b) for b in y2] for a in y1]


def filled_score(s, fill):
    m = filled_matches(s, fill)
    return m[1][2] - m[0][2] - m[1][0] - m[0][0]


class TestAllPairsFill:
    # "all-pairs" scores an undetected particle as a fixed spin (Garg and
    # Mermin, Phys. Rev. D 35, 3831, 1987): every augmented strategy then
    # acts as a table of spins, so Theorem 2's local bound of 0 holds.
    @pytest.mark.parametrize("fill", tuple(itertools.product((1, -1), repeat=2)))
    def test_no_strategy_scores_above_zero_under_any_fill(self, fill):
        assert max(filled_score(s, fill) for s in range(N_STRATEGIES)) == 0

    def test_estimate_fills_plus_one_for_particle_1_and_minus_one_for_particle_2(self):
        # One trial of strategy s and one of strategy 4095 (always detects,
        # every spin +1, scores -2) in each cell: every cell has a
        # coincidence and the statistic is (score of s - 2) / 2 exactly.
        always = N_STRATEGIES - 1
        for s in range(N_STRATEGIES):
            counts = np.zeros(81, np.int64)
            for t in (s, always):
                y1, y2 = strategy_spins(t, (0, 0))
                for x1, x2 in itertools.product(range(3), repeat=2):
                    counts[experiment._row_code(x1, x2, y1[x1], y2[x2])] += 1
            est = estimate(counts, CONDITION_ALL_PAIRS)
            expected = [[m + 1 for m in row] for row in filled_matches(s, (1, -1))]
            assert est.matches == tuple(map(tuple, expected))
            assert est.statistic == (filled_score(s, (1, -1)) - 2) / 2


class TestDecide:
    def test_quantum_run_rejects(self):
        est = estimate(run_experiment(quantum_config(n=90_000)))
        decision = decide(est, alpha=0.01)
        assert decision.reject_lhv and decision.margin > 0

    def test_zero_statistic_retains(self):
        records = [
            TrialRecord(index=i, x1=x1, x2=x2, y1=1, y2=-1, d1=1, d2=1)
            for i, (x1, x2) in enumerate(((1, 2), (0, 2), (1, 0), (0, 0)))
        ]
        est = estimate(TrialDataset.from_records(records))
        assert est.statistic == 0.0 and not decide(est).reject_lhv

    def test_lhv_run_retains(self):
        est = estimate(run_experiment(single_table_config(n=20_000)))
        assert not decide(est, alpha=0.01).reject_lhv

    def test_lhv_statistic_stays_within_noise_of_local_bound(self):
        # Not a fixed value: any local source keeps the estimate below 0 plus
        # sampling noise.
        from bellsim.counterfactuals import all_tables

        mixtures = [
            DeterministicLhv(Population(units=(all_tables()[9], all_tables()[54]), weights=(0.3, 0.7))),
            DeterministicLhv(Population(units=all_tables()[:8])),
        ]
        for k, model in enumerate(mixtures):
            cfg = ExperimentConfig(
                n_trials=90_000, seed=100 + k, source=SOURCE_DETERMINISTIC_LHV, model=model
            )
            est = estimate(run_experiment(cfg))
            assert est.statistic <= 3 * est.std_error

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            decide(estimate(_hand_dataset()), alpha=0.0)
        with pytest.raises(ValueError, match=r"alpha 1e-20: 1 - alpha rounds to 1"):
            decide(estimate(_hand_dataset()), alpha=1e-20)


@pytest.fixture(scope="module")
def demo_dataset():
    from bellsim.loophole import demonstration_solution
    from bellsim.quantum import match_table

    solution = demonstration_solution(match_table(CANONICAL))
    cfg = ExperimentConfig(
        n_trials=120_000, seed=21, source=SOURCE_LOOPHOLE, solution=solution
    )
    return run_experiment(cfg)


class TestLoopholeSourceDecisions:
    def test_coincidence_conditioning_rejects(self, demo_dataset):
        est = estimate(demo_dataset, conditioning=CONDITION_COINCIDENCES)
        assert decide(est, alpha=0.01).reject_lhv

    def test_all_pairs_accounting_retains(self, demo_dataset):
        est = estimate(demo_dataset, conditioning=CONDITION_ALL_PAIRS)
        assert not decide(est, alpha=0.01).reject_lhv

    def test_loophole_records_have_missing_outcomes(self, demo_dataset):
        assert any(r.d1 == 0 or r.d2 == 0 for r in demo_dataset)


def test_one_row_table_defines_codes_tails_and_columns(demo_dataset):
    fields = experiment._ROW_FIELDS.tolist()
    for code, (x1, x2, y1, y2, d1, d2) in enumerate(fields):
        assert experiment._row_code(x1, x2, y1, y2) == code
        assert (d1, d2) == (int(y1 != 0), int(y2 != 0))
        tail = experiment._ROW_TAILS[code].split(b",")
        assert tail[0] == b"" and [int(f or 0) for f in tail[1:]] == fields[code]
    buf = io.BytesIO()
    write_dataset_csv(demo_dataset, buf)
    buf.seek(0)
    for data in (demo_dataset, read_dataset_csv(buf)):
        assert data.code.dtype == np.uint8 and data.x1.dtype == np.int8
        assert not data.x1.flags.writeable
        expected = TrialDataset.from_records(list(data)).columns()
        assert all(np.array_equal(a, b) for a, b in zip(data.columns(), expected, strict=True))


def csv_module_bytes(records) -> bytes:
    """What ``csv.writer`` writes for ``records``, header included."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(("index", "x1", "x2", "y1", "y2", "d1", "d2"))
    writer.writerows(
        (r.index, r.x1, r.x2, "" if r.y1 is None else r.y1, "" if r.y2 is None else r.y2,
         r.d1, r.d2)
        for r in records
    )
    return out.getvalue().encode("ascii")


#: Both readers of the dataset CSV: every input either reads or fails the same way.
READERS = (read_dataset_csv, read_row_counts)


class LineReads(io.BytesIO):
    """A binary stream whose every read returns one line, or as much of it
    as ``readinto``'s buffer holds."""

    def read(self, size=-1):
        return self.readline() if size else b""

    def readinto(self, buffer):
        line = self.readline(len(buffer))
        buffer[:len(line)] = np.frombuffer(line, np.uint8)
        return len(line)


def assert_reads(read, source, records):
    """``read`` of ``source`` gives ``records``, or their 81 row-code counts
    for :func:`read_row_counts`."""
    got = read(source)
    if read is read_row_counts:
        code = TrialDataset.from_records(records).code
        assert got.dtype == np.int64 and np.array_equal(got, np.bincount(code, minlength=81))
    else:
        assert got == records


def reader_error(source, match=None):
    """The ``ValueError`` message both readers give for the CSV bytes
    ``source``, from a binary stream; the two must agree."""
    messages = set()
    for read in READERS:
        with pytest.raises(ValueError, match=match) as exc:
            read(io.BytesIO(source))
        messages.add(str(exc.value))
    assert len(messages) == 1, messages
    return messages.pop()


@st.composite
def valid_records(draw):
    """Valid records with strictly increasing int64 indices, always including
    a negative index, 0 and a 19-digit index."""
    int64 = st.integers(-(2**63), 2**63 - 1)
    indices = draw(st.sets(int64 | st.integers(-30, 30), max_size=30))
    indices |= {0, draw(st.integers(-(2**63), -1)), draw(st.integers(10**18, 2**63 - 1))}
    setting = st.integers(0, 2)
    spin = st.sampled_from((-1, None, 1))
    records = []
    for i in sorted(indices):
        y1, y2 = draw(spin), draw(spin)
        records.append(TrialRecord(index=i, x1=draw(setting), x2=draw(setting), y1=y1, y2=y2,
                                   d1=int(y1 is not None), d2=int(y2 is not None)))
    return records


@pytest.mark.parametrize("block_trials", (experiment.BLOCK_TRIALS, 3))
@settings(max_examples=60, deadline=None)
@given(records=valid_records())
def test_csv_round_trip_property(block_trials, records):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiment, "BLOCK_TRIALS", block_trials)
        expected = csv_module_bytes(records)
        written = io.BytesIO()
        write_dataset_csv(TrialDataset.from_records(records), written)
        assert written.getvalue() == expected
        for data, read in itertools.product((expected, expected.replace(b"\r\n", b"\n")), READERS):
            assert_reads(read, io.BytesIO(data), records)


#: Indices at the codec's eight-digit word boundaries: 10**k - 1 and 10**k,
#: runs across 10**8 and 10**16, and the signs and extremes of int64.
WORD_BOUNDARY_INDICES = sorted(
    {10**k + d for k in range(1, 19) for d in (-1, 0)}
    | set(range(10**8 - 20, 10**8 + 20)) | set(range(10**16 - 20, 10**16 + 20))
    | {-1, -(10**8), -(2**63), 2**63 - 1}
)


@pytest.mark.parametrize("block_trials", (experiment.BLOCK_TRIALS, 3))
@pytest.mark.parametrize("sign", (1, -1))
def test_writer_matches_csv_module_at_word_boundaries(block_trials, sign, monkeypatch):
    monkeypatch.setattr(experiment, "BLOCK_TRIALS", block_trials)
    indices = sorted({sign * i for i in WORD_BOUNDARY_INDICES if -(2**63) <= sign * i < 2**63})
    data = TrialDataset(indices, np.arange(len(indices)) * 7 % 81)
    records = list(data)
    written = io.BytesIO()
    write_dataset_csv(data, written)
    assert written.getvalue() == csv_module_bytes(records)
    for read in READERS:
        assert_reads(read, io.BytesIO(written.getvalue()), records)


class TestSerialization:
    def test_csv_round_trip_with_missing_outcomes(self):
        records = [
            TrialRecord(index=0, x1=0, x2=1, y1=1, y2=-1, d1=1, d2=1),
            TrialRecord(index=1, x1=2, x2=2, y1=None, y2=1, d1=0, d2=1),
            TrialRecord(index=2, x1=1, x2=0, y1=None, y2=None, d1=0, d2=0),
        ]
        buf = io.BytesIO()
        write_dataset_csv(TrialDataset.from_records(records), buf)
        for read in READERS:
            assert_reads(read, io.BytesIO(buf.getvalue()), records)

    def test_csv_file_round_trip(self, tmp_path):
        path = tmp_path / "data.csv"
        records = run_experiment(quantum_config(n=50))
        write_dataset_csv(records, path)
        for read in READERS:
            assert_reads(read, path, records)
            assert_reads(read, str(path), records)

    def test_reader_rejects_bad_header(self):
        reader_error(b"a,b,c\n", match="unexpected dataset header")
        reader_error(b"", match="unexpected dataset header")

    def test_reader_rejects_lone_carriage_return_line_ends(self):
        text = "index,x1,x2,y1,y2,d1,d2\r" + "".join(f"{i},0,0,,,0,0\r" for i in range(500))
        message = reader_error(text.encode(), match="unexpected dataset header")
        assert len(message) < 120  # the one long "line" is cut in the message

    # A line with no end in sight is refused from its first 4 KiB, where
    # the readers used to hold all of it, twice: this one is 16 MiB. The
    # message is the one the whole line, given to experiment._row_error, gets.
    @pytest.mark.parametrize("at", ("header", "row"))
    def test_an_overlong_line_is_refused_in_bounded_memory(self, at):
        long = b"7," * (8 << 20)
        if at == "header":
            text, match = long + b"\r\n", "^unexpected dataset header '7,7,"
        else:
            text = b"index,x1,x2,y1,y2,d1,d2\r\n0,0,0,,,0,0\r\n" + long + b"\r\n1,0,0,,,0,0\r\n"
            match = "^line 3: a line of 4096 bytes or more is no dataset row$"
        for read in READERS:
            source = io.BytesIO(text)
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match=match) as exc:
                    read(source)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**23, peak
            if at == "row":
                assert str(exc.value) == str(experiment._row_error(long, 3))

    def test_reader_returns_empty_dataset_for_header_only(self):
        data = read_dataset_csv(io.BytesIO(b"index,x1,x2,y1,y2,d1,d2\r\n\r\n"))
        assert len(data) == 0 and data == []
        assert_reads(read_row_counts, io.BytesIO(b"index,x1,x2,y1,y2,d1,d2\r\n\r\n"), [])

    @pytest.mark.parametrize(
        "row",
        (
            "9,-1,0,1,1,1,1",  # setting outside {0, 1, 2}
            "9,7,0,1,1,1,1",
            "9,0,3,1,1,1,1",
            "9,0,0,1,1,1,1,1",  # eight fields
            "9,0,0,1,1,1",  # six fields
            "9,0,0,0,1,1,1",  # explicit 0 spin
            "9,0,0,2,1,1,1",
            "9,0,0,1,1,0,1",  # spin where undetected
            "9,0,0,,1,1,1",  # no spin where detected
            "9,0,0,1,1,2,1",  # detection flag outside {0, 1}
            "9,0,0,1.0,1,1,1",
            "x,0,0,1,1,1,1",
            # Spellings of valid values that only the exact grammar rejects.
            " 9,0,0,1,1,1,1",
            "09,0,0,1,1,1,1",
            "9,0,0,+1,1,1,1",
            "9,01,0,1,1,1,1",
            "9,0,0,1,1,1,1 ",
            "9,0,0,\uff11,1,1,1",  # full-width digit one
            "-0,0,0,1,1,1,1",
            "10000000000000000000,0,0,1,1,1,1",  # 20 digits
            "9223372036854775808,0,0,1,1,1,1",  # 2**63
            "-9223372036854775809,0,0,1,1,1,1",
            "9,0,0,,,0,0\0\0",  # a valid tail, then NUL bytes
            "   ",  # whitespace only
        ),
    )
    def test_reader_rejects_malformed_rows(self, row):
        text = f"index,x1,x2,y1,y2,d1,d2\r\n-5,1,2,1,-1,1,1\r\n{row}\r\n"
        reader_error(text.encode(), match=r"^(line 3|trial -?\d+): ")

    # More digits than int() takes (4300): the line is judged by its length.
    @pytest.mark.parametrize("row", ("9" * 5000 + ",0,0,1,1,1,1", "0," + "1" * 5000 + ",0,1,1,1,1"),
                             ids=("index", "x1"))
    def test_reader_rejects_a_field_longer_than_int_takes(self, row):
        text = f"index,x1,x2,y1,y2,d1,d2\r\n-5,1,2,1,-1,1,1\r\n{row}\r\n"
        reader_error(text.encode(), match="^line 3: a line of 4096 bytes or more is no dataset row$")

    def test_reader_accepts_lf_blank_lines_and_a_missing_last_line_end(self):
        text = "index,x1,x2,y1,y2,d1,d2\n\n-7,1,2,1,-1,1,1\r\n\r\n0,0,0,,,0,0\n12,2,1,,-1,0,1"
        expected = [
            TrialRecord(index=-7, x1=1, x2=2, y1=1, y2=-1, d1=1, d2=1),
            TrialRecord(index=0, x1=0, x2=0, y1=None, y2=None, d1=0, d2=0),
            TrialRecord(index=12, x1=2, x2=1, y1=None, y2=-1, d1=0, d2=1),
        ]
        for read in READERS:
            assert_reads(read, io.BytesIO(text.encode()), expected)

    def test_every_valid_row_round_trips(self, tmp_path):
        rows = list(itertools.product(range(3), range(3), (-1, 0, 1), (-1, 0, 1)))
        indices = [-(2**63), *range(-39, 40), 2**63 - 1]  # the int64 extremes at the ends
        records = [
            TrialRecord(index=i, x1=x1, x2=x2, y1=y1 or None, y2=y2 or None,
                        d1=int(y1 != 0), d2=int(y2 != 0))
            for i, (x1, x2, y1, y2) in zip(indices, rows, strict=True)
        ]
        path = tmp_path / "all.csv"
        write_dataset_csv(TrialDataset.from_records(records), path)
        assert path.read_bytes() == csv_module_bytes(records)
        for read in READERS:
            assert_reads(read, path, records)

    def test_reader_streams_in_blocks(self, monkeypatch):
        records = run_experiment(quantum_config(n=50, seed=4))
        buf = io.BytesIO()
        write_dataset_csv(records, buf)
        monkeypatch.setattr(experiment, "BLOCK_TRIALS", 7)
        for read in READERS:
            assert_reads(read, io.BytesIO(buf.getvalue()), records)
        buf2 = io.BytesIO()
        write_dataset_csv(records, buf2)
        assert buf2.getvalue() == buf.getvalue()
        lines = buf.getvalue().splitlines(keepends=True)
        lines[8] = lines[8].replace(b"7,", b"6,", 1)  # repeats index 6 (see also the next test)
        reader_error(b"".join(lines), match="not strictly increasing at 6")

    @pytest.mark.parametrize("repeat", (1, 2, 5))
    def test_reader_checks_order_across_every_block_boundary(self, repeat, monkeypatch):
        # With one line per read (or 16 bytes per read) every pair of
        # consecutive rows straddles a block boundary.
        records = run_experiment(quantum_config(n=8, seed=4))
        buf = io.BytesIO()
        write_dataset_csv(records, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        lines[repeat + 1] = lines[repeat + 1].replace(b"%d," % repeat, b"%d," % (repeat - 1), 1)
        monkeypatch.setattr(experiment, "BLOCK_TRIALS", 1)
        for read in READERS:
            with pytest.raises(ValueError, match=f"not strictly increasing at {repeat - 1}$"):
                read(LineReads(b"".join(lines)))
        message = f"trial indices not strictly increasing at {repeat - 1}"
        assert reader_error(b"".join(lines)) == message

    def test_counting_does_not_hold_the_rows(self, tmp_path):
        # read_row_counts keeps one block at a time, so ten times the rows
        # must not raise its traced peak; read_dataset_csv's grows by 8 MiB.
        peaks = []
        for n in (10**5, 10**6):
            path = tmp_path / f"{n}.csv"
            write_dataset_csv(run_experiment(quantum_config(n=n)), path)
            tracemalloc.start()
            try:
                counts = read_row_counts(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert counts.sum() == n
        assert peaks[1] - peaks[0] <= 2 * 2**20, peaks

    def test_writer_matches_csv_module(self):
        records = [
            TrialRecord(index=3, x1=0, x2=0, y1=1, y2=None, d1=1, d2=0),
            TrialRecord(index=9, x1=2, x2=1, y1=None, y2=-1, d1=0, d2=1),
        ]
        buf = io.BytesIO()
        write_dataset_csv(TrialDataset.from_records(records), buf)
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(("index", "x1", "x2", "y1", "y2", "d1", "d2"))
        writer.writerows([(3, 0, 0, 1, "", 1, 0), (9, 2, 1, "", -1, 0, 1)])
        assert buf.getvalue() == expected.getvalue().encode("ascii")

    def test_reader_rejects_non_increasing_indices(self):
        header = b"index,x1,x2,y1,y2,d1,d2\r\n"
        reader_error(header + b"5,0,0,1,1,1,1\r\n" * 2, match="not strictly increasing at 5")

    @pytest.mark.parametrize("read", READERS)
    def test_readers_refuse_a_text_stream(self, read):
        # A text stream's read returns "", never the b"" that ends a binary
        # read loop: the readers must refuse it before their first block.
        class Text(io.StringIO):
            reads = 0

            def read(self, size=-1):
                self.reads += 1
                assert self.reads == 1, "the reader reads a text stream again"
                return super().read(size)

        with pytest.raises(TypeError, match="path or a binary file, got Text"):
            read(Text("index,x1,x2,y1,y2,d1,d2\r\n0,0,0,,,0,0\r\n"))

    @pytest.mark.parametrize("read", READERS)
    def test_readers_refuse_an_iterable_of_lines(self, read):
        with pytest.raises(TypeError, match="path or a binary file, got list"):
            read(["index,x1,x2,y1,y2,d1,d2\r\n", "0,0,0,,,0,0\r\n"])

    def test_writer_refuses_a_text_stream(self):
        with pytest.raises(TypeError):
            write_dataset_csv(run_experiment(quantum_config(n=3)), io.StringIO())

    def test_writer_refuses_a_record_list_before_opening_the_path(self, tmp_path):
        path = tmp_path / "kept.csv"
        path.write_bytes(b"precious")
        with pytest.raises(TypeError, match="TrialDataset, got list"):
            write_dataset_csv([TrialRecord(0, 0, 0, 1, 1, 1, 1)], path)
        assert path.read_bytes() == b"precious"

    def test_writer_refuses_indices_the_reader_refuses_before_opening_the_path(self, tmp_path):
        path = tmp_path / "kept.csv"
        path.write_bytes(b"precious")
        with pytest.raises(ValueError, match="trial indices not strictly increasing at 5"):
            write_dataset_csv(TrialDataset([5, 5, 3], [0, 40, 80]), path)
        assert path.read_bytes() == b"precious"


def csv_bytes(data) -> bytes:
    out = io.BytesIO()
    write_dataset_csv(data, out)
    return out.getvalue()


class TestScratchArena:
    """Generation and the CSV codec reuse one scratch arena per thread; no
    result may share it."""

    def test_a_later_run_leaves_an_earlier_result_alone(self, monkeypatch):
        first = quantum_config(n=300, seed=5)
        d1 = run_experiment(first)
        kept = d1.index.copy(), d1.code.copy()
        d2 = run_experiment(ExperimentConfig(n_trials=211, seed=6, source=SOURCE_STOCHASTIC_LHV,
                                             model=StochasticLocalModel((0.2, 0.5, 0.9),
                                                                        (0.7, 0.1, 0.4)),
                                             setting_distribution=UNIFORM_4))
        assert np.array_equal(d1.index, kept[0]) and np.array_equal(d1.code, kept[1])
        assert d1 == run_experiment(first)

        monkeypatch.setattr(experiment, "BLOCK_TRIALS", 7)
        r1 = read_dataset_csv(io.BytesIO(csv_bytes(d1)))
        kept = r1.index.copy(), r1.code.copy()
        assert read_dataset_csv(io.BytesIO(csv_bytes(d2))) == d2
        assert np.array_equal(r1.index, kept[0]) and np.array_equal(r1.code, kept[1])
        assert r1 == d1

    def test_threads_give_the_serial_bytes_and_counts(self):
        sizes = (90, 1_000, 20_000, 70_000)  # the last takes two blocks

        def loop(n):
            passes = []
            for seed in range(3):
                text = csv_bytes(run_experiment(quantum_config(n=n, seed=seed)))
                passes.append((text, read_row_counts(io.BytesIO(text)).tolist()))
            return passes

        serial = [loop(n) for n in sizes]
        start = threading.Barrier(len(sizes))
        results = [None] * len(sizes)

        def worker(k):
            start.wait()
            results[k] = loop(sizes[k])

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(sizes))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside every block
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial


def _every_source_config(source, distribution):
    from bellsim.loophole import demonstration_solution
    from bellsim.quantum import match_table

    payload = {
        SOURCE_QUANTUM: {"angles": CANONICAL},
        SOURCE_DETERMINISTIC_LHV: {"model": single_table_config().model},
        SOURCE_STOCHASTIC_LHV: {"model": StochasticLocalModel((0.2, 0.5, 0.9), (0.7, 0.1, 0.4))},
        SOURCE_LOOPHOLE: {"solution": demonstration_solution(match_table(CANONICAL))},
    }[source]
    return ExperimentConfig(n_trials=90, seed=11, source=source, setting_distribution=distribution,
                            **payload)


class TestTrustedRecords:
    """``run_experiment`` and ``estimate`` build their records from their own
    arrays and values without re-validating them; the records must be what
    the validating constructors build."""

    @pytest.mark.parametrize("block", (None, 7))
    @pytest.mark.parametrize("distribution", ("uniform-9", UNIFORM_4))
    @pytest.mark.parametrize("source", (SOURCE_QUANTUM, SOURCE_DETERMINISTIC_LHV,
                                        SOURCE_STOCHASTIC_LHV, SOURCE_LOOPHOLE))
    def test_generated_dataset_is_what_the_checking_constructor_keeps(
            self, monkeypatch, source, distribution, block):
        if block is not None:
            monkeypatch.setattr(experiment, "BLOCK_TRIALS", block)
        data = run_experiment(_every_source_config(source, distribution))
        arena = rng.scratch(0)
        for array, dtype in ((data.index, np.int64), (data.code, np.uint8)):
            assert array.dtype == dtype and array.shape == (90,) and array.flags.c_contiguous
            assert array.flags.writeable and not np.shares_memory(array, arena)
        assert not np.shares_memory(data.index, data.code)
        checked = TrialDataset(data.index.tolist(), data.code.tolist())
        assert checked == data and data.index.tolist() == list(range(90))
        assert (checked.index.dtype, checked.code.dtype) == (data.index.dtype, data.code.dtype)
        assert np.array_equal(experiment._row_counts(data), np.bincount(data.code, minlength=81))

    @pytest.mark.parametrize("n", (0, 6, 7, 8, 15))
    def test_row_counts_are_one_count_across_block_edges(self, monkeypatch, n):
        monkeypatch.setattr(experiment, "BLOCK_TRIALS", 7)
        code = np.arange(n, dtype=np.uint8) * 5 % 81
        counts = experiment._row_counts(TrialDataset(np.arange(n), code))
        assert counts.dtype == np.int64 and counts.shape == (81,)
        assert counts.tolist() == [code.tolist().count(k) for k in range(81)]

    @pytest.mark.parametrize("conditioning", (CONDITION_COINCIDENCES, CONDITION_ALL_PAIRS))
    def test_estimate_is_what_the_generated_init_builds(self, conditioning):
        from dataclasses import FrozenInstanceError, fields, replace

        est = estimate(run_experiment(quantum_config(n=500)), conditioning)
        built = BellEstimate(**vars(est))
        assert list(vars(est)) == [f.name for f in fields(BellEstimate)]
        assert est == built and built == est and replace(est) == est
        assert hash(est) == hash(built) and repr(est) == repr(built)
        assert est.to_dict() == built.to_dict()
        with pytest.raises(FrozenInstanceError):
            est.statistic = 0.0
        with pytest.raises(FrozenInstanceError):
            del est.trials
        assert est == built

