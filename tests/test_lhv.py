import itertools
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.counterfactuals import (
    CounterfactualTable,
    Population,
    all_tables,
    bell_statistic,
)
from bellsim.lhv import (
    MAX_GRID_STEPS,
    DeterministicLhv,
    StochasticLocalModel,
    lhv_match_table,
    model_from_dict,
    model_to_dict,
    sample_from_lhv,
    stochastic_bell_search,
    stochastic_bell_supremum,
    stochastic_expected_match,
)
from bellsim.rng import SplitMix64


def never_match_model():
    return DeterministicLhv.single(CounterfactualTable((1, 1, 1), (-1, -1, -1)))


class TestModels:
    def test_deterministic_rejects_pattern_units(self):
        from bellsim.counterfactuals import MPattern

        pop = Population(units=(MPattern(0, 0, 0, 0),))
        with pytest.raises(ValueError):
            DeterministicLhv(pop)

    def test_stochastic_validates_probabilities(self):
        with pytest.raises(ValueError):
            StochasticLocalModel((0.5, 0.5, 1.5), (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            StochasticLocalModel((0.5, 0.5), (0.5, 0.5, 0.5))


class TestLhvMatchTable:
    def test_never_matching_single_table(self):
        t = lhv_match_table(never_match_model())
        assert all(t[i, j] == 0.0 for i in range(3) for j in range(3))

    def test_uniform_mixture_over_all_tables_is_half_everywhere(self):
        model = DeterministicLhv(Population(units=all_tables()))
        t = lhv_match_table(model)
        for i in range(3):
            for j in range(3):
                assert t[i, j] == pytest.approx(0.5, abs=1e-12)

    def test_half_and_half_mixture(self):
        up = CounterfactualTable((1, 1, 1), (1, 1, 1))
        down = CounterfactualTable((1, 1, 1), (-1, -1, -1))
        model = DeterministicLhv(Population(units=(up, down), weights=(0.5, 0.5)))
        t = lhv_match_table(model)
        assert all(t[i, j] == pytest.approx(0.5) for i in range(3) for j in range(3))


table_indices = st.integers(min_value=0, max_value=63)


def mixtures(max_units=6):
    return (
        st.lists(table_indices, min_size=1, max_size=max_units)
        .flatmap(
            lambda idxs: st.tuples(
                st.just(idxs),
                st.lists(
                    st.floats(min_value=0.01, max_value=1.0),
                    min_size=len(idxs),
                    max_size=len(idxs),
                ),
            )
        )
        .map(
            lambda iw: DeterministicLhv(
                Population(
                    units=tuple(all_tables()[i] for i in iw[0]),
                    weights=tuple(w / sum(iw[1]) for w in iw[1]),
                )
            )
        )
    )


class TestLocalBound:
    @settings(max_examples=300)
    @given(mixtures())
    def test_mixture_bell_statistic_never_positive(self, model):
        t = lhv_match_table(model)
        stat = bell_statistic(t[1, 2], t[0, 2], t[1, 0], t[0, 0])
        assert stat <= 1e-12


class TestStochasticExpectedMatch:
    def test_both_certain_up(self):
        m = StochasticLocalModel((1.0,) * 3, (1.0,) * 3)
        assert stochastic_expected_match(m, 0, 0) == 1.0

    def test_certain_opposite(self):
        m = StochasticLocalModel((1.0,) * 3, (0.0,) * 3)
        assert stochastic_expected_match(m, 1, 2) == 0.0

    def test_fair_coin_side_washes_out(self):
        m = StochasticLocalModel((0.5,) * 3, (0.9, 0.1, 0.3))
        for x2 in range(3):
            assert stochastic_expected_match(m, 0, x2) == pytest.approx(0.5)

    @given(
        st.lists(st.floats(0, 1), min_size=6, max_size=6),
        st.integers(0, 2),
        st.integers(0, 2),
    )
    def test_symmetric_under_joint_flip(self, probs, x1, x2):
        m = StochasticLocalModel(tuple(probs[:3]), tuple(probs[3:]))
        flipped = StochasticLocalModel(
            tuple(1 - p for p in probs[:3]), tuple(1 - p for p in probs[3:])
        )
        assert stochastic_expected_match(m, x1, x2) == pytest.approx(
            stochastic_expected_match(flipped, x1, x2), abs=1e-12
        )


class TestStochasticSupremum:
    @pytest.mark.parametrize("grid_steps", [2, 5, 8, 11, 21])
    def test_supremum_is_zero_with_vertex_argmax(self, grid_steps):
        result = stochastic_bell_search(grid_steps)
        assert result.value == 0.0
        assert result.argmax == (0, 0, 0, 1, 0, 0)
        assert result.argmax_is_vertex
        assert result.evaluations == grid_steps**6

    def test_supremum_helper_returns_value(self):
        assert abs(stochastic_bell_supremum(3)) <= 1e-12

    def test_vertex_grid_matches_deterministic_enumeration(self):
        # Oracle: the 64 vertices are deterministic tables; evaluate the
        # statistic combinatorially and compare the maxima.
        def agree(a, b):
            return a * b + (1 - a) * (1 - b)

        oracle = max(
            agree(p1[1], p2[2]) - agree(p1[0], p2[2]) - agree(p1[1], p2[0]) - agree(p1[0], p2[0])
            for p1 in itertools.product((0, 1), repeat=3)
            for p2 in itertools.product((0, 1), repeat=3)
        )
        assert oracle == 0
        assert stochastic_bell_search(2).value == oracle

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            stochastic_bell_supremum(1)

    def test_rejects_grid_beyond_the_bound_before_allocating(self):
        tracemalloc.start()
        try:
            too_large = MAX_GRID_STEPS + 1
            with pytest.raises(ValueError, match=f"2 to {MAX_GRID_STEPS}, got {too_large}"):
                stochastic_bell_search(too_large)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    def test_argmax_is_lexicographically_lowest(self):
        result = stochastic_bell_search(3)
        assert result.argmax == (0.0, 0.0, 0.0, 1.0, 0.0, 0.0)


class TestSampleFromLhv:
    def test_single_table_model_is_deterministic(self):
        model = never_match_model()
        rng = SplitMix64(1)
        draws = {sample_from_lhv(model, (1, 2), rng) for _ in range(50)}
        assert draws == {(1, -1)}

    def test_fair_stochastic_model_matches_half_the_time(self):
        model = StochasticLocalModel((0.5,) * 3, (0.5,) * 3)
        rng = SplitMix64(2)
        n = 100_000
        matches = sum(
            y1 == y2 for y1, y2 in (sample_from_lhv(model, (0, 2), rng) for _ in range(n))
        )
        assert matches / n == pytest.approx(0.5, abs=0.01)

    def test_anticorrelated_diagonal_mixture(self):
        units = tuple(
            CounterfactualTable(y, tuple(-v for v in y))
            for y in itertools.product((-1, 1), repeat=3)
        )
        model = DeterministicLhv(Population(units=units))
        rng = SplitMix64(3)
        for i in range(3):
            for _ in range(200):
                y1, y2 = sample_from_lhv(model, (i, i), rng)
                assert y2 == -y1

    def test_mixture_frequencies_follow_weights(self):
        up = CounterfactualTable((1, 1, 1), (1, 1, 1))
        down = CounterfactualTable((-1, -1, -1), (-1, -1, -1))
        model = DeterministicLhv(Population(units=(up, down), weights=(0.8, 0.2)))
        rng = SplitMix64(4)
        n = 50_000
        ups = sum(sample_from_lhv(model, (0, 0), rng)[0] == 1 for _ in range(n))
        assert ups / n == pytest.approx(0.8, abs=0.01)

    def test_rejects_non_model(self):
        with pytest.raises(TypeError):
            sample_from_lhv(object(), (0, 0), SplitMix64(0))


class TestModelSerialization:
    def test_deterministic_round_trip(self):
        up = CounterfactualTable((1, -1, 1), (-1, 1, -1))
        down = CounterfactualTable((-1, -1, -1), (1, 1, 1))
        model = DeterministicLhv(Population(units=(up, down), weights=(0.25, 0.75)))
        doc = model_to_dict(model)
        assert doc["tables"][0]["y1"] == [1, -1, 1]
        assert model_from_dict(json.loads(json.dumps(doc))) == model

    def test_weights_default_to_uniform_when_absent(self):
        doc = {"tables": [{"y1": [1, 1, 1], "y2": [-1, -1, -1]}, {"y1": [1, 1, 1], "y2": [1, 1, 1]}]}
        model = model_from_dict(doc)
        assert model.mixture.weights == (0.5, 0.5)

    def test_stochastic_round_trip(self):
        model = StochasticLocalModel((0.1, 0.5, 0.9), (0.2, 0.4, 0.6))
        assert model_from_dict(model_to_dict(model)) == model

    def test_file_round_trip(self, tmp_path):
        from bellsim.lhv import load_model, save_model

        model = StochasticLocalModel((0.1, 0.5, 0.9), (0.2, 0.4, 0.6))
        path = tmp_path / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    @pytest.mark.parametrize("text", (
        '{"p1": [0.1, 0.5, 0.9], "p2": [0.2, 0.4, 0.6], "p1": [1, 1, 1]}',
        '{"tables": [{"y1": [1, 1, 1], "y2": [1, 1, 1], "y1": [-1, 1, 1]}]}',
    ), ids=("p1", "y1 of a table"))
    def test_file_with_a_key_given_twice_rejected(self, text, tmp_path):
        from bellsim.lhv import load_model

        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="given twice"):
            load_model(path)

    def test_unrecognized_document_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"spins": []})

    def test_to_dict_refuses_a_non_model(self):
        with pytest.raises(TypeError, match="^not a local model: <object object at "):
            model_to_dict(object())

    # A falsy document is still a document: 0 is refused as no JSON object.
    @pytest.mark.parametrize("doc, match", (
        ({"tables": [{"y1": [1, -1, 1]}]},
         "^model tables\\[0\\] must be an object with 'y1' and 'y2' entries$"),
        (0, "^a model document must be a JSON object, got int$"),
    ), ids=("table without y2", "model 0"))
    def test_malformed_document_refusal_names_the_entry(self, doc, match):
        with pytest.raises(ValueError, match=match):
            model_from_dict(doc)
