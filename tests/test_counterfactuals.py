import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.counterfactuals import (
    BELL_PAIRS,
    WITNESS_PATTERN,
    CounterfactualTable,
    MPattern,
    Population,
    all_tables,
    bell_statistic,
    exists_local_table_with_pattern,
    find_interaction_unit,
    lhv_max_bell_statistic,
    match_indicator,
    theorem1_contradiction_trace,
    theorem1_witness_check,
    violation_margin,
)
from bellsim.quantum import AngleTriple


def brute_force_tables():
    """Independent enumeration of all local units, ignoring index order."""
    spins = (-1, 1)
    for y1 in itertools.product(spins, repeat=3):
        for y2 in itertools.product(spins, repeat=3):
            yield CounterfactualTable(y1, y2)


def brute_force_pattern(table):
    return (
        int(table.y1[0] == table.y2[0]),
        int(table.y1[1] == table.y2[2]),
        int(table.y1[0] == table.y2[2]),
        int(table.y1[1] == table.y2[0]),
    )


class TestCounterfactualTable:
    def test_rejects_bad_spins(self):
        with pytest.raises(ValueError):
            CounterfactualTable((1, 1, 0), (1, 1, 1))
        with pytest.raises(ValueError):
            CounterfactualTable((1, 1), (1, 1, 1))

    def test_index_round_trip(self):
        for i in range(64):
            assert CounterfactualTable.from_index(i).index == i

    def test_documented_enumeration_order_endpoints(self):
        assert all_tables()[0] == CounterfactualTable((-1, -1, -1), (-1, -1, -1))
        assert all_tables()[63] == CounterfactualTable((1, 1, 1), (1, 1, 1))
        # y1[0] is the most significant bit.
        assert all_tables()[32] == CounterfactualTable((1, -1, -1), (-1, -1, -1))

    def test_enumeration_is_complete_and_duplicate_free(self):
        assert len(set(all_tables())) == 64
        assert set(all_tables()) == set(brute_force_tables())


class TestMatchIndicator:
    def test_identical_spins_match(self):
        unit = CounterfactualTable((1, 1, 1), (1, 1, 1))
        assert match_indicator(unit, 0, 0) == 1

    def test_opposite_spins_never_match(self):
        unit = CounterfactualTable((1, 1, 1), (-1, -1, -1))
        for x1 in range(3):
            for x2 in range(3):
                assert match_indicator(unit, x1, x2) == 0

    def test_lookup_uses_each_side_setting(self):
        unit = CounterfactualTable((1, -1, 1), (-1, 1, 1))
        assert match_indicator(unit, 2, 2) == 1

    def test_rejects_bad_setting(self):
        unit = CounterfactualTable((1, 1, 1), (1, 1, 1))
        with pytest.raises(ValueError):
            match_indicator(unit, 3, 0)


class TestWitnessCheck:
    def test_witness_pattern_detected(self):
        assert theorem1_witness_check(MPattern(m00=0, m12=1, m02=0, m10=0))

    def test_all_zero_is_not_a_witness(self):
        assert not theorem1_witness_check(MPattern(m00=0, m12=0, m02=0, m10=0))

    def test_m00_must_be_zero(self):
        assert not theorem1_witness_check(MPattern(m00=1, m12=1, m02=0, m10=0))


class TestContradictionTrace:
    def test_branch_a_follows_the_derivation_order(self):
        trace = theorem1_contradiction_trace("a")
        assert trace.ends_in_contradiction()
        kinds = [s.kind for s in trace.steps]
        assert kinds == ["assumed", "assumed", "derived", "derived", "contradiction"]
        derived = [s.assignments[0] for s in trace.steps if s.kind == "derived"]
        assert (derived[0].particle, derived[0].setting, derived[0].value) == (1, 0, -1)
        assert (derived[1].particle, derived[1].setting, derived[1].value) == (2, 0, -1)
        final = trace.steps[-1].assignments
        assert {a.value for a in final} == {-1, 1}
        assert all((a.particle, a.setting) == (1, 0) for a in final)

    def test_branch_b_is_the_sign_flip(self):
        trace = theorem1_contradiction_trace("b")
        assert trace.ends_in_contradiction()
        derived = [s.assignments[0] for s in trace.steps if s.kind == "derived"]
        assert (derived[0].particle, derived[0].setting, derived[0].value) == (1, 0, 1)
        assert (derived[1].particle, derived[1].setting, derived[1].value) == (2, 0, 1)

    def test_both_branches_terminate_in_contradiction(self):
        for branch in ("a", "b"):
            assert theorem1_contradiction_trace(branch).ends_in_contradiction()

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValueError):
            theorem1_contradiction_trace("c")

    def test_render_and_dict_forms(self):
        trace = theorem1_contradiction_trace("a")
        text = trace.render()
        assert "branch (a):" in text and "contradiction" in text
        doc = trace.to_dict()
        assert doc["contradiction"] is True
        assert len(doc["steps"]) == len(trace.steps)


class TestExistsLocalTable:
    def test_witness_pattern_is_unrealizable(self):
        assert exists_local_table_with_pattern(WITNESS_PATTERN) is None

    def test_all_match_pattern(self):
        found = exists_local_table_with_pattern(MPattern(m00=1, m12=1, m02=1, m10=1))
        assert found is not None
        assert brute_force_pattern(found) == (1, 1, 1, 1)

    def test_no_match_pattern(self):
        found = exists_local_table_with_pattern(MPattern(m00=0, m12=0, m02=0, m10=0))
        assert found is not None
        assert brute_force_pattern(found) == (0, 0, 0, 0)

    def test_agrees_with_brute_force_on_all_16_patterns(self):
        realizable = {brute_force_pattern(t) for t in brute_force_tables()}
        for bits in itertools.product((0, 1), repeat=4):
            pattern = MPattern(*bits)
            found = exists_local_table_with_pattern(pattern)
            if bits in realizable:
                assert found is not None and brute_force_pattern(found) == bits
            else:
                assert found is None


class TestBellStatistic:
    def test_canonical_quantum_values(self):
        assert bell_statistic(0.75, 0.25, 0.25, 0.0) == pytest.approx(0.25)

    def test_all_zero(self):
        assert bell_statistic(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_all_one(self):
        assert bell_statistic(1.0, 1.0, 1.0, 1.0) == -2.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            bell_statistic(1.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            bell_statistic(0.5, -0.1, 0.0, 0.0)


patterns = st.tuples(
    st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1)
).map(lambda bits: MPattern(*bits))


def normalized_weights(n):
    return st.lists(
        st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n
    ).map(lambda ws: tuple(w / sum(ws) for w in ws))


class TestFindInteractionUnit:
    def test_weighted_pattern_population_finds_the_witness(self):
        pop = Population(
            units=(WITNESS_PATTERN, MPattern(m00=0, m12=0, m02=0, m10=0)),
            weights=(0.3, 0.7),
        )
        assert pop.bell_statistic() == pytest.approx(0.3)
        assert find_interaction_unit(pop) == 0

    def test_zero_statistic_returns_none(self):
        pop = Population(units=(MPattern(m00=0, m12=0, m02=0, m10=0),) * 3)
        assert find_interaction_unit(pop) is None

    def test_table_populations_never_return_a_unit(self):
        pop = Population(units=all_tables())
        assert find_interaction_unit(pop) is None
        assert pop.bell_statistic() <= 0.0

    @settings(max_examples=200)
    @given(st.lists(patterns, min_size=1, max_size=6).flatmap(
        lambda units: st.tuples(st.just(units), normalized_weights(len(units)))
    ))
    def test_positive_statistic_always_yields_a_witness(self, units_weights):
        units, weights = units_weights
        pop = Population(units=tuple(units), weights=weights)
        idx = find_interaction_unit(pop)
        if pop.bell_statistic() > 0:
            assert idx is not None and units[idx] == WITNESS_PATTERN
        else:
            assert idx is None


class TestLhvMaxBellStatistic:
    def test_max_over_all_tables_is_exactly_zero(self):
        assert lhv_max_bell_statistic() == 0

    def test_value_attained_by_never_matching_table(self):
        t = CounterfactualTable((1, 1, 1), (-1, -1, -1))
        assert MPattern.from_table(t).bell_value() == 0

    def test_exhaustive_bound_holds_for_every_table(self):
        for t in brute_force_tables():
            m00, m12, m02, m10 = brute_force_pattern(t)
            assert m12 - m02 - m10 - m00 <= 0

    def test_equal_response_restriction(self):
        # Oracle: enumerate the 8 tables with y2 identical to y1. Their best
        # Bell value is 0 (e.g. y = (+1, -1, -1) gives M values 1,0,0,1).
        equal_tables = [
            CounterfactualTable(y, y)
            for y in itertools.product((-1, 1), repeat=3)
        ]
        oracle = max(
            m12 - m02 - m10 - m00
            for m00, m12, m02, m10 in map(brute_force_pattern, equal_tables)
        )
        assert oracle == 0
        assert lhv_max_bell_statistic(equal_tables) == oracle

    def test_anticorrelated_diagonal_restriction(self):
        anti = [
            CounterfactualTable(y, tuple(-v for v in y))
            for y in itertools.product((-1, 1), repeat=3)
        ]
        assert len(anti) == 8
        assert lhv_max_bell_statistic(anti) == 0

    def test_rejects_empty_restriction(self):
        with pytest.raises(ValueError):
            lhv_max_bell_statistic(())


class TestViolationMargin:
    def test_canonical_angles(self):
        assert violation_margin(AngleTriple.from_degrees(60, 0, 120)) == pytest.approx(0.25)

    def test_degenerate_angles(self):
        assert violation_margin(AngleTriple.from_degrees(0, 0, 0)) == 0.0

    def test_evenly_spaced_quarter_turns(self):
        # With axes (0, 45, 90) the sign is negative: the statistic subtracts
        # the largest separation. Putting the middle axis at setting 0 makes
        # it positive. Both values confirmed by the statevector oracle below.
        assert violation_margin(AngleTriple.from_degrees(0, 45, 90)) == pytest.approx(-0.5)
        # sin^2(45 deg) - 2 sin^2(22.5 deg) = sqrt(2)/2 - 1/2
        assert violation_margin(AngleTriple.from_degrees(45, 0, 90)) == pytest.approx(
            0.5**0.5 - 0.5, abs=1e-12
        )

    def test_oracle_confirms_both_sign_cases(self):
        from bellsim.quantum import singlet_match_probability_oracle as oracle

        for degs in ((0.0, 45.0, 90.0), (45.0, 0.0, 90.0)):
            triple = AngleTriple.from_degrees(*degs)
            expected = (
                oracle(triple[1], triple[2])
                - oracle(triple[0], triple[2])
                - oracle(triple[1], triple[0])
                - oracle(triple[0], triple[0])
            )
            assert violation_margin(triple) == pytest.approx(expected, abs=1e-10)

    @given(
        st.floats(min_value=0, max_value=6.3),
        st.floats(min_value=0, max_value=6.3),
        st.floats(min_value=0, max_value=6.3),
    )
    def test_margin_equals_bell_statistic_of_match_table(self, a0, a1, a2):
        from bellsim.quantum import match_table

        triple = AngleTriple.from_radians(a0, a1, a2)
        t = match_table(triple)
        assert violation_margin(triple) == bell_statistic(
            t[1, 2], t[0, 2], t[1, 0], t[0, 0]
        )


class TestPopulation:
    def test_rejects_mixed_unit_kinds(self):
        with pytest.raises(ValueError):
            Population(units=(all_tables()[0], WITNESS_PATTERN))

    def test_rejects_bad_weights(self):
        unit = all_tables()[0]
        with pytest.raises(ValueError):
            Population(units=(unit,), weights=(0.5,))
        with pytest.raises(ValueError):
            Population(units=(unit, unit), weights=(1.5, -0.5))
        with pytest.raises(ValueError):
            Population(units=(unit,), weights=(0.5, 0.5))
        with pytest.raises(ValueError, match="finite"):
            Population(units=(unit, unit), weights=(math.nan, 1.0))

    def test_uniform_default(self):
        pop = Population(units=all_tables()[:4])
        assert pop.weights == (0.25,) * 4

    def test_bell_pairs_constant_matches_statistic_order(self):
        assert BELL_PAIRS == ((1, 2), (0, 2), (1, 0), (0, 0))
