import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.quantum import (
    Angle,
    AngleTriple,
    MatchProbabilityTable,
    TwoQubitState,
    match_probability,
    match_table,
    sample_outcome_pair,
    singlet_match_probabilities,
    singlet_match_probability_oracle,
)
from bellsim.rng import SplitMix64

TAU = 2 * math.pi

angles_radians = st.floats(
    min_value=-4 * math.pi, max_value=4 * math.pi, allow_nan=False
)


class TestAngle:
    def test_normalizes_into_base_interval(self):
        assert 0.0 <= Angle(-1.0).radians < TAU
        assert 0.0 <= Angle(17.5).radians < TAU
        assert Angle(0.0).radians == 0.0

    @given(angles_radians)
    def test_normalization_is_idempotent(self, r):
        once = Angle(r)
        assert Angle(once.radians).radians == once.radians

    @given(angles_radians)
    def test_full_turn_compares_equal(self, r):
        assert Angle(r) == Angle(r + TAU)

    def test_equality_wraps_at_zero(self):
        assert Angle(1e-14) == Angle(TAU - 1e-14)
        assert Angle(0.1) != Angle(0.2)

    def test_degrees_are_rounded_for_display_below_360(self):
        assert Angle.from_degrees(60.0).degrees == 60.0  # not 59.99999999999999
        assert Angle.from_degrees(-1e-13).degrees == 359.9999999999999  # not 360.0

    @given(angles_radians, angles_radians)
    def test_separation_symmetric_and_bounded(self, a, b):
        x, y = Angle(a), Angle(b)
        assert x.separation(y) == y.separation(x)
        assert 0.0 <= x.separation(y) <= math.pi

    def test_angle_is_unhashable(self):
        with pytest.raises(TypeError):
            hash(Angle(1.0))

    def test_rejects_non_finite_radians(self):
        with pytest.raises(ValueError):
            Angle(math.nan)
        with pytest.raises(ValueError):
            Angle(math.inf)

    def test_equality_with_a_non_angle_and_repr(self):
        assert Angle(0.0).__eq__(0.0) is NotImplemented
        assert repr(Angle(1.0)) == "Angle(1.0)"

    def test_triple_needs_three_angles(self):
        with pytest.raises(ValueError, match="exactly three Angle entries"):
            AngleTriple((Angle(0.0), Angle(1.0)))


class TestMatchProbability:
    def test_zero_separation_is_perfect_anticorrelation(self):
        assert match_probability(0.0) == 0.0

    def test_opposite_axes(self):
        assert match_probability(math.pi) == pytest.approx(1.0, abs=1e-15)

    def test_two_thirds_pi(self):
        assert match_probability(2 * math.pi / 3) == pytest.approx(0.75, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, math.pi + 0.1, 7.0])
    def test_rejects_out_of_range_separation(self, bad):
        with pytest.raises(ValueError):
            match_probability(bad)

    @given(st.floats(min_value=0.0, max_value=math.pi), st.floats(min_value=0.0, max_value=math.pi))
    def test_monotone_increasing_on_domain(self, a, b):
        lo, hi = sorted((a, b))
        assert match_probability(lo) <= match_probability(hi) + 1e-15

    @given(st.floats(min_value=0.0, max_value=math.pi))
    def test_result_is_a_probability(self, d):
        assert 0.0 <= match_probability(d) <= 1.0


class TestMatchTable:
    def test_canonical_angles(self):
        t = match_table(AngleTriple.from_degrees(60, 0, 120))
        assert t[1, 2] == pytest.approx(0.75, abs=1e-12)
        assert t[0, 2] == pytest.approx(0.25, abs=1e-12)
        assert t[1, 0] == pytest.approx(0.25, abs=1e-12)
        assert all(t[i, i] == 0.0 for i in range(3))

    def test_degenerate_angles_give_zero_table(self):
        t = match_table(AngleTriple.from_degrees(0, 0, 0))
        assert all(t[i, j] == 0.0 for i in range(3) for j in range(3))

    def test_right_angle_chain(self):
        t = match_table(AngleTriple.from_degrees(0, 90, 180))
        assert t[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert t[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert t[1, 2] == pytest.approx(0.5, abs=1e-12)

    @given(angles_radians, angles_radians, angles_radians)
    def test_symmetric_with_zero_diagonal(self, a0, a1, a2):
        t = match_table(AngleTriple.from_radians(a0, a1, a2))
        for i in range(3):
            assert t[i, i] == 0.0
            for j in range(3):
                assert t[i, j] == t[j, i]

    def test_rejects_entries_outside_unit_interval(self):
        with pytest.raises(ValueError):
            MatchProbabilityTable(((0.0, 0.5, 1.2), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))

    def test_rejects_a_grid_that_is_not_3x3(self):
        with pytest.raises(ValueError, match="needs a 3x3 grid"):
            MatchProbabilityTable(((0.0, 0.5, 0.5), (0.5, 0.0, 0.5)))


class TestTwoQubitState:
    def test_maximally_entangled_is_normalized(self):
        state = TwoQubitState.maximally_entangled()
        assert sum(abs(a) ** 2 for a in state.amplitudes) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError):
            TwoQubitState((1.0, 1.0, 0.0, 0.0))

    def test_rejects_three_amplitudes(self):
        with pytest.raises(ValueError, match="needs four amplitudes"):
            TwoQubitState((1.0, 0.0, 0.0))


class TestStatevectorOracle:
    def test_equal_axes_never_match(self):
        assert singlet_match_probability_oracle(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_opposite_axes_always_match(self):
        assert singlet_match_probability_oracle(0.0, math.pi) == pytest.approx(1.0, abs=1e-12)

    def test_two_thirds_turn(self):
        # Independent projector computation lands on 3/4, matching the formula.
        assert singlet_match_probability_oracle(0.0, 2 * math.pi / 3) == pytest.approx(
            0.75, abs=1e-10
        )

    def test_accepts_angle_objects(self):
        v = singlet_match_probability_oracle(Angle(0.3), Angle(1.1))
        assert v == pytest.approx(match_probability(0.8), abs=1e-10)

    @settings(max_examples=200)
    @given(angles_radians, angles_radians)
    def test_oracle_agrees_with_formula_everywhere(self, a, b):
        delta = Angle(a).separation(Angle(b))
        assert abs(
            singlet_match_probability_oracle(a, b) - match_probability(delta)
        ) <= 1e-10

    def test_grid_agrees_with_formula(self):
        thetas = np.deg2rad(np.arange(0, 360, 15, dtype=float))
        oracle = singlet_match_probabilities(thetas, thetas)
        diff = np.abs(thetas[:, None] - thetas[None, :]) % TAU
        diff = np.where(diff > math.pi, TAU - diff, diff)
        formula = np.sin(diff / 2.0) ** 2
        assert np.max(np.abs(oracle - formula)) <= 1e-10


class TestSampleOutcomePair:
    def test_equal_settings_always_anticorrelated(self):
        t = match_table(AngleTriple.from_degrees(60, 0, 120))
        rng = SplitMix64(3)
        for _ in range(500):
            y1, y2 = sample_outcome_pair((0, 0), t, rng)
            assert y2 == -y1

    def test_certain_match_table(self):
        t = MatchProbabilityTable(((1.0,) * 3,) * 3)
        rng = SplitMix64(4)
        for _ in range(500):
            y1, y2 = sample_outcome_pair((1, 2), t, rng)
            assert y2 == y1

    def test_match_frequency_converges_to_table_entry(self):
        t = match_table(AngleTriple.from_degrees(60, 0, 120))
        rng = SplitMix64(99)
        n = 1_000_000
        matches = 0
        for _ in range(n):
            y1, y2 = sample_outcome_pair((1, 2), t, rng)
            matches += y1 == y2
        assert matches / n == pytest.approx(0.75, abs=0.002)

    def test_first_marginal_is_uniform(self):
        t = match_table(AngleTriple.from_degrees(60, 0, 120))
        rng = SplitMix64(5)
        n = 10_000
        ups = sum(
            sample_outcome_pair((0, 1), t, rng)[0] == 1 for _ in range(n)
        )
        five_sigma = 5 * math.sqrt(0.25 / n)
        assert abs(ups / n - 0.5) <= five_sigma
