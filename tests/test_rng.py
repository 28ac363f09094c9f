import numpy as np
import pytest

from bellsim import experiment, lhv, rng
from bellsim.quantum import AngleTriple, match_table
from bellsim.rng import (
    SplitMix64,
    derive_seed,
    lane_draws,
    mix64,
    thresholds,
)


def test_stream_is_deterministic():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_uint64() for _ in range(10)] == [b.next_uint64() for _ in range(10)]


def test_draws_are_pure_functions_of_seed_and_counter():
    # Draw i equals mix64(seed + (i+1) * golden): regenerating a stream from
    # scratch reproduces any suffix without replaying the prefix.
    seed = 987654321
    stream = SplitMix64(seed)
    first_five = [stream.next_uint64() for _ in range(5)]
    golden = 0x9E3779B97F4A7C15
    mask = (1 << 64) - 1
    recomputed = [mix64((seed + (i + 1) * golden) & mask) for i in range(5)]
    assert first_five == recomputed


def test_random_is_in_unit_interval():
    stream = SplitMix64(42)
    values = [stream.random() for _ in range(10_000)]
    assert all(0.0 <= v < 1.0 for v in values)
    mean = sum(values) / len(values)
    assert abs(mean - 0.5) < 0.02


def test_randbelow_covers_range_roughly_uniformly():
    stream = SplitMix64(7)
    counts = [0, 0, 0]
    n = 30_000
    for _ in range(n):
        counts[stream.randbelow(3)] += 1
    for c in counts:
        assert abs(c - n / 3) < 5 * (n * (1 / 3) * (2 / 3)) ** 0.5


def test_randbelow_rejects_nonpositive_bound():
    with pytest.raises(ValueError):
        SplitMix64(1).randbelow(0)


def test_randbelow_takes_bounds_up_to_2_to_the_64():
    # Above 2**64 the rejection limit was 0, and no draw was ever accepted.
    assert SplitMix64(0).randbelow(2**64) == SplitMix64(0).next_uint64()
    with pytest.raises(ValueError, match="at most 2\\*\\*64, got 18446744073709551617$"):
        SplitMix64(0).randbelow(2**64 + 1)


def test_derive_seed_depends_on_path_and_order():
    s = 2**63 + 17
    assert derive_seed(s, 0) != derive_seed(s, 1)
    assert derive_seed(s, 1, 2) != derive_seed(s, 2, 1)
    assert derive_seed(s, 5) == derive_seed(s, 5)


def test_derived_streams_decorrelate_adjacent_indices():
    # Trials i and i+1 share no obvious structure in their first draws.
    seed = 1234
    firsts = [SplitMix64(derive_seed(seed, i)).random() for i in range(2000)]
    mean = sum(firsts) / len(firsts)
    assert abs(mean - 0.5) < 0.03
    lag1 = sum(
        (a - mean) * (b - mean) for a, b in zip(firsts, firsts[1:])
    ) / (len(firsts) - 1)
    assert abs(lag1) < 0.01


def test_lanes_draw_what_each_trial_stream_draws():
    for seed in (0, 42, -7, 2**64 - 1, 2**70 + 3):
        words = lane_draws(seed, 1000, 1010, 4)
        for j in range(10):
            rng = SplitMix64(derive_seed(seed, 1000 + j))
            assert words[:3, j].tolist() == [rng.next_uint64() for _ in range(3)]
            assert (int(words[3, j]) >> 11) * 2.0**-53 == rng.random()


def test_draw_matrix_rows_are_successive_draws():
    for seed in (0, 9, 2**64 - 1):
        for k in (1, 2, 3, 5, 6):
            words = lane_draws(seed, 40, 47, k)
            assert words.shape == (k, 7) and words.dtype == np.uint64
            for j in range(7):
                stream = SplitMix64(derive_seed(seed, 40 + j))
                assert words[:, j].tolist() == [stream.next_uint64() for _ in range(k)]


def test_thresholds_compare_top_bits_as_random_compares_uniforms():
    # m < thresholds(p) exactly when the uniform m * 2**-53 that random()
    # makes of a draw with top bits m is below p, at and next to each edge.
    canonical = match_table(AngleTriple.from_degrees(60, 0, 120)).as_array().ravel().tolist()
    seeded = np.random.default_rng(53).random(200).tolist()
    probabilities = [0.0, 5e-324, 2.0**-53, 0.25, 0.5, 1 - 2.0**-53, 1.0, *canonical, *seeded]
    limits = thresholds(probabilities)
    assert limits.dtype == np.uint64
    for p, limit in zip(probabilities, limits.tolist()):
        assert thresholds(p) == limit
        for m in (limit - 1, limit, limit + 1, 0, 2**53 - 1):
            if 0 <= m < 2**53:
                assert (m < limit) == (m * 2.0**-53 < p), (p, m)


def test_mixing_in_chunks_matches_scalar_mix(monkeypatch):
    monkeypatch.setattr(rng, "_MIX_CHUNK", 5)
    rng.lane_keys.cache_clear()
    z = np.arange(23, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    tmp = np.empty(5, np.uint64)
    assert rng._mix64_in_place(z.copy(), tmp).tolist() == [mix64(v) for v in z.tolist()]
    words = lane_draws(3, 10, 17, 3)
    for j in range(7):
        stream = SplitMix64(derive_seed(3, 10 + j))
        assert words[:, j].tolist() == [stream.next_uint64() for _ in range(3)]


def test_lane_draws_refuses_draws_beyond_its_counter_table():
    size = len(rng._COUNTERS)
    assert lane_draws(1, 0, 3, size).shape == (size, 3)
    assert lane_draws(1, 0, 3, 0).shape == (0, 3)
    for k in (size + 1, -1):
        with pytest.raises(ValueError, match="draws a trial"):
            lane_draws(1, 0, 3, k)


# Every constant operand of the generation path: (module, name, value, dtype).
CONSTANTS = [
    *((rng, name, value, np.uint64) for name, value in (
        ("_GOLDEN_LANE", 0x9E3779B97F4A7C15), ("_MIX1", 0xBF58476D1CE4E5B9),
        ("_MIX2", 0x94D049BB133111EB), ("_SHIFT11", 11), ("_SHIFT27", 27),
        ("_SHIFT30", 30), ("_SHIFT31", 31))),
    (experiment, "_THREE", 3, np.uint64),
    (experiment, "_REJECTED", 2**64 - 1, np.uint64),
    (lhv, "_ONE", 1, np.uint8),
    (lhv, "_FOUR", 4, np.intp),
    (lhv, "_NINE", 9, np.intp),
]


@pytest.mark.parametrize("module, name, value, dtype", CONSTANTS,
                         ids=[f"{m.__name__}.{name}" for m, name, _, _ in CONSTANTS])
def test_constant_operands_are_read_only_0d_arrays_of_their_operands_dtype(
        module, name, value, dtype):
    operand = getattr(module, name)
    assert type(operand) is np.ndarray and operand.shape == () and operand.dtype == dtype
    assert int(operand) == value and not operand.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        operand[...] = 0
    with pytest.raises(ValueError, match="read-only"):
        operand += operand
    assert int(getattr(module, name)) == value


def test_in_place_operations_keep_their_operands_dtype():
    bits = np.array([0, 1, 127], np.uint8)
    bits <<= lhv._ONE
    assert bits.dtype == np.uint8 and bits.tolist() == [0, 2, 254]
    pair = np.arange(9, dtype=np.intp)
    k = np.multiply(pair, lhv._FOUR, pair)
    k *= lhv._NINE
    assert k is pair and k.dtype == np.intp and k.tolist() == [36 * p for p in range(9)]
    words = np.array([2**64 - 1, 2**63, 5], np.uint64)
    assert (words % experiment._THREE).tolist() == [0, 2, 2]
    words >>= rng._SHIFT11
    assert words.dtype == np.uint64 and words.tolist() == [2**53 - 1, 2**52, 0]
