"""Value types: time points and reproducible random streams."""

import math
import operator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumptime.core import (
    INFINITY,
    RngStream,
    TimePoint,
    as_timepoint,
    _DRAW_BLOCK,
    _exponentials_from_words,
    _philox_first_words,
    draw_exponential,
    draw_exponentials,
    exponential_blocks,
    exponential_from_uniform,
)

finite_times = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)

#: Operands a TimePoint compares against: floats, ints a float holds exactly, infinity.
time_operands = finite_times | st.integers(min_value=0, max_value=2**53) | st.just(math.inf)


class TestTimePoint:
    def test_value_round_trip(self):
        assert TimePoint(1.5).value == 1.5
        assert TimePoint(0).value == 0.0

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            TimePoint(-0.1)
        with pytest.raises(ValueError):
            TimePoint(math.nan)

    def test_infinity_is_flagged_and_has_no_value(self):
        assert not INFINITY.is_finite
        assert TimePoint(math.inf) == INFINITY
        with pytest.raises(ValueError):
            INFINITY.value

    def test_comparisons_against_numbers_and_timepoints(self):
        assert TimePoint(1.0) < TimePoint(2.0)
        assert TimePoint(2.0) >= 2.0
        assert TimePoint(2.0) <= 2
        assert INFINITY > TimePoint(1e300)
        assert not (INFINITY < INFINITY)
        assert INFINITY >= INFINITY

    def test_immutable_and_hashable(self):
        t = TimePoint(1.0)
        with pytest.raises(AttributeError):
            t._value = 2.0
        assert len({TimePoint(1.0), TimePoint(1.0), INFINITY}) == 2

    @given(time_operands, time_operands)
    def test_order_agrees_with_floats(self, a, b):
        for x, y in ((TimePoint(a), TimePoint(b)), (TimePoint(a), b), (a, TimePoint(b))):
            assert (x < y) == (a < b)
            assert (x <= y) == (a <= b)
            assert (x > y) == (a > b)
            assert (x >= y) == (a >= b)
            assert (x == y) == (a == b)

    def test_nan_and_non_numbers_are_not_ordered(self):
        for other in (math.nan, "x"):
            for x, y in ((TimePoint(1.0), other), (other, TimePoint(1.0))):
                for compare in (operator.lt, operator.le, operator.gt, operator.ge):
                    with pytest.raises(TypeError):
                        compare(x, y)
                assert x != y

    def test_as_timepoint_passthrough_and_coercion(self):
        t = TimePoint(2.0)
        assert as_timepoint(t) is t
        assert as_timepoint(2.5) == TimePoint(2.5)
        assert as_timepoint(math.inf) == INFINITY


class TestRngStream:
    def test_streams_are_reproducible(self):
        a = RngStream(42, 7).uniform_open()
        b = RngStream(42, 7).uniform_open()
        assert a == b

    def test_distinct_streams_differ(self):
        draws = {RngStream(42, k).uniform_open() for k in range(64)}
        assert len(draws) == 64

    def test_uniforms_in_half_open_unit_interval(self):
        stream = RngStream(1, 0)
        gen = stream._generator
        for _ in range(1000):
            u = 1.0 - gen.random()
            assert 0.0 < u <= 1.0

    def test_seed_range_validated(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)
        with pytest.raises(ValueError):
            RngStream(0, 2**64)

    def test_seed_and_stream_id_must_be_integers(self):
        # int() would truncate these onto the draws of seed 1, stream 0.
        for seed, stream_id, name in ((1.5, 0, "seed"), (1, 0.7, "stream_id"), (np.float64(1.0), 0, "seed")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer"):
                RngStream(seed, stream_id)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            draw_exponentials(1.5, 3)
        # numpy integers are integers.
        assert RngStream(np.uint64(1), np.int64(0)).uniform_open() == RngStream(1, 0).uniform_open()


class TestExponentialDraws:
    def test_inverse_transform_oracle(self):
        assert exponential_from_uniform(1.0) == pytest.approx(-math.log(2.0**-53))
        assert exponential_from_uniform(math.exp(-2.0)) == pytest.approx(2.0, abs=1e-12)
        assert exponential_from_uniform(0.5) == pytest.approx(math.log(2.0))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            exponential_from_uniform(0.0)
        with pytest.raises(ValueError):
            exponential_from_uniform(1.0 + 1e-12)
        with pytest.raises(ValueError):
            exponential_from_uniform(-0.5)

    def test_draws_are_positive_and_finite(self):
        zs = [draw_exponential(RngStream(3, k)) for k in range(2000)]
        assert all(0.0 < z < math.inf for z in zs)

    def test_sample_mean_near_one(self):
        zs = np.array([draw_exponential(RngStream(11, k)) for k in range(20000)])
        # Exp(1) has mean 1 and variance 1; 5 sigma at n = 2e4 is 0.035.
        assert abs(zs.mean() - 1.0) < 0.036


class TestVectorisedDraws:
    """The numpy Philox port against the scalar reference ``RngStream``."""

    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8),
    )
    def test_port_matches_the_scalar_stream_bit_for_bit(self, seed, stream_ids):
        words = _philox_first_words(seed, np.array(stream_ids, dtype=np.uint64))
        got = _exponentials_from_words(words).tolist()
        assert got == [draw_exponential(RngStream(seed, k)) for k in stream_ids]

    def test_zero_word_takes_the_smallest_uniform(self):
        # Word 0 gives u = 1, which the scalar path remaps to 2**-53.
        got = _exponentials_from_words(np.array([0], dtype=np.uint64))
        assert got.tolist() == [-math.log(2.0**-53)]

    def test_block_equals_the_scalar_loop(self):
        # 20000 draws span two blocks; numpy's SIMD log would differ on dozens.
        n = 20_000
        expected = [draw_exponential(RngStream(5, k)) for k in range(n)]
        assert draw_exponentials(5, n).tolist() == expected

    def test_seed_range_validated(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="64-bit"):
                draw_exponentials(seed, 3)

    @pytest.mark.parametrize(
        "n, message",
        [(-3, r"^n must lie in \[0, 2\*\*64\], got -3$"), (1.5, "^n must be an integer, got 1.5$")],
    )
    def test_a_bad_count_is_refused_by_both_draw_paths(self, n, message):
        with pytest.raises(ValueError, match=message):
            draw_exponentials(0, n)
        # At the call, before any block is asked for.
        with pytest.raises(ValueError, match=message):
            exponential_blocks(0, n)

    @pytest.mark.parametrize("n", [2**60, 2**63 - 1, 2**64])
    def test_an_n_no_array_can_address_is_a_memory_error(self, n):
        # Refused by arithmetic before numpy is asked, so nothing is allocated.
        with pytest.raises(MemoryError, match=f"^n = {n} draws take"):
            draw_exponentials(0, n)

    def test_blocks_split_the_array(self):
        n = 2 * _DRAW_BLOCK + 3
        blocks = list(exponential_blocks(9, n))
        assert [len(b) for b in blocks] == [_DRAW_BLOCK, _DRAW_BLOCK, 3]
        assert np.concatenate(blocks).tolist() == draw_exponentials(9, n).tolist()
        assert list(exponential_blocks(9, 0)) == []
