"""Value types: time points, cadlag paths, and reproducible random streams."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumptime.core import (
    CONSTANT,
    INFINITY,
    LINEAR,
    CadlagPath,
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

    def test_min(self):
        assert TimePoint(3.0).min(TimePoint(1.0)) == TimePoint(1.0)
        assert INFINITY.min(TimePoint(5.0)) == TimePoint(5.0)
        assert INFINITY.min(INFINITY) == INFINITY

    def test_immutable_and_hashable(self):
        t = TimePoint(1.0)
        with pytest.raises(AttributeError):
            t._value = 2.0
        assert len({TimePoint(1.0), TimePoint(1.0), INFINITY}) == 2

    @given(finite_times, finite_times)
    def test_order_agrees_with_floats(self, a, b):
        assert (TimePoint(a) < TimePoint(b)) == (a < b)
        assert (TimePoint(a) == TimePoint(b)) == (a == b)

    def test_as_timepoint_passthrough_and_coercion(self):
        t = TimePoint(2.0)
        assert as_timepoint(t) is t
        assert as_timepoint(2.5) == TimePoint(2.5)
        assert as_timepoint(math.inf) == INFINITY


class TestCadlagPath:
    def test_step_path_values(self):
        path = CadlagPath.step(TimePoint(2.0))
        assert path.evaluate(1.999) == 0.0
        assert path.evaluate(2.0) == 1.0
        assert path.evaluate(100.0) == 1.0
        assert path.left_limit(2.0) == 0.0
        assert path.terminal_value == 1.0

    def test_step_at_infinity_never_jumps(self):
        path = CadlagPath.step(INFINITY)
        assert path.evaluate(0.0) == 0.0
        assert path.evaluate(1e15) == 0.0

    def test_constant_path(self):
        path = CadlagPath.constant(3.0)
        assert path.evaluate(0.0) == 3.0
        assert path.evaluate(7.0) == 3.0

    def test_piecewise_linear_interpolates(self):
        path = CadlagPath.piecewise_linear((0.0, 1.0), (1.0, 0.5))
        assert path.evaluate(0.0) == 1.0
        assert path.evaluate(0.5) == 0.75
        assert path.evaluate(1.0) == 0.5
        assert path.left_limit(1.0) == 0.5

    def test_right_continuity_at_every_knot(self):
        path = CadlagPath(
            times=(0.0, 1.0, 2.0),
            values=(0.0, 1.0, 3.0),
            kinds=(CONSTANT, LINEAR),
        )
        for t in path.times:
            approach = path.evaluate(t + 1e-12)
            assert abs(approach - path.evaluate(t)) < 1e-9

    def test_left_limit_sees_pre_jump_value(self):
        path = CadlagPath(
            times=(0.0, 1.0),
            values=(0.0, 5.0),
            kinds=(CONSTANT,),
        )
        assert path.left_limit(1.0) == 0.0
        assert path.evaluate(1.0) == 5.0
        assert path.left_limit(0.5) == 0.0

    def test_left_limit_at_zero_rejected(self):
        path = CadlagPath.constant(1.0)
        with pytest.raises(ValueError):
            path.left_limit(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CadlagPath(times=(1.0,), values=(0.0,), kinds=())  # must start at 0
        with pytest.raises(ValueError):
            CadlagPath(times=(0.0, 0.0), values=(0.0, 1.0), kinds=(LINEAR,))
        with pytest.raises(ValueError):
            CadlagPath(times=(0.0, 1.0), values=(0.0, 1.0), kinds=("spline",))
        with pytest.raises(ValueError):
            CadlagPath(times=(0.0, 1.0), values=(0.0,), kinds=(LINEAR,))

    @given(st.floats(min_value=0.0, max_value=10.0, allow_nan=False))
    def test_step_is_an_indicator(self, t):
        path = CadlagPath.step(TimePoint(5.0))
        assert path.evaluate(t) == (1.0 if t >= 5.0 else 0.0)


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

    def test_blocks_split_the_array(self):
        n = 2 * _DRAW_BLOCK + 3
        blocks = list(exponential_blocks(9, n))
        assert [len(b) for b in blocks] == [_DRAW_BLOCK, _DRAW_BLOCK, 3]
        assert np.concatenate(blocks).tolist() == draw_exponentials(9, n).tolist()
        assert list(exponential_blocks(9, 0)) == []
