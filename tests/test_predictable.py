"""Announcing sequences, the strictifying subsequence, and the Y process."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumptime.core import INFINITY, TimePoint
from jumptime.predictable import (
    GEOMETRIC,
    HARMONIC,
    AnnouncingSequence,
    YProcess,
    build_y_process,
    extract_strict_subsequence,
    make_announcing_sequence,
    max_geometric_m,
    y_hitting_time,
)


class TestAnnouncingSequence:
    def test_valid_sequence(self):
        seq = AnnouncingSequence((0.5, 0.75, 0.9), 1.0)
        assert seq.epsilon_announce == pytest.approx(0.1)
        assert len(seq) == 3

    def test_rejects_infinite_target(self):
        with pytest.raises(ValueError, match="infinite target"):
            AnnouncingSequence((1.0,), math.inf)

    @pytest.mark.parametrize("target", [math.nan, -1.0], ids=["nan", "negative"])
    def test_rejects_nan_and_negative_target(self, target):
        with pytest.raises(ValueError, match="^target must be a nonnegative real, got"):
            AnnouncingSequence((), target)

    def test_rejects_times_at_or_above_target(self):
        with pytest.raises(ValueError, match="strictly below"):
            AnnouncingSequence((0.5, 1.0), 1.0)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            AnnouncingSequence((0.5, 0.4), 1.0)

    def test_rejects_empty_for_positive_target(self):
        with pytest.raises(ValueError, match="at least one"):
            AnnouncingSequence((), 1.0)

    @pytest.mark.parametrize(
        "bad, index, message",
        [
            (math.nan, 2, "announcing time 2 must be a finite nonnegative real"),
            (math.inf, 4, "announcing time 4 must be a finite nonnegative real"),
            (-1.0, 0, "announcing time 0 must be a finite nonnegative real"),
            (0.25, 3, "announcing times must be nondecreasing at index 3"),
        ],
        ids=["nan", "inf", "negative", "decreasing"],
    )
    def test_first_bad_time_is_named(self, bad, index, message):
        times = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        times[index] = bad
        with pytest.raises(ValueError, match=f"^{message}$"):
            AnnouncingSequence(tuple(times), 1.0)

    def test_a_bad_time_is_named_before_a_later_disorder(self):
        with pytest.raises(ValueError, match="^announcing times must be nondecreasing at index 2$"):
            AnnouncingSequence((0.1, 0.3, 0.2, math.nan), 1.0)
        with pytest.raises(ValueError, match="^announcing time 2 must be a finite nonnegative real$"):
            AnnouncingSequence((0.3, 0.3, -0.5, 0.2), 1.0)

    def test_equal_step_is_nondecreasing(self):
        assert AnnouncingSequence((0.1, 0.2, 0.2, 0.4), 1.0).times == (0.1, 0.2, 0.2, 0.4)

    def test_target_zero_announces_itself(self):
        assert AnnouncingSequence((), 0.0).times == ()
        assert AnnouncingSequence((), 0.0).epsilon_announce == 0.0
        assert AnnouncingSequence((0.0, 0.0), 0.0).times == (0.0, 0.0)
        with pytest.raises(ValueError, match="all-zero"):
            AnnouncingSequence((0.0, 0.5), 0.0)


class TestStrictSubsequence:
    def test_drops_repeats(self):
        seq = AnnouncingSequence((1.0, 1.0, 2.0, 2.0, 3.0), 4.0)
        assert extract_strict_subsequence(seq).times == (1.0, 2.0, 3.0)

    def test_fixed_point_on_strict_input(self):
        seq = AnnouncingSequence((1.0, 2.0, 3.0), 4.0)
        assert extract_strict_subsequence(seq).times == (1.0, 2.0, 3.0)

    def test_a_strict_input_comes_back_itself(self):
        strict = make_announcing_sequence(1.0, 1000, "harmonic")
        assert extract_strict_subsequence(strict) is strict
        for seq in (AnnouncingSequence((), 0.0), AnnouncingSequence((0.5,), 1.0)):
            assert extract_strict_subsequence(seq) is seq
        # A sequence with a repeat is rebuilt without it, as a new sequence.
        repeated = AnnouncingSequence((0.0, 0.0), 0.0)
        out = extract_strict_subsequence(repeated)
        assert out is not repeated and out == AnnouncingSequence((0.0,), 0.0)

    def test_hand_recursion(self):
        seq = AnnouncingSequence((0.5, 0.5, 0.5, 0.9, 0.99), 1.0)
        assert extract_strict_subsequence(seq).times == (0.5, 0.9, 0.99)

    def test_idempotent(self):
        seq = AnnouncingSequence((0.5, 0.5, 0.7, 0.7, 0.7, 0.8), 1.0)
        once = extract_strict_subsequence(seq)
        twice = extract_strict_subsequence(once)
        assert once == twice

    def test_preserves_target_and_closeness(self):
        seq = AnnouncingSequence((1.0, 1.0, 1.5), 2.0)
        out = extract_strict_subsequence(seq)
        assert out.target == 2.0
        assert out.epsilon_announce == seq.epsilon_announce
        assert out.times[-1] == seq.times[-1]

    @pytest.mark.parametrize("index", [1, 3, 5])
    def test_an_equal_step_is_dropped_where_it_sits(self, index):
        times = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
        times[index] = times[index - 1]
        kept = tuple(t for i, t in enumerate(times) if i != index)
        assert extract_strict_subsequence(AnnouncingSequence(tuple(times), 1.0)).times == kept

    @given(
        st.lists(st.floats(min_value=0.001, max_value=0.99), min_size=1, max_size=30),
    )
    def test_output_is_strictly_increasing_with_same_maximum(self, raw):
        times = tuple(sorted(raw))
        seq = AnnouncingSequence(times, 1.0)
        out = extract_strict_subsequence(seq)
        assert all(b > a for a, b in zip(out.times, out.times[1:]))
        assert out.times[-1] == times[-1]
        assert out.times[0] == times[0]


class TestYProcessPath:
    """Y's knots as a continuous piecewise-linear path."""

    def test_piecewise_linear_interpolates(self):
        y = YProcess(times=(0.0, 1.0, 2.0), values=(1.0, 0.5, 0.0))
        assert y(0.0) == 1.0
        assert y(0.5) == 0.75
        assert y(1.0) == 0.5
        assert y.left_limit(1.0) == 0.5
        assert y(1.5) == 0.25
        assert y(3.0) == 0.0

    def test_right_continuity_at_every_knot(self):
        # Y is continuous: its value matches from both sides of every knot.
        y = YProcess(times=(0.0, 1.0, 2.0, 4.0), values=(3.0, 2.0, 1.0, 0.0))
        for t in y.times:
            assert abs(y(t + 1e-12) - y(t)) < 1e-9
            if t > 0.0:
                assert abs(y(t - 1e-12) - y(t)) < 1e-9

    def test_left_limit_sees_pre_jump_value(self):
        # A continuous path never jumps, so the left limit is the interpolated
        # value: at knots, inside segments and past the last knot.
        y = YProcess(times=(0.0, 1.0, 3.0, 5.0), values=(4.0, 2.0, 1.0, 0.0))
        for t, value in ((1.0, 2.0), (3.0, 1.0), (0.5, 3.0), (2.0, 1.5), (4.0, 0.5), (10.0, 0.0)):
            assert y.left_limit(t) == y(t) == value

    def test_infinite_time_rejected(self):
        y = YProcess(times=(0.0, 1.0), values=(1.0, 0.0))
        for t in (math.inf, INFINITY):
            with pytest.raises(ValueError, match="^path evaluation requires a finite time$"):
                y(t)
            with pytest.raises(ValueError, match="^left limit requires a finite time$"):
                y.left_limit(t)

    def test_left_limit_at_zero_rejected(self):
        y = YProcess(times=(0.0, 1.0), values=(1.0, 0.0))
        with pytest.raises(ValueError, match="^no left limit exists at time 0$"):
            y.left_limit(0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="^a path needs at least one knot$"):
            YProcess(times=(), values=())
        with pytest.raises(ValueError, match="^first knot must sit at time 0, got 1.0$"):
            YProcess(times=(1.0,), values=(0.0,))
        with pytest.raises(ValueError, match="strictly increasing at index 1"):
            YProcess(times=(0.0, 0.0), values=(1.0, 0.0))
        with pytest.raises(ValueError, match="^times and values must have equal length$"):
            YProcess(times=(0.0, 1.0), values=(0.0,))

    @pytest.mark.parametrize(
        "bad, index",
        [(math.nan, 2), (-1.0, 3), (1.5, 4), (2.0, 3)],
        ids=["nan", "negative", "decreasing", "equal"],
    )
    def test_first_unordered_knot_is_named(self, bad, index):
        # Knots 0, 1, 2, 2.5, 3, 4 with one time replaced, so that the order
        # first breaks at the given index.
        times = [0.0, 1.0, 2.0, 2.5, 3.0, 4.0]
        times[index] = bad
        message = f"^knot times must be strictly increasing at index {index}$"
        with pytest.raises(ValueError, match=message):
            YProcess(tuple(times), (0.0,) * len(times))

    @pytest.mark.parametrize(
        "times, values",
        [
            ((0.0, 1.0, math.inf), (2.0, 1.0, 0.0)),
            ((0.0, 1.0, 2.0), (math.inf, 1.0, 0.0)),
            ((0.0, 1.0, 2.0), (1.0, math.nan, 0.0)),
            # Named as nonfinite before it is named as negative.
            ((0.0, 1.0, 2.0), (1.0, -math.inf, 0.0)),
        ],
        ids=["inf-time", "inf-value", "nan-value", "negative-inf-value"],
    )
    def test_nonfinite_knots_rejected(self, times, values):
        with pytest.raises(ValueError, match="^knot times and values must be finite$"):
            YProcess(times, values)


class TestBuildYProcess:
    def test_knot_values_on_a_two_term_sequence(self):
        seq = AnnouncingSequence((1.0, 1.5), 2.0)
        y = build_y_process(seq)
        assert y(0.0) == 1.0
        assert y(0.5) == 0.75
        assert y(1.0) == 0.5
        assert y(1.25) == pytest.approx(5.0 / 12.0, abs=1e-15)
        assert y(2.0) == 0.0
        assert y(3.0) == 0.0

    def test_knot_levels_are_reciprocals(self):
        seq = AnnouncingSequence((1.0, 1.5), 2.0)
        y = build_y_process(seq)
        assert y.knot_levels == (1.0, 0.5, 1.0 / 3.0)
        assert y.values == (1.0, 0.5, 1.0 / 3.0, 0.0)

    def test_target_zero_gives_the_zero_process(self):
        y = build_y_process(AnnouncingSequence((), 0.0))
        assert y.knot_levels == () and y.target == TimePoint(0.0)
        assert y(0.0) == 0.0
        assert y(5.0) == 0.0
        assert y_hitting_time(y) == TimePoint(0.0)

    def test_explicit_target_must_agree(self):
        seq = AnnouncingSequence((1.0, 1.5), 2.0)
        assert build_y_process(seq).target == TimePoint(2.0)

    def test_rejects_non_strict_times(self):
        seq = AnnouncingSequence((1.0, 1.0, 1.5), 2.0)
        with pytest.raises(ValueError, match="strict"):
            build_y_process(seq)

    @pytest.mark.parametrize("index", [1, 2, 4])
    def test_an_equal_step_anywhere_is_refused(self, index):
        times = [0.1, 0.2, 0.3, 0.4, 0.5]
        times[index] = times[index - 1]
        message = (
            "^announcing times must be strictly increasing; "
            "apply extract_strict_subsequence first$"
        )
        with pytest.raises(ValueError, match=message):
            build_y_process(AnnouncingSequence(tuple(times), 1.0))

    def test_rejects_zero_first_time(self):
        seq = AnnouncingSequence((0.0, 1.0), 2.0)
        with pytest.raises(ValueError, match="positive"):
            build_y_process(seq)

    def test_continuity_at_every_knot(self):
        y = build_y_process(make_announcing_sequence(2.0, 8, GEOMETRIC))
        for t, v in zip(y.times[1:], y.values[1:]):
            assert y.left_limit(t) == v

    def test_monotone_nonincreasing_between_knots(self):
        y = build_y_process(make_announcing_sequence(1.0, 5, HARMONIC))
        grid = np.linspace(0.0, 1.2, 2000)
        vals = np.array([y(float(t)) for t in grid])
        assert np.all(np.diff(vals) <= 0.0)

    def test_strictly_positive_before_the_target(self):
        y = build_y_process(make_announcing_sequence(2.0, 6, GEOMETRIC))
        for t in np.linspace(0.0, 2.0, 500)[:-1]:
            assert y(float(t)) > 0.0


class TestHittingTime:
    def test_round_trip_two_term(self):
        seq = AnnouncingSequence((1.0, 1.5), 2.0)
        assert y_hitting_time(build_y_process(seq)) == TimePoint(2.0)

    def test_round_trip_after_strictification(self):
        seq = AnnouncingSequence((0.5, 0.9, 0.99), 1.0)
        y = build_y_process(extract_strict_subsequence(seq))
        hit = y_hitting_time(y)
        assert hit == TimePoint(1.0)
        assert hit.value == 1.0

    def test_hand_built_path_hits_at_its_zero_knot(self):
        y = YProcess(times=(0.0, 1.0), values=(1.0, 0.0))
        assert y_hitting_time(y) == TimePoint(1.0)
        assert y.knot_levels == (1.0,) and y.target == TimePoint(1.0)

    def test_y_process_validation(self):
        with pytest.raises(ValueError, match="nonincreasing"):
            YProcess(times=(0.0, 1.0), values=(0.0, 1.0))
        with pytest.raises(ValueError, match="end at exactly 0"):
            YProcess(times=(0.0, 1.0), values=(1.0, 0.5))

    @pytest.mark.parametrize(
        "values, message",
        [
            ((1.0, 0.5, -1.0, -1.0, 0.0), "Y must be nonnegative"),
            ((1.0, 0.5, 0.25, 0.5, 0.0), "Y must be nonincreasing"),
            # A negative level is named before a rise after it.
            ((1.0, -1.0, 0.5, 0.0, 0.0), "Y must be nonnegative"),
        ],
        ids=["negative", "rising", "negative-then-rising"],
    )
    def test_y_process_messages(self, values, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            YProcess(times=(0.0, 1.0, 2.0, 3.0, 4.0), values=values)

    def test_y_process_allows_equal_steps(self):
        y = YProcess(times=(0.0, 1.0, 2.0, 3.0), values=(1.0, 0.5, 0.5, 0.0))
        assert y.knot_levels == (1.0, 0.5, 0.5)


class TestMakeAnnouncingSequence:
    def test_geometric_oracle(self):
        seq = make_announcing_sequence(2.0, 3, GEOMETRIC)
        assert seq.times == (1.0, 1.5, 1.75)
        assert seq.epsilon_announce == 0.25

    def test_harmonic_oracle(self):
        seq = make_announcing_sequence(1.0, 3, HARMONIC)
        assert seq.times == (0.5, 2.0 / 3.0, 0.75)
        assert seq.epsilon_announce == 0.25

    def test_all_below_target(self):
        for scheme in (GEOMETRIC, HARMONIC):
            seq = make_announcing_sequence(5.0, 30, scheme)
            assert all(t < 5.0 for t in seq.times)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="infinite"):
            make_announcing_sequence(INFINITY, 3, GEOMETRIC)
        with pytest.raises(ValueError, match="positive"):
            make_announcing_sequence(0.0, 3, GEOMETRIC)
        with pytest.raises(ValueError, match="positive integer"):
            make_announcing_sequence(1.0, 0, GEOMETRIC)
        with pytest.raises(ValueError, match="scheme"):
            make_announcing_sequence(1.0, 3, "fibonacci")

    def test_geometric_m_limit_is_named(self):
        assert max_geometric_m(1.0) == 53
        with pytest.raises(ValueError, match="m must be at most 53 .* got 60"):
            make_announcing_sequence(1.0, 60, GEOMETRIC)
        assert len(make_announcing_sequence(1.0, 60, HARMONIC)) == 60

    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_geometric_m_limit_is_the_last_usable_m(self, target):
        limit = max_geometric_m(target)
        y = build_y_process(extract_strict_subsequence(
            make_announcing_sequence(target, limit, GEOMETRIC)))
        assert y_hitting_time(y).value == target
        with pytest.raises(ValueError, match=f"at most {limit} "):
            make_announcing_sequence(target, limit + 1, GEOMETRIC)

    @given(
        st.sampled_from([GEOMETRIC, HARMONIC]),
        st.integers(min_value=1, max_value=25),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_round_trip_is_exact_for_all_schemes(self, scheme, m, target):
        seq = make_announcing_sequence(target, m, scheme)
        y = build_y_process(extract_strict_subsequence(seq))
        hit = y_hitting_time(y)
        assert hit.is_finite and hit.value == target
