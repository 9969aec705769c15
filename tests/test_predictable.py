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

    def test_rejects_times_at_or_above_target(self):
        with pytest.raises(ValueError, match="strictly below"):
            AnnouncingSequence((0.5, 1.0), 1.0)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            AnnouncingSequence((0.5, 0.4), 1.0)

    def test_rejects_empty_for_positive_target(self):
        with pytest.raises(ValueError, match="at least one"):
            AnnouncingSequence((), 1.0)

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
        assert y.path.values == (1.0, 0.5, 1.0 / 3.0, 0.0)

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

    def test_rejects_zero_first_time(self):
        seq = AnnouncingSequence((0.0, 1.0), 2.0)
        with pytest.raises(ValueError, match="positive"):
            build_y_process(seq)

    def test_continuity_at_every_knot(self):
        y = build_y_process(make_announcing_sequence(2.0, 8, GEOMETRIC))
        for t, v in zip(y.path.times[1:], y.path.values[1:]):
            assert y.path.left_limit(t) == v

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
        from jumptime.core import LINEAR, CadlagPath
        from jumptime.predictable import YProcess

        path = CadlagPath(times=(0.0, 1.0), values=(1.0, 0.0), kinds=(LINEAR,))
        y = YProcess(path=path)
        assert y_hitting_time(y) == TimePoint(1.0)
        assert y.knot_levels == (1.0,) and y.target == TimePoint(1.0)

    def test_y_process_validation(self):
        from jumptime.core import CONSTANT, LINEAR, CadlagPath
        from jumptime.predictable import YProcess

        increasing = CadlagPath(times=(0.0, 1.0), values=(0.0, 1.0), kinds=(LINEAR,))
        with pytest.raises(ValueError, match="nonincreasing"):
            YProcess(path=increasing)
        positive_end = CadlagPath(times=(0.0, 1.0), values=(1.0, 0.5), kinds=(LINEAR,))
        with pytest.raises(ValueError, match="end at exactly 0"):
            YProcess(path=positive_end)
        jumpy = CadlagPath(times=(0.0, 1.0), values=(1.0, 0.0), kinds=(CONSTANT,))
        with pytest.raises(ValueError, match="linear"):
            YProcess(path=jumpy)


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
