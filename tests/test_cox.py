"""Constructed jump times: level crossing, sampling, and the round trip."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import decades
from jumptime import core
from jumptime.compensators import (
    LinearCompensator,
    PowerCompensator,
    SaturatingExpCompensator,
    TabulatedCompensator,
)
from jumptime.core import INFINITY, RngStream, TimePoint
from jumptime.cox import _float_text, cox_round_trip, cox_sample, cox_time, write_cox_rows
from jumptime.processes import catalog_models, flat_compensator_model

#: Every catalog compensator, plus a bounded one whose high levels are never hit.
STREAM_COMPENSATORS = [m.compensator for m in catalog_models()] + [
    SaturatingExpCompensator(limit=0.5, rate=1.0)
]


#: Every class with parameters across decades: tiny linear and saturating
#: rates, small power exponents and tiny table slopes overflow on some
#: levels, small saturating limits and bounded tables leave some levels
#: never reached.
random_compensators = st.one_of(
    (decades(-320.0, -306.0) | decades(-3.0, 2.0)).map(LinearCompensator),
    (decades(-3.0, -2.5) | decades(-2.5, 1.5)).map(PowerCompensator),
    st.builds(
        SaturatingExpCompensator,
        decades(-3.0, 2.0),
        decades(-320.0, -306.0) | decades(-3.0, 2.0),
    ),
    st.builds(
        TabulatedCompensator,
        st.just((0.0, 1.0, 2.0, 3.0)),
        st.just((0.0, 1.0, 1.0, 1.5)),
        st.just(0.0) | decades(-320.0, -306.0) | decades(-3.0, 1.0),
    ),
)


def reference_samples(A, seed: int, n: int) -> tuple[list, str | None]:
    """``cox_sample`` of streams 0..n-1 up to the first whose scalar row
    overflows, and that row's error (None when no row overflows)."""
    samples = []
    for k in range(n):
        try:
            samples.append(cox_sample(A, RngStream(seed, k)))
        except OverflowError as exc:
            return samples, str(exc)
    return samples, None


def render(samples, fmt: str) -> str:
    """``to_json_dict`` of each sample through ``json.dumps`` or ``csv.writer``."""
    rows = [sample.to_json_dict() for sample in samples]
    if fmt == "json":
        return "".join(json.dumps(row) + "\n" for row in rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("z", "tau", "a_at_tau", "seed", "stream_id"))
    writer.writerows(row.values() for row in rows)
    return buf.getvalue()


class TestCoxTime:
    def test_identity_compensator(self):
        assert cox_time(LinearCompensator(1.0), 0.7) == TimePoint(0.7)

    def test_square_compensator(self):
        assert cox_time(PowerCompensator(2.0), 4.0) == TimePoint(2.0)

    def test_unreachable_level_gives_infinity(self):
        A = SaturatingExpCompensator(limit=1.0, rate=1.0)
        assert cox_time(A, 2.0) == INFINITY

    def test_rejects_nonpositive_levels(self):
        A = LinearCompensator(1.0)
        for z in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                cox_time(A, z)

    @given(st.floats(min_value=1e-9, max_value=100.0), st.floats(min_value=1e-9, max_value=100.0))
    def test_monotone_in_the_level(self, z1, z2):
        A = PowerCompensator(2.0)
        lo, hi = sorted((z1, z2))
        assert cox_time(A, lo) <= cox_time(A, hi)


class TestCoxSample:
    def test_identity_compensator_reproduces_the_draw(self):
        sample = cox_sample(LinearCompensator(1.0), RngStream(7, 0))
        assert sample.tau.value == sample.z
        assert sample.a_at_tau == sample.z

    def test_double_rate_halves_tau(self):
        stream = RngStream(7, 1)
        sample = cox_sample(LinearCompensator(2.0), stream)
        assert sample.tau.value == pytest.approx(sample.z / 2.0, rel=1e-15)
        assert sample.a_at_tau == pytest.approx(sample.z, rel=1e-12)

    def test_level_is_recovered_when_tau_is_finite(self):
        A = PowerCompensator(2.0)
        for k in range(200):
            s = cox_sample(A, RngStream(11, k))
            assert s.tau.is_finite
            assert s.a_at_tau == pytest.approx(s.z, abs=1e-12)

    def test_bounded_compensator_can_miss(self):
        A = SaturatingExpCompensator(limit=0.25, rate=1.0)
        hits, misses = 0, 0
        for k in range(200):
            s = cox_sample(A, RngStream(3, k))
            if s.tau.is_finite:
                hits += 1
                assert s.a_at_tau == pytest.approx(s.z, abs=1e-12)
            else:
                misses += 1
                assert s.a_at_tau == 0.25
        # P(hit) = 1 - e^{-0.25}, roughly 22 percent
        assert hits > 0 and misses > 0

    def test_provenance_and_serialization(self):
        stream = RngStream(42, 5)
        d = cox_sample(LinearCompensator(1.0), stream).to_json_dict()
        assert d["seed"] == "42"
        assert d["stream_id"] == 5
        assert d["tau"] == d["z"] == d["a_at_tau"]

    def test_infinite_tau_serializes_as_a_string(self):
        A = SaturatingExpCompensator(limit=1e-9, rate=1.0)
        d = cox_sample(A, RngStream(0, 0)).to_json_dict()
        assert d["tau"] == "infinity"


class TestWriteCoxRows:
    """The ``cox-demo`` writer against the per-row scalar reference, byte for byte."""

    @given(
        st.sampled_from(STREAM_COMPENSATORS) | random_compensators,
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(["json", "csv"]),
    )
    def test_equals_the_scalar_reference(self, A, seed, n, block, fmt):
        # A small block makes most cases cross one or more block boundaries.
        # Where a level overflows, the rows before it are written, then its error.
        buf, error = io.StringIO(), None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_DRAW_BLOCK", block)
            try:
                write_cox_rows(buf, A, seed, n, fmt)
            except OverflowError as exc:
                error = str(exc)
        samples, reference_error = reference_samples(A, seed, n)
        assert (buf.getvalue(), error) == (render(samples, fmt), reference_error)

    def test_bounded_overflow_keeps_the_rows_before_it(self):
        # Over rate 1e-310, levels from about 0.018 up to the limit overflow,
        # though they are reached; on seed 0 the fourth level is the first.
        A = SaturatingExpCompensator(1.0, 1e-310)
        buf = io.StringIO()
        with pytest.raises(OverflowError, match=r"limit 1\.0\) / rate 1e-310"):
            write_cox_rows(buf, A, 0, 50, "json")
        samples, error = reference_samples(A, 0, 50)
        assert len(samples) == 3 and error is not None
        assert buf.getvalue() == render(samples, "json")

    def test_each_block_is_drawn_when_it_is_written(self, monkeypatch):
        calls, seen = [], []
        first_words = core._philox_first_words

        def counting(seed, ids):
            calls.append(len(ids))
            # An eager writer would go on to 10**12 draws; stop it at once.
            assert len(calls) <= 2, "a block was drawn before the one before it was written"
            return first_words(seed, ids)

        class RefusingSink(io.StringIO):
            def write(self, text):
                seen.append(len(calls))
                if len(calls) == 2:
                    raise OSError("sink full")
                return super().write(text)

        monkeypatch.setattr(core, "_philox_first_words", counting)
        sink = RefusingSink()
        with pytest.raises(OSError, match="sink full"):
            write_cox_rows(sink, LinearCompensator(1.0), 0, 10**12, "json")
        # The header was written before any draw, the first block after
        # exactly one draw call, and the second block was refused.
        assert seen[0] == 0 and set(seen[1:-1]) == {1} and seen[-1] == 2
        assert calls == [core._DRAW_BLOCK] * 2
        assert sink.getvalue().count("\n") == core._DRAW_BLOCK

    def test_seed_range_validated(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="64-bit"):
                write_cox_rows(io.StringIO(), LinearCompensator(1.0), seed, 3, "json")

    @pytest.mark.parametrize(
        "n, message",
        [(-3, r"^n must lie in \[0, 2\*\*64\], got -3$"), (2**64 + 1, "^n must lie in"),
         (1.5, "^n must be an integer, got 1.5$"), ("3", "^n must be an integer")],
    )
    def test_a_bad_count_is_refused_before_the_header(self, n, message):
        buf = io.StringIO()
        with pytest.raises(ValueError, match=message):
            write_cox_rows(buf, LinearCompensator(1.0), 0, n, "csv")
        assert buf.getvalue() == ""

    def test_an_unknown_format_is_refused(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="^format must be one of json, csv, got 'xml'$"):
            write_cox_rows(buf, LinearCompensator(1.0), 0, 3, "xml")
        assert buf.getvalue() == ""

    def test_a_numpy_count_is_a_count(self):
        rows = io.StringIO()
        write_cox_rows(rows, LinearCompensator(1.0), 4, np.int64(3), "csv")
        assert rows.getvalue() == render(reference_samples(LinearCompensator(1.0), 4, 3)[0], "csv")


def float_texts(x) -> list[str]:
    """``_float_text`` of each value, its NUL slots dropped."""
    rows = _float_text(np.asarray(x, dtype=float))
    lines = np.concatenate([rows, np.full((len(rows), 1), ord("\n"), np.uint8)], axis=1)
    return lines.tobytes().translate(None, b"\0").decode("ascii").splitlines()


def assert_texts_are_repr(xs: np.ndarray) -> None:
    """``float_texts`` equals ``repr`` on every value, 2**16 values at a time."""
    for start in range(0, len(xs), 2**16):
        part = xs[start : start + 2**16]
        assert float_texts(part) == list(map(repr, part.tolist()))


def neighbours(xs: np.ndarray) -> np.ndarray:
    """Each value and the floats just below and above it."""
    return np.concatenate([np.nextafter(xs, -np.inf), xs, np.nextafter(xs, np.inf)])


class TestFloatText:
    """The numpy shortest-digit renderer against ``repr``."""

    @given(
        st.lists(
            st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
            | st.floats(allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=20,
        )
    )
    def test_equals_repr(self, xs):
        assert float_texts(xs) == list(map(repr, xs))

    def test_edge_sets(self):
        tiny = np.arange(1, 200_000, dtype=np.uint64).view(np.float64)  # subnormals
        twos = neighbours(np.ldexp(1.0, np.arange(-1074, 1024)))
        tens = neighbours(np.array([10.0**e for e in range(-323, 309)]))
        near_2_53 = np.arange(2.0**53 - 1000, 2.0**53 + 1000)
        switches = neighbours(np.array([1e-4, 1e-5, 1e15, 1e16, 1e17, 9999999999999998.0]))
        extremes = np.array([0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308])
        assert_texts_are_repr(np.concatenate([tiny, twos, tens, near_2_53, switches, extremes]))

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(2027).integers(0, 2**64, 10**6, dtype=np.uint64)
        xs = bits.view(np.float64)
        assert_texts_are_repr(xs[np.isfinite(xs)])


class TestRoundTrip:
    def test_identity_compensator(self):
        assert cox_round_trip(LinearCompensator(1.0), 0.7) == TimePoint(0.7)

    def test_square_compensator(self):
        assert cox_round_trip(PowerCompensator(2.0), 2.0) == TimePoint(2.0)

    def test_flat_model_after_the_flat_piece(self):
        A = flat_compensator_model().compensator
        assert cox_round_trip(A, 2.5) == TimePoint(2.5)

    def test_flat_interior_returns_the_left_edge(self):
        # a tau that no sample of this model can produce
        A = flat_compensator_model().compensator
        assert cox_round_trip(A, 1.5) == TimePoint(1.0)

    def test_rejects_infinite_tau(self):
        with pytest.raises(ValueError):
            cox_round_trip(LinearCompensator(1.0), INFINITY)

    def test_round_trips_on_every_catalog_model(self):
        for model in catalog_models():
            A = model.compensator
            worst = 0.0
            for k in range(500):
                s = cox_sample(A, RngStream(17, k))
                back = cox_round_trip(A, s.tau)
                worst = max(worst, abs(back.value - s.tau.value))
            assert worst <= 1e-9, model.name

    @given(st.floats(min_value=1e-6, max_value=50.0))
    def test_round_trip_for_strictly_increasing_compensator(self, tau):
        A = PowerCompensator(2.0)
        assert cox_round_trip(A, tau).value == pytest.approx(tau, rel=1e-12)
