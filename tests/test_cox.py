"""Constructed jump times: level crossing, sampling, and the round trip."""

import csv
import io
import json
import math

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
from jumptime.cox import cox_round_trip, cox_sample, cox_samples, cox_time, write_cox_rows
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


class TestCoxSamples:
    """The block stream against the per-row scalar reference."""

    @given(
        st.sampled_from(STREAM_COMPENSATORS) | random_compensators,
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=8),
    )
    def test_equals_the_scalar_reference(self, A, seed, n, block):
        # A small block makes most cases cross one or more block boundaries.
        # Where a level overflows, the samples before it come, then its error.
        got, error = [], None
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_DRAW_BLOCK", block)
            try:
                got.extend(cox_samples(A, seed, n))
            except OverflowError as exc:
                error = str(exc)
        assert (got, error) == reference_samples(A, seed, n)

    def test_bounded_compensator_streams_infinite_rows(self):
        A = STREAM_COMPENSATORS[-1]
        rows = [s.to_json_dict() for s in cox_samples(A, 3, 50)]
        assert any(row["tau"] == "infinity" for row in rows)
        assert any(row["tau"] != "infinity" for row in rows)

    def test_first_sample_draws_one_block(self, monkeypatch):
        calls = []
        first_words = core._philox_first_words

        def counting(seed, ids):
            calls.append(len(ids))
            # An eager stream would go on to 10**12 draws; stop it at once.
            assert len(calls) == 1, "a second block was drawn"
            return first_words(seed, ids)

        monkeypatch.setattr(core, "_philox_first_words", counting)
        A = LinearCompensator(1.0)
        assert next(cox_samples(A, 0, 10**12)) == cox_sample(A, RngStream(0, 0))
        assert calls == [core._DRAW_BLOCK]

    def test_seed_range_validated(self):
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="64-bit"):
                next(cox_samples(LinearCompensator(1.0), seed, 3))


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
