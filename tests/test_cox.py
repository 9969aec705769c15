"""Constructed jump times: level crossing, sampling, and the round trip."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumptime import core
from jumptime.compensators import (
    LinearCompensator,
    PowerCompensator,
    SaturatingExpCompensator,
)
from jumptime.core import INFINITY, RngStream, TimePoint
from jumptime.cox import cox_round_trip, cox_sample, cox_samples, cox_time
from jumptime.processes import catalog_models, flat_compensator_model

#: Every catalog compensator, plus a bounded one whose high levels are never hit.
STREAM_COMPENSATORS = [m.compensator for m in catalog_models()] + [
    SaturatingExpCompensator(limit=0.5, rate=1.0)
]


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
        st.sampled_from(STREAM_COMPENSATORS),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=8),
    )
    def test_equals_the_scalar_reference(self, A, seed, n, block):
        # A small block makes most cases cross one or more block boundaries.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_DRAW_BLOCK", block)
            got = list(cox_samples(A, seed, n))
        assert got == [cox_sample(A, RngStream(seed, k)) for k in range(n)]

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
