"""Compensator forms, generalized inverses, their array twins, and the CSV loader."""

import math
import re
from dataclasses import dataclass
from fractions import Fraction
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import decades
from jumptime.compensators import (
    Compensator,
    LinearCompensator,
    PowerCompensator,
    SaturatingExpCompensator,
    TabulatedCompensator,
    _KnotSearch,
    load_tabulated_csv,
)
from jumptime.core import INFINITY, TimePoint


def flat_table() -> TabulatedCompensator:
    return TabulatedCompensator(
        times=(0.0, 1.0, 2.0, 3.0),
        values=(0.0, 1.0, 1.0, 2.0),
        extrapolation_slope=1.0,
    )


@st.composite
def tabulated_compensators(draw):
    """Random knot tables; zero increments give flat pieces (repeated values)."""
    n = draw(st.integers(min_value=2, max_value=10))
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1))
    steps = draw(
        st.lists(st.just(0.0) | st.floats(1e-3, 10.0), min_size=n - 1, max_size=n - 1)
    )
    slope = draw(st.none() | st.just(0.0) | st.floats(1e-3, 10.0))
    times, values = [0.0], [0.0]
    for gap, step in zip(gaps, steps):
        times.append(times[-1] + gap)
        values.append(values[-1] + step)
    return TabulatedCompensator(tuple(times), tuple(values), slope)


closed_forms = st.one_of(
    st.floats(0.1, 10.0).map(LinearCompensator),
    st.floats(0.1, 10.0).map(PowerCompensator),
    st.builds(SaturatingExpCompensator, st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
)

every_family = st.one_of(
    st.floats(0.1, 10.0).map(LinearCompensator),
    st.floats(1e-3, 20.0).map(PowerCompensator),
    st.builds(SaturatingExpCompensator, st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    tabulated_compensators(),
)

#: Every class with parameters across decades: tiny linear and saturating
#: rates and small power exponents overflow on some levels, small saturating
#: limits and bounded tables leave high levels never reached.
exact_families = st.one_of(
    decades(-320.0, 3.0).map(LinearCompensator),
    decades(-3.0, 1.5).map(PowerCompensator),
    st.builds(SaturatingExpCompensator, decades(-3.0, 3.0), decades(-320.0, 3.0)),
    tabulated_compensators(),
)

#: Times for bitwise checks, subnormals included.
element_times = st.just(0.0) | st.floats(0.0, 1e3, allow_subnormal=True)

#: Probe times and levels away from subnormals, where one ulp is a large
#: relative error.
probes = st.lists(st.just(0.0) | st.floats(1e-6, 100.0), min_size=1, max_size=20)


def on_and_between(points):
    """Each point, each midpoint of neighbours, and two points past the last."""
    mids = [(a + b) / 2.0 for a, b in zip(points, points[1:])]
    return sorted(set(points) | set(mids) | {points[-1] + 0.5, points[-1] * 2.0 + 1.0})


def scalar_paths(A, ts, ss):
    """evaluate and inverse one point at a time, as floats with inf for never."""
    evaluated = np.array([A(float(t)) for t in ts])
    inverted = [A.inverse(float(s)) for s in ss]
    return evaluated, np.array([t.value if t.is_finite else math.inf for t in inverted])


EVERY_CLASS = (
    LinearCompensator(1.0),
    PowerCompensator(0.5),
    SaturatingExpCompensator(limit=1.0, rate=1.0),
    flat_table(),
)

#: Each class with each time its scalar ``evaluate`` rejects: negative, NaN,
#: and infinity when the compensator is unbounded.
REJECTED_TIMES = [
    pytest.param(A, bad, id=f"{bad}-{type(A).__name__}")
    for bad in (-1.0, math.nan, math.inf)
    for A in EVERY_CLASS
    if bad != math.inf or math.isinf(A.range_sup)
]


#: Saturating compensators with levels and times: on the first, numpy's
#: log1p and expm1 differ from libm's in the last bit; on the second, finite
#: taus overflow below the supremum.
SATURATING_EXAMPLES = [
    (
        SaturatingExpCompensator(10.0, 1.0),
        [0.48912777081375713, 0.7344712119389554],
        [0.2752473290376329, 0.4144007952317973],
    ),
    (SaturatingExpCompensator(1.0, 1e-310), [1e-3, 0.5, 2.0], [1e300]),
]


def bits(xs) -> np.ndarray:
    return np.asarray(xs, float).view(np.uint64)


def test_a_subclass_gets_the_parameter_rule_the_range_and_the_overflow_error():
    @dataclass(frozen=True)
    class ScaledCompensator(Compensator):
        """A(t) = t / width: it states only its field, its math and its inverse."""

        width: float

        _inverse_text = "level {s} * width {width}"

        def _evaluate_finite(self, t: float) -> float:
            return t / self.width

        def _inverse_finite(self, s: float) -> float:
            return s * self.width

    for width in (0.0, -1.0, math.inf, True, "1"):
        with pytest.raises(ValueError, match="^width "):
            ScaledCompensator(width)
    A = ScaledCompensator(1e300)
    assert A.range_sup == math.inf
    with pytest.raises(
        OverflowError, match=r"^jump time overflows a float: level 1e\+20 \* width 1e\+300$"
    ):
        A.inverse(1e20)


class TestLinear:
    def test_evaluate(self):
        A = LinearCompensator(2.0)
        assert A(0.0) == 0.0
        assert A(1.5) == 3.0
        assert A(TimePoint(2.0)) == 4.0

    def test_inverse(self):
        A = LinearCompensator(2.0)
        assert A.inverse(3.0) == TimePoint(1.5)
        assert A.inverse(0.0) == TimePoint(0.0)

    def test_unbounded_range_rejects_infinite_time(self):
        with pytest.raises(ValueError):
            LinearCompensator(1.0).evaluate(INFINITY)

    def test_rejects_bad_rate(self):
        rates = (0.0, -1.0, math.inf, math.nan, True, "1", 10**400, -(10**400))
        for rate in rates + (Fraction(1, 10**400), 10**5000):
            with pytest.raises(ValueError, match="^rate "):
                LinearCompensator(rate)

    def test_overflowing_inverse_names_rate_and_level(self):
        # 1 / 1e-320 is finite in exact arithmetic; INFINITY would be wrong.
        with pytest.raises(OverflowError, match=r"level 1\.0 / rate 1e-320"):
            LinearCompensator(1e-320).inverse(1.0)
        with pytest.raises(OverflowError, match=r"level 2\.0 / rate 1e-308"):
            LinearCompensator(1e-308).inverse(2.0)

    def test_overflowing_array_inverse_names_rate_and_level(self):
        # The first finite level whose quotient overflows, as the scalar path names it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"level 1\.0 / rate 1e-320"):
                LinearCompensator(1e-320).inverse_many(np.array([math.inf, 1e-30, 1.0, 2.0]))
            with pytest.raises(OverflowError, match=r"level 2\.0 / rate 1e-308"):
                LinearCompensator(1e-308).inverse_many(np.array([1.0, 2.0]))

    def test_infinite_level_still_maps_to_infinity(self):
        for rate in (1e-320, 1.0):
            assert LinearCompensator(rate).inverse(math.inf) == INFINITY
            taus = LinearCompensator(rate).inverse_many(np.array([math.inf, 1e-30]))
            assert taus[0] == math.inf and math.isfinite(taus[1])

    def test_tiny_rate_below_the_overflow_is_finite(self):
        assert LinearCompensator(1e-320).inverse(1e-20) == TimePoint(1e-20 / 1e-320)

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6))
    def test_inverse_is_generalized_inverse(self, rate, s):
        A = LinearCompensator(rate)
        t = A.inverse(s)
        # inf{t : A(t) >= s}: the level is reached at t and not strictly before
        assert A(t) >= s or math.isclose(A(t.value), s, rel_tol=1e-12)
        assert A(t.value * (1 - 1e-9)) < s
        assert A.inverse(0.0) == TimePoint(0.0)


class TestPower:
    def test_square_compensator_oracle(self):
        A = PowerCompensator(2.0)
        assert A(3.0) == 9.0
        assert A.inverse(4.0) == TimePoint(2.0)
        assert A.inverse(0.0) == TimePoint(0.0)

    def test_inverse_solves_the_level_equation(self):
        A = PowerCompensator(3.0)
        for s in (0.5, 1.0, 7.0, 123.0):
            t = A.inverse(s)
            assert A(t) == pytest.approx(s, rel=1e-12)

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(ValueError):
            PowerCompensator(0.0)

    def test_overflowing_inverse_names_exponent_and_level(self):
        # 2.5 ** 1000 is finite in exact arithmetic; INFINITY would be wrong.
        with pytest.raises(OverflowError, match=r"level 2\.5 .*exponent 0\.001"):
            PowerCompensator(0.001).inverse(2.5)


class TestSaturatingExp:
    def test_bounded_range(self):
        A = SaturatingExpCompensator(limit=1.0, rate=1.0)
        assert A.range_sup == 1.0
        assert A(0.0) == 0.0
        assert A(1.0) == pytest.approx(1.0 - math.exp(-1.0))
        assert A.evaluate(INFINITY) == 1.0

    def test_unreachable_levels_map_to_infinity(self):
        A = SaturatingExpCompensator(limit=1.0, rate=1.0)
        assert A.inverse(2.0) == INFINITY
        assert A.inverse(1.0) == INFINITY
        assert A.inverse(0.5) == TimePoint(math.log(2.0))

    def test_overflowing_inverse_names_limit_rate_and_level(self):
        # 0.5 < limit is reached at a finite tau, about 6.9e309; INFINITY would
        # be wrong, and so would inf from the array inverse.
        A = SaturatingExpCompensator(1.0, 1e-310)
        with pytest.raises(OverflowError, match=r"level 0\.5 / limit 1\.0\) / rate 1e-310"):
            A.inverse(0.5)
        assert A.inverse(2.0) == INFINITY
        assert A.inverse(1e-3) == TimePoint(-math.log1p(-1e-3) / 1e-310)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError):
                A.inverse_many(np.array([0.5, 2.0]))

    @pytest.mark.parametrize("A, ss, ts", SATURATING_EXAMPLES)
    def test_array_forms_carry_the_exact_bits(self, A, ss, ts):
        ts = np.array(ts + [math.inf])
        np.testing.assert_array_equal(bits(A.evaluate_many(ts)), bits(A.evaluate_exact(ts)))
        ss = np.array(ss + [A.range_sup, 2.0 * A.range_sup])
        exact = A.inverse_exact(ss)
        # inverse_many refuses an overflowing level (inf below the supremum).
        kept = ~(np.isinf(exact) & (ss < A.range_sup))
        np.testing.assert_array_equal(bits(A.inverse_many(ss[kept])), bits(exact[kept]))


class TestTabulated:
    def test_evaluate_on_and_between_knots(self):
        A = flat_table()
        assert A(0.0) == 0.0
        assert A(0.5) == 0.5
        assert A(1.0) == 1.0
        assert A(1.5) == 1.0  # flat piece
        assert A(2.5) == 1.5
        assert A(3.0) == 2.0
        assert A(4.5) == 3.5  # slope-1 extrapolation

    def test_inverse_left_edge_of_flat_is_exact(self):
        A = flat_table()
        assert A.inverse(1.0) == TimePoint(1.0)
        assert A.inverse(1.0).value == 1.0

    def test_level_zero_on_a_table_that_starts_flat_is_time_zero(self):
        A = TabulatedCompensator((0.0, 1.0, 2.0), (0.0, 0.0, 1.0))
        assert A.inverse(0.0).value == 0.0
        np.testing.assert_array_equal(A.inverse_exact(np.array([0.0])), [0.0])

    def test_inverse_oracles(self):
        A = flat_table()
        assert A.inverse(0.5) == TimePoint(0.5)
        assert A.inverse(1.5) == TimePoint(2.5)
        assert A.inverse(2.0) == TimePoint(3.0)
        assert A.inverse(2.5) == TimePoint(3.5)

    def test_rejects_unequal_times_and_values(self):
        with pytest.raises(ValueError, match="^times and values must have equal length$"):
            TabulatedCompensator((0.0, 1.0, 2.0), (0.0, 1.0))

    def test_array_calls_keep_equality_and_hash(self):
        # The knot arrays an array call builds are no part of the value.
        A, B = flat_table(), flat_table()
        A.evaluate_exact(np.array([0.5, 2.5]))
        A.inverse_exact(np.array([0.5, 1.0]))
        assert A == B and hash(A) == hash(B)
        assert B.evaluate_exact(np.array([0.5, 2.5])).tolist() == [0.5, 1.5]
        assert A == B and hash(A) == hash(B)

    def test_bounded_table_without_extrapolation(self):
        A = TabulatedCompensator((0.0, 1.0), (0.0, 1.0))
        assert A.range_sup == 1.0
        assert A.inverse(2.0) == INFINITY
        assert A(5.0) == 1.0
        assert A.evaluate(INFINITY) == 1.0

    @given(tabulated_compensators(), probes, probes)
    @example(flat_table(), list(np.linspace(0.0, 6.0, 301)), list(np.linspace(0.0, 3.0, 301)))
    @example(TabulatedCompensator((0.0, 1.0), (0.0, 1.0)), [2.0], [0.5])
    def test_vector_paths_match_scalar_paths(self, A, ts, ss):
        # Probes sit on knots, inside flat pieces and beyond the last knot
        # (at +inf too when the table is bounded); both paths do the same
        # float operations, so they agree exactly.
        ts = on_and_between(A.times) + ts
        ss = on_and_between(A.values) + ss
        if math.isfinite(A.range_sup):
            ts = ts + [math.inf]
        evaluated, inverted = scalar_paths(A, ts, ss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(A.evaluate_many(np.array(ts)), evaluated)
            np.testing.assert_array_equal(A.inverse_many(np.array(ss)), inverted)

    def test_overflowing_inverse_names_slope_and_level(self):
        # range_sup is inf and 1 / 1e-320 is finite in exact arithmetic, so
        # INFINITY would be wrong; both paths raise the linear tail's error.
        A = TabulatedCompensator((0.0, 1.0), (0.0, 1.0), 1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=r"level 2\.0 / extrapolation slope 1e-320"):
                A.inverse(2.0)
            with pytest.raises(OverflowError, match=r"level 2\.0 / extrapolation slope 1e-320"):
                A.inverse_many(np.array([0.5, math.inf, 1.0 + 1e-300, 2.0, 3.0]))

    def test_tiny_slope_keeps_infinite_levels_and_finite_tails(self):
        A = TabulatedCompensator((0.0, 1.0), (0.0, 1.0), 1e-320)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert A.inverse(math.inf) == INFINITY
            assert A.inverse(1.0 + 1e-300) == TimePoint(1.0)
            np.testing.assert_array_equal(
                A.inverse_many(np.array([0.5, math.inf, 1.0 + 1e-300])), [0.5, math.inf, 1.0]
            )

    def test_wide_knot_spans_interpolate_without_overflow(self):
        # (s - v0) * (t1 - t0) and (t - t0) * (v1 - v0) overflow a float here,
        # although tau = 5e299 and A(5e299) = 5e9 are finite.
        A = TabulatedCompensator((0.0, 1e300), (0.0, 1e10))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert A.inverse(5e9) == TimePoint(5e299)
            assert A.evaluate(5e299) == 5e9
            np.testing.assert_array_equal(
                A.inverse_many(np.array([0.0, 5e9, 1e10])), [0.0, 5e299, 1e300]
            )
            np.testing.assert_array_equal(
                A.evaluate_many(np.array([0.0, 5e299, 1e300])), [0.0, 5e9, 1e10]
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            TabulatedCompensator((0.0,), (0.0,))
        with pytest.raises(ValueError):
            TabulatedCompensator((0.5, 1.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            TabulatedCompensator((0.0, 1.0), (0.5, 1.0))
        with pytest.raises(ValueError):
            TabulatedCompensator((0.0, 1.0, 1.0), (0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            TabulatedCompensator((0.0, 1.0, 2.0), (0.0, 1.0, 0.5))
        with pytest.raises(ValueError):
            TabulatedCompensator((0.0, 1.0), (0.0, 1.0), extrapolation_slope=-1.0)


class TestVectorPaths:
    def test_every_class_is_probed(self):
        # Only the package's own classes: a test may define a subclass of its own.
        package = {C for C in Compensator.__subclasses__() if C.__module__.startswith("jumptime.")}
        assert {type(A) for A in EVERY_CLASS} == package

    @pytest.mark.parametrize("A", EVERY_CLASS, ids=lambda A: type(A).__name__)
    @pytest.mark.parametrize("bad", [-1.0, math.nan])
    def test_array_inverse_rejects_what_the_scalar_rejects(self, A, bad):
        with pytest.raises(ValueError):
            A.inverse(bad)
        with pytest.raises(ValueError):
            A.inverse_many(np.array([0.5, bad]))

    @pytest.mark.parametrize("A,bad", REJECTED_TIMES)
    def test_array_evaluate_rejects_what_the_scalar_rejects(self, A, bad):
        with pytest.raises(ValueError):
            A.evaluate(bad)
        for array_path in (A.evaluate_many, A.evaluate_exact):
            with pytest.raises(ValueError):
                array_path(np.array([0.5, bad]))

    @given(closed_forms, probes, probes)
    def test_closed_forms_match_scalar_paths(self, A, ts, ss):
        # numpy's SIMD pow may differ from libm in the last bit.
        # A bounded A gives its supremum at +inf on both paths.
        if math.isfinite(A.range_sup):
            ts = ts + [math.inf]
            ss = ss + [A.range_sup, 2.0 * A.range_sup]
        evaluated, inverted = scalar_paths(A, ts, ss)
        np.testing.assert_allclose(A.evaluate_many(np.array(ts)), evaluated, rtol=1e-12)
        np.testing.assert_allclose(A.inverse_many(np.array(ss)), inverted, rtol=1e-12)


    @given(
        every_family,
        st.lists(element_times, min_size=1, max_size=40),
        st.lists(st.just(0.0) | st.floats(0.0, 50.0, allow_subnormal=True), min_size=1, max_size=40),
    )
    def test_evaluate_many_is_elementwise(self, A, ts, ss):
        # verify.martingale_residual relies on this for evaluate_many: A(t ^ tau)
        # taken from A(tau) and from A(t) alone has the bits of A over the
        # stopped array.  JumpModel.sample relies on it for both maps, which
        # it runs a block of draws at a time.  Forty values cover numpy's SIMD
        # main loop and its remainder.
        if math.isfinite(A.range_sup):
            ss = ss + [A.range_sup, 2.0 * A.range_sup]
        for array_map, xs in ((A.evaluate_many, np.array(ts)), (A.inverse_many, np.array(ss))):
            together = array_map(xs).view(np.uint64)
            alone = [array_map(xs[k : k + 1]).view(np.uint64)[0] for k in range(len(xs))]
            np.testing.assert_array_equal(together, alone)


@st.composite
def knot_arrays(draw):
    """Sorted knot arrays: repeated values, clusters a few ulps wide, 0, a wide span."""
    pool = draw(st.lists(st.just(0.0) | st.floats(0.0, 1e3, allow_subnormal=True), min_size=1, max_size=5))
    cluster = draw(st.sampled_from(pool))
    knots = draw(
        st.lists(
            st.sampled_from(pool)
            | st.integers(1, 8).map(lambda k: cluster + k * math.ulp(cluster))
            | st.just(1e300),
            max_size=30,
        )
    )
    return np.array(sorted(knots), float)


def search_keys(knots: np.ndarray) -> np.ndarray:
    """Every knot and its two float neighbours, 0, and the ends of the float range."""
    near = np.concatenate([knots, np.nextafter(knots, -math.inf), np.nextafter(knots, math.inf)])
    return np.concatenate([near[near >= 0.0], [0.0, 5e-324, 1e308, math.inf]])


class TestKnotSearch:
    """The bucket search of a tabulated compensator against ``np.searchsorted``."""

    @given(knot_arrays(), st.lists(st.just(0.0) | st.floats(0.0, 2e3), max_size=40))
    @example(np.array([]), [1.0])
    @example(np.array([1.0, 1.0]), [0.0, 1.0, 2.0])
    @example(np.array([5e-324, 1e-323]), [0.0, 5e-324, 1.0])
    @example(np.array([0.0, 1e300]), [1e299])
    def test_search_is_searchsorted(self, knots, keys):
        probe = np.concatenate([search_keys(knots), keys]) if knots.size else np.array(keys)
        # Shuffled, as the sampled keys come.
        probe = probe[np.random.default_rng(len(probe)).permutation(len(probe))]
        for side in ("left", "right"):
            got = _KnotSearch(knots, side)(probe)
            np.testing.assert_array_equal(got, np.searchsorted(knots, probe, side=side))

    @given(tabulated_compensators(), st.lists(st.floats(0.0, 200.0), max_size=40))
    def test_a_tables_searches_are_its_inner_knots(self, A, keys):
        times, values = A._knots
        by_time, by_level = A._segments
        probe = np.concatenate([search_keys(times), search_keys(values), keys])
        np.testing.assert_array_equal(by_time(probe), np.searchsorted(times[1:-1], probe, side="right"))
        np.testing.assert_array_equal(by_level(probe), np.searchsorted(values[1:-1], probe, side="left"))


class TestExactPaths:
    """``inverse_exact`` and ``evaluate_exact`` against the scalar methods, bit for bit."""

    @given(
        exact_families,
        st.lists(st.just(0.0) | st.floats(0.0, 50.0), min_size=1, max_size=40),
        st.lists(element_times, min_size=1, max_size=40),
    )
    # Levels and times where numpy's pow, log1p and expm1 differ from libm's
    # in the last bit, so a numpy shortcut fails here.
    @example(PowerCompensator(2.0), [0.10836941080951759, 1.480911988623286], [0.6576526478313247])
    @example(PowerCompensator(0.5), [4.63221944483097, 2.2210522455050437], [1.0])
    @example(*SATURATING_EXAMPLES[0])
    @example(*SATURATING_EXAMPLES[1])
    def test_exact_paths_carry_the_scalar_bits(self, A, ss, ts):
        if math.isfinite(A.range_sup):
            ss = ss + [A.range_sup, 2.0 * A.range_sup]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            taus = A.inverse_exact(np.array(ss))
            expected, mapped = [], []
            for s, tau in zip(ss, taus.tolist()):
                try:
                    want = A.inverse(s)
                except OverflowError:
                    # Only a level below the supremum overflows; inf stands for it.
                    assert s < A.range_sup and tau == math.inf
                    expected.append(math.inf)
                    continue
                expected.append(want.value if want.is_finite else math.inf)
                mapped.append(tau)
                if s > A.range_sup:
                    assert tau == math.inf
            np.testing.assert_array_equal(bits(taus), bits(expected))
            # A(tau) at every tau that is not an overflow (a bounded A's
            # infinite taus give its supremum) and at free times.
            times = mapped + ts
            evaluated = A.evaluate_exact(np.array(times))
        np.testing.assert_array_equal(bits(evaluated), bits([A.evaluate(t) for t in times]))

    @given(tabulated_compensators())
    @example(flat_table())
    # Bounded, ending on a flat: the top level is hit at the flat's left edge.
    @example(TabulatedCompensator((0.0, 1.0, 2.0), (0.0, 1.0, 1.0)))
    # A -0.0 knot value, whose bits only the knot-hit branch returns.
    @example(TabulatedCompensator((0.0, 1.0, 2.0), (-0.0, -0.0, 1.0), 2.0))
    def test_tabulated_maps_on_and_between_the_knots(self, A):
        # Random floats almost never hit a knot.  These levels and times sit
        # on every knot, between neighbours and past the last one (+inf too
        # on a bounded table), in reverse order, so each rare branch runs.
        ss = on_and_between(A.values)
        ts = on_and_between(A.times)
        if math.isfinite(A.range_sup):
            ss.append(math.inf)
            ts.append(math.inf)
        ss, ts = ss[::-1], ts[::-1]
        evaluated, inverted = scalar_paths(A, ts, ss)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(bits(A.inverse_exact(np.array(ss))), bits(inverted))
            np.testing.assert_array_equal(bits(A.evaluate_exact(np.array(ts))), bits(evaluated))


#: Unbounded compensators with a finite time whose A is past the float range.
VALUE_OVERFLOWS = [
    pytest.param(PowerCompensator(10.0), 1e40, "1e+40", id="power-10"),
    pytest.param(LinearCompensator(1e308), 10.0, "10.0", id="linear-1e308"),
    pytest.param(
        TabulatedCompensator((0.0, 1.0), (0.0, 1.0), 1e308), 10.0, "10.0", id="tabulated-1e308"
    ),
]


class TestEvaluateOverflow:
    @pytest.mark.parametrize("A, t, shown", VALUE_OVERFLOWS)
    def test_every_evaluate_path_names_the_time(self, A, t, shown):
        # A(t) is finite in exact arithmetic; inf or a bare OverflowError would be wrong.
        message = rf"^compensator value overflows a float at time {re.escape(shown)}$"
        with pytest.raises(OverflowError, match=message):
            A.evaluate(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for array_path in (A.evaluate_exact, A.evaluate_many):
                # The first overflowing time is named, not a later one.
                with pytest.raises(OverflowError, match=message):
                    array_path(np.array([1.0, t, 2.0 * t]))

    @pytest.mark.parametrize("A, t, shown", VALUE_OVERFLOWS)
    def test_times_below_the_overflow_still_evaluate(self, A, t, shown):
        ts = np.array([0.0, 0.5, 1.0])
        expected = [A.evaluate(float(x)) for x in ts]
        np.testing.assert_array_equal(A.evaluate_exact(ts), expected)
        np.testing.assert_allclose(A.evaluate_many(ts), expected, rtol=1e-12)

    def test_a_bounded_compensator_never_overflows(self):
        # rate * t overflows to inf here, where A is its limit.
        A = SaturatingExpCompensator(limit=2.0, rate=1e3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert A.evaluate(1e306) == 2.0
            np.testing.assert_array_equal(A.evaluate_many(np.array([1e306, math.inf])), [2.0, 2.0])
            np.testing.assert_array_equal(A.evaluate_exact(np.array([1e306, math.inf])), [2.0, 2.0])


class TestGeneralizedInverseIdentities:
    def test_module_level_alias(self):
        A = LinearCompensator(1.0)
        assert A.inverse(0.7) == TimePoint(0.7)

    @given(st.floats(min_value=1e-3, max_value=0.999))
    def test_level_attained_on_tabulated(self, s):
        A = flat_table()
        t = A.inverse(s)
        assert A(t) == pytest.approx(s, abs=1e-12)

    def test_monotone_in_the_level(self):
        A = flat_table()
        levels = np.linspace(0.0, 3.0, 100)
        inverses = [A.inverse(float(s)) for s in levels]
        assert all(a <= b for a, b in zip(inverses, inverses[1:]))


class TestCsvLoader:
    def _write(self, tmp_path, text):
        path = tmp_path / "table.csv"
        path.write_text(text)
        return path

    def test_loads_a_valid_table(self, tmp_path):
        path = self._write(tmp_path, "t,value\n0,0\n1,1\n2,1\n3,2\n")
        A = load_tabulated_csv(path, extrapolation_slope=1.0)
        assert A(2.5) == 1.5
        assert A.inverse(1.0) == TimePoint(1.0)

    def test_skips_blank_lines(self, tmp_path):
        path = self._write(tmp_path, "t,value\n0,0\n\n1,2\n")
        assert load_tabulated_csv(path)(0.5) == 1.0

    def test_reports_offending_row_for_non_numeric(self, tmp_path):
        path = self._write(tmp_path, "t,value\n0,0\n1,one\n")
        with pytest.raises(ValueError, match="row 2"):
            load_tabulated_csv(path)

    def test_reports_offending_row_for_decreasing_times(self, tmp_path):
        path = self._write(tmp_path, "t,value\n0,0\n2,1\n1,2\n")
        with pytest.raises(ValueError, match="row 3.*increasing"):
            load_tabulated_csv(path)

    def test_reports_offending_row_for_decreasing_values(self, tmp_path):
        path = self._write(tmp_path, "t,value\n0,0\n1,2\n2,1\n")
        with pytest.raises(ValueError, match="row 3.*nondecreasing"):
            load_tabulated_csv(path)

    def test_rejects_nonzero_start(self, tmp_path):
        path = self._write(tmp_path, "t,value\n1,0\n2,1\n")
        with pytest.raises(ValueError, match="row 1"):
            load_tabulated_csv(path)
        path = self._write(tmp_path, "t,value\n0,0.5\n2,1\n")
        with pytest.raises(ValueError, match="row 1"):
            load_tabulated_csv(path)

    def test_rejects_empty_and_header_only(self, tmp_path):
        with pytest.raises(ValueError, match="header"):
            load_tabulated_csv(self._write(tmp_path, ""))
        with pytest.raises(ValueError, match="two data rows"):
            load_tabulated_csv(self._write(tmp_path, "t,value\n"))

    def test_rejects_a_one_column_header_or_row(self, tmp_path):
        with pytest.raises(ValueError, match="^header must declare two columns"):
            load_tabulated_csv(self._write(tmp_path, "t\n0,0\n1,1\n"))
        with pytest.raises(ValueError, match="^row 2: expected two columns, got 1$"):
            load_tabulated_csv(self._write(tmp_path, "t,value\n0,0\n1\n2,2\n"))

    @pytest.mark.parametrize(
        "times, values, knot, reason",
        [
            ((0.5, 1.0), (0.0, 1.0), 0, "table must start at time 0, got 0.5"),
            ((0.0, 1.0), (0.5, 1.0), 0, "A(0) must be 0, got 0.5"),
            ((0.0, 1.0, 1.0), (0.0, 1.0, 2.0), 2, "times must be strictly increasing"),
            ((0.0, 1.0, 2.0), (0.0, 1.0, 0.5), 2, "values must be nondecreasing"),
            ((0.0, 1.0, 2.0), (0.0, math.inf, 3.0), 1, "entries must be finite"),
            ((0.0, math.nan, 2.0), (0.0, 1.0, 2.0), 1, "entries must be finite"),
        ],
    )
    def test_loader_and_class_reject_the_same_knot(self, tmp_path, times, values, knot, reason):
        text = "t,value\n" + "".join(f"{t},{v}\n" for t, v in zip(times, values))
        with pytest.raises(ValueError) as loaded:
            load_tabulated_csv(self._write(tmp_path, text))
        assert str(loaded.value) == f"row {knot + 1}: {reason}"
        with pytest.raises(ValueError) as built:
            TabulatedCompensator(times, values)
        assert str(built.value) == f"knot {knot}: {reason}"

    def test_rejects_identically_zero_table(self, tmp_path):
        path = self._write(tmp_path, "t,value\n0,0\n1,0\n")
        with pytest.raises(ValueError, match="zero"):
            load_tabulated_csv(path)
        # a positive extrapolation slope rescues it: mass eventually accrues
        A = load_tabulated_csv(path, extrapolation_slope=2.0)
        assert A(2.0) == 2.0

    @pytest.mark.parametrize("slope", [None, 0.0, math.nan])
    def test_slope_rule_is_the_class_rule_on_every_table(self, tmp_path, slope):
        # The loader refuses what the class refuses, whatever the table holds:
        # None is slope 0 on both tables, and nan is a slope error on both.
        zero = self._write(tmp_path, "t,value\n0,0\n1,0\n")
        rising = tmp_path / "rising.csv"
        rising.write_text("t,value\n0,0\n1,1\n")
        if slope is None or slope == 0.0:
            with pytest.raises(ValueError, match="identically-zero"):
                load_tabulated_csv(zero, slope)
            A = load_tabulated_csv(rising, slope)
            assert A.extrapolation_slope == 0.0 and A(5.0) == 1.0
        else:
            for path in (zero, rising):
                with pytest.raises(ValueError, match="extrapolation slope"):
                    load_tabulated_csv(path, slope)
