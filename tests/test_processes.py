"""Model catalog, indicator process, semigroup, and Feller axiom checks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumptime.compensators import PowerCompensator, SaturatingExpCompensator
from jumptime.core import INFINITY, RngStream, TimePoint
from jumptime.processes import (
    C0_WITNESSES,
    DEFAULT_T_SCHEDULE,
    DEFAULT_X_GRID,
    IndicatorProcessLaw,
    build_model,
    catalog_models,
    catalog_names,
    conditional_expectation_indicator,
    ctmc_first_jump_model,
    feller_check,
    flat_compensator_model,
    gauss_bump,
    indicator_path,
    inhomogeneous_model,
    inverse_quad,
    negative_control_model,
    poisson_model,
    semigroup_apply,
    tent,
)

EXP1 = poisson_model(1.0).law()


class TestPoissonModel:
    def test_tau_is_z_over_rate(self):
        assert poisson_model(1.0).tau_from_z(0.7) == TimePoint(0.7)
        assert poisson_model(2.0).tau_from_z(3.0) == TimePoint(1.5)

    def test_compensator_recovers_the_draw(self):
        model = poisson_model(2.0)
        tau = model.tau_from_z(3.0)
        assert model.compensator(tau) == 3.0

    def test_cdf(self):
        model = poisson_model(2.0)
        assert model.tau_cdf(0.0) == 0.0
        assert model.tau_cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0))

    def test_rejects_bad_rate(self):
        for rate in (0.0, -2.0, math.inf):
            with pytest.raises(ValueError):
                poisson_model(rate)

    def test_sampling_is_reproducible_and_positive(self):
        model = poisson_model(0.5)
        a = model.sample_tau(RngStream(5, 3))
        b = model.sample_tau(RngStream(5, 3))
        assert a == b and a > 0


class TestInhomogeneousModel:
    def test_square_intensity_inverts(self):
        model = inhomogeneous_model(PowerCompensator(2.0))
        assert model.tau_from_z(4.0) == TimePoint(2.0)

    def test_cdf_composes_the_intensity(self):
        model = inhomogeneous_model(PowerCompensator(2.0))
        assert model.tau_cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_degenerates_to_unit_rate(self):
        linear = inhomogeneous_model(PowerCompensator(1.0))
        poisson = poisson_model(1.0)
        for z in (0.1, 1.0, 2.5):
            assert linear.tau_from_z(z) == poisson.tau_from_z(z)

    def test_rejects_bounded_intensity(self):
        with pytest.raises(ValueError, match="unbounded"):
            inhomogeneous_model(SaturatingExpCompensator(limit=1.0, rate=1.0))


class TestCtmcModel:
    def test_holding_time(self):
        model = ctmc_first_jump_model(3.0)
        assert model.tau_from_z(3.0) == TimePoint(1.0)
        assert model.compensator(1.0) == 3.0

    def test_cdf(self):
        assert ctmc_first_jump_model(0.5).tau_cdf(2.0) == pytest.approx(
            1.0 - math.exp(-1.0)
        )

    def test_metadata_mentions_the_chain(self):
        assert "Markov" in ctmc_first_jump_model(1.0).metadata


class TestFlatModel:
    def test_inverse_sampling_oracles(self):
        model = flat_compensator_model()
        assert model.tau_from_z(0.5) == TimePoint(0.5)
        assert model.tau_from_z(1.0) == TimePoint(1.0)  # left edge of the flat
        assert model.tau_from_z(1.5) == TimePoint(2.5)

    def test_samples_avoid_the_flat_interior(self):
        model = flat_compensator_model()
        draws = [model.sample_tau(RngStream(2, k)).value for k in range(2000)]
        assert not any(1.0 < t < 2.0 for t in draws)

    def test_vectorized_draws_match_scalar_draws(self):
        model = flat_compensator_model()
        zs = np.array([0.25, 1.0, 1.5, 2.0, 3.0])
        np.testing.assert_array_equal(
            model.taus_from_draws(zs),
            np.array([model.tau_from_z(float(z)).value for z in zs]),
        )


class TestNegativeControl:
    def test_compensator_is_deliberately_wrong(self):
        model = negative_control_model()
        tau = model.tau_from_z(1.0)
        assert tau == TimePoint(0.5)
        # claimed A(tau) = 0.5 although the draw was 1.0: the mismatch
        assert model.compensator(tau) == 0.5


class TestCatalog:
    def test_names_are_sorted_and_public(self):
        assert catalog_names() == ("ctmc", "flat", "poisson", "power")

    def test_build_by_name(self):
        assert build_model("poisson", {"rate": 2.0}).name == "poisson(rate=2)"
        assert build_model("power").name == "power(exponent=2)"
        assert build_model("flat").name == "flat"
        assert build_model("negative-control").name == "negative-control"

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(ValueError, match="ctmc, flat, poisson, power"):
            build_model("nosuch")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="poisson"):
            build_model("poisson", {"shape": 2.0})

    def test_catalog_models_cover_every_family(self):
        names = [m.name for m in catalog_models()]
        assert names == [
            "poisson(rate=0.5)",
            "poisson(rate=1)",
            "poisson(rate=2)",
            "power(exponent=2)",
            "ctmc(exit_rate=3)",
            "flat",
        ]

    def test_every_catalog_model_has_a_law(self):
        for model in catalog_models():
            law = model.law()
            assert law.tau_cdf(0.0) == 0.0
            assert law.tau_cdf(50.0) > 0.99

    def test_empirical_law_matches_tau_cdf(self):
        # DKW band at n = 4000, alpha = 1e-6: conservative and fast
        n = 4000
        band = math.sqrt(math.log(2.0 / 1e-6) / (2.0 * n))
        for model in catalog_models():
            draws = np.sort([model.sample_tau(RngStream(13, k)).value for k in range(n)])
            ref = np.array([model.tau_cdf(t) for t in draws])
            i = np.arange(1, n + 1)
            ks = np.maximum(np.abs(i / n - ref), np.abs((i - 1) / n - ref)).max()
            assert ks < band, model.name


class TestIndicatorPath:
    def test_step_shape(self):
        path = indicator_path(TimePoint(2.0))
        assert path.evaluate(2.0) == 1.0
        assert path.evaluate(1.999) == 0.0
        assert path.left_limit(2.0) == 0.0

    def test_values_are_binary_and_nondecreasing(self):
        path = indicator_path(0.75)
        grid = np.linspace(0.0, 3.0, 301)
        vals = [path.evaluate(float(t)) for t in grid]
        assert set(vals) <= {0.0, 1.0}
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_zero_tau(self):
        with pytest.raises(ValueError):
            indicator_path(0.0)

    def test_infinite_tau_never_jumps(self):
        path = indicator_path(INFINITY)
        assert path.evaluate(1e12) == 0.0


class TestSemigroup:
    def test_time_zero_is_the_identity_exactly(self):
        for f in C0_WITNESSES:
            for x in DEFAULT_X_GRID:
                assert semigroup_apply(f, 0.0, x, EXP1) == f(x)

    def test_hand_value_for_exponential_half_life(self):
        law = poisson_model(2.0).law()
        t = math.log(2.0) / 2.0
        assert semigroup_apply(lambda y: y, t, 0.0, law) == pytest.approx(0.5)

    def test_constants_are_fixed_points(self):
        c = 3.25
        for t in (0.0, 0.5, 2.0):
            assert semigroup_apply(lambda y: c, t, 1.0, EXP1) == pytest.approx(c)

    def test_gauss_value_at_origin(self):
        # P_1 f(0) = e^{-1} * f(0) + (1 - e^{-1}) * f(1) with f = exp(-y^2)
        expected = math.exp(-1.0) + (1.0 - math.exp(-1.0)) * math.exp(-1.0)
        assert semigroup_apply(gauss_bump, 1.0, 0.0, EXP1) == pytest.approx(
            expected, abs=1e-15
        )
        assert expected == pytest.approx(0.600423599106, abs=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=-5.0, max_value=5.0),
    )
    def test_value_stays_in_the_convex_hull(self, t, x):
        lo = min(gauss_bump(x), gauss_bump(x + 1.0))
        hi = max(gauss_bump(x), gauss_bump(x + 1.0))
        v = semigroup_apply(gauss_bump, t, x, EXP1)
        assert lo - 1e-12 <= v <= hi + 1e-12


class TestConditionalExpectation:
    def test_constants_are_unchanged(self):
        k1, k2 = conditional_expectation_indicator(lambda y: 1.0, 1.0, 0.0, EXP1)
        assert (k1, k2) == (1.0, 1.0)

    def test_identity_function_from_zero(self):
        k1, k2 = conditional_expectation_indicator(lambda y: y, 1.0, 0.0, EXP1)
        assert k1 == 1.0
        assert k2 == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)

    def test_memorylessness(self):
        k1, k2 = conditional_expectation_indicator(lambda y: y, 2.0, 1.0, EXP1)
        assert k1 == 1.0
        assert k2 == pytest.approx(1.0 - math.exp(-1.0), abs=1e-14)

    def test_rejects_conditioning_on_a_null_event(self):
        # tau <= 1 almost surely, so {1 < tau} is null
        law = IndicatorProcessLaw(lambda t: min(1.0, float(t)), description="uniform")
        with pytest.raises(ValueError, match="null"):
            conditional_expectation_indicator(lambda y: y, 2.0, 1.0, law)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            conditional_expectation_indicator(lambda y: y, 1.0, 1.0, EXP1)

    @given(st.floats(min_value=0.0, max_value=3.0), st.floats(min_value=1e-6, max_value=4.0))
    def test_tower_property_closed_form(self, t, du):
        u = t + du
        f = lambda y: 2.0 * y - 1.0
        k1, k2 = conditional_expectation_indicator(f, u, t, EXP1)
        p_t, p_u = EXP1.tau_cdf(t), EXP1.tau_cdf(u)
        e_g = k1 * p_t + k2 * (1.0 - p_t)
        e_f = f(0.0) * (1.0 - p_u) + f(1.0) * p_u
        assert e_g == pytest.approx(e_f, abs=1e-12)


class TestFellerCheck:
    def test_identity_error_is_exactly_zero(self):
        for f in C0_WITNESSES:
            assert feller_check(EXP1, f).identity_max_error == 0.0

    def test_errors_shrink_monotonically_to_zero(self):
        for f in C0_WITNESSES:
            report = feller_check(EXP1, f)
            assert report.nonincreasing
            assert report.e_final < 1e-6
            assert report.passed

    def test_tail_values_below_the_tail_bound(self):
        for f in C0_WITNESSES:
            report = feller_check(EXP1, f)
            assert report.tail_value_max <= report.tail_bound

    def test_default_schedule_and_grid(self):
        assert DEFAULT_T_SCHEDULE[0] == 1.0
        assert DEFAULT_T_SCHEDULE[-1] == 2.0**-20
        assert all(0.0 < b < a for a, b in zip(DEFAULT_T_SCHEDULE, DEFAULT_T_SCHEDULE[1:]))
        assert DEFAULT_X_GRID[0] == -8.0 and DEFAULT_X_GRID[-1] == 8.0

    @pytest.mark.parametrize(
        "broken",
        [
            {"identity_max_error": 1e-300},
            {"tail_value_max": math.inf},
            {"e_sequence": (0.0,) + feller_check(EXP1, gauss_bump).e_sequence},
            {"e_final_bound": -1.0},
        ],
        ids=["identity", "tail", "nonincreasing", "e_final"],
    )
    def test_verdict_follows_each_clause(self, broken):
        from dataclasses import replace

        report = feller_check(EXP1, gauss_bump)
        assert report.passed is True
        assert replace(report, **broken).passed is False

    def test_json_round_trip(self):
        report = feller_check(EXP1, tent)
        d = report.to_json_dict()
        assert d["passed"] is True
        assert d["e_sequence"][-1] == report.e_final
        assert d["function_name"] == "tent"


class TestLawValidation:
    def test_rejects_mass_at_zero(self):
        with pytest.raises(ValueError):
            IndicatorProcessLaw(lambda t: 0.5)

    def test_exponential_classmethod(self):
        law = poisson_model(2.0).law()
        assert law.tau_cdf(0.0) == 0.0
        assert law.tau_cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0))
        with pytest.raises(ValueError):
            poisson_model(0.0).law()

    def test_witness_shapes(self):
        assert gauss_bump(0.0) == 1.0
        assert inverse_quad(0.0) == 1.0
        assert tent(0.0) == 1.0 and tent(2.0) == 0.0 and tent(-0.5) == 0.5
