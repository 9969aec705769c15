"""Model catalog, the indicator semigroup, conditional expectations, and Feller checks."""

import math
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from jumptime import core, processes
from jumptime.compensators import (
    LinearCompensator,
    PowerCompensator,
    SaturatingExpCompensator,
    TabulatedCompensator,
)
from jumptime.core import _DRAW_BLOCK, RngStream, TimePoint, draw_exponentials
from jumptime.processes import (
    C0_WITNESSES,
    CHAPMAN_KOLMOGOROV_TOLERANCE,
    DEFAULT_T_SCHEDULE,
    InfiniteSampleError,
    JumpModel,
    build_model,
    catalog_models,
    catalog_names,
    conditional_expectation_indicator,
    ctmc_first_jump_model,
    feller_check,
    flat_compensator_model,
    gauss_bump,
    inhomogeneous_model,
    inverse_quad,
    negative_control_model,
    poisson_model,
    semigroup_apply,
    tent,
)

EXP1 = poisson_model(1.0)

#: Every buildable model: the public ones at their defaults and the negative control.
BUILT_MODELS = tuple(build_model(name) for name in catalog_names()) + (negative_control_model(),)


def witness(g):
    """The Feller check's witness on the space-time states: f(u, j) = g(u + j)."""
    return lambda u, j: g(u + j)


#: Each model that ``build_model`` builds from a parameter, and the parameter's name.
BUILT_PARAMETERS = (("poisson", "rate"), ("ctmc", "exit_rate"), ("power", "exponent"))


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
        for rate in (0.0, -2.0, math.inf, Fraction(1, 10**400)):
            with pytest.raises(ValueError):
                poisson_model(rate)
        # A value that is not a real number is refused under its own name.
        for name, key in BUILT_PARAMETERS:
            for value in ("2", None, True):
                with pytest.raises(ValueError, match=f"^{key} must be a real number"):
                    build_model(name, {key: value})
            # An int past the float range is a real number that is not finite,
            # and a positive fraction whose float is 0.0 is not positive.  An
            # int too long to print is refused under its name all the same.
            for value in (10**400, -(10**400), Fraction(1, 10**400), 10**5000):
                with pytest.raises(ValueError, match=f"^{key} must be positive and finite"):
                    build_model(name, {key: value})

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
        taus, a_taus = model.sample(zs)
        scalar_taus = [model.tau_from_z(float(z)) for z in zs]
        np.testing.assert_array_equal(taus, np.array([tau.value for tau in scalar_taus]))
        np.testing.assert_array_equal(
            a_taus, np.array([model.compensator.evaluate(tau) for tau in scalar_taus])
        )


class TestNegativeControl:
    def test_compensator_is_deliberately_wrong(self):
        model = negative_control_model()
        tau = model.tau_from_z(1.0)
        assert tau == TimePoint(0.5)
        # claimed A(tau) = 0.5 although the draw was 1.0: the mismatch
        assert model.compensator(tau) == 0.5

    def test_sample_pairs_the_samplers_tau_with_the_claimed_compensator(self):
        zs = np.array([0.5, 1.0, 3.0, 7.25])
        taus, a_taus = negative_control_model().sample(zs)
        np.testing.assert_array_equal(taus, zs / 2.0)
        np.testing.assert_array_equal(a_taus, taus)


def one_shot(model, zs):
    """``JumpModel.sample`` as two whole-array maps: the reference for the blocked one."""
    taus = (model.sampler or model.compensator).inverse_many(zs)
    if np.isinf(taus).any():
        raise InfiniteSampleError(f"model {model.name!r} produced an infinite jump time")
    return taus, model.compensator.evaluate_many(taus)


def outcome(sample, model, zs):
    """The pair's bits, or the error's type and the message's first clause."""
    try:
        return [bits.view(np.uint64).tolist() for bits in sample(model, zs)]
    except (ValueError, OverflowError, InfiniteSampleError) as exc:
        return type(exc), str(exc).split(";")[0]


def aliased(model, zs):
    """``JumpModel.sample`` given one array twice: A(tau) written over tau,
    returned as both entries."""
    a = np.full(len(zs), np.nan)
    taus, a_taus = model.sample(zs, out=(a, a))
    assert taus is a_taus is a
    return (a,)


def a_tau_outcome(pair_outcome):
    """The ``outcome`` of the pair cut to A(tau)'s bits; an error stays as it is."""
    return pair_outcome[1:] if isinstance(pair_outcome, list) else pair_outcome


def table_model(knots: int) -> JumpModel:
    """A tabulated model with flats, as many knots as given, slope 1 past the last."""
    rng = np.random.default_rng(knots)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.5, 1.5, knots - 1)) * 10.0 / knots])
    steps = rng.exponential(12.0 / knots, knots - 1) * (rng.random(knots - 1) >= 0.05)
    A = TabulatedCompensator(tuple(times), tuple(np.concatenate([[0.0], np.cumsum(steps)])), 1.0)
    return inhomogeneous_model(A, name=f"table({knots})")


SAMPLED_MODELS = (
    poisson_model(1.5),
    build_model("power", {"exponent": 2.5}),
    build_model("power", {"exponent": 2.0}),
    flat_compensator_model(),
    negative_control_model(),
    # Every Exp(1) draw here lies below the limit, so every tau is finite.
    JumpModel("saturating", SaturatingExpCompensator(limit=20.0, rate=0.5)),
    table_model(1000),
)


class TestSample:
    def test_a_level_past_a_bounded_compensator_raises(self):
        # Level 2.0 lies above the saturating bound 1.0, so its tau is infinite.
        model = JumpModel("bounded-demo", SaturatingExpCompensator(limit=1.0, rate=1.0))
        with pytest.raises(InfiniteSampleError, match="'bounded-demo'.*infinite jump time"):
            model.sample(np.array([0.5, 2.0]))

    @pytest.mark.parametrize("model", SAMPLED_MODELS, ids=lambda m: m.name)
    def test_blocks_equal_the_whole_array_maps(self, model):
        # Around one and two draw blocks, and across several.
        for n in (1, _DRAW_BLOCK - 1, _DRAW_BLOCK, _DRAW_BLOCK + 1, 40_000):
            zs = draw_exponentials(3, n)
            want = outcome(one_shot, model, zs)
            assert outcome(JumpModel.sample, model, zs) == want, n
            out = (np.full(n, np.nan), np.full(n, np.nan))
            assert model.sample(zs, out=out)[0] is out[0]
            assert [a.view(np.uint64).tolist() for a in out] == want, n
            assert outcome(aliased, model, zs) == a_tau_outcome(want), n

    def test_errors_name_the_first_level_or_time_of_the_whole_array(self):
        zs = draw_exponentials(4, 40_000)
        # Levels: level 1e9 overflows the tau of rate 1e-300 in the second
        # block, 2e9 in the third; a NaN level in the last block outranks both.
        slow = JumpModel("slow", LinearCompensator(1e-300))
        levels = zs.copy()
        levels[[20_000, 30_000]] = 1e9, 2e9
        with_nan = levels.copy()
        with_nan[39_999] = math.nan
        # An infinite tau in the first block is refused only after every level
        # is inverted, so the overflow in the second block wins.
        inf_first = levels.copy()
        inf_first[5] = math.inf
        # Times: 20 and 30 overflow A(t) = t**250, unlike every Exp(1) draw
        # here; an infinite level in the last block is refused before any
        # time is evaluated.
        steep = JumpModel("steep", PowerCompensator(250.0), sampler=LinearCompensator(1.0))
        times = zs.copy()
        times[[20_000, 30_000]] = 20.0, 30.0
        with_inf = times.copy()
        with_inf[39_999] = math.inf
        cases = [
            (slow, levels, OverflowError, "level 1000000000.0"),
            (slow, with_nan, ValueError, "levels must be nonnegative"),
            (slow, inf_first, OverflowError, "level 1000000000.0"),
            (steep, times, OverflowError, "at time 20.0"),
            (steep, with_inf, InfiniteSampleError, "'steep'"),
            (build_model("poisson", {"rate": 1e-320}), zs, OverflowError, f"level {float(zs[0])!r}"),
            (build_model("power", {"exponent": 0.002}), zs, InfiniteSampleError, "power"),
        ]
        for model, draws, error, names in cases:
            got = outcome(JumpModel.sample, model, draws)
            assert got == outcome(one_shot, model, draws), model.name
            assert got[0] is error and names in got[1], (model.name, got)
            assert outcome(aliased, model, draws) == a_tau_outcome(got), model.name

    @given(
        st.sampled_from(SAMPLED_MODELS[:-1]),
        st.lists(st.floats(0.0, 50.0) | st.just(1e300) | st.just(math.inf), max_size=30),
        st.integers(1, 8),
    )
    def test_any_block_size_equals_the_whole_array_maps(self, model, zs, block):
        zs = np.array(zs, float)
        with mock.patch.object(core, "_DRAW_BLOCK", block):
            got = outcome(JumpModel.sample, model, zs)
            got_aliased = outcome(aliased, model, zs)
        want = outcome(one_shot, model, zs)
        assert got == want
        assert got_aliased == a_tau_outcome(want)


class TestCatalog:
    def test_names_are_sorted_and_public(self):
        assert catalog_names() == ("ctmc", "flat", "poisson", "power")

    def test_build_by_name(self):
        assert build_model("poisson", {"rate": 2.0}).name == "poisson(rate=2)"
        assert build_model("power").name == "power(exponent=2)"
        assert build_model("flat").name == "flat"
        assert build_model("negative-control").name == "negative-control"
        # numpy scalars build the model of the equal float, stored as a float.
        for name, key in BUILT_PARAMETERS:
            want = build_model(name, {key: 3.0})
            for value in (np.int64(3), np.float64(3.0)):
                got = build_model(name, {key: value})
                assert (got.name, got.compensator) == (want.name, want.compensator)
                assert all(type(v) is float for v in vars(got.compensator).values())

    def test_unknown_name_lists_the_catalog(self):
        with pytest.raises(ValueError, match="ctmc, flat, poisson, power"):
            build_model("nosuch")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="poisson"):
            build_model("poisson", {"shape": 2.0})
        for name, _ in BUILT_PARAMETERS:
            message = rf"^invalid parameters \['shape'\] for model '{name}'$"
            with pytest.raises(ValueError, match=message):
                build_model(name, {"shape": 2.0})

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

    def test_catalog_power_is_the_built_power(self):
        built = build_model("power", {"exponent": 2.0})
        (power,) = [m for m in catalog_models() if m.name.startswith("power")]
        assert (power.name, power.compensator) == (built.name, built.compensator)

    def test_every_catalog_model_has_a_law(self):
        for model in catalog_models():
            assert model.tau_cdf(0.0) == 0.0
            assert model.tau_cdf(50.0) > 0.99

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




def translation_invariant(S, f, u, v, j):
    """The deleted kernel: from any state the indicator may jump again, j to j + 1."""
    p = -math.expm1(-S(v - u))
    return f(u, j) * (1.0 - p) + f(u, j + 1) * p


def timeless_absorbing(S, f, u, v, j):
    """The two-state kernel that forgets time: a semigroup only when A is linear."""
    if j:
        return f(u, 1)
    q = math.exp(-S(v - u))
    return q * f(u, 0) + (1.0 - q) * f(u, 1)


class TestSemigroup:
    def test_time_zero_is_the_identity_exactly(self):
        for model in BUILT_MODELS:
            for g in C0_WITNESSES:
                f = witness(g)
                for u in (0.0, 0.3, 1.5, 7.75):
                    for j in (0, 1):
                        assert semigroup_apply(f, 0.0, u, j, model) == f(u, j)

    def test_hand_value_for_exponential_half_life(self):
        t = math.log(2.0) / 2.0
        assert semigroup_apply(lambda u, j: j, t, 0.0, 0, poisson_model(2.0)) == pytest.approx(0.5)

    def test_constants_are_fixed_points(self):
        c = 3.25
        for t in (0.0, 0.5, 2.0):
            for j in (0, 1):
                assert semigroup_apply(lambda u, k: c, t, 1.0, j, EXP1) == pytest.approx(c)

    def test_gauss_value_at_origin(self):
        # P_1 f(0, 0) = e^{-1} * g(0) + (1 - e^{-1}) * g(1) for f(u, j) = g(j), g = exp(-y^2)
        expected = math.exp(-1.0) + (1.0 - math.exp(-1.0)) * math.exp(-1.0)
        f = lambda u, j: gauss_bump(j)
        assert semigroup_apply(f, 1.0, 0.0, 0, EXP1) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.600423599106, abs=1e-9)

    def test_the_kernel_moves_time_and_jumps_at_most_once(self):
        # From (u, 0) under A(t) = t^2: stay unjumped with q = exp(-(A(u + t) - A(u))).
        f = lambda u, j: u + 10.0 * j
        q = math.exp(-(2.5**2 - 2.0**2))
        model = build_model("power")
        assert semigroup_apply(f, 0.5, 2.0, 0, model) == pytest.approx(q * 2.5 + (1.0 - q) * 12.5)
        assert semigroup_apply(f, 0.5, 2.0, 1, model) == 12.5

    @given(
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.sampled_from((0, 1)),
    )
    def test_value_stays_in_the_convex_hull(self, t, u, j):
        f = witness(gauss_bump)
        lo, hi = sorted((f(u + t, j), f(u + t, 1)))
        v = semigroup_apply(f, t, u, j, EXP1)
        assert lo - 1e-12 <= v <= hi + 1e-12

    @given(
        st.sampled_from(catalog_models()),
        st.sampled_from(C0_WITNESSES),
        st.floats(min_value=0.0, max_value=8.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.floats(min_value=0.0, max_value=2.0),
        st.sampled_from((0, 1)),
    )
    def test_chapman_kolmogorov(self, model, g, u, t, s, j):
        f = witness(g)
        p_s = lambda v, k: semigroup_apply(f, s, v, k, model)
        one_step = semigroup_apply(f, t + s, u, j, model)
        assert semigroup_apply(p_s, t, u, j, model) == pytest.approx(one_step, abs=1e-12)

    def test_rejects_an_infinite_time(self):
        for t, u in ((math.inf, 0.0), (1.0, math.inf)):
            with pytest.raises(ValueError, match="^semigroup time must be finite$"):
                semigroup_apply(witness(gauss_bump), t, u, 0, EXP1)

    def test_rejects_a_state_that_is_not_an_indicator(self):
        with pytest.raises(ValueError, match="^indicator state must be 0 or 1, got 2$"):
            semigroup_apply(witness(gauss_bump), 1.0, 0.0, 2, EXP1)


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

    @pytest.mark.parametrize(
        "model, t, u, rise",
        [(build_model("power"), 10.0, 11.0, 21.0), (poisson_model(1.0), 40.0, 41.0, 1.0)],
        ids=["power", "poisson"],
    )
    def test_far_tail_is_the_closed_form(self, model, t, u, rise):
        # P(t < tau) is below the float resolution of 1 - F(t) here, so the
        # conditional law must come from S(u) - S(t), not from 1 - F.
        assert model.tau_cdf(t) == 1.0
        f = lambda y: 3.0 * y + 2.0
        q = math.exp(-rise)
        k1, k2 = conditional_expectation_indicator(f, u, t, model)
        assert k1 == 5.0
        assert k2 == pytest.approx(q * 2.0 + (1.0 - q) * 5.0, rel=1e-15)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            conditional_expectation_indicator(lambda y: y, 1.0, 1.0, EXP1)

    @pytest.mark.parametrize("u, t", [(math.inf, 1.0), (math.inf, math.inf)])
    def test_rejects_an_infinite_time(self, u, t):
        with pytest.raises(ValueError, match="^u and t must be finite$"):
            conditional_expectation_indicator(lambda y: y, u, t, EXP1)

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
    @pytest.mark.parametrize("model", BUILT_MODELS, ids=lambda m: m.name)
    def test_every_model_passes(self, model):
        # The negative control too: the check is on tau's own law, Exp(2).
        for g in C0_WITNESSES:
            report = feller_check(model, g)
            assert report.chapman_kolmogorov_max_error <= CHAPMAN_KOLMOGOROV_TOLERANCE
            assert report.passed

    def test_errors_shrink_monotonically_to_zero(self):
        for g in C0_WITNESSES:
            report = feller_check(EXP1, g)
            assert report.nonincreasing
            assert report.e_final <= report.e_final_bound < 1e-5
            assert report.passed

    def test_e_final_bound_is_read_off_the_sampler(self):
        # A(u + t) - A(u) = t for rate 1, and tent's Lipschitz constant is 1.
        t_min = DEFAULT_T_SCHEDULE[-1]
        assert feller_check(EXP1, tent).e_final_bound == 2.0 * t_min + 1e-15
        # For A(t) = t^2 the largest rise on [0, 8] is at u = 8.
        rise = (8.0 + t_min) ** 2 - 64.0
        assert feller_check(build_model("power"), tent).e_final_bound == pytest.approx(t_min + rise)

    @pytest.mark.parametrize("model", BUILT_MODELS, ids=lambda m: m.name)
    def test_the_translation_invariant_kernel_fails(self, model, monkeypatch):
        monkeypatch.setattr(processes, "_kernel", translation_invariant)
        reports = [feller_check(model, g) for g in C0_WITNESSES]
        assert not all(r.passed for r in reports)
        assert max(r.chapman_kolmogorov_max_error for r in reports) > 0.01

    @pytest.mark.parametrize("name", ["power", "flat"])
    def test_the_timeless_absorbing_kernel_fails_where_a_is_not_linear(self, name, monkeypatch):
        monkeypatch.setattr(processes, "_kernel", timeless_absorbing)
        for g in C0_WITNESSES:
            assert not feller_check(build_model(name), g).passed

    @pytest.mark.parametrize("model", catalog_models(), ids=lambda m: m.name)
    def test_e_sequence_is_read_through_semigroup_apply(self, model):
        # feller_check reads the kernel directly; each maximum must be the
        # one the public semigroup gives on the same grid, bit for bit.
        states = [(u, j) for u in processes._U_GRID for j in (0, 1)]
        for g in C0_WITNESSES:
            f = witness(g)
            expected = tuple(
                max(abs(semigroup_apply(f, t, u, j, model) - f(u, j)) for u, j in states)
                for t in DEFAULT_T_SCHEDULE
            )
            assert feller_check(model, g).e_sequence == expected

    def test_default_schedule(self):
        assert DEFAULT_T_SCHEDULE[0] == 1.0
        assert DEFAULT_T_SCHEDULE[-1] == 2.0**-20
        assert all(0.0 < b < a for a, b in zip(DEFAULT_T_SCHEDULE, DEFAULT_T_SCHEDULE[1:]))

    def test_rejects_a_function_outside_the_witness_set(self):
        with pytest.raises(ValueError, match="C0_WITNESSES"):
            feller_check(EXP1, math.sin)

    @pytest.mark.parametrize(
        "broken",
        [
            {"chapman_kolmogorov_max_error": 1e-9},
            {"e_sequence": (0.0,) + feller_check(EXP1, gauss_bump).e_sequence},
            {"e_final_bound": -1.0},
        ],
        ids=["chapman-kolmogorov", "nonincreasing", "e_final"],
    )
    def test_verdict_follows_each_clause(self, broken):
        report = feller_check(EXP1, gauss_bump)
        assert report.passed is True
        assert replace(report, **broken).passed is False

    def test_json_round_trip(self):
        report = feller_check(EXP1, tent)
        d = report.to_json_dict()
        assert d["passed"] is True
        assert d["e_sequence"][-1] == report.e_final
        assert d["function_name"] == "tent"
        assert d["chapman_kolmogorov_max_error"] == report.chapman_kolmogorov_max_error
        assert d["chapman_kolmogorov_tolerance"] == CHAPMAN_KOLMOGOROV_TOLERANCE


class TestLawValidation:
    def test_exponential_classmethod(self):
        model = poisson_model(2.0)
        assert model.tau_cdf(0.0) == 0.0
        assert model.tau_cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0))
        with pytest.raises(ValueError):
            poisson_model(0.0)

    def test_witness_shapes(self):
        assert gauss_bump(0.0) == 1.0
        assert inverse_quad(0.0) == 1.0
        assert tent(0.0) == 1.0 and tent(2.0) == 0.0 and tent(-0.5) == 0.5
