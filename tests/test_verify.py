"""Monte Carlo verification engine: KS statistic, DKW band, reports."""

import json
import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from hypothesis import given
from hypothesis import strategies as st

from jumptime import verify as verify_module
from jumptime.compensators import (
    LinearCompensator,
    PowerCompensator,
    SaturatingExpCompensator,
    TabulatedCompensator,
)
from jumptime.core import RngStream, draw_exponential
from jumptime.processes import (
    InfiniteSampleError,
    JumpModel,
    build_model,
    catalog_models,
    flat_compensator_model,
    negative_control_model,
    poisson_model,
)
from jumptime.verify import (
    MARTINGALE_Z_LIMIT,
    ExpLawReport,
    MartingaleReport,
    _Z_CACHE,
    _exponential_draws,
    _longest_run,
    default_time_grid,
    dkw_bound,
    exp_law_verify,
    ks_statistic,
    martingale_residual,
    ode_identity_check,
    sample_a_tau,
)

EXP1_CDF = lambda x: -np.expm1(-np.asarray(x, float))


class TestKsStatistic:
    def test_single_sample_oracle(self):
        # max(|1 - F(0.5)|, |0 - F(0.5)|) with F(0.5) = 1 - e^{-1/2}
        expected = math.exp(-0.5)
        assert ks_statistic([0.5], EXP1_CDF) == pytest.approx(expected, abs=1e-15)
        assert ks_statistic([0.5], EXP1_CDF) == pytest.approx(0.606531, abs=1e-6)

    def test_exact_quantiles_oracle(self):
        # samples at the i/10 quantiles, i = 1..9: ecdf steps i/9 vs i/10,
        # largest gap 9/9 - 9/10 = 1/10
        xs = [-math.log1p(-i / 10.0) for i in range(1, 10)]
        assert ks_statistic(xs, EXP1_CDF) == pytest.approx(0.1, abs=1e-12)

    def test_self_comparison_is_one_over_n(self):
        xs = np.array([0.3, 0.7, 1.9, 2.2])
        own_ecdf = lambda x: np.searchsorted(np.sort(xs), x, side="right") / len(xs)
        assert ks_statistic(xs, own_ecdf) == pytest.approx(1.0 / len(xs), abs=1e-15)

    @pytest.mark.parametrize(
        "samples, cdf",
        [
            ([], EXP1_CDF),
            ([math.nan, 1.0], EXP1_CDF),
            ([math.nan], EXP1_CDF),
            # A reference CDF whose result does not match the samples' shape.
            ([0.5, 1.0, 2.0], lambda x: 0.3),
            ([0.5, 1.0, 2.0], lambda x: EXP1_CDF(x)[:1]),
        ],
        ids=["empty", "nan", "all-nan", "scalar-cdf", "short-cdf"],
    )
    def test_rejects_empty(self, samples, cdf):
        with pytest.raises(ValueError):
            ks_statistic(samples, cdf)


#: The smallest alpha whose 2 / alpha is finite, and the float just below it.
SMALLEST_ALPHA = 1.112536929253601e-308
TOO_SMALL_ALPHA = math.nextafter(SMALLEST_ALPHA, 0.0)


class TestDkwBound:
    def test_oracles(self):
        assert dkw_bound(100_000, 0.01) == pytest.approx(0.005147, abs=5e-7)
        assert dkw_bound(100, 0.05) == pytest.approx(0.135810, abs=5e-7)

    def test_quadrupling_n_halves_the_bound(self):
        assert dkw_bound(4000, 0.01) == pytest.approx(dkw_bound(1000, 0.01) / 2.0)

    def test_rejects_bad_alpha_and_n(self):
        for alpha in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                dkw_bound(100, alpha)
        with pytest.raises(ValueError):
            dkw_bound(0, 0.05)

    def test_an_alpha_whose_band_overflows_is_refused(self):
        # 2 / alpha is finite down to SMALLEST_ALPHA and inf one float below,
        # where the band would be infinite and pass any model.
        assert math.isfinite(2.0 / SMALLEST_ALPHA)
        assert math.isinf(2.0 / TOO_SMALL_ALPHA)
        assert dkw_bound(1000, SMALLEST_ALPHA) == math.sqrt(
            math.log(2.0 / SMALLEST_ALPHA) / 2000.0
        )
        for alpha in (TOO_SMALL_ALPHA, 1e-320, 5e-324):
            with pytest.raises(ValueError, match=f"^alpha {alpha} is too small"):
                dkw_bound(1000, alpha)

    def test_exp_law_verify_refuses_a_tiny_alpha_before_it_draws(self, monkeypatch):
        # Its band is wide, sqrt(709.8 / 2n), but at n = 20000 still fails the control.
        report = exp_law_verify(negative_control_model(), 20_000, SMALLEST_ALPHA, seed=2)
        assert math.isfinite(report.dkw_bound) and not report.passed
        json.loads(report.to_json(), parse_constant=pytest.fail)

        def no_draws(seed, n):
            raise AssertionError("drew before checking alpha")

        monkeypatch.setattr(verify_module, "_exponential_draws", no_draws)
        with pytest.raises(ValueError, match=f"^alpha {TOO_SMALL_ALPHA} is too small"):
            exp_law_verify(negative_control_model(), 1000, TOO_SMALL_ALPHA, seed=2)


#: Each verifier that takes a replication count, called with a count n.
COUNTED = {
    "sample_a_tau": lambda n: sample_a_tau(poisson_model(1.0), n, seed=1),
    "martingale_residual": lambda n: martingale_residual(poisson_model(1.0), n, [1.0], seed=1),
    "dkw_bound": lambda n: dkw_bound(n, 0.01),
}


class TestReplicationCount:
    @pytest.mark.parametrize("name", COUNTED)
    @pytest.mark.parametrize(
        "n, message",
        [(1.5, "^n must be an integer, got 1.5$"), ("3", "^n must be an integer, got '3'$"),
         (0, "^n must be at least 1, got 0$")],
    )
    def test_one_rule_for_every_count(self, name, n, message):
        _Z_CACHE.clear()
        sample_a_tau(poisson_model(1.0), 3, seed=1)  # a warm (1, 3) entry must not answer
        with pytest.raises(ValueError, match=message):
            COUNTED[name](n)

    def test_a_numpy_count_is_reported_as_an_int(self):
        m = poisson_model(1.0)
        for report in (exp_law_verify(m, np.int64(100), 0.01, 1),
                       martingale_residual(m, np.int64(100), [1.0], 1)):
            assert type(report.n) is int
            assert json.loads(report.to_json())["n"] == 100

    def test_a_warm_cache_refuses_what_a_cold_one_refuses(self):
        m = poisson_model(1.0)
        calls = [
            lambda: sample_a_tau(m, 10, 1.5),
            lambda: martingale_residual(m, 10, (1.0,), 1.5),
            lambda: sample_a_tau(m, 10.5, 1),
            lambda: exp_law_verify(m, 10.7, 0.01, 1),
        ]
        messages = []
        for call in calls:
            _Z_CACHE.clear()
            with pytest.raises(ValueError) as cold:
                call()
            messages.append(str(cold.value))
        seed_message, n_message = "seed must be an integer, got 1.5", "n must be an integer, got"
        assert messages == [seed_message, seed_message, f"{n_message} 10.5", f"{n_message} 10.7"]
        sample_a_tau(m, 10, 1)
        for call, message in zip(calls, messages):
            with pytest.raises(ValueError) as warm:
                call()
            assert str(warm.value) == message
        assert list(_Z_CACHE) == [(1, 10)]


class TestOdeIdentity:
    def test_zero_time_contributes_zero(self):
        assert ode_identity_check([1.0, 2.0], [0.0]) == 0.0

    def test_quantile_samples_track_the_closed_form(self):
        n = 10_000
        xs = [-math.log1p(-(i - 0.5) / n) for i in range(1, n + 1)]
        assert ode_identity_check(xs, [0.5, 1.0, 2.0]) < 2e-3

    def test_wrong_law_shows_a_gap(self):
        # Exp(2) samples: F(t) = t/2 - 1/4 + e^{-2t}/4 differs at t = 2 by ~0.6
        n = 10_000
        xs = [-math.log1p(-(i - 0.5) / n) / 2.0 for i in range(1, n + 1)]
        assert ode_identity_check(xs, [2.0]) > 0.3

    def test_rejects_empty_and_negative_grid(self):
        with pytest.raises(ValueError):
            ode_identity_check([], [1.0])
        with pytest.raises(ValueError):
            ode_identity_check([1.0], [-0.5])
        with pytest.raises(ValueError, match="nonnegative"):
            ode_identity_check([1.0], [1.0, math.nan])
        with pytest.raises(ValueError, match="^grid times must be finite and nonnegative$"):
            ode_identity_check([0.5, 1.0, 2.0], [math.inf])
        # An empty grid has no error to report, so it is refused, as by the martingale check.
        with pytest.raises(ValueError, match="^the time grid needs at least one time$"):
            ode_identity_check([1.0, 2.0], [])
        with pytest.raises(ValueError, match="needs at least one sample"):
            ode_identity_check([], [])
        # The closed form k * t - sum(x) assumes x >= 0, and a NaN would count
        # as lying above every t.
        for samples in ([-1.0], [0.5, -0.0, -1e-300], [math.nan, 1.0], [math.nan]):
            with pytest.raises(ValueError, match="nonnegative samples"):
                ode_identity_check(samples, [0.5, 2.0])
        assert ode_identity_check([-0.0, 1.0], [0.5]) == ode_identity_check([0.0, 1.0], [0.5])

    def test_integral_is_exact(self):
        # int_0^t ecdf = (1/n) sum max(0, t - x_i), which is (0.5 + 0) / 2 at
        # t = 1 here; a mesh rule would be off by about its step.
        assert ode_identity_check([0.5, 1.5], [1.0]) == pytest.approx(
            abs(0.25 - math.exp(-1.0)), abs=1e-15
        )
        xs = np.random.default_rng(3).exponential(size=1000)
        grid = (0.0, 0.3, 1.0, 2.5, 9.0)
        direct = max(
            abs(np.maximum(0.0, t - xs).mean() - (t - 1.0 + math.exp(-t))) for t in grid
        )
        assert ode_identity_check(xs, grid) == pytest.approx(direct, abs=1e-12)


class TestSampleATau:
    def test_single_replication_uses_stream_zero(self):
        model = poisson_model(1.0)
        _Z_CACHE.clear()
        a = sample_a_tau(model, 1, seed=123)
        assert a.shape == (1,)
        assert a[0] == draw_exponential(RngStream(123, 0))

    def test_order_follows_stream_ids(self):
        model = poisson_model(1.0)
        _Z_CACHE.clear()
        a = sample_a_tau(model, 5, seed=99)
        expected = [draw_exponential(RngStream(99, k)) for k in range(5)]
        assert list(a) == expected

    def test_compensator_composition(self):
        # A(t) = t^2 with tau = sqrt(z) gives A(tau) = z up to roundoff
        from jumptime.compensators import PowerCompensator
        from jumptime.processes import inhomogeneous_model

        model = inhomogeneous_model(PowerCompensator(2.0))
        _Z_CACHE.clear()
        a = sample_a_tau(model, 100, seed=7)
        zs = np.array([draw_exponential(RngStream(7, k)) for k in range(100)])
        np.testing.assert_allclose(a, zs, rtol=1e-12)

    def test_sample_mean_near_one(self):
        a = sample_a_tau(poisson_model(2.0), 20_000, seed=42)
        assert abs(a.mean() - 1.0) < 0.03

    def test_infinite_draw_is_a_hard_error(self):
        bounded = JumpModel(
            name="bounded-demo",
            compensator=SaturatingExpCompensator(limit=1.0, rate=1.0),
        )
        with pytest.raises(InfiniteSampleError, match="bounded-demo"):
            sample_a_tau(bounded, 200, seed=1)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            sample_a_tau(poisson_model(1.0), 0, seed=1)

    def test_a_result_is_never_overwritten_by_a_later_call(self):
        flat, power = flat_compensator_model(), build_model("power", {"exponent": 2.5})
        a = sample_a_tau(flat, 5000, seed=3)
        kept = a.copy()
        exp_law_verify(power, 5000, 0.01, seed=4)
        martingale_residual(power, 5000, default_time_grid(), seed=4)
        assert sample_a_tau(power, 5000, seed=4) is not sample_a_tau(power, 5000, seed=4)
        np.testing.assert_array_equal(a.view(np.uint64), kept.view(np.uint64))

    def test_one_n_length_array_per_call(self):
        # With the draws warm, a call holds its result and block-sized
        # temporaries: A(tau) is written over tau rather than beside it.
        n, seed = 100_000, 11
        model = poisson_model(1.0)
        _exponential_draws(seed, n)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            a = sample_a_tau(model, n, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a.shape == (n,)
        assert peak - start < 1.5 * 8 * n, (peak - start) / (8 * n)


def fresh_reports(model, n, seed):
    """Both reports of a model as JSON, on scratch arrays made for this call."""
    verify_module._THREAD.scratch = None
    return (
        exp_law_verify(model, n, 0.01, seed).to_json(),
        martingale_residual(model, n, default_time_grid(), seed).to_json(),
    )


class TestScratch:
    """Reports on reused scratch arrays equal reports on fresh ones."""

    def test_reports_survive_a_change_of_n_and_back(self):
        model = flat_compensator_model()
        want = {n: fresh_reports(model, n, 9) for n in (20_000, 1000)}
        for n in (20_000, 1000, 20_000, 20_000):
            got = (
                exp_law_verify(model, n, 0.01, 9).to_json(),
                martingale_residual(model, n, default_time_grid(), 9).to_json(),
            )
            assert got == want[n], n

    def test_threads_get_the_serial_reports(self):
        # More threads than cores, switching often, all at one n, so that arrays
        # shared between threads would be overwritten mid-call.
        jobs = [
            (flat_compensator_model(), 20_000, 5),
            (build_model("power", {"exponent": 2.5}), 20_000, 6),
            (poisson_model(2.0), 20_000, 7),
        ]
        serial = [fresh_reports(*job) for job in jobs]
        start = threading.Barrier(len(jobs))
        got = [[] for _ in jobs]

        def run(k):
            model, n, seed = jobs[k]
            start.wait()
            for _ in range(4):
                got[k].append((
                    exp_law_verify(model, n, 0.01, seed).to_json(),
                    martingale_residual(model, n, default_time_grid(), seed).to_json(),
                ))

        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(jobs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == [[want] * 4 for want in serial]

    def test_an_undrawable_n_allocates_no_scratch(self, monkeypatch):
        def refuse(seed, n):
            raise MemoryError

        monkeypatch.setattr(verify_module, "draw_exponentials", refuse)
        verify_module._THREAD.scratch = None
        for check in (
            lambda: exp_law_verify(poisson_model(1.0), 2**20, 0.01, 1),
            lambda: martingale_residual(poisson_model(1.0), 2**20, (1.0,), 1),
        ):
            with pytest.raises(MemoryError):
                check()
            assert verify_module._THREAD.scratch is None


class TestExpLawVerify:
    def test_positive_control(self):
        report = exp_law_verify(poisson_model(1.0), 20_000, 0.01, seed=42)
        assert report.passed
        assert report.ks_stat < report.dkw_bound
        assert report.max_atom_mass <= 2.0 / 20_000
        assert report.ode_max_error < 0.03

    def test_negative_control(self):
        report = exp_law_verify(negative_control_model(), 20_000, 0.01, seed=42)
        assert not report.passed
        assert report.ks_stat > 0.2

    def test_overflowing_draws_raise_without_a_numpy_warning(self):
        model = build_model("power", {"exponent": 0.001})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfiniteSampleError, match="infinite jump time"):
                exp_law_verify(model, 1000, 0.01, seed=42)

    def test_report_is_reproducible(self):
        model = poisson_model(2.0)
        _Z_CACHE.clear()
        first = exp_law_verify(model, 5000, 0.01, seed=11)
        _Z_CACHE.clear()
        second = exp_law_verify(model, 5000, 0.01, seed=11)
        assert first == second
        assert first.to_json() == second.to_json()

    def test_ecdf_grid_shape_and_monotonicity(self):
        report = exp_law_verify(poisson_model(1.0), 5000, 0.01, seed=3)
        assert len(report.ecdf_grid) == 50
        ts = [row[0] for row in report.ecdf_grid]
        es = [row[1] for row in report.ecdf_grid]
        refs = [row[2] for row in report.ecdf_grid]
        assert all(b > a for a, b in zip(ts, ts[1:]))
        assert all(b >= a for a, b in zip(es, es[1:]))
        assert all(0.0 <= e <= 1.0 for e in es)
        levels = [(j - 0.5) / 50.0 for j in range(1, 51)]
        assert refs == pytest.approx(levels, abs=1e-12)

    def test_json_schema(self):
        report = exp_law_verify(poisson_model(1.0), 2000, 0.05, seed=8)
        d = json.loads(report.to_json())
        assert d["seed"] == "8"
        assert isinstance(d["n"], int)
        assert isinstance(d["passed"], bool)
        assert len(d["ecdf_grid"]) == 50
        assert set(d) == {
            "model_name",
            "n",
            "seed",
            "alpha",
            "ks_stat",
            "dkw_bound",
            "passed",
            "max_atom_mass",
            "ode_max_error",
            "ecdf_grid",
        }

    def test_csv_rows(self):
        report = exp_law_verify(poisson_model(1.0), 2000, 0.05, seed=8)
        rows = report.csv_rows()
        assert rows[0] == ("t", "ecdf", "reference")
        assert len(rows) == 51

    def test_invariant_guard(self):
        report = exp_law_verify(poisson_model(1.0), 2000, 0.05, seed=8)
        from dataclasses import replace

        assert report.passed is True
        assert replace(report, ks_stat=report.dkw_bound).passed is False


class TestMartingaleResidual:
    def test_degenerate_grid_at_zero(self):
        report = martingale_residual(poisson_model(1.0), 1000, [0.0], seed=4)
        t, mean, stderr = report.residuals[0]
        assert (t, mean, stderr) == (0.0, 0.0, 0.0)
        assert report.max_abs_z == 0.0

    def test_unit_rate_residuals_stay_in_the_clt_band(self):
        report = martingale_residual(
            poisson_model(1.0), 20_000, default_time_grid(), seed=42
        )
        assert report.max_abs_z < 4.0
        assert len(report.residuals) == 10

    def test_every_catalog_model_passes(self):
        for model in catalog_models():
            report = martingale_residual(model, 20_000, default_time_grid(), seed=42)
            assert report.max_abs_z < 4.0, model.name

    def test_wrong_compensator_fails(self):
        report = martingale_residual(
            negative_control_model(), 20_000, default_time_grid(), seed=42
        )
        assert report.max_abs_z > 10.0

    def test_passed_is_the_z_limit(self):
        good = martingale_residual(poisson_model(1.0), 20_000, default_time_grid(), seed=42)
        bad = martingale_residual(negative_control_model(), 20_000, default_time_grid(), seed=42)
        assert good.passed and good.max_abs_z < MARTINGALE_Z_LIMIT
        assert not bad.passed and bad.max_abs_z >= MARTINGALE_Z_LIMIT
        assert "passed" not in good.to_json_dict()

    @pytest.mark.parametrize("exponent", [6.7, 10.0, 20.0])
    def test_no_jump_rows_use_the_martingale_variance(self, exponent):
        # No replication jumps by t = 0.1, so every residual is -A(t) and the
        # sample spread is 0 or roundoff; the variance is E[A(t ^ tau)] = A(t).
        n = 20_000
        report = martingale_residual(
            build_model("power", {"exponent": exponent}), n, default_time_grid(), seed=42
        )
        t, mean, stderr = report.residuals[0]
        assert mean == pytest.approx(-(t**exponent), rel=1e-9)
        assert stderr == pytest.approx(math.sqrt(t**exponent / n), rel=1e-9)
        assert report.passed, report.max_abs_z

    def test_a_time_past_every_tau_is_not_evaluated(self):
        # A(1e100) overflows for exponent 20, but every tau is below it, so
        # A(t ^ tau) never needs it and no overflow warning may appear.
        model = build_model("power", {"exponent": 20.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = martingale_residual(model, 1000, [0.5, 1e100], seed=3)
        assert report.residuals[1][0] == 1e100 and math.isfinite(report.residuals[1][1])

    def test_grid_and_max_z_are_read_off_the_rows(self):
        rows = ((0.1, 0.0, 0.0), (0.5, -0.3, 0.1), (1.0, 0.2, 0.1))
        report = MartingaleReport("hand", 10, 1, rows)
        assert report.time_grid == (0.1, 0.5, 1.0)
        assert report.max_abs_z == 0.3 / 0.1
        assert MartingaleReport("hand", 10, 1, rows + ((2.0, 1e-9, 0.0),)).max_abs_z == math.inf
        assert MartingaleReport("hand", 10, 1, ()).max_abs_z == 0.0

    def test_json_schema(self):
        report = martingale_residual(poisson_model(1.0), 500, [0.5, 1.0], seed=2)
        d = json.loads(report.to_json())
        assert d["seed"] == "2"
        assert [r["t"] for r in d["residuals"]] == [0.5, 1.0]
        assert d["time_grid"] == [0.5, 1.0]

    def test_csv_rows(self):
        report = martingale_residual(poisson_model(1.0), 500, [0.5, 1.0], seed=2)
        rows = report.csv_rows()
        assert rows[0] == ("t", "mean", "stderr")
        assert len(rows) == 3

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            martingale_residual(poisson_model(1.0), 100, [math.inf], seed=1)
        with pytest.raises(ValueError):
            martingale_residual(poisson_model(1.0), 100, [-1.0], seed=1)
        # An empty grid would give no residual, so even the negative control would pass.
        with pytest.raises(ValueError):
            martingale_residual(negative_control_model(), 1000, [], seed=1)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError, match="^n must be at least 1, got 0$"):
            martingale_residual(poisson_model(1.0), 0, [1.0], seed=1)


class TestGatePower:
    """A model wrong by 5 % fails both checks at n = 1e5 on every seed fixed
    here (1-10), so a change that blinds the gate cannot pass unnoticed."""

    WRONG_MODELS = (
        JumpModel("scale+5%", LinearCompensator(1.05), sampler=LinearCompensator(1.0)),
        JumpModel("shape+5%", PowerCompensator(2.1), sampler=PowerCompensator(2.0)),
    )

    @pytest.mark.parametrize("model", WRONG_MODELS, ids=lambda m: m.name)
    def test_a_five_percent_error_fails_both_checks(self, model):
        for seed in range(1, 11):
            exp_law = exp_law_verify(model, 100_000, 0.01, seed)
            martingale = martingale_residual(model, 100_000, default_time_grid(), seed)
            assert not exp_law.passed, (seed, exp_law.ks_stat, exp_law.dkw_bound)
            assert not martingale.passed, (seed, martingale.max_abs_z)


class TestDefaultGrid:
    def test_ten_points_from_then_to_five(self):
        grid = default_time_grid()
        assert len(grid) == 10
        assert grid[0] == 0.1
        assert grid[-1] == 5.0


class TestAtomMass:
    @pytest.mark.parametrize(
        "values",
        [
            [0.5, 0.5, 0.5, 1.0, 2.0, 3.0],  # ties at the start
            [0.5, 1.0, 2.0, 3.0, 3.0, 3.0],  # ties at the end
            [0.7] * 9,  # all equal
            [0.1, 0.2, 0.3, 0.4],  # no ties
            [0.25],  # n = 1
            [0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0],  # the longest run in the middle
        ],
    )
    def test_longest_run_is_the_largest_unique_count(self, values):
        xs = np.sort(np.array(values))
        n = len(xs)
        expected = np.unique(xs, return_counts=True)[1].max() / n
        assert _longest_run(xs) / n == expected

    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, math.inf]) | st.floats(0.0, 5.0), min_size=1))
    def test_longest_run_matches_unique_on_random_ties(self, values):
        xs = np.sort(np.array(values))
        assert _longest_run(xs) == np.unique(xs, return_counts=True)[1].max()


# Reference verifiers that compute each statistic the direct way: the
# martingale check evaluates A on all stopped times once per grid time, and
# the exponential-law check sorts its samples four times (its own sort, the KS
# statistic, np.unique and the integral identity).  The verifiers must give
# the same report bytes.


def reference_exp_law(model, n, alpha, seed):
    bound = dkw_bound(n, alpha)
    a_sorted = np.sort(sample_a_tau(model, n, seed))

    xs = np.sort(np.asarray(a_sorted, float))
    F = np.asarray(EXP1_CDF(xs), float)
    i = np.arange(1, n + 1)
    ks = float(np.maximum(np.abs(i / n - F), np.abs((i - 1) / n - F)).max())

    levels = (np.arange(1, 51) - 0.5) / 50.0
    ts = -np.log1p(-levels)
    ecdf_at = np.searchsorted(a_sorted, ts, side="right") / n
    refs = EXP1_CDF(ts)
    grid = tuple((float(t), float(e), float(r)) for t, e, r in zip(ts, ecdf_at, refs))

    _, counts = np.unique(a_sorted, return_counts=True)
    max_atom = float(counts.max()) / n

    xs = np.sort(np.asarray(a_sorted, float))
    ode_ts = np.asarray((0.5, 1.0, 2.0), float)
    ks_at = np.searchsorted(xs, ode_ts, side="right")
    below = np.array([xs[:k].sum() for k in ks_at])
    estimate = (ks_at * ode_ts - below) / n
    ode_err = float(np.max(np.abs(estimate - (ode_ts + np.expm1(-ode_ts))), initial=0.0))

    return ExpLawReport(model.name, n, seed, alpha, ks, bound, grid, max_atom, ode_err)


def reference_martingale(model, n, time_grid, seed):
    if not time_grid:
        raise ValueError("an empty grid has no residual to check")
    # Only the taus come from the sample; A(min(tau, t)) is evaluated per t.
    taus = model.sample(_exponential_draws(seed, n))[0]
    rows = []
    for t in time_grid:
        indicator = (taus <= t).astype(float)
        stopped = np.minimum(taus, t)
        residual = indicator - model.compensator.evaluate_many(stopped)
        mean = float(residual.mean())
        if not indicator.any():
            stderr = math.sqrt(abs(mean) / n)
        else:
            stderr = float(residual.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        rows.append((t, mean, stderr))
    return MartingaleReport(model.name, n, seed, tuple(rows))


def json_or_error(call, *args):
    try:
        return call(*args).to_json()
    except InfiniteSampleError:
        return "InfiniteSampleError"
    except ValueError:
        return "ValueError"


REFERENCE_MODELS = (
    *catalog_models(),
    negative_control_model(),
    *(build_model("power", {"exponent": e}) for e in (0.005, 0.3, 2.5, 6.7, 10.0)),
    JumpModel(
        "tabulated-with-flats",
        TabulatedCompensator(
            (0.0, 0.5, 1.0, 1.5, 2.5, 3.0, 4.0),
            (0.0, 0.4, 0.4, 1.1, 1.1, 1.1, 2.0),
            extrapolation_slope=0.75,
        ),
    ),
)

#: The default grid; one with 0 and times below every tau (the no-jump rows);
#: the empty grid; and an unsorted grid with a repeated time and one past
#: every tau, which must come back in the order given.
REFERENCE_GRIDS = (
    default_time_grid(),
    (0.0, 1e-12, 1e-3, 0.7, 3.0, 40.0),
    (),
    (3.0, 0.7, 40.0, 0.7, 1e-12),
)


class TestAgainstTheReference:
    @pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: m.name)
    def test_reports_keep_their_bytes(self, model):
        for seed in (0, 7, 2**64 - 1):
            for n in (1, 2, 999, 100_000):
                assert json_or_error(exp_law_verify, model, n, 0.01, seed) == json_or_error(
                    reference_exp_law, model, n, 0.01, seed
                ), (seed, n)
                for grid in REFERENCE_GRIDS:
                    assert json_or_error(
                        martingale_residual, model, n, grid, seed
                    ) == json_or_error(reference_martingale, model, n, grid, seed), (seed, n, grid)

    def test_reference_reaches_every_branch(self):
        # The no-jump rows and the n == 1 rows are among the compared cases.
        report = reference_martingale(poisson_model(1.0), 999, REFERENCE_GRIDS[1], 7)
        assert report.residuals[1][1] < 0.0 and report.residuals[1][2] > 0.0
        single = reference_martingale(poisson_model(1.0), 1, (40.0,), 7)
        assert single.residuals[0][2] == 0.0 and single.residuals[0][1] != 0.0
