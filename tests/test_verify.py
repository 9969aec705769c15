"""Monte Carlo verification engine: KS statistic, DKW band, reports."""

import json
import math
import warnings

import numpy as np
import pytest

from jumptime.compensators import SaturatingExpCompensator
from jumptime.core import RngStream, draw_exponential
from jumptime.processes import (
    JumpModel,
    build_model,
    catalog_models,
    negative_control_model,
    poisson_model,
)
from jumptime.verify import (
    MARTINGALE_Z_LIMIT,
    InfiniteSampleError,
    MartingaleReport,
    _Z_CACHE,
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

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ks_statistic([], EXP1_CDF)


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


class TestDefaultGrid:
    def test_ten_points_from_then_to_five(self):
        grid = default_time_grid()
        assert len(grid) == 10
        assert grid[0] == 0.1
        assert grid[-1] == 5.0
