"""End-to-end acceptance battery.

Eleven checks cover the package's headline guarantees: the unit-exponential
law of A(tau) across the whole model catalog (with a negative control), the
martingale and integral identities, diffuse samples, exact generalized
inverses and round trips, the semigroup axioms, the closed-form conditional
expectation, the Y-process construction, and bitwise determinism.

Each test prints one "[criterion N] PASS/FAIL" line (visible with pytest -s);
the assertion carries the same condition.
"""

import math
import time

import numpy as np
import pytest

from jumptime.cli import main
from jumptime.core import RngStream
from jumptime.cox import cox_round_trip, cox_sample
from jumptime.predictable import (
    GEOMETRIC,
    HARMONIC,
    AnnouncingSequence,
    build_y_process,
    extract_strict_subsequence,
    make_announcing_sequence,
    y_hitting_time,
)
from jumptime.processes import (
    C0_WITNESSES,
    catalog_models,
    conditional_expectation_indicator,
    feller_check,
    flat_compensator_model,
    negative_control_model,
    poisson_model,
)
from jumptime.verify import (
    _Z_CACHE,
    default_time_grid,
    exp_law_verify,
    martingale_residual,
)

N = 100_000
ALPHA = 0.01
SEED = 42


def _report(num: int, passed: bool, description: str) -> None:
    print(f"[criterion {num}] {'PASS' if passed else 'FAIL'} - {description}")


@pytest.fixture(scope="module")
def exp_reports():
    start = time.monotonic()
    reports = {model.name: exp_law_verify(model, N, ALPHA, SEED) for model in catalog_models()}
    elapsed = time.monotonic() - start
    return reports, elapsed


def test_criterion_01_exponential_law(exp_reports):
    reports, elapsed = exp_reports
    ok = all(r.passed for r in reports.values())
    ok = ok and all(abs(r.dkw_bound - 0.005147) < 1e-6 for r in reports.values())
    worst = max(r.ks_stat for r in reports.values())
    _report(
        1,
        ok,
        f"A(tau) ~ Exp(1) on all {len(reports)} catalog models at n={N}: "
        f"worst KS {worst:.6f} < bound 0.005147 ({elapsed:.1f}s)",
    )
    for name, r in reports.items():
        assert r.passed, f"{name}: ks={r.ks_stat} bound={r.dkw_bound}"
        assert abs(r.dkw_bound - 0.005147) < 1e-6


def test_criterion_02_negative_control():
    report = exp_law_verify(negative_control_model(), N, ALPHA, SEED)
    ok = (not report.passed) and report.ks_stat >= 0.2
    _report(
        2,
        ok,
        f"mismatched compensator fails honestly: KS {report.ks_stat:.4f} >= 0.2",
    )
    assert not report.passed
    assert report.ks_stat >= 0.2


def test_criterion_03_martingale_identity():
    grid = default_time_grid()
    worst_name, worst_z = "", 0.0
    for model in catalog_models():
        r = martingale_residual(model, N, grid, SEED)
        if r.max_abs_z > worst_z:
            worst_name, worst_z = model.name, r.max_abs_z
    ok = worst_z <= 4.0
    _report(
        3,
        ok,
        f"residual 1(t>=tau) - A(t^tau) has zero mean within 4 stderr on a "
        f"10-point grid: worst |z| {worst_z:.2f} ({worst_name})",
    )
    assert ok, f"{worst_name}: max |z| = {worst_z}"


def test_criterion_04_ode_identity(exp_reports):
    reports, _ = exp_reports
    worst = max(r.ode_max_error for r in reports.values())
    ok = worst < 0.012
    _report(
        4,
        ok,
        f"integrated CDF of A(tau) matches t - 1 + e^-t on {{0.5, 1, 2}}: "
        f"max error {worst:.5f} < 0.012",
    )
    for name, r in reports.items():
        assert r.ode_max_error < 0.012, f"{name}: {r.ode_max_error}"


def test_criterion_05_diffuse_law(exp_reports):
    reports, _ = exp_reports
    worst = max(r.max_atom_mass for r in reports.values())
    ok = worst <= 2.0 / N
    _report(
        5,
        ok,
        f"samples of A(tau) carry no atoms: max repeated-value mass "
        f"{worst:.1e} <= 2/n",
    )
    for name, r in reports.items():
        assert r.max_atom_mass <= 2.0 / N, f"{name}: {r.max_atom_mass}"


def test_criterion_06_cox_round_trip():
    worst = 0.0
    for model in catalog_models():
        A = model.compensator
        for k in range(10_000):
            s = cox_sample(A, RngStream(SEED, k))
            back = cox_round_trip(A, s.tau)
            worst = max(worst, abs(back.value - s.tau.value))
    ok = worst <= 1e-9
    _report(
        6,
        ok,
        f"inf{{t : A(t) >= A(tau)}} returns tau over 10^4 samples per model: "
        f"worst gap {worst:.1e} <= 1e-9",
    )
    assert ok, f"worst round-trip gap {worst}"


def test_criterion_07_generalized_inverse_identities():
    worst = 0.0
    for model in catalog_models():
        A = model.compensator
        for s in np.linspace(1e-3, 8.0, 1000):
            t = A.inverse(float(s))
            worst = max(worst, abs(A.evaluate(t) - float(s)))
    left_edge = flat_compensator_model().compensator.inverse(1.0)
    exact_edge = left_edge.is_finite and left_edge.value == 1.0
    ok = worst <= 1e-12 and exact_edge
    _report(
        7,
        ok,
        f"A(A^-1(s)) = s on 1000 levels per model (max gap {worst:.1e} <= 1e-12); "
        f"flat-piece inverse hits the left edge exactly",
    )
    assert worst <= 1e-12
    assert exact_edge


def test_criterion_08_feller_axioms():
    law = poisson_model(1.0).law()
    reports = [feller_check(law, f) for f in C0_WITNESSES]
    identity_ok = all(r.identity_max_error == 0.0 for r in reports)
    monotone_ok = all(r.nonincreasing for r in reports)
    limit_ok = all(r.e_final < 1e-6 for r in reports)
    ok = identity_ok and monotone_ok and limit_ok
    worst_final = max(r.e_final for r in reports)
    _report(
        8,
        ok,
        f"semigroup axioms on 3 vanishing witnesses: P_0 f = f exactly, "
        f"e_k nonincreasing, e_20 = {worst_final:.1e} < 1e-6",
    )
    assert identity_ok and monotone_ok and limit_ok


def test_criterion_09_conditional_expectation_tower():
    law = poisson_model(1.0).law()
    f = lambda y: y
    worst = 0.0
    for t, u in [(0.0, 1.0), (1.0, 2.0), (0.5, 3.0)]:
        k1, k2 = conditional_expectation_indicator(f, u, t, law)
        p_t, p_u = law.tau_cdf(t), law.tau_cdf(u)
        e_g = k1 * p_t + k2 * (1.0 - p_t)
        e_f = f(0.0) * (1.0 - p_u) + f(1.0) * p_u
        worst = max(worst, abs(e_g - e_f))
    ok = worst <= 1e-12
    _report(
        9,
        ok,
        f"tower property E[g(X_t)] = E[f(X_u)] in closed form: "
        f"max gap {worst:.1e} <= 1e-12",
    )
    assert ok, f"tower gap {worst}"


def test_criterion_10_y_process():
    worst_knot = 0.0
    for scheme in (GEOMETRIC, HARMONIC):
        for m in (3, 8, 20):
            for target in (1.0, 2.0, 10.0):
                seq = make_announcing_sequence(target, m, scheme)
                y = build_y_process(extract_strict_subsequence(seq))

                knot_err = max(
                    abs(level - 1.0 / i) for i, level in enumerate(y.knot_levels, 1)
                )
                worst_knot = max(worst_knot, knot_err)
                assert knot_err <= 1e-12, (scheme, m, target)

                for t, v in zip(y.path.times[1:], y.path.values[1:]):
                    assert y.path.left_limit(t) - v == 0.0, (scheme, m, target, t)

                grid = np.linspace(0.0, target, 10_000)
                vals = np.array([y(float(t)) for t in grid])
                assert np.all(np.diff(vals) <= 0.0), (scheme, m, target)

                hit = y_hitting_time(y)
                assert hit.is_finite and hit.value == target, (scheme, m, target)

    doubled = AnnouncingSequence((0.5, 0.5, 0.75, 0.75, 0.875, 0.875), 1.0)
    y = build_y_process(extract_strict_subsequence(doubled))
    repeat_ok = y_hitting_time(y).value == 1.0

    _report(
        10,
        repeat_ok,
        f"Y process over 18 scheme/m/target configs: knots 1/i within 1e-12 "
        f"(worst {worst_knot:.1e}), continuous, monotone on 10^4 grid, hits "
        f"target exactly; repeated times round-trip after strictification",
    )
    assert repeat_ok


def test_criterion_11_determinism(tmp_path):
    model = poisson_model(1.0)
    _Z_CACHE.clear()
    first = exp_law_verify(model, 10_000, ALPHA, seed=123)
    _Z_CACHE.clear()
    second = exp_law_verify(model, 10_000, ALPHA, seed=123)
    rerun_ok = first == second and first.to_json() == second.to_json()

    argv = ["verify-exp-law", "--model", "poisson", "--n", "10000", "--seed", "123"]
    serial, parallel = tmp_path / "w1.json", tmp_path / "w4.json"
    _Z_CACHE.clear()
    assert main(argv + ["--workers", "1", "--out", str(serial)]) == 0
    _Z_CACHE.clear()
    assert main(argv + ["--workers", "4", "--out", str(parallel)]) == 0
    workers_ok = serial.read_bytes() == parallel.read_bytes()

    ok = rerun_ok and workers_ok
    _report(
        11,
        ok,
        "reruns with one seed are byte-identical and 1-vs-4 worker runs agree bitwise",
    )
    assert rerun_ok
    assert workers_ok
