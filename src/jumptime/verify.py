"""Monte Carlo verification of the exponential-law and martingale identities.

The headline check: for a finite jump time tau with continuous compensator A,
the random variable A(tau) is Exp(1).  The engine samples A(tau) in bulk,
compares the empirical CDF against 1 - e^{-t} with the exact one-sample
Kolmogorov-Smirnov statistic inside the finite-sample DKW band, checks the
integral identity F(t) = t - 1 + e^{-t} satisfied by F(t) = int_0^t P(Z <= s) ds,
screens for atoms, and separately checks the zero-mean martingale residual
1_{t >= tau} - A(t ^ tau).

Replication k always uses the random stream with stream_id = k, and results
are assembled in stream order, so reports are bitwise reproducible.  The n
draws come from one vectorised Philox pass (``core.draw_exponentials``) that
matches ``draw_exponential(RngStream(seed, k))`` bit for bit, in one thread;
the CLI still accepts ``--workers`` but it has no effect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .core import draw_exponentials
from .processes import JumpModel

__all__ = [
    "MARTINGALE_Z_LIMIT",
    "ExpLawReport",
    "InfiniteSampleError",
    "MartingaleReport",
    "default_time_grid",
    "dkw_bound",
    "exp_law_verify",
    "ks_statistic",
    "martingale_residual",
    "ode_identity_check",
    "sample_a_tau",
]


#: A mean residual this many standard errors from zero fails the martingale check.
MARTINGALE_Z_LIMIT = 4.0


class InfiniteSampleError(RuntimeError):
    """A model produced an infinite jump time; the law checks assume tau < inf."""


def exp1_cdf(x):
    """CDF of the unit exponential, accurate near 0; accepts arrays."""
    return -np.expm1(-np.asarray(x, float))


#: Draws are pure functions of (seed, n); a model sweep asks for the same two
#: blocks once per model and check (132 requests per benchmark pass), so they
#: are cached across models.
_Z_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _exponential_draws(seed: int, n: int) -> np.ndarray:
    """n Exp(1) draws, replication k from stream_id k; read-only and cached."""
    key = (int(seed), int(n))
    hit = _Z_CACHE.get(key)
    if hit is not None:
        return hit
    out = draw_exponentials(seed, n)
    out.flags.writeable = False
    if len(_Z_CACHE) >= 8:
        _Z_CACHE.clear()
    _Z_CACHE[key] = out
    return out


def _finite_taus(model: JumpModel, zs: np.ndarray) -> np.ndarray:
    taus = model.taus_from_draws(zs)
    if np.any(np.isinf(taus)):
        raise InfiniteSampleError(
            f"model {model.name!r} produced an infinite jump time; "
            "the exponential-law checks require tau < infinity almost surely"
        )
    return taus


def sample_a_tau(model: JumpModel, n: int, seed: int) -> np.ndarray:
    """n independent draws of A(tau), one per stream_id, in stream order."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    zs = _exponential_draws(seed, n)
    taus = _finite_taus(model, zs)
    return model.compensator.evaluate_many(taus)


def ks_statistic(samples, reference_cdf) -> float:
    """Exact one-sample Kolmogorov-Smirnov distance to a fully-specified CDF.

    sup over sorted samples x_(i) of max(|i/n - F(x_(i))|, |(i-1)/n - F(x_(i))|).
    ``reference_cdf`` is called once, on the whole sorted sample array, and
    must return an array of the same shape (``exp1_cdf`` does).
    """
    xs = np.sort(np.asarray(samples, float))
    n = len(xs)
    if n == 0:
        raise ValueError("ks_statistic needs at least one sample")
    F = np.asarray(reference_cdf(xs), float)
    i = np.arange(1, n + 1)
    upper = np.abs(i / n - F)
    lower = np.abs((i - 1) / n - F)
    return float(np.maximum(upper, lower).max())


def dkw_bound(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band half-width sqrt(ln(2/alpha) / (2n))."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def ode_identity_check(samples, grid) -> float:
    """Max error of int_0^t ecdf(s) ds against t - 1 + e^{-t} over the grid.

    For nonnegative samples the integral is exactly (1/n) sum_i max(0, t - x_i),
    k * t minus the sum of the k sorted samples at or below t: no mesh error.
    """
    xs = np.sort(np.asarray(samples, float))
    n = len(xs)
    if n == 0:
        raise ValueError("ode_identity_check needs at least one sample")
    ts = np.asarray(grid, float)
    if not np.all(ts >= 0.0):
        raise ValueError(f"grid times must be nonnegative, got {ts[~(ts >= 0.0)][0]}")
    ks = np.searchsorted(xs, ts, side="right")
    below = np.array([xs[:k].sum() for k in ks])
    estimate = (ks * ts - below) / n
    reference = ts + np.expm1(-ts)
    return float(np.max(np.abs(estimate - reference), initial=0.0))


@dataclass(frozen=True)
class ExpLawReport:
    """Outcome of the exponential-law verification for one model."""

    model_name: str
    n: int
    seed: int
    alpha: float
    ks_stat: float
    dkw_bound: float
    ecdf_grid: tuple[tuple[float, float, float], ...]
    max_atom_mass: float
    ode_max_error: float

    @property
    def passed(self) -> bool:
        """The KS distance to Exp(1) lies inside the DKW band."""
        return self.ks_stat < self.dkw_bound

    def to_json_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "n": self.n,
            "seed": str(self.seed),
            "alpha": self.alpha,
            "ks_stat": self.ks_stat,
            "dkw_bound": self.dkw_bound,
            "passed": self.passed,
            "max_atom_mass": self.max_atom_mass,
            "ode_max_error": self.ode_max_error,
            "ecdf_grid": [[t, e, r] for t, e, r in self.ecdf_grid],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def csv_rows(self) -> list[tuple]:
        rows: list[tuple] = [("t", "ecdf", "reference")]
        rows.extend(self.ecdf_grid)
        return rows


def exp_law_verify(model: JumpModel, n: int, alpha: float, seed: int) -> ExpLawReport:
    """Sample A(tau) and test it against the unit exponential law."""
    bound = dkw_bound(n, alpha)
    a_sorted = np.sort(sample_a_tau(model, n, seed))
    ks = ks_statistic(a_sorted, exp1_cdf)

    levels = (np.arange(1, 51) - 0.5) / 50.0
    ts = -np.log1p(-levels)
    ecdf_at = np.searchsorted(a_sorted, ts, side="right") / n
    refs = exp1_cdf(ts)
    grid = tuple((float(t), float(e), float(r)) for t, e, r in zip(ts, ecdf_at, refs))

    _, counts = np.unique(a_sorted, return_counts=True)
    max_atom = float(counts.max()) / n

    ode_err = ode_identity_check(a_sorted, (0.5, 1.0, 2.0))

    return ExpLawReport(
        model_name=model.name,
        n=n,
        seed=seed,
        alpha=alpha,
        ks_stat=ks,
        dkw_bound=bound,
        ecdf_grid=grid,
        max_atom_mass=max_atom,
        ode_max_error=ode_err,
    )


@dataclass(frozen=True)
class MartingaleReport:
    """Zero-mean residual check of 1_{t >= tau} - A(t ^ tau) on a time grid."""

    model_name: str
    n: int
    seed: int
    residuals: tuple[tuple[float, float, float], ...]  # (t, mean, stderr) per grid time

    @property
    def time_grid(self) -> tuple[float, ...]:
        return tuple(t for t, _, _ in self.residuals)

    @property
    def max_abs_z(self) -> float:
        """Largest |mean| / stderr; a zero stderr gives 0 for a zero mean, else inf."""
        zs = (
            abs(mean) / stderr if stderr > 0.0 else (0.0 if mean == 0.0 else math.inf)
            for _, mean, stderr in self.residuals
        )
        return max((0.0, *zs))

    @property
    def passed(self) -> bool:
        """Every residual mean lies within MARTINGALE_Z_LIMIT standard errors of 0."""
        return self.max_abs_z < MARTINGALE_Z_LIMIT

    def to_json_dict(self) -> dict:
        return {
            "model_name": self.model_name,
            "n": self.n,
            "seed": str(self.seed),
            "time_grid": list(self.time_grid),
            "residuals": [
                {"t": t, "mean": m, "stderr": s} for t, m, s in self.residuals
            ],
            "max_abs_z": self.max_abs_z,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def csv_rows(self) -> list[tuple]:
        rows: list[tuple] = [("t", "mean", "stderr")]
        rows.extend(self.residuals)
        return rows


def default_time_grid() -> tuple[float, ...]:
    return tuple(float(t) for t in np.linspace(0.1, 5.0, 10))


def martingale_residual(
    model: JumpModel,
    n: int,
    time_grid,
    seed: int,
) -> MartingaleReport:
    """Mean and standard error of the residual at each grid time.

    One tau draw per replication is reused across all grid times (the
    residuals are functionals of the same path, and resampling per time
    would only add variance).  Where no replication has jumped by t, every
    residual equals -A(t) and the sample spread is 0 or roundoff, so the
    standard error comes from the martingale's own variance E[A(t ^ tau)].
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    grid = tuple(float(t) for t in time_grid)
    if any(not math.isfinite(t) or t < 0.0 for t in grid):
        raise ValueError("grid times must be finite and nonnegative")
    zs = _exponential_draws(seed, n)
    taus = _finite_taus(model, zs)

    rows = []
    for t in grid:
        indicator = (taus <= t).astype(float)
        stopped = np.minimum(taus, t)
        residual = indicator - model.compensator.evaluate_many(stopped)
        mean = float(residual.mean())
        if not indicator.any():
            # Every residual is -A(t ^ tau), so E[A(t ^ tau)] is |mean|.
            stderr = math.sqrt(abs(mean) / n)
        else:
            stderr = float(residual.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
        rows.append((t, mean, stderr))

    return MartingaleReport(model_name=model.name, n=n, seed=seed, residuals=tuple(rows))
