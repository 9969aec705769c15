"""Monte Carlo verification of the exponential-law and martingale identities.

The headline check: for a finite jump time tau with continuous compensator A,
the random variable A(tau) is Exp(1).  The engine samples A(tau) in bulk,
compares the empirical CDF against 1 - e^{-t} with the exact one-sample
Kolmogorov-Smirnov statistic inside the finite-sample DKW band, checks the
integral identity F(t) = t - 1 + e^{-t} satisfied by F(t) = int_0^t P(Z <= s) ds,
screens for atoms, and separately checks the zero-mean martingale residual
1_{t >= tau} - A(t ^ tau).  An alpha whose 2 / alpha overflows a float is
refused, since its band would be infinite and pass any model, and one rule
refuses a time grid that is empty or holds a time that is not finite and
nonnegative, for the integral identity and the martingale check alike.

Each statistic is computed once.  The exponential-law check sorts its samples
once and reads the KS statistic, the ECDF grid, the largest atom (the longest
run of equal sorted values) and the integral identity off that one array.
Both checks read the sample (tau, A(tau)) of ``JumpModel.sample``.  The
martingale check takes A(t ^ tau) at grid time t as A(tau) where tau <= t and
A(t) elsewhere, from one ``evaluate_many`` call over the grid times some row
has not reached, kept in grid order: the same bits as one call per time,
because ``evaluate_many`` is elementwise, and a time past every tau is never
evaluated.  Each residual is the blend
``jumped * (1.0 - A(tau)) + (not jumped) * (0.0 - A(t))``, which is exactly
the selected term: the other product is +0.0 or -0.0, adding either leaves
any value but -0.0 unchanged, and neither ``1.0 - a`` nor ``0.0 - a`` rounds
to -0.0.  The standard deviation reuses the mean already summed, and the
times every row has jumped by share one (mean, stderr): their residual is
1 - A(tau) at each of them.

Each thread keeps one set of scratch arrays for the current n (``_scratch``),
so a run of verifications allocates its work arrays once rather than once
per call: the martingale check's sample lands there, 1 - A(tau) is written
over A(tau), the residual and its squared deviations are built in two
buffers, and KS's step array i / n is kept.  The exponential-law check sorts
a fresh A(tau): ``sample_a_tau`` makes one n-length array, and A(tau) is
written over tau in it.  Once the ECDF grid, the atom scan and the integral
identity have read that sorted sample, its reference CDF is written over it,
so the check takes only the step array and one buffer from the scratch.  The
scratch is made only after the draws, so an n too large to draw fails first,
and no array a caller receives is ever scratch.

Replication k always uses the random stream with stream_id = k, and results
are assembled in stream order, so reports are bitwise reproducible.  The n
draws come from one vectorised Philox pass (``core.draw_exponentials``) that
matches ``draw_exponential(RngStream(seed, k))`` bit for bit, in one thread;
the CLI still accepts ``--workers`` but it has no effect.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass

from .core import _as_floats, _as_integer, _check_seed, draw_exponentials, np
from .processes import InfiniteSampleError, JumpModel

__all__ = [
    "MARTINGALE_Z_LIMIT",
    "ExpLawReport",
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


def exp1_cdf(x, out=None):
    """CDF of the unit exponential, accurate near 0; accepts arrays, and fills
    ``out`` when it is given."""
    if out is None:
        return -np.expm1(-np.asarray(x, float))
    return np.negative(np.expm1(np.negative(x, out=out), out=out), out=out)


#: Draws are pure functions of (seed, n); a model sweep asks for the same two
#: blocks once per model and check (132 requests per benchmark pass), so they
#: are cached across models.
_Z_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _check_n(n: int) -> int:
    """n as an int; refuses a replication count that is not an integer of at least 1."""
    n = _as_integer(n, "n")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    return n


def _exponential_draws(seed: int, n: int) -> np.ndarray:
    """n Exp(1) draws, replication k from stream_id k; read-only, cached on the checked ints."""
    n = _check_n(n)
    key = (_check_seed(seed), n)
    hit = _Z_CACHE.get(key)
    if hit is not None:
        return hit
    out = draw_exponentials(seed, n)
    out.flags.writeable = False
    if len(_Z_CACHE) >= 8:
        _Z_CACHE.clear()
    _Z_CACHE[key] = out
    return out


class _Scratch:
    """One thread's work arrays for n samples: tau, A(tau), two float buffers,
    a bool mask and KS's step array, whose entry i has the bits of i / n."""

    def __init__(self, n: int):
        self.taus, self.a, self.residual, self.spare = (np.empty(n) for _ in range(4))
        self.jumped = np.empty(n, bool)
        self.steps = np.arange(n + 1) / n


_THREAD = threading.local()


def _scratch(n: int) -> _Scratch:
    """This thread's scratch arrays for n samples, rebuilt only when n changes.

    Callers draw first, so a draw that cannot be allocated fails before any
    scratch array is.
    """
    held = getattr(_THREAD, "scratch", None)
    if held is None or len(held.taus) != n:
        _THREAD.scratch = None  # free the old arrays before allocating new ones
        held = _THREAD.scratch = _Scratch(n)
    return held


def sample_a_tau(model: JumpModel, n: int, seed: int) -> np.ndarray:
    """n independent draws of A(tau), one per stream_id, in stream order, as
    a fresh array, the only n-length one the call makes: A(tau) is written
    over tau in it, with ``sample``'s bits and errors."""
    zs = _exponential_draws(seed, n)
    a = np.empty(len(zs))
    return model.sample(zs, out=(a, a))[1]


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
    if math.isnan(xs[-1]):  # numpy sorts NaN last
        raise ValueError("ks_statistic needs samples that are not NaN")
    F = np.asarray(reference_cdf(xs), float)
    if F.shape != xs.shape:
        raise ValueError(f"reference_cdf must return shape {xs.shape}, got {F.shape}")
    return _ks_distance(F, np.arange(n + 1) / n, np.empty(n))


def _ks_distance(F: np.ndarray, steps: np.ndarray, work: np.ndarray) -> float:
    """KS distance of sorted samples whose reference CDF values are F.

    steps[i] has the bits of i / n, so steps[1:] is i / n and steps[:-1] is
    (i - 1) / n; the larger of the two maxima is the maximum of the pairs.
    ``work`` is an array as long as F, overwritten.
    """
    upper = np.abs(np.subtract(steps[1:], F, out=work), out=work).max()
    lower = np.abs(np.subtract(steps[:-1], F, out=work), out=work).max()
    return float(max(upper, lower))


def dkw_bound(n: int, alpha: float) -> float:
    """Dvoretzky-Kiefer-Wolfowitz band half-width sqrt(ln(2/alpha) / (2n)).

    alpha lies in (0, 1), and below about 1.1e-308, where 2 / alpha
    overflows, it is refused: the band would be infinite and pass any model.
    """
    n = _check_n(n)
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    ratio = 2.0 / alpha
    if math.isinf(ratio):
        raise ValueError(f"alpha {alpha} is too small: 2 / alpha overflows a float")
    return math.sqrt(math.log(ratio) / (2.0 * n))


def _time_grid(grid) -> tuple[float, ...]:
    """The grid times as floats, in the order given; refuses an empty grid
    and a time that is not finite and nonnegative."""
    ts = _as_floats(grid)
    if not ts:
        raise ValueError("the time grid needs at least one time")
    if not all(0.0 <= t < math.inf for t in ts):
        raise ValueError("grid times must be finite and nonnegative")
    return ts


def ode_identity_check(samples, grid) -> float:
    """Max error of int_0^t ecdf(s) ds against t - 1 + e^{-t} over the grid.

    For nonnegative samples the integral is exactly (1/n) sum_i max(0, t - x_i),
    k * t minus the sum of the k sorted samples at or below t: no mesh error.
    A negative or NaN sample is refused first, then a grid ``_time_grid`` refuses.
    """
    xs = np.sort(np.asarray(samples, float))
    if len(xs) and (xs[0] < 0.0 or math.isnan(xs[-1])):  # numpy sorts NaN last
        raise ValueError("ode_identity_check needs nonnegative samples that are not NaN")
    return _ode_identity_sorted(xs, grid)


def _ode_identity_sorted(xs: np.ndarray, grid) -> float:
    """``ode_identity_check`` of samples already sorted ascending."""
    n = len(xs)
    if n == 0:
        raise ValueError("ode_identity_check needs at least one sample")
    ts = np.array(_time_grid(grid))
    ks = np.searchsorted(xs, ts, side="right")
    below = np.array([xs[:k].sum() for k in ks])
    estimate = (ks * ts - below) / n
    reference = ts + np.expm1(-ts)
    return float(np.abs(estimate - reference).max())


def _longest_run(xs: np.ndarray) -> int:
    """Length of the longest run of equal values in a nonempty sorted array."""
    same = xs[1:] == xs[:-1]
    if not same.any():
        return 1
    starts = np.flatnonzero(~same) + 1
    return int(np.diff(starts, prepend=0, append=len(xs)).max())


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
    n = _check_n(n)
    bound = dkw_bound(n, alpha)
    a_sorted = sample_a_tau(model, n, seed)
    a_sorted.sort()

    levels = (np.arange(1, 51) - 0.5) / 50.0
    ts = -np.log1p(-levels)
    ecdf_at = np.searchsorted(a_sorted, ts, side="right") / n
    refs = exp1_cdf(ts)
    grid = tuple((float(t), float(e), float(r)) for t, e, r in zip(ts, ecdf_at, refs))

    max_atom = _longest_run(a_sorted) / n
    ode_err = _ode_identity_sorted(a_sorted, (0.5, 1.0, 2.0))
    # Nothing reads the sample after this: its reference CDF is written over it.
    held = _scratch(n)
    ks = _ks_distance(exp1_cdf(a_sorted, out=a_sorted), held.steps, held.spare)

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
    n = _check_n(n)
    grid = _time_grid(time_grid)
    zs = _exponential_draws(seed, n)
    held = _scratch(n)
    taus, one_minus = model.sample(zs, out=(held.taus, held.a))
    np.subtract(1.0, one_minus, out=one_minus)
    # A(t) at the grid times some row has not reached, in grid order, so a
    # time past every tau is never evaluated.
    last = taus.max()
    unreached = np.array([t for t in grid if t < last])
    a_at = iter(model.compensator.evaluate_many(unreached).tolist())
    jumped, residual, spare = held.jumped, held.residual, held.spare
    all_jumped = None  # (mean, stderr) at the times every row has jumped by
    rows = []
    for t in grid:
        if t >= last:
            # Every residual is 1 - A(tau): the same array at each such time.
            if all_jumped is None:
                all_jumped = _mean_and_stderr(one_minus, spare)
            rows.append((t, *all_jumped))
            continue
        np.less_equal(taus, t, out=jumped)
        k = np.count_nonzero(jumped)
        # 1.0 - A(tau) where jumped, 0.0 - A(t) elsewhere, exactly: the
        # other term is +-0.0 and neither value is -0.0.
        np.multiply(jumped, one_minus, out=residual)
        np.multiply(np.logical_not(jumped, out=jumped), 0.0 - next(a_at), out=spare)
        r = np.add(residual, spare, out=residual)
        if k == 0:
            # Every residual is -A(t ^ tau), so E[A(t ^ tau)] is |mean|.
            mean = float(r.mean())
            rows.append((t, mean, math.sqrt(abs(mean) / n)))
        else:
            rows.append((t, *_mean_and_stderr(r, spare)))

    return MartingaleReport(model_name=model.name, n=n, seed=seed, residuals=tuple(rows))


def _mean_and_stderr(r: np.ndarray, work: np.ndarray) -> tuple[float, float]:
    """Mean of r and its standard error, ``r.std(ddof=1) / sqrt(n)``, 0 for n = 1.

    The squared deviations go to ``work``; ``sqrt(sum / (n - 1))`` over them
    has ``std``'s bits, since numpy's ``std`` computes exactly that.
    """
    n = len(r)
    mean = r.mean()
    if n == 1:
        return float(mean), 0.0
    sq = np.square(np.subtract(r, mean, out=work), out=work)
    return float(mean), math.sqrt(np.add.reduce(sq) / (n - 1)) / math.sqrt(n)
