"""Compensators: nondecreasing continuous A with A(0) = 0.

A compensator can be evaluated and inverted through the generalized inverse
``A^{-1}(s) = inf{t >= 0 : A(t) >= s}`` (the left edge of any flat piece;
infinity when the level is never reached).

Each class states its math once, as three scalar methods: ``_evaluate_finite``
(A at a finite time), ``_inverse_finite`` (tau as a float, inf when the level
is never reached or tau is past the float range) and ``_overflow`` (the error
that names the level and the parameters).  ``Compensator`` builds the rest:

- ``evaluate`` and ``inverse`` check their argument.  ``inverse`` holds the
  overflow rule: a level below ``range_sup`` is reached at a finite time, so
  an infinite tau there overflowed and raises ``_overflow``; any other
  infinite tau is INFINITY.  ``first_overflow`` is the same rule for arrays.
- ``evaluate_exact`` and ``inverse_exact`` map the scalar formulas element by
  element, so they carry the scalar bits (inf for INFINITY and for overflow).
- ``evaluate_many`` is ``evaluate_exact``, and ``inverse_many`` is
  ``inverse_exact`` plus ``inverse``'s refusal to overflow.

A class overrides an array method only where numpy may stand in.  Linear and
tabulated use only correctly rounded ``+ - * /``, so numpy gives their
``*_exact`` columns with the scalar bits.  Power and saturating keep numpy
``evaluate_many``/``inverse_many`` for the verifiers, whose report bytes
depend on them: numpy's SIMD pow, expm1 and log1p differ from libm's in the
last bit, and an overflowed tau comes back as inf.

The module also provides a CSV loader for tabulated compensators.
"""

from __future__ import annotations

import abc
import csv
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import INFINITY, TimeLike, TimePoint, as_timepoint

__all__ = [
    "Compensator",
    "LinearCompensator",
    "PowerCompensator",
    "SaturatingExpCompensator",
    "TabulatedCompensator",
    "load_tabulated_csv",
]

_UNBOUNDED_AT_INFINITY = "A(infinity) is undefined for an unbounded compensator"


class Compensator(abc.ABC):
    """Shared contract: A(0) = 0, nondecreasing, continuous."""

    #: Supremum of A over [0, infinity); math.inf when unbounded.
    range_sup: float

    @abc.abstractmethod
    def _evaluate_finite(self, t: float) -> float:
        """A(t) at a time t < inf; at inf a bounded A's formula gives range_sup."""

    @abc.abstractmethod
    def _inverse_finite(self, s: float) -> float:
        """tau at a checked level: inf when s is never reached or tau overflows."""

    @abc.abstractmethod
    def _overflow(self, s: float) -> OverflowError:
        """The error for a level whose tau is finite but past the float range."""

    def evaluate(self, t: TimeLike) -> float:
        """A(t); A(infinity) is range_sup and requires it to be finite."""
        tp = as_timepoint(t)
        if not tp.is_finite:
            if math.isinf(self.range_sup):
                raise ValueError(_UNBOUNDED_AT_INFINITY)
            return self.range_sup
        return self._evaluate_finite(tp.value)

    def inverse(self, s: float) -> TimePoint:
        """Generalized inverse inf{t >= 0 : A(t) >= s}; INFINITY if never reached.

        Raises ``_overflow`` where the true tau is finite but past the float
        range, since INFINITY would be a wrong answer there.
        """
        s = _check_level(s)
        tau = self._inverse_finite(s)
        if math.isinf(tau):
            if s < self.range_sup:
                raise self._overflow(s)
            return INFINITY
        return TimePoint(tau)

    def evaluate_exact(self, ts) -> np.ndarray:
        """``evaluate`` over an array of times, bit for bit, raising where it raises."""
        ts = self._check_times(ts)
        return np.fromiter(map(self._evaluate_finite, ts.tolist()), float, len(ts))

    def evaluate_many(self, ts) -> np.ndarray:
        """Vectorized A over an array of times; rejects the times ``evaluate`` rejects."""
        return self.evaluate_exact(ts)

    def inverse_exact(self, ss) -> np.ndarray:
        """``inverse`` over an array of levels, bit for bit, as floats.

        inf stands for INFINITY, and also for a tau past the float range,
        where ``inverse`` raises OverflowError (see ``first_overflow``).
        """
        ss = _check_nonnegative(ss)
        return np.fromiter(map(self._inverse_finite, ss.tolist()), float, len(ss))

    def inverse_many(self, ss) -> np.ndarray:
        """Vectorized generalized inverse (times as floats, inf when never),
        raising ``inverse``'s OverflowError at the first level it refuses."""
        ss = np.asarray(ss, float)
        taus = self.inverse_exact(ss)
        stop = self.first_overflow(ss, taus)
        if stop is not None:
            raise self._overflow(float(ss[stop]))
        return taus

    def first_overflow(self, ss, taus: np.ndarray) -> int | None:
        """Index of the first level where ``inverse`` raises, None when there
        is none: ``inverse``'s rule, an infinite tau below ``range_sup``."""
        overflowed = np.isinf(taus) & (np.asarray(ss) < self.range_sup)
        return int(overflowed.argmax()) if overflowed.any() else None

    def __call__(self, t: TimeLike) -> float:
        return self.evaluate(t)

    def _check_times(self, ts) -> np.ndarray:
        """Array twin of ``evaluate``'s check: negative and NaN times raise, and so
        does infinity when A is unbounded."""
        ts = _check_nonnegative(ts, "times")
        if math.isinf(self.range_sup) and np.isinf(ts).any():
            raise ValueError(_UNBOUNDED_AT_INFINITY)
        return ts


def _check_level(s: float) -> float:
    s = float(s)
    if math.isnan(s) or s < 0.0:
        raise ValueError(f"level must be a nonnegative real, got {s}")
    return s


def _check_nonnegative(xs, what: str = "levels") -> np.ndarray:
    """Array twin of _check_level and of the time check: reject negatives and NaN."""
    xs = np.asarray(xs, float)
    if not np.all(xs >= 0.0):
        raise ValueError(f"{what} must be nonnegative reals")
    return xs


@dataclass(frozen=True)
class LinearCompensator(Compensator):
    """A(t) = rate * t."""

    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

    range_sup = math.inf

    def _evaluate_finite(self, t: float) -> float:
        return self.rate * t

    def _inverse_finite(self, s: float) -> float:
        return s / self.rate

    def _overflow(self, s: float) -> OverflowError:
        return OverflowError(f"jump time overflows a float: level {s} / rate {self.rate}")

    def evaluate_exact(self, ts):
        return self.rate * self._check_times(ts)

    def inverse_exact(self, ss):
        with np.errstate(over="ignore"):
            return _check_nonnegative(ss) / self.rate


@dataclass(frozen=True)
class PowerCompensator(Compensator):
    """A(t) = t ** exponent, exponent > 0."""

    exponent: float

    def __post_init__(self):
        if not (math.isfinite(self.exponent) and self.exponent > 0.0):
            raise ValueError(f"exponent must be positive and finite, got {self.exponent}")

    range_sup = math.inf

    def _evaluate_finite(self, t: float) -> float:
        return t**self.exponent

    def _inverse_finite(self, s: float) -> float:
        try:
            return s ** (1.0 / self.exponent)
        except OverflowError:
            return math.inf

    def _overflow(self, s: float) -> OverflowError:
        return OverflowError(
            f"jump time overflows a float: level {s} ** (1 / exponent {self.exponent:g})"
        )

    # numpy's pow differs from libm's in the last bit (on about 80 of 1e5
    # draws at exponent 2, inverse and evaluate alike), so only the
    # verifiers' ``*_many`` use it; ``*_exact`` map the scalar formulas.

    def evaluate_many(self, ts):
        return self._check_times(ts) ** self.exponent

    def inverse_many(self, ss):
        # Small exponents overflow to inf; callers that need tau < inf check for it.
        with np.errstate(over="ignore"):
            return _check_nonnegative(ss) ** (1.0 / self.exponent)


@dataclass(frozen=True)
class SaturatingExpCompensator(Compensator):
    """A(t) = limit * (1 - exp(-rate * t)): bounded, so high levels are never hit."""

    limit: float = 1.0
    rate: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.limit) and self.limit > 0.0):
            raise ValueError("limit must be positive and finite")
        if not (math.isfinite(self.rate) and self.rate > 0.0):
            raise ValueError("rate must be positive and finite")

    @property
    def range_sup(self) -> float:
        return self.limit

    def _evaluate_finite(self, t: float) -> float:
        return self.limit * -math.expm1(-self.rate * t)

    def _inverse_finite(self, s: float) -> float:
        if s >= self.limit:
            # The supremum is approached but never attained.
            return math.inf
        return -math.log1p(-s / self.limit) / self.rate

    def _overflow(self, s: float) -> OverflowError:
        return OverflowError(
            f"jump time overflows a float: -log1p(-level {s} / limit {self.limit}) "
            f"/ rate {self.rate}"
        )

    # numpy's expm1 and log1p differ from libm's in the last bit, so only
    # the verifiers' ``*_many`` use them.

    def evaluate_many(self, ts):
        return self.limit * -np.expm1(-self.rate * self._check_times(ts))

    def inverse_many(self, ss):
        # A tiny rate overflows to inf; callers that need tau < inf check for it.
        ss = _check_nonnegative(ss)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            finite = -np.log1p(-ss / self.limit) / self.rate
        return np.where(ss >= self.limit, math.inf, finite)


def _lerp(x: float, x0: float, x1: float, y0: float, y1: float) -> float:
    """The segment through (x0, y0) and (x1, y1) at x, for x0 <= x <= x1.

    The product ``(x - x0) * (y1 - y0)`` comes first, since report bytes
    depend on the result's last bit.  Where it overflows on a wide segment,
    the fraction ``(x - x0) / (x1 - x0)``, at most 1, is taken first
    instead, so a finite answer is never reported as infinite.
    """
    step = (x - x0) * (y1 - y0)
    if math.isinf(step):
        return y0 + (x - x0) / (x1 - x0) * (y1 - y0)
    return y0 + step / (x1 - x0)


def _lerp_many(x, x0, x1, y0, y1) -> np.ndarray:
    """Array twin of ``_lerp``; a zero-width segment gives nan or inf, for the caller to mask."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        step = (x - x0) * (y1 - y0)
        out = y0 + step / (x1 - x0)
        wide = np.isinf(step)
        if wide.any():
            out = np.where(wide, y0 + (x - x0) / (x1 - x0) * (y1 - y0), out)
    return out


def _first_bad_knot(times, values) -> tuple[int, str] | None:
    """Index and reason of the first knot breaking a table's invariants, or None."""
    for i, (t, v) in enumerate(zip(times, values)):
        if not (math.isfinite(t) and math.isfinite(v)):
            return i, "entries must be finite"
        if i == 0:
            if t != 0.0:
                return i, f"table must start at time 0, got {t}"
            if v != 0.0:
                return i, f"A(0) must be 0, got {v}"
        elif t <= times[i - 1]:
            return i, "times must be strictly increasing"
        elif v < values[i - 1]:
            return i, "values must be nondecreasing"
    return None


@dataclass(frozen=True)
class TabulatedCompensator(Compensator):
    """Piecewise-linear compensator through (time, value) knots.

    Beyond the last knot the function either stays constant (bounded, the
    default slope 0; None means the same) or continues linearly with
    ``extrapolation_slope``.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    extrapolation_slope: float = 0.0

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) < 2:
            raise ValueError("a tabulated compensator needs at least two knots")
        if len(values) != len(times):
            raise ValueError("times and values must have equal length")
        bad = _first_bad_knot(times, values)
        if bad is not None:
            raise ValueError(f"knot {bad[0]}: {bad[1]}")
        slope = 0.0 if self.extrapolation_slope is None else float(self.extrapolation_slope)
        if not (math.isfinite(slope) and slope >= 0.0):
            raise ValueError("extrapolation slope must be finite and nonnegative")
        object.__setattr__(self, "extrapolation_slope", slope)

    @property
    def range_sup(self) -> float:
        return math.inf if self.extrapolation_slope > 0.0 else self.values[-1]

    def _evaluate_finite(self, t: float) -> float:
        if t >= self.times[-1]:
            return self.values[-1] + self.extrapolation_slope * (t - self.times[-1])
        i = bisect_right(self.times, t) - 1
        if t == self.times[i]:
            return self.values[i]
        return _lerp(t, self.times[i], self.times[i + 1], self.values[i], self.values[i + 1])

    def _inverse_finite(self, s: float) -> float:
        if s == 0.0:
            return 0.0
        if s > self.values[-1]:
            if self.extrapolation_slope > 0.0:
                return self.times[-1] + (s - self.values[-1]) / self.extrapolation_slope
            return math.inf
        j = bisect_left(self.values, s)
        if self.values[j] == s:
            # First knot attaining the level: the exact left edge of any flat.
            return self.times[j]
        values, times = self.values, self.times
        return _lerp(s, values[j - 1], values[j], times[j - 1], times[j])

    def _overflow(self, s: float) -> OverflowError:
        return OverflowError(
            f"jump time overflows a float: level {s} / extrapolation slope "
            f"{self.extrapolation_slope}"
        )

    def evaluate_exact(self, ts):
        ts = self._check_times(ts)
        times = np.asarray(self.times)
        values = np.asarray(self.values)
        i = np.maximum(np.searchsorted(times, ts, side="right") - 1, 0)
        ip = np.minimum(i + 1, len(times) - 1)
        t0, v0 = times[i], values[i]
        out = np.where(ts == t0, v0, _lerp_many(ts, t0, times[ip], v0, values[ip]))
        slope = self.extrapolation_slope
        # A bounded table's tail is its last value, at +inf too (0 * inf is nan).
        tail = values[-1] + slope * (ts - times[-1]) if slope > 0.0 else values[-1]
        return np.where(ts >= times[-1], tail, out)

    def inverse_exact(self, ss):
        ss = _check_nonnegative(ss)
        times = np.asarray(self.times)
        values = np.asarray(self.values)
        j = np.minimum(np.searchsorted(values, ss, side="left"), len(values) - 1)
        jm = np.maximum(j - 1, 0)
        interp = _lerp_many(ss, values[jm], values[j], times[jm], times[j])
        out = np.where(values[j] == ss, times[j], interp)
        out = np.where(ss == 0.0, 0.0, out)
        above = ss > values[-1]
        if np.any(above):
            slope = self.extrapolation_slope
            if slope > 0.0:
                with np.errstate(over="ignore"):
                    tail = times[-1] + (ss - values[-1]) / slope
            else:
                tail = math.inf
            out = np.where(above, tail, out)
        return out


def load_tabulated_csv(path, extrapolation_slope: float = 0.0) -> TabulatedCompensator:
    """Load a tabulated compensator from a two-column (time, value) CSV.

    The first row is a header.  Violations of the compensator invariants are
    rejected with the offending data row index (1-based, header excluded).
    """
    rows: list[int] = []
    times: list[float] = []
    values: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty file: expected a header row") from None
        if len(header) < 2:
            raise ValueError("header must declare two columns (time, value)")
        for idx, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) < 2:
                raise ValueError(f"row {idx}: expected two columns, got {len(row)}")
            try:
                t, v = float(row[0]), float(row[1])
            except ValueError:
                raise ValueError(f"row {idx}: non-numeric entry {row[:2]!r}") from None
            rows.append(idx)
            times.append(t)
            values.append(v)
    bad = _first_bad_knot(times, values)
    if bad is not None:
        raise ValueError(f"row {rows[bad[0]]}: {bad[1]}")
    if len(times) < 2:
        raise ValueError("table needs at least two data rows")
    if all(v == 0.0 for v in values) and not extrapolation_slope > 0.0:
        raise ValueError("identically-zero compensator rejected (tau would be infinite)")
    return TabulatedCompensator(tuple(times), tuple(values), extrapolation_slope)
