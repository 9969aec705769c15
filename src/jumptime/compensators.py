"""Compensators: nondecreasing continuous A with A(0) = 0.

A compensator can be evaluated, stopped at a time, and inverted through the
generalized inverse ``A^{-1}(s) = inf{t >= 0 : A(t) >= s}`` (the left edge of
any flat piece; infinity when the level is never reached).  The module also
provides the time-change identity checker used by the verification suite and
a CSV loader for tabulated compensators.
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
    "StoppedCompensator",
    "TabulatedCompensator",
    "load_tabulated_csv",
    "time_change_check",
]

#: Absolute tolerance for real-valued identity checks (indicators are exact).
VALUE_TOLERANCE = 1e-12


class Compensator(abc.ABC):
    """Shared contract: A(0) = 0, nondecreasing, continuous."""

    #: Supremum of A over [0, infinity); math.inf when unbounded.
    range_sup: float

    def evaluate(self, t: TimeLike) -> float:
        """A(t); A(infinity) is range_sup and requires it to be finite."""
        tp = as_timepoint(t)
        if not tp.is_finite:
            if math.isinf(self.range_sup):
                raise ValueError("A(infinity) is undefined for an unbounded compensator")
            return self.range_sup
        return self._evaluate_finite(tp.value)

    @abc.abstractmethod
    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized A over an array of finite times; negative or NaN times raise."""

    @abc.abstractmethod
    def _evaluate_finite(self, t: float) -> float: ...

    @abc.abstractmethod
    def inverse(self, s: float) -> TimePoint:
        """Generalized inverse inf{t >= 0 : A(t) >= s}; INFINITY if never reached."""

    @abc.abstractmethod
    def inverse_many(self, ss: np.ndarray) -> np.ndarray:
        """Vectorized generalized inverse (times as floats, inf when never)."""

    def stop(self, tau: TimeLike) -> "StoppedCompensator":
        return StoppedCompensator(self, as_timepoint(tau))

    def __call__(self, t: TimeLike) -> float:
        return self.evaluate(t)


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

    def evaluate_many(self, ts):
        return self.rate * _check_nonnegative(ts, "times")

    def inverse(self, s: float) -> TimePoint:
        tau = _check_level(s) / self.rate
        if math.isinf(tau) and math.isfinite(s):
            # The true tau is finite, so INFINITY would be a wrong answer.
            raise OverflowError(f"jump time overflows a float: level {s} / rate {self.rate}")
        return TimePoint(tau)

    def inverse_many(self, ss):
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

    def evaluate_many(self, ts):
        return _check_nonnegative(ts, "times") ** self.exponent

    def inverse(self, s: float) -> TimePoint:
        try:
            return TimePoint(_check_level(s) ** (1.0 / self.exponent))
        except OverflowError:
            # The true tau is finite, so INFINITY would be a wrong answer.
            raise OverflowError(
                f"jump time overflows a float: level {s} ** (1 / exponent {self.exponent:g})"
            ) from None

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

    def evaluate_many(self, ts):
        return self.limit * -np.expm1(-self.rate * _check_nonnegative(ts, "times"))

    def inverse(self, s: float) -> TimePoint:
        s = _check_level(s)
        if s >= self.limit:
            # The supremum is approached but never attained.
            return INFINITY
        return TimePoint(-math.log1p(-s / self.limit) / self.rate)

    def inverse_many(self, ss):
        ss = _check_nonnegative(ss)
        with np.errstate(divide="ignore", invalid="ignore"):
            finite = -np.log1p(-ss / self.limit) / self.rate
        return np.where(ss >= self.limit, math.inf, finite)


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
    default) or continues linearly with ``extrapolation_slope``.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    extrapolation_slope: float | None = None

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
        if self.extrapolation_slope is not None:
            slope = float(self.extrapolation_slope)
            if not (math.isfinite(slope) and slope >= 0.0):
                raise ValueError("extrapolation slope must be finite and nonnegative")
            object.__setattr__(self, "extrapolation_slope", slope)

    @property
    def range_sup(self) -> float:
        if self.extrapolation_slope is not None and self.extrapolation_slope > 0.0:
            return math.inf
        return self.values[-1]

    def _evaluate_finite(self, t: float) -> float:
        if t >= self.times[-1]:
            slope = self.extrapolation_slope or 0.0
            return self.values[-1] + slope * (t - self.times[-1])
        i = bisect_right(self.times, t) - 1
        if t == self.times[i]:
            return self.values[i]
        t0, t1 = self.times[i], self.times[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (t - t0) * (v1 - v0) / (t1 - t0)

    def evaluate_many(self, ts):
        ts = _check_nonnegative(ts, "times")
        times = np.asarray(self.times)
        values = np.asarray(self.values)
        i = np.maximum(np.searchsorted(times, ts, side="right") - 1, 0)
        ip = np.minimum(i + 1, len(times) - 1)
        t0, t1 = times[i], times[ip]
        v0, v1 = values[i], values[ip]
        with np.errstate(divide="ignore", invalid="ignore"):
            interp = v0 + (ts - t0) * (v1 - v0) / (t1 - t0)
        out = np.where(ts == t0, v0, interp)
        slope = self.extrapolation_slope or 0.0
        tail = values[-1] + slope * (ts - times[-1])
        return np.where(ts >= times[-1], tail, out)

    def inverse(self, s: float) -> TimePoint:
        s = _check_level(s)
        if s == 0.0:
            return TimePoint(0.0)
        if s > self.values[-1]:
            slope = self.extrapolation_slope or 0.0
            if slope > 0.0:
                return TimePoint(self.times[-1] + (s - self.values[-1]) / slope)
            return INFINITY
        j = bisect_left(self.values, s)
        if self.values[j] == s:
            # First knot attaining the level: the exact left edge of any flat.
            return TimePoint(self.times[j])
        t0, t1 = self.times[j - 1], self.times[j]
        v0, v1 = self.values[j - 1], self.values[j]
        return TimePoint(t0 + (s - v0) * (t1 - t0) / (v1 - v0))

    def inverse_many(self, ss):
        ss = _check_nonnegative(ss)
        times = np.asarray(self.times)
        values = np.asarray(self.values)
        j = np.minimum(np.searchsorted(values, ss, side="left"), len(values) - 1)
        jm = np.maximum(j - 1, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            interp = times[jm] + (ss - values[jm]) * (times[j] - times[jm]) / (values[j] - values[jm])
        out = np.where(values[j] == ss, times[j], interp)
        out = np.where(ss == 0.0, 0.0, out)
        above = ss > values[-1]
        if np.any(above):
            slope = self.extrapolation_slope or 0.0
            if slope > 0.0:
                tail = times[-1] + (ss - values[-1]) / slope
            else:
                tail = np.full_like(ss, math.inf)
            out = np.where(above, tail, out)
        return out


@dataclass(frozen=True)
class StoppedCompensator(Compensator):
    """A stopped at tau: t |-> A(t ^ tau), with range_sup = A(tau)."""

    base: Compensator
    tau: TimePoint

    def __post_init__(self):
        if not self.tau > 0:
            raise ValueError("stopping time must be positive")

    @property
    def range_sup(self) -> float:
        if not self.tau.is_finite:
            return self.base.range_sup
        return self.base.evaluate(self.tau)

    def _evaluate_finite(self, t: float) -> float:
        if self.tau.is_finite and t > self.tau.value:
            t = self.tau.value
        return self.base.evaluate(t)

    def evaluate_many(self, ts):
        ts = _check_nonnegative(ts, "times")
        if self.tau.is_finite:
            ts = np.minimum(ts, self.tau.value)
        return self.base.evaluate_many(ts)

    def inverse(self, s: float) -> TimePoint:
        s = _check_level(s)
        if s > self.range_sup:
            return INFINITY
        # Continuity of the base makes the level attained at or before tau.
        return self.base.inverse(s)

    def inverse_many(self, ss):
        ss = _check_nonnegative(ss)
        return np.where(ss > self.range_sup, math.inf, self.base.inverse_many(ss))


def time_change_check(A: Compensator, tau: TimeLike, s: float) -> bool:
    """Check both sides of the time-change identities at (tau, s).

    Indicator identity ``1{A^{-1}(s) >= tau} == 1{s >= A(tau)}`` is compared
    exactly; the value identity ``s ^ A(tau) == A(A^{-1}(s) ^ tau)`` within
    ``VALUE_TOLERANCE``.  Both hold almost surely for tau produced by the
    matching model; a tau planted inside a flat piece of A can break the
    indicator side.
    """
    tp = as_timepoint(tau)
    if not tp.is_finite:
        raise ValueError("time change check requires finite tau")
    if not tp > 0:
        raise ValueError("time change check requires tau > 0")
    s = _check_level(s)

    inv = A.inverse(s)
    a_tau = A.evaluate(tp)

    indicators_match = (inv >= tp) == (s >= a_tau)

    lhs = min(s, a_tau)
    rhs = A.evaluate(inv.min(tp))
    values_match = abs(lhs - rhs) <= VALUE_TOLERANCE

    return indicators_match and values_match


def load_tabulated_csv(path, extrapolation_slope: float | None = None) -> TabulatedCompensator:
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
    if all(v == 0.0 for v in values) and not (extrapolation_slope and extrapolation_slope > 0.0):
        raise ValueError("identically-zero compensator rejected (tau would be infinite)")
    return TabulatedCompensator(tuple(times), tuple(values), extrapolation_slope)
