"""Compensators: nondecreasing continuous A with A(0) = 0.

A compensator can be evaluated and inverted through the generalized inverse
``A^{-1}(s) = inf{t >= 0 : A(t) >= s}`` (the left edge of any flat piece;
infinity when the level is never reached).

Each class is a frozen dataclass whose fields are its parameters, and states
its math once: two scalar methods, ``_evaluate_finite`` (A at a finite time)
and ``_inverse_finite`` (tau as a float, inf when the level is never reached
or tau is past the float range), and ``_inverse_text``, the inverse formula
that the overflow error shows, such as ``"level {s} / rate {rate}"``.
``Compensator`` builds the rest:

- ``__post_init__`` checks every field with the one parameter rule,
  ``_check_parameter`` (Tabulated keeps its own knot and slope rules);
  ``range_sup`` is inf unless a bounded class overrides it; and
  ``_overflow`` is the error that names the level and the parameters.
- ``evaluate`` and ``inverse`` check their argument.  ``inverse`` holds the
  overflow rule: a level below ``range_sup`` is reached at a finite time, so
  an infinite tau there overflowed and raises ``_overflow``; any other
  infinite tau is INFINITY.  ``first_overflow`` is the same rule for arrays.
  ``evaluate`` holds its mirror: A at a finite time is finite, so an A that
  computes to inf there (only an unbounded one can) overflowed and raises
  ``_value_overflow``, which names the time.  ``_finite_values`` is that rule
  for arrays, and every array evaluation goes through it.
- ``evaluate_exact`` and ``inverse_exact`` map the scalar formulas element by
  element, so they carry the scalar bits (inf for INFINITY and for overflow).
- ``evaluate_many`` is ``evaluate_exact``, and ``inverse_many`` is
  ``inverse_exact`` plus ``inverse``'s refusal to overflow.

A class overrides an array method only where numpy may stand in.  Linear and
tabulated use only correctly rounded ``+ - * /``, so numpy gives their
``*_exact`` columns with the scalar bits.  A tabulated compensator builds its
knot arrays once, on its first array call, so a command that maps nothing
never loads numpy.  Its array forms interpolate every element on the segment
a search finds, then mend the rare elements by index: a knot hit (the left
edge of a flat, for a level), a zero level, and a time or level at or past
the last knot.  The segment search (``_KnotSearch``, built with the knot
arrays) starts each key at its equal-width bucket's first knot and steps to
``np.searchsorted``'s exact index, handing the few keys still unplaced to
``np.searchsorted``, so unsorted keys cost a few array passes rather than a
branchy binary search each.  Power keeps numpy
``evaluate_many``/``inverse_many`` for the verifiers, whose report bytes
depend on them: numpy's pow differs from libm's in the last bit, and an
overflowed tau comes back as inf.  Saturating has no numpy twin, so every
array form of it carries the scalar bits on every host.

The module also provides a CSV loader for tabulated compensators.
"""

from __future__ import annotations

import abc
import csv
import math
import numbers
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from functools import cached_property

from .core import INFINITY, TimeLike, TimePoint, _as_float, _as_floats, as_timepoint, np

__all__ = [
    "Compensator",
    "LinearCompensator",
    "PowerCompensator",
    "SaturatingExpCompensator",
    "TabulatedCompensator",
    "load_tabulated_csv",
]

_UNBOUNDED_AT_INFINITY = "A(infinity) is undefined for an unbounded compensator"


def _value_overflow(t: float) -> OverflowError:
    """The error for a finite time whose A(t) is finite but past the float range."""
    return OverflowError(f"compensator value overflows a float at time {t}")


class Compensator(abc.ABC):
    """Shared contract: A(0) = 0, nondecreasing, continuous."""

    #: Supremum of A over [0, infinity); a bounded class overrides it.
    range_sup: float = math.inf

    #: The inverse formula that ``_overflow`` names, formatted with the level
    #: as ``s`` and each dataclass field by its name.
    _inverse_text: str

    def __post_init__(self):
        """Every dataclass field is a parameter that ``_check_parameter`` admits."""
        for field in fields(self):
            value = _check_parameter(getattr(self, field.name), field.name)
            object.__setattr__(self, field.name, value)

    @abc.abstractmethod
    def _evaluate_finite(self, t: float) -> float:
        """A(t) at a time t < inf, inf where it overflows; at inf a bounded A's
        formula gives range_sup."""

    @abc.abstractmethod
    def _inverse_finite(self, s: float) -> float:
        """tau at a checked level: inf when s is never reached or tau overflows."""

    def _overflow(self, s: float) -> OverflowError:
        """The error for a level whose tau is finite but past the float range."""
        params = {field.name: getattr(self, field.name) for field in fields(self)}
        inverse = self._inverse_text.format(s=s, **params)
        return OverflowError(f"jump time overflows a float: {inverse}")

    def evaluate(self, t: TimeLike) -> float:
        """A(t); A(infinity) is range_sup and requires it to be finite."""
        tp = as_timepoint(t)
        if not tp.is_finite:
            if math.isinf(self.range_sup):
                raise ValueError(_UNBOUNDED_AT_INFINITY)
            return self.range_sup
        a = self._evaluate_finite(tp.value)
        if math.isinf(a):
            raise _value_overflow(tp.value)
        return a

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
        return self._finite_values(
            ts, np.fromiter(map(self._evaluate_finite, ts.tolist()), float, len(ts))
        )

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

    @staticmethod
    def _finite_values(ts: np.ndarray, values: np.ndarray) -> np.ndarray:
        """``values``, A at ``ts``, raising ``evaluate``'s OverflowError at the
        first time where A computed to inf: ``evaluate``'s rule for arrays."""
        overflowed = np.isinf(values)
        if overflowed.any():
            raise _value_overflow(float(np.ravel(ts)[overflowed.argmax()]))
        return values

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
    s = _as_float(s, "level")
    if math.isnan(s) or s < 0.0:
        raise ValueError(f"level must be a nonnegative real, got {s}")
    return s


def _check_parameter(value, name: str) -> float:
    """A model parameter as a float: a real number, not a bool, whose float is
    positive and finite.  numpy's integer and float scalars count as real
    numbers.  The message shows the float, so a huge int is never printed."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    x = _as_float(value)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x}")
    return x


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

    _inverse_text = "level {s} / rate {rate}"

    def _evaluate_finite(self, t: float) -> float:
        return self.rate * t

    def _inverse_finite(self, s: float) -> float:
        return s / self.rate

    def evaluate_exact(self, ts):
        ts = self._check_times(ts)
        with np.errstate(over="ignore"):
            return self._finite_values(ts, self.rate * ts)

    def inverse_exact(self, ss):
        with np.errstate(over="ignore"):
            return _check_nonnegative(ss) / self.rate


@dataclass(frozen=True)
class PowerCompensator(Compensator):
    """A(t) = t ** exponent, exponent > 0."""

    exponent: float

    _inverse_text = "level {s} ** (1 / exponent {exponent:g})"

    def _evaluate_finite(self, t: float) -> float:
        try:
            return t**self.exponent
        except OverflowError:
            return math.inf

    def _inverse_finite(self, s: float) -> float:
        try:
            return s ** (1.0 / self.exponent)
        except OverflowError:
            return math.inf

    # numpy's pow differs from libm's in the last bit (on about 80 of 1e5
    # draws at exponent 2, inverse and evaluate alike), so only the
    # verifiers' ``*_many`` use it; ``*_exact`` map the scalar formulas.

    def evaluate_many(self, ts):
        ts = self._check_times(ts)
        with np.errstate(over="ignore"):
            return self._finite_values(ts, ts**self.exponent)

    def inverse_many(self, ss):
        # Small exponents overflow to inf; callers that need tau < inf check for it.
        with np.errstate(over="ignore"):
            return _check_nonnegative(ss) ** (1.0 / self.exponent)


@dataclass(frozen=True)
class SaturatingExpCompensator(Compensator):
    """A(t) = limit * (1 - exp(-rate * t)): bounded, so high levels are never hit."""

    limit: float = 1.0
    rate: float = 1.0

    _inverse_text = "-log1p(-level {s} / limit {limit}) / rate {rate}"

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


def _segment(x: float, xs: tuple[float, ...], ys: tuple[float, ...]) -> float:
    """The path through the knots (xs, ys) at x, for xs[0] <= x < xs[-1]: the
    knot value where x is a knot, else ``_lerp`` on the segment holding x."""
    i = bisect_right(xs, x) - 1
    if x == xs[i]:
        return ys[i]
    return _lerp(x, xs[i], xs[i + 1], ys[i], ys[i + 1])


def _lerp_many(x, x0, x1, y0, y1) -> np.ndarray:
    """Array twin of ``_lerp``; a zero-width segment gives nan or inf, for the caller to mend."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        step = (x - x0) * (y1 - y0)
        wide = np.flatnonzero(np.isinf(step))
        out = np.add(y0, np.divide(step, x1 - x0, out=step), out=step)
        if wide.size:
            x, x0, x1, y0, y1 = x[wide], x0[wide], x1[wide], y0[wide], y1[wide]
            out[wide] = y0 + (x - x0) / (x1 - x0) * (y1 - y0)
    return out


class _KnotSearch:
    """``np.searchsorted(knots, keys, side)`` for one sorted knot array, by bucket.

    The knots' range is cut into two equal-width buckets per knot.  A key
    starts at the first knot whose bucket is not below its own, found with
    the same float formula for knots and keys, so that start is never past
    the exact index; it then steps over the knots it has passed, at most
    ``STEPS`` times.  Keys that still moved on the last step go to
    ``np.searchsorted``.  Either way the result is searchsorted's index.
    """

    STEPS = 2

    def __init__(self, knots: np.ndarray, side: str):
        self.knots, self.side = knots, side
        # A knot at index m is NaN, which no key passes.
        self._padded = np.append(knots, np.nan)
        self._passed = np.less if side == "left" else np.less_equal
        if knots.size:
            self._lo, self._hi = float(knots[0]), float(knots[-1])
            buckets = 2 * knots.size
            scale = buckets / (self._hi - self._lo) if self._hi > self._lo else 0.0
            self._scale = scale if math.isfinite(scale) else 0.0
            # first[b] counts the knots in buckets below b; a key at hi lands in bucket ``buckets``.
            self._first = np.searchsorted(self._bucket(knots), np.arange(buckets + 1))

    def _bucket(self, keys: np.ndarray) -> np.ndarray:
        """Bucket of each key: nondecreasing in the key, +inf included."""
        b = np.clip(keys, self._lo, self._hi)
        b -= self._lo
        b *= self._scale
        return b.astype(np.intp)

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        if not self.knots.size:
            return np.zeros(keys.shape, np.intp)
        idx = self._first[self._bucket(keys)]
        for _ in range(self.STEPS):
            moved = self._passed(self._padded[idx], keys)
            idx += moved
        rest = np.flatnonzero(moved)
        if rest.size:
            idx[rest] = np.searchsorted(self.knots, keys[rest], side=self.side)
        return idx


class _KnotError(ValueError):
    """A knot that breaks a table's invariants: "knot i: reason"."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"knot {index}: {reason}")
        self.index = index
        self.reason = reason


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

    _inverse_text = "level {s} / extrapolation slope {extrapolation_slope}"

    def __post_init__(self):
        times = _as_floats(self.times)
        values = _as_floats(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if len(times) < 2:
            raise ValueError("a tabulated compensator needs at least two knots")
        if len(values) != len(times):
            raise ValueError("times and values must have equal length")
        bad = _first_bad_knot(times, values)
        if bad is not None:
            raise _KnotError(*bad)
        slope = 0.0 if self.extrapolation_slope is None else _as_float(self.extrapolation_slope)
        if not (math.isfinite(slope) and slope >= 0.0):
            raise ValueError("extrapolation slope must be finite and nonnegative")
        object.__setattr__(self, "extrapolation_slope", slope)

    @property
    def range_sup(self) -> float:
        return math.inf if self.extrapolation_slope > 0.0 else self.values[-1]

    def _evaluate_finite(self, t: float) -> float:
        if t >= self.times[-1]:
            return self.values[-1] + self.extrapolation_slope * (t - self.times[-1])
        return _segment(t, self.times, self.values)

    def _inverse_finite(self, s: float) -> float:
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

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        """The knot times and values as arrays, built on the first array call."""
        return np.array(self.times), np.array(self.values)

    @cached_property
    def _segments(self) -> tuple[_KnotSearch, _KnotSearch]:
        """Segment searches over the inner knots: times (side right), then values (side left)."""
        times, values = self._knots
        return _KnotSearch(times[1:-1], "right"), _KnotSearch(values[1:-1], "left")

    def evaluate_exact(self, ts):
        ts = self._check_times(ts)
        times, values = self._knots
        # i indexes the segment [times[i], times[i + 1]] holding t.
        i = self._segments[0](ts)
        t0, v0 = times[i], values[i]
        out = _lerp_many(ts, t0, times[1:][i], v0, values[1:][i])
        hit = np.flatnonzero(ts == t0)
        out[hit] = v0[hit]
        tail = np.flatnonzero(ts >= times[-1])
        slope = self.extrapolation_slope
        # A bounded table's tail is its last value, at +inf too (0 * inf is nan).
        with np.errstate(over="ignore"):
            out[tail] = values[-1] + slope * (ts[tail] - times[-1]) if slope > 0.0 else values[-1]
        return self._finite_values(ts, out)

    def inverse_exact(self, ss):
        ss = _check_nonnegative(ss)
        times, values = self._knots
        # j indexes the segment [values[j], values[j + 1]] whose top is the
        # first knot value at or above s.
        j = self._segments[1](ss)
        t1, v1 = times[1:][j], values[1:][j]
        out = _lerp_many(ss, values[j], v1, times[j], t1)
        # First knot attaining the level: the exact left edge of any flat.
        hit = np.flatnonzero(v1 == ss)
        out[hit] = t1[hit]
        out[np.flatnonzero(ss == 0.0)] = 0.0
        above = np.flatnonzero(ss > values[-1])
        slope = self.extrapolation_slope
        with np.errstate(over="ignore"):
            out[above] = times[-1] + (ss[above] - values[-1]) / slope if slope > 0.0 else math.inf
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
    if len(times) < 2:
        raise ValueError("table needs at least two data rows")
    try:
        A = TabulatedCompensator(tuple(times), tuple(values), extrapolation_slope)
    except _KnotError as bad:
        raise ValueError(f"row {rows[bad.index]}: {bad.reason}") from None
    if A.range_sup == 0.0:
        raise ValueError("identically-zero compensator rejected (tau would be infinite)")
    return A
