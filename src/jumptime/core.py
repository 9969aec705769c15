"""Foundational value types shared by every other module.

Three things live here: model time with an explicit, tagged infinity
(``TimePoint``), right-continuous piecewise paths (``CadlagPath``), and
deterministic multi-stream randomness (``RngStream``).  Everything is an
immutable value, safe to share between threads and to split across
replications by stream id.

``RngStream`` is the scalar reference: one numpy Philox4x64-10 generator keyed
by ``(seed, stream_id)``.  ``exponential_blocks`` is a pure-numpy port of the
same generator's first output word (Salmon, Moraes, Dror & Shaw, "Parallel
Random Numbers: As Easy as 1, 2, 3", SC'11) that yields the first Exp(1)
draw of streams 0..n-1 in vectorised blocks, bit for bit equal to
``draw_exponential(RngStream(seed, k))``: the 128-bit products come from
32-bit halves, and the log is libm's, element by element.  The streaming
Cox sampler consumes the blocks one at a time; ``draw_exponentials`` gathers
them into one array for the verifiers.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Union

import numpy as np

__all__ = [
    "CONSTANT",
    "INFINITY",
    "LINEAR",
    "CadlagPath",
    "RngStream",
    "TimePoint",
    "TimeLike",
    "as_timepoint",
    "draw_exponential",
    "draw_exponentials",
    "exponential_blocks",
    "exponential_from_uniform",
]

# Segment kinds of a CadlagPath.
CONSTANT = "constant"
LINEAR = "linear"

# Smallest value the underlying 53-bit uniform generator can produce.
_MIN_UNIFORM = 2.0**-53


class TimePoint:
    """A nonnegative model time, or the distinguished value +infinity.

    Infinity is a tagged value of this class, never a bare float: code that
    needs the numeric value must go through :attr:`value`, which refuses to
    hand out ``math.inf``.  Comparisons treat infinity as greater than every
    finite time.  Instances are immutable.
    """

    __slots__ = ("_value",)

    def __init__(self, value: float):
        v = float(value)
        if math.isnan(v):
            raise ValueError("time must not be NaN")
        if v < 0.0:
            raise ValueError(f"time must be nonnegative, got {v}")
        object.__setattr__(self, "_value", v)

    def __setattr__(self, name, val):  # pragma: no cover - guard only
        raise AttributeError("TimePoint is immutable")

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self._value)

    @property
    def value(self) -> float:
        """The finite numeric value; raises on the infinite time."""
        if not math.isfinite(self._value):
            raise ValueError("the infinite time has no finite value")
        return self._value

    def min(self, other: "TimeLike") -> "TimePoint":
        other = as_timepoint(other)
        return self if self._value <= other._value else other

    def _cmp_key(self, other) -> float:
        if isinstance(other, TimePoint):
            return other._value
        if isinstance(other, (int, float)):
            return float(other)
        return NotImplemented

    def __eq__(self, other):
        key = self._cmp_key(other)
        if key is NotImplemented:
            return NotImplemented
        return self._value == key

    def __lt__(self, other):
        key = self._cmp_key(other)
        if key is NotImplemented:
            return NotImplemented
        return self._value < key

    def __le__(self, other):
        key = self._cmp_key(other)
        if key is NotImplemented:
            return NotImplemented
        return self._value <= key

    def __gt__(self, other):
        key = self._cmp_key(other)
        if key is NotImplemented:
            return NotImplemented
        return self._value > key

    def __ge__(self, other):
        key = self._cmp_key(other)
        if key is NotImplemented:
            return NotImplemented
        return self._value >= key

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        if not self.is_finite:
            return "TimePoint.INFINITY"
        return f"TimePoint({self._value!r})"


INFINITY = TimePoint(math.inf)

TimeLike = Union[TimePoint, float, int]


def as_timepoint(t: TimeLike) -> TimePoint:
    """Coerce a number into a TimePoint; float infinity maps to INFINITY."""
    if isinstance(t, TimePoint):
        return t
    return TimePoint(t)


@dataclass(frozen=True)
class CadlagPath:
    """A right-continuous piecewise path with left limits.

    Knots are a strictly increasing sequence of times starting at 0 with one
    value each; between consecutive knots the path is either CONSTANT (holds
    the left knot's value, jumping at the right knot) or LINEAR (exact
    interpolation between the two knot values, hence continuous there).  On
    ``[last knot, infinity)`` the path holds the last knot's value.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]
    kinds: tuple[str, ...]

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        values = tuple(float(v) for v in self.values)
        kinds = tuple(self.kinds)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "kinds", kinds)
        if not times:
            raise ValueError("a path needs at least one knot")
        if len(values) != len(times):
            raise ValueError("times and values must have equal length")
        if len(kinds) != len(times) - 1:
            raise ValueError("need exactly one segment kind per inter-knot interval")
        if times[0] != 0.0:
            raise ValueError(f"first knot must sit at time 0, got {times[0]}")
        for i in range(1, len(times)):
            if not times[i] > times[i - 1]:
                raise ValueError(f"knot times must be strictly increasing at index {i}")
        for t, v in zip(times, values):
            if not (math.isfinite(t) and math.isfinite(v)):
                raise ValueError("knot times and values must be finite")
        for k in kinds:
            if k not in (CONSTANT, LINEAR):
                raise ValueError(f"unknown segment kind {k!r}")

    @property
    def terminal_value(self) -> float:
        """Value held on [last knot, infinity)."""
        return self.values[-1]

    @classmethod
    def step(cls, jump_time: TimeLike) -> "CadlagPath":
        """The path equal to 0 on [0, jump_time) and 1 afterwards."""
        jt = as_timepoint(jump_time)
        if not jt.is_finite:
            return cls((0.0,), (0.0,), ())
        if jt.value == 0.0:
            return cls((0.0,), (1.0,), ())
        return cls((0.0, jt.value), (0.0, 1.0), (CONSTANT,))

    @classmethod
    def constant(cls, value: float) -> "CadlagPath":
        return cls((0.0,), (float(value),), ())

    @classmethod
    def piecewise_linear(cls, times, values) -> "CadlagPath":
        times = tuple(times)
        return cls(times, tuple(values), (LINEAR,) * (len(times) - 1))

    def evaluate(self, t: TimeLike) -> float:
        """Right-continuous value at a finite time t."""
        tp = as_timepoint(t)
        if not tp.is_finite:
            raise ValueError("path evaluation requires a finite time")
        tv = tp.value
        i = bisect_right(self.times, tv) - 1
        if i >= len(self.times) - 1:
            return self.values[-1]
        if self.kinds[i] == CONSTANT:
            return self.values[i]
        t0, t1 = self.times[i], self.times[i + 1]
        v0, v1 = self.values[i], self.values[i + 1]
        return v0 + (tv - t0) * (v1 - v0) / (t1 - t0)

    def left_limit(self, t: TimeLike) -> float:
        """Limit from the left at a finite time t > 0."""
        tp = as_timepoint(t)
        if not tp.is_finite:
            raise ValueError("left limit requires a finite time")
        tv = tp.value
        if tv <= 0.0:
            raise ValueError("no left limit exists at time 0")
        i = bisect_left(self.times, tv)
        if i >= len(self.times):
            return self.values[-1]
        if self.times[i] == tv:
            # t is a knot: the limit comes from the segment ending here.
            if self.kinds[i - 1] == CONSTANT:
                return self.values[i - 1]
            return self.values[i]
        # strictly inside a segment, where the path is continuous
        return self.evaluate(tv)

    def __call__(self, t: TimeLike) -> float:
        return self.evaluate(t)


def _check_seed(seed: int) -> None:
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must be a 64-bit unsigned integer")


@dataclass(frozen=True)
class RngStream:
    """One reproducible random stream out of a keyed family.

    The pair ``(seed, stream_id)`` keys a Philox counter-based generator, so
    identical pairs replay identical variate sequences on every platform and
    distinct stream ids are independent streams.  Split work by stream id;
    never share one stream between threads.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if not 0 <= int(self.stream_id) < 2**64:
            raise ValueError("stream_id must be a nonnegative 64-bit integer")

    @cached_property
    def _generator(self) -> np.random.Generator:
        key = int(self.seed) + (int(self.stream_id) << 64)
        return np.random.Generator(np.random.Philox(key=key))

    def uniform_open(self) -> float:
        """Next uniform variate on (0, 1]."""
        return 1.0 - self._generator.random()


def exponential_from_uniform(u: float) -> float:
    """Inverse-transform map from a uniform on (0, 1] to an Exp(1) variate.

    The boundary u = 1 (which would give 0) is remapped to the smallest
    representable positive uniform, so the result is always positive and
    finite.
    """
    if not 0.0 < u <= 1.0:
        raise ValueError(f"uniform draw must lie in (0, 1], got {u}")
    if u == 1.0:
        u = _MIN_UNIFORM
    return -math.log(u)


def draw_exponential(stream: RngStream) -> float:
    """Draw the next Exp(1) variate from the stream."""
    return exponential_from_uniform(stream.uniform_open())


# Philox4x64-10 (Salmon, Moraes, Dror & Shaw, SC'11), as numpy implements it.
_PHILOX_M0 = np.uint64(0xD2E7470EE14C6C93)
_PHILOX_M1 = np.uint64(0xCA5A826395121157)
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)

#: Stream ids per vectorised pass; keeps the temporaries to a few MB.
_DRAW_BLOCK = 16384


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit halves of the 128-bit products m * x."""
    m_lo, m_hi = m & _LOW32, m >> _SHIFT32
    x_lo, x_hi = x & _LOW32, x >> _SHIFT32
    lo_lo = m_lo * x_lo
    hi_lo = m_hi * x_lo
    lo_hi = m_lo * x_hi
    cross = (lo_lo >> _SHIFT32) + (hi_lo & _LOW32) + lo_hi
    hi = m_hi * x_hi + (hi_lo >> _SHIFT32) + (cross >> _SHIFT32)
    return hi, m * x


def _philox_first_words(seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """First output word of ``RngStream(seed, k)``'s generator for each id k.

    The key is ``(seed, k)``; the counter is ``(1, 0, 0, 0)``, because numpy
    bumps the counter before it computes its first block.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    zeros = np.zeros_like(ids)
    c0, c1, c2, c3 = np.ones_like(ids), zeros, zeros, zeros
    for r in range(10):
        k0 = np.uint64((seed + r * _PHILOX_W0) % 2**64)
        k1 = ids + np.uint64(r * _PHILOX_W1 % 2**64)
        hi0, lo0 = _mulhilo(_PHILOX_M0, c0)
        hi1, lo1 = _mulhilo(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return c0


def _exponentials_from_words(words: np.ndarray) -> np.ndarray:
    """``exponential_from_uniform(1 - random())`` for each generator word.

    The log goes through ``math.log`` element by element: numpy's SIMD log
    differs from libm in the last bit on a few hundred per 1e5 inputs.
    """
    u = 1.0 - (words >> np.uint64(11)) * 2.0**-53
    u[u == 1.0] = _MIN_UNIFORM
    return -np.fromiter(map(math.log, u.tolist()), float, len(u))


def exponential_blocks(seed: int, n: int) -> Iterator[np.ndarray]:
    """``draw_exponential(RngStream(seed, k))`` for k = 0..n-1, in blocks.

    Yields consecutive arrays of at most ``_DRAW_BLOCK`` draws, computing each
    block only when it is asked for, so memory stays flat in n.  Philox is
    counter-based, so each stream's first draw is a pure function of
    ``(seed, k)`` and a block of ids is computed without building a
    generator per id.
    """
    _check_seed(seed)
    for start in range(0, n, _DRAW_BLOCK):
        ids = np.arange(start, min(start + _DRAW_BLOCK, n), dtype=np.uint64)
        yield _exponentials_from_words(_philox_first_words(int(seed), ids))


def draw_exponentials(seed: int, n: int) -> np.ndarray:
    """``draw_exponential(RngStream(seed, k))`` for k = 0..n-1, bit for bit, as one array."""
    out = np.empty(n)
    start = 0
    for block in exponential_blocks(seed, n):
        out[start : start + len(block)] = block
        start += len(block)
    return out
