"""Announcing sequences and the decreasing Y process for predictable times.

A predictable time tau is announced by stopping times tau_1 <= tau_2 <= ...
that stay strictly below tau and converge to it.  From an announcing
sequence, made strictly increasing by ``extract_strict_subsequence``, one
builds a continuous nonincreasing process Y with Y > 0 before tau and Y = 0
from tau on, so tau is exactly the first time Y hits zero.  Y is piecewise
linear with value 1/i at the (i-1)-th announcing time; a finite sequence of
m times is closed by one last linear segment from level 1/(m+1) down to zero
at the target.  ``YProcess`` holds those knots itself and states every check
on them, as a path and as a Y, in one place; between knots it takes the
tabulated compensator's segment rule.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import repeat

from .compensators import _segment
from .core import TimeLike, TimePoint, _as_float, _as_floats, as_timepoint

__all__ = [
    "GEOMETRIC",
    "HARMONIC",
    "AnnouncingSequence",
    "YProcess",
    "build_y_process",
    "extract_strict_subsequence",
    "make_announcing_sequence",
    "max_geometric_m",
    "y_hitting_time",
]

GEOMETRIC = "geometric"
HARMONIC = "harmonic"


@dataclass(frozen=True)
class AnnouncingSequence:
    """Finitely many times announcing a target from strictly below.

    ``times`` are nondecreasing and (for a positive target) all strictly less
    than ``target``; ``epsilon_announce`` is the gap the last one leaves.  The
    degenerate target 0 announces itself: times must be empty or all zero.
    """

    times: tuple[float, ...]
    target: float

    def __post_init__(self):
        target = _as_float(self.target)
        if math.isinf(target):
            raise ValueError("an infinite target has no finite announcing sequence")
        if math.isnan(target) or target < 0.0:
            raise ValueError(f"target must be a nonnegative real, got {target}")
        object.__setattr__(self, "target", target)

        times = _as_floats(self.times)
        object.__setattr__(self, "times", times)
        # Checked at C speed; the indexed loop only names the first bad time.
        if not (
            all(map(math.isfinite, times))
            and min(times, default=0.0) >= 0.0
            and all(map(operator.le, times, times[1:]))
        ):
            for i, t in enumerate(times):
                if not (math.isfinite(t) and t >= 0.0):
                    raise ValueError(f"announcing time {i} must be a finite nonnegative real")
                if i > 0 and t < times[i - 1]:
                    raise ValueError(f"announcing times must be nondecreasing at index {i}")

        if target == 0.0:
            if any(t != 0.0 for t in times):
                raise ValueError("target 0 admits only the all-zero announcing sequence")
            return

        if not times:
            raise ValueError("a positive target needs at least one announcing time")
        if times[-1] >= target:
            raise ValueError(
                f"announcing times must stay strictly below the target "
                f"({times[-1]} >= {target})"
            )

    @property
    def epsilon_announce(self) -> float:
        """Gap between the last announcing time and the target (0 for target 0)."""
        return self.target - self.times[-1] if self.target > 0.0 else 0.0

    def __len__(self) -> int:
        return len(self.times)


def extract_strict_subsequence(seq: AnnouncingSequence) -> AnnouncingSequence:
    """Keep the first time, then every time strictly above the last kept one.

    The result is strictly increasing, idempotent under repetition, and ends
    at the same maximum, so it announces the same target just as closely.
    A strictly increasing input is frozen and already valid, so it comes
    back itself.
    """
    times = seq.times
    if all(map(operator.lt, times, times[1:])):
        return seq
    kept: list[float] = []
    for t in times:
        if not kept or t > kept[-1]:
            kept.append(t)
    return AnnouncingSequence(tuple(kept), seq.target)


@dataclass(frozen=True)
class YProcess:
    """Continuous nonincreasing piecewise-linear path hitting zero exactly at its target.

    Knots are a strictly increasing sequence of times starting at 0 with one
    value each; between consecutive knots Y interpolates the two knot values
    exactly, and from the last knot on it holds that knot's value, 0.
    ``knot_levels`` (1/i at tau_{i-1} for a built Y) and ``target`` (the
    closing knot) are read off the knots.
    """

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        times = _as_floats(self.times)
        values = _as_floats(self.values)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if not times:
            raise ValueError("a path needs at least one knot")
        if len(values) != len(times):
            raise ValueError("times and values must have equal length")
        if times[0] != 0.0:
            raise ValueError(f"first knot must sit at time 0, got {times[0]}")
        # Checked at C speed; the indexed loop only names the first bad knot.
        if not all(map(operator.lt, times, times[1:])):
            for i in range(1, len(times)):
                if not times[i] > times[i - 1]:
                    raise ValueError(f"knot times must be strictly increasing at index {i}")
        if not (all(map(math.isfinite, times)) and all(map(math.isfinite, values))):
            raise ValueError("knot times and values must be finite")
        if min(values) < 0.0:
            raise ValueError("Y must be nonnegative")
        if not all(map(operator.ge, values, values[1:])):
            raise ValueError("Y must be nonincreasing")
        if values[-1] != 0.0:
            raise ValueError("Y must end at exactly 0")

    @property
    def knot_levels(self) -> tuple[float, ...]:
        return self.values[:-1]

    @property
    def target(self) -> TimePoint:
        return TimePoint(self.times[-1])

    def __call__(self, t: TimeLike) -> float:
        """Value at a finite time t."""
        tp = as_timepoint(t)
        if not tp.is_finite:
            raise ValueError("path evaluation requires a finite time")
        if tp.value >= self.times[-1]:
            return self.values[-1]
        return _segment(tp.value, self.times, self.values)

    def left_limit(self, t: TimeLike) -> float:
        """Limit from the left at a finite time t > 0: the value, as Y is continuous."""
        tp = as_timepoint(t)
        if not tp.is_finite:
            raise ValueError("left limit requires a finite time")
        if tp.value <= 0.0:
            raise ValueError("no left limit exists at time 0")
        return self(tp)


def build_y_process(seq: AnnouncingSequence) -> YProcess:
    """Piecewise-linear Y through (tau_{i-1}, 1/i), closed to 0 at the target.

    Knots: (0, 1), (tau_1, 1/2), ..., (tau_m, 1/(m+1)), (target, 0); the last
    segment is the finite-truncation closure of the infinite construction.
    The tau_i are the times of ``extract_strict_subsequence(seq)``; the first
    must be strictly positive.  A target of 0 yields the zero process.
    """
    if seq.target == 0.0:
        return YProcess((0.0,), (0.0,))

    times = extract_strict_subsequence(seq).times
    if times[0] <= 0.0:
        raise ValueError("the first announcing time must be strictly positive")

    knot_times = (0.0,) + times + (seq.target,)
    knot_values = tuple(map(operator.truediv, repeat(1.0), range(1, len(times) + 2))) + (0.0,)
    return YProcess(knot_times, knot_values)


def y_hitting_time(Y: YProcess) -> TimePoint:
    """First time Y reaches 0, read off the knots exactly (no grid search).

    A nonincreasing continuous piecewise-linear path first touches zero at
    the earliest knot with value zero; interior points of a segment ending
    above zero stay positive.  Y ends at 0, so that knot always exists.
    """
    return TimePoint(Y.times[Y.values.index(0.0)])


def max_geometric_m(target: float) -> int:
    """Largest m whose geometric times ``t - t * 2**-n``, n <= m, stay below t.

    Beyond it ``t * 2**-n`` is under half an ulp of t, so the time rounds to
    the target itself (m = 53 for target 1).
    """
    n = 1
    while target - target * 2.0**-n < target:
        n += 1
    return n - 1


def make_announcing_sequence(target: TimeLike, m: int, scheme: str) -> AnnouncingSequence:
    """Concrete announcing sequences for a finite positive target.

    GEOMETRIC: tau_n = target * (1 - 2**-n), closing gap target * 2**-m;
               m may not exceed ``max_geometric_m(target)``.
    HARMONIC:  tau_n = target * n / (n + 1), closing gap target / (m + 1).
    """
    tp = as_timepoint(target)
    if not tp.is_finite:
        raise ValueError("an infinite target has no finite announcing sequence")
    t = tp.value
    if t <= 0.0:
        raise ValueError(f"target must be positive, got {t}")
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if scheme == GEOMETRIC:
        limit = max_geometric_m(t)
        if m > limit:
            raise ValueError(
                f"m must be at most {limit} for target {t} with the geometric scheme, "
                f"got {m}: t - t * 2**-{limit + 1} rounds to the target"
            )
        times = tuple(t - t * 2.0**-n for n in range(1, m + 1))
    elif scheme == HARMONIC:
        # Where t * m overflows, dividing t by 2**64 is exact and rounds the same way.
        scale = 1.0 if t * m < math.inf else 2.0**64
        times = tuple(t / scale * n / (n + 1) * scale for n in range(1, m + 1))
    else:
        raise ValueError(f"unknown scheme {scheme!r}; use {GEOMETRIC!r} or {HARMONIC!r}")
    return AnnouncingSequence(times, t)
