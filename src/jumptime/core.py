"""Foundational value types shared by every other module.

Two things live here: model time with an explicit, tagged infinity
(``TimePoint``), and deterministic multi-stream randomness (``RngStream``).
Both are immutable values, safe to share between threads and to split
across replications by stream id.

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

import importlib.util
import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, total_ordering
from typing import Iterator, Union


def _import_lazily(name: str):
    """The module ``name``, executed on its first attribute access.

    An already imported module is returned as it is.  Otherwise the standard
    library's ``LazyLoader`` puts a stub in ``sys.modules`` whose first
    attribute access runs the import, so a command that never touches an
    array never pays for numpy.
    """
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


#: numpy, loaded on first array use; the package's other modules import it from here.
np = _import_lazily("numpy")

__all__ = [
    "INFINITY",
    "RngStream",
    "TimePoint",
    "TimeLike",
    "as_timepoint",
    "draw_exponential",
    "draw_exponentials",
    "exponential_blocks",
    "exponential_from_uniform",
]

# Smallest value the underlying 53-bit uniform generator can produce.
_MIN_UNIFORM = 2.0**-53


def _as_float(value, name: str | None = None) -> float:
    """float(value), with a number past the float range (a huge int or
    fraction) taken as the infinity of its sign.  Where infinity is itself a
    legal value, ``name`` is given and such a number is refused instead, with
    a ValueError that names it: read as infinity, a finite number would give a
    spurious infinite time.  No message prints the number."""
    try:
        return float(value)
    except OverflowError:
        if name is not None:
            raise ValueError(f"{name} is past the float range") from None
        return math.inf if value > 0 else -math.inf


def _as_floats(values) -> tuple[float, ...]:
    """``_as_float`` of each value, as a tuple, at C speed when none overflows."""
    if iter(values) is values:  # an iterator is read once, so keep its items
        values = tuple(values)
    try:
        return tuple(map(float, values))
    except OverflowError:
        return tuple(map(_as_float, values))


@total_ordering
class TimePoint:
    """A nonnegative model time, or the distinguished value +infinity.

    Infinity is a tagged value of this class, never a bare float: code that
    needs the numeric value must go through :attr:`value`, which refuses to
    hand out ``math.inf``.  Comparisons treat infinity as greater than every
    finite time; a NaN operand is not a time and cannot be ordered against
    one.  Instances are immutable.
    """

    __slots__ = ("_value",)

    def __init__(self, value: float):
        v = _as_float(value, "time")
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

    def _cmp_key(self, other) -> float:
        if isinstance(other, TimePoint):
            return other._value
        if isinstance(other, (int, float)) and other == other:
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


def _as_integer(value: int, name: str) -> int:
    """value as an int; refuses one that ``operator.index`` does not take."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_seed(value: int, name: str = "seed") -> int:
    """value as an int; refuses a seed or stream id that is not an integer in [0, 2**64)."""
    value = _as_integer(value, name)
    if not 0 <= value < 2**64:
        raise ValueError(f"{name} must be a 64-bit unsigned integer")
    return value


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
        _check_seed(self.stream_id, "stream_id")

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
# The constants are Python ints: under NEP 50 an int that fits takes the
# uint64 array's type, so the arithmetic below stays in wrapping uint64.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_LOW32 = 0xFFFFFFFF

#: Stream ids per vectorised pass; keeps the temporaries to a few MB.
_DRAW_BLOCK = 16384


def _mulhi(m: int, x: np.ndarray) -> np.ndarray:
    """High 64-bit halves of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = m & _LOW32, m >> 32
    x_lo, x_hi = x & _LOW32, x >> 32
    lo_lo = m_lo * x_lo
    hi_lo = m_hi * x_lo
    lo_hi = m_lo * x_hi
    cross = (lo_lo >> 32) + (hi_lo & _LOW32) + lo_hi
    return m_hi * x_hi + (hi_lo >> 32) + (cross >> 32)


def _philox_first_words(seed: int, stream_ids: np.ndarray) -> np.ndarray:
    """First output word of ``RngStream(seed, k)``'s generator for each id k.

    The key is ``(seed, k)``; the counter is ``(1, 0, 0, 0)``, because numpy
    bumps the counter before it computes its first block.  That counter makes
    every product of round 0 a constant, and round 1's product with word 0 a
    constant too, so rounds 0 and 1 are written out with one vector product.
    Round 9 needs only word 0, the high half of its one product.
    """
    ids = np.asarray(stream_ids, dtype=np.uint64)
    # After round 0 the counter is (seed, 0, ids, M0).  Round 1 multiplies
    # the scalar words seed and ids.
    p0 = _PHILOX_M0 * seed
    c0 = _mulhi(_PHILOX_M1, ids) ^ (seed + _PHILOX_W0) % 2**64
    c1 = _PHILOX_M1 * ids
    c2 = (ids + _PHILOX_W1) ^ ((p0 >> 64) ^ _PHILOX_M0)
    c3 = p0 % 2**64
    for r in range(2, 9):
        k0 = (seed + r * _PHILOX_W0) % 2**64
        k1 = ids + r * _PHILOX_W1 % 2**64
        hi0 = _mulhi(_PHILOX_M0, c0)
        hi1 = _mulhi(_PHILOX_M1, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, _PHILOX_M1 * c2, hi0 ^ c3 ^ k1, _PHILOX_M0 * c0
    return _mulhi(_PHILOX_M1, c2) ^ c1 ^ (seed + 9 * _PHILOX_W0) % 2**64


def _exponentials_from_words(words: np.ndarray) -> np.ndarray:
    """``exponential_from_uniform(1 - random())`` for each generator word.

    The log goes through ``math.log`` element by element: numpy's SIMD log
    differs from libm in the last bit on a few hundred per 1e5 inputs.
    """
    u = 1.0 - (words >> np.uint64(11)) * 2.0**-53
    u[u == 1.0] = _MIN_UNIFORM
    return -np.fromiter(map(math.log, u.tolist()), float, len(u))


def _check_count(n: int) -> int:
    """n as an int; refuses a count of stream ids that is not an integer in [0, 2**64]."""
    n = _as_integer(n, "n")
    if not 0 <= n <= 2**64:
        raise ValueError(f"n must lie in [0, 2**64], got {n}")
    return n


def exponential_blocks(seed: int, n: int) -> Iterator[np.ndarray]:
    """``draw_exponential(RngStream(seed, k))`` for k = 0..n-1, in blocks.

    Refuses a bad seed or count at once, before any block is asked for.
    Yields consecutive arrays of at most ``_DRAW_BLOCK`` draws, computing each
    block only when it is asked for, so memory stays flat in n.  Philox is
    counter-based, so each stream's first draw is a pure function of
    ``(seed, k)`` and a block of ids is computed without building a
    generator per id.
    """
    return _blocks(_check_seed(seed), _check_count(n))


def _blocks(seed: int, n: int) -> Iterator[np.ndarray]:
    for start in range(0, n, _DRAW_BLOCK):
        ids = np.arange(start, min(start + _DRAW_BLOCK, n), dtype=np.uint64)
        yield _exponentials_from_words(_philox_first_words(seed, ids))


def draw_exponentials(seed: int, n: int) -> np.ndarray:
    """``draw_exponential(RngStream(seed, k))`` for k = 0..n-1, bit for bit, as one array."""
    seed, n = _check_seed(seed), _check_count(n)
    if 8 * n > np.iinfo(np.intp).max:  # no array holds them: refused before numpy is asked
        raise MemoryError(f"n = {n} draws take {8 * n} bytes, more than an array can address")
    out = np.empty(n)
    start = 0
    for block in _blocks(seed, n):
        out[start : start + len(block)] = block
        start += len(block)
    return out
