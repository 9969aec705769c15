"""The Cox construction: jump times from a compensator and an Exp(1) level.

Given a compensator A and an independent draw Z ~ Exp(1), the constructed
time is tau = inf{t >= 0 : A(t) >= Z}.  Feeding A(tau) back through the same
infimum returns tau itself (the round trip), and A(tau) recovers Z whenever
tau is finite, because a continuous A attains the level it crosses.

``cox_sample`` draws one level from one ``RngStream``, the scalar reference.
``write_cox_rows`` writes the same samples for stream ids 0..n-1 as
``cox-demo``'s rows.  It takes its levels from ``exponential_blocks``
(vectorised Philox blocks) and maps each block through ``A.inverse_exact``
and ``A.evaluate_exact``, the array forms of the scalar ``A.inverse`` and
``A.evaluate`` with the same bits, so its rows agree with ``cox_sample`` bit
for bit.  ``CoxSample.to_json_dict`` is the reference form of a row, and
``_COX_FORMATS`` holds the same row as the literal text between its fields.
The rows are rendered in numpy, a few thousand at a time, into one byte
matrix: ``_float_text`` gives each float's ``repr`` with integer operations
only (Schubfach's shortest digits, changed to match CPython), the literal
text and the stream ids sit in fixed-width fields, and dropping the padding
leaves the bytes that ``json.dumps`` or ``csv.writer`` would write.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .compensators import Compensator
from .core import (
    RngStream,
    TimeLike,
    TimePoint,
    _mulhi,
    as_timepoint,
    draw_exponential,
    exponential_blocks,
    np,
)

__all__ = [
    "CoxSample",
    "cox_round_trip",
    "cox_sample",
    "cox_time",
    "write_cox_rows",
]


@dataclass(frozen=True)
class CoxSample:
    """One constructed jump time with its draw and provenance.

    When tau is finite, a_at_tau equals z up to roundoff; when the level z
    exceeds the compensator's supremum, tau is infinite and a_at_tau is that
    supremum.
    """

    z: float
    tau: TimePoint
    a_at_tau: float
    stream: RngStream

    def to_json_dict(self) -> dict:
        return {
            "z": self.z,
            "tau": self.tau.value if self.tau.is_finite else "infinity",
            "a_at_tau": self.a_at_tau,
            "seed": str(self.stream.seed),
            "stream_id": self.stream.stream_id,
        }


#: ``to_json_dict``'s rows as ``write_cox_rows`` writes them, per format: the
#: header; the literal text before z, tau, a_at_tau and the stream id and
#: after the stream id, with SEED still to be filled in (a decimal integer
#: needs no JSON escaping or CSV quoting); and an infinite tau.  The floats
#: are written as their ``repr``, which is what ``json.dumps`` and
#: ``csv.writer`` emit for finite floats; z and a_at_tau are always finite
#: (a_at_tau is z up to roundoff, or the compensator's finite supremum when
#: tau is infinite).
_COX_FORMATS = {
    "json": (
        "",
        ('{"z": ', ', "tau": ', ', "a_at_tau": ', ', "seed": "SEED", "stream_id": ', "}\n"),
        '"infinity"',
    ),
    "csv": ("z,tau,a_at_tau,seed,stream_id\n", ("", ",", ",", ",SEED,", "\n"), "infinity"),
}

#: Rows rendered at a time: a draw block is written in parts of this many
#: rows, which keeps the renderer's arrays to a few MB.
_RENDER_ROWS = 2048


def cox_time(A: Compensator, z: float) -> TimePoint:
    """tau = inf{t >= 0 : A(t) >= z}; INFINITY when the level is never reached."""
    z = float(z)
    if math.isnan(z) or z <= 0.0:
        raise ValueError(f"the exponential level must be positive, got {z}")
    return A.inverse(z)


def cox_sample(A: Compensator, stream: RngStream) -> CoxSample:
    """Draw Z ~ Exp(1) from the stream and build the jump time."""
    z = draw_exponential(stream)
    tau = cox_time(A, z)
    return CoxSample(z=z, tau=tau, a_at_tau=A.evaluate(tau), stream=stream)


def write_cox_rows(fh, A: Compensator, seed: int, n: int, fmt: str) -> None:
    """Write ``cox_sample(A, RngStream(seed, k)).to_json_dict()`` for k < n as ``fmt`` rows.

    Each block of ``exponential_blocks`` is mapped through ``A.inverse_exact``
    and ``A.evaluate_exact``, then rendered ``_RENDER_ROWS`` rows at a time by
    ``_RowLayout.render`` and handed to ``fh.write`` as one string, so memory
    stays flat in n.  A block that holds a level whose jump time overflows a
    float is cut before that level; the rows before it are written, then that
    level's ``OverflowError`` is raised, as ``cox_sample`` would raise it.  An
    unknown format, a bad seed and a bad n are refused before anything is
    written.
    """
    if fmt not in _COX_FORMATS:
        raise ValueError(f"format must be one of {', '.join(_COX_FORMATS)}, got {fmt!r}")
    header, literals, infinity = _COX_FORMATS[fmt]
    blocks = exponential_blocks(seed, n)
    layout = _RowLayout(literals, str(seed), infinity, n)
    fh.write(header)
    start = 0
    for draws in blocks:
        taus = A.inverse_exact(draws)
        stop = A.first_overflow(draws, taus)  # None slices the whole block
        levels, taus = draws[:stop], taus[:stop]
        a_taus = A.evaluate_exact(taus)
        for i in range(0, len(levels), _RENDER_ROWS):
            part = slice(i, i + _RENDER_ROWS)
            fh.write(layout.render(start + i, levels[part], taus[part], a_taus[part]))
        start += len(levels)
        if stop is not None:
            raise A._overflow(float(draws[stop]))


def cox_round_trip(A: Compensator, tau: TimeLike) -> TimePoint:
    """inf{t >= 0 : A(t) >= A(tau)}.

    Equals tau for any tau produced by the Cox construction from A (or by a
    model whose compensator is A); a tau planted strictly inside a flat piece
    of A comes back at the left edge instead.  Verifying the provenance of
    tau is the caller's job.
    """
    tp = as_timepoint(tau)
    if not tp.is_finite:
        raise ValueError("round trip requires finite tau")
    return A.inverse(A.evaluate(tp))


# --------------------------------------------------------------------------
# Rendering rows with integer numpy operations
#
# A float's text is laid out in 6 uint64 words of fixed slots, NUL where the
# value puts no character, so that dropping every NUL byte leaves its repr:
#
#   word 0     bytes 0-5: the sign, then "0." and up to three zeros for
#              1e-4 <= |x| < 1; bytes 6-7: the first digit slot and its point
#   words 1-4  the other 16 digit slots, each followed by a slot for the point
#   word 5     the "0" of a whole number's ".0", or the exponent "e+dd"
#
# Five words hold 20 digit slots, four per word; a significand is below 10^17,
# so the first three are always empty, and the sign and "0.000" take their place.
#
# The digits are x's shortest round-trip significand, right-aligned, from
# Schubfach (Giulietti 2020, "The Schubfach way to render doubles") with two
# changes that give CPython's repr instead of Java's Double.toString: no
# widening of the smallest subnormals to two digits, and the one-digit-shorter
# candidate tried from s >= 10, not s >= 100.  repr writes x = 0.d1...dn
# 10^point positionally when -4 < point <= 16 and with an exponent otherwise.

#: The decimal exponents k whose 10^-k Schubfach's table holds.
_K_MIN, _K_MAX = -324, 292
_LOW52 = 2**52 - 1
_LOW63 = 2**63 - 1
#: uint64 words per rendered float.
_FLOAT_WORDS = 6


def _flog2pow10(e):
    """floor(e log2(10)) for |e| <= 1233; an int or an int64 array."""
    return (e * 913124641741) >> 38


class _Tables(NamedTuple):
    g1: np.ndarray  # Schubfach's g = g1 2^63 + g0 for k = _K_MIN.._K_MAX
    g0: np.ndarray
    digits: np.ndarray  # per 0..9999, its 4 ASCII digits, each followed by 0xFF
    lead: np.ndarray  # per 0..9999, the zeros its 4 digits start with
    trail: np.ndarray  # per 0..9999, the zeros its 4 digits end with
    slots: np.ndarray  # (5, 20 * 21 * 21) words; see _slot_index
    prefix: np.ndarray  # per 5 * sign + i: "-" if sign, and "0." + "0" * (i - 1) if i
    suffix: np.ndarray  # 0: nothing, 1: "0", 325 + e: "e%+03d" % e
    zero: np.ndarray  # words 1-5 of 0.0


@functools.cache
def _tables() -> _Tables:
    """The renderer's tables, built on the first render (a few ms), not at
    import, so that a command which draws nothing never loads numpy.

    g = floor(10^-k 2^(125 - floor(-k log2(10)))) + 1, a 126-bit integer, is
    built with Python ints and split into g1 = g >> 63 and g0 = g mod 2^63.
    """
    g = []
    for k in range(_K_MIN, _K_MAX + 1):
        shift = 125 - _flog2pow10(-k)
        num, den = (10**-k, 1) if k <= 0 else (1, 10**k)
        num, den = (num << shift, den) if shift >= 0 else (num, den << -shift)
        g.append(num // den + 1)
    ascii4 = np.arange(10000).reshape(-1, 1) // [1000, 100, 10, 1] % 10 + ord("0")
    ascii4 = ascii4.astype(np.uint8)
    digits = np.full((10000, 8), 0xFF, np.uint8)
    digits[:, 0::2] = ascii4
    zeros = ascii4 == ord("0")
    first = np.arange(20).reshape(-1, 1, 1, 1)
    end = np.arange(21).reshape(1, -1, 1, 1)
    point = np.arange(-1, 20).reshape(1, 1, -1, 1)
    slot = np.arange(20)
    slots = np.zeros((20, 21, 21, 20, 2), np.uint8)
    slots[..., 0] = ((slot >= first) & (slot < end)) * 0xFF
    slots[..., 1] = (slot == point) * ord(".")
    prefixes = [s + (b"0." + b"0" * (i - 1) if i else b"") for s in (b"", b"-") for i in range(5)]
    suffixes = [b"", b"0"] + [b"e%+03d" % e for e in range(-324, 309)]
    return _Tables(
        g1=np.array([x >> 63 for x in g], np.uint64),
        g0=np.array([x & _LOW63 for x in g], np.uint64),
        digits=digits.view(np.uint64).ravel(),
        lead=np.logical_and.accumulate(zeros, axis=1).sum(axis=1),
        trail=np.logical_and.accumulate(zeros[:, ::-1], axis=1).sum(axis=1),
        slots=np.ascontiguousarray(slots.reshape(-1, 40).view(np.uint64).T),
        prefix=_words(prefixes, 1).ravel(),
        suffix=_words(suffixes, 1).ravel(),
        zero=_words([b"\0" * 30 + b"0.0"], 5)[0],
    )


def _words(texts, width: int) -> np.ndarray:
    """ASCII byte strings as rows of ``width`` uint64 words, NUL padded."""
    padded = b"".join(t.ljust(8 * width, b"\0") for t in texts)
    return np.frombuffer(padded, np.uint64).reshape(-1, width)


def _rop(g1: np.ndarray, g0: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """floor(g cp / 2^127), its last bit set when bits were dropped; g = g1 2^63 + g0."""
    z = ((g1 * cp) >> 1) + _mulhi(g0, cp)
    return (_mulhi(g1, cp) + (z >> 63)) | (((z & _LOW63) + _LOW63) >> 63)


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with x = f 10^k for the bits of each positive finite x: f is the
    shortest significand that reads back as x, and the closest to x of those,
    ties to even; as in CPython's repr, f may end in zeros."""
    t = _tables()
    biased = (bits >> 52).astype(np.int64)
    fraction = bits & _LOW52
    c = np.where(biased > 0, fraction | 2**52, fraction)
    q = np.maximum(biased, 1) - 1075  # x = c 2^q
    # A power of two above the smallest normal is nearer its lower neighbour.
    irregular = (fraction == 0) & (biased > 1)
    k = (q * 661971961083 - irregular * 274743187321) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    g1, g0 = t.g1.take(k - _K_MIN), t.g0.take(k - _K_MIN)
    # The interval of reals that round to x, scaled by 4 10^-k; its ends
    # belong to it when c is even.
    odd = c & 1
    cb = c << 2
    vb = _rop(g1, g0, cb << h)
    vbl = _rop(g1, g0, (cb - 2 + irregular) << h) + odd
    vbr = _rop(g1, g0, (cb + 2) << h) - odd
    s = vb >> 2
    # One digit shorter: the multiple of ten in the interval, if just one is.
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    shorter = (s >= 10) & (upin != ((sp10 + 10) << 2 <= vbr))
    # Otherwise s or s + 1: the one in the interval, or the closer if both are.
    uin = vbl <= s << 2
    win = (s + 1) << 2 <= vbr
    mid = (2 * s + 1) << 1
    closer = (vb < mid) | ((vb == mid) & ((s & 1) == 0))
    f = np.where(shorter, np.where(upin, sp10, sp10 + 10), s + ~np.where(uin != win, uin, closer))
    return f, k


def _digits(f: np.ndarray):
    """The 4-digit chunks of integers below 10^20, most significant first,
    and the count of zeros before the first digit that is kept (at most 19)."""
    t = _tables()
    chunks = []
    for _ in range(5):
        rest = f // 10000
        chunks.append(f - rest * 10000)
        f = rest
    chunks.reverse()
    lead = t.lead.take(chunks[4])
    for c in chunks[3::-1]:
        lead = np.where(c == 0, lead + 4, t.lead.take(c))
    return chunks, np.minimum(lead, 19)


def _slot_index(first, end, point):
    """Row of ``_Tables.slots``: keep digit slots first..end-1, and put the
    point after digit slot ``point`` (none at -1)."""
    return (first * 21 + end) * 21 + point + 1


def _digit_words(chunks, index, words: range):
    """Words ``words`` of the digit slots: the digits masked by their slots row."""
    t = _tables()
    return [t.digits.take(chunks[j]) & t.slots[j].take(index) for j in words]


def _float_text(x) -> np.ndarray:
    """``repr`` of each finite float of ``x``, as one row of 48 ASCII bytes
    per value with NUL in the slots the value leaves empty: dropping the NULs
    of a row leaves ``repr`` of its value.  Integer operations only, so the
    text does not depend on the host's float kernels."""
    t = _tables()
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    magnitude = bits & _LOW63
    f, k = _shortest(magnitude)
    chunks, lead = _digits(f)
    trail = t.trail.take(chunks[0])
    for c in chunks[1:]:
        trail = np.where(c == 0, trail + 4, t.trail.take(c))
    n = 20 - lead - trail  # significant digits
    point = k + 20 - lead  # x = 0.d1...dn 10^point
    exponent = (point <= -4) | (point > 16)
    whole = ~exponent & (point > 0)
    small = ~exponent & (point <= 0)
    end = lead + np.where(whole, np.maximum(n, point), n)
    dot = np.where(whole, lead + point - 1, np.where(exponent & (n > 1), lead, -1))
    out = np.empty((len(bits), _FLOAT_WORDS), np.uint64)
    for j, word in enumerate(_digit_words(chunks, _slot_index(lead, end, dot), range(5))):
        out[:, j] = word
    out[:, 0] |= t.prefix.take((bits >> 63).astype(np.int64) * 5 + np.where(small, 1 - point, 0))
    out[:, 5] = t.suffix.take(np.where(exponent, point + 325, whole & (point >= n)))
    zero = magnitude == 0
    if zero.any():
        out[zero, 1:] = t.zero
    return out.view(np.uint8)


def _integer_text(values: np.ndarray, words: int) -> np.ndarray:
    """Decimal text of nonnegative integers below 10^(4 words) as ``words``
    uint64 words per value, NUL where a digit slot is empty."""
    chunks, lead = _digits(values)
    return np.stack(_digit_words(chunks, _slot_index(lead, 20, -1), range(5 - words, 5)), axis=1)


class _RowLayout:
    """A format's row as uint64 words: its literal text in place, NUL padded
    to whole words, and word slots for z, tau, a_at_tau and stream ids below n."""

    def __init__(self, literals, seed: str, infinity: str, n: int):
        self.id_words = -(-len(str(max(n - 1, 0))) // 4)
        widths = (_FLOAT_WORDS,) * 3 + (self.id_words, 0)
        row, self.offsets = b"", []
        for text, width in zip(literals, widths):
            text = text.replace("SEED", seed).encode("ascii")
            row += text.ljust(-(-len(text) // 8) * 8, b"\0")
            self.offsets.append(len(row) // 8)
            row += bytes(8 * width)
        self.rows = np.empty((_RENDER_ROWS, len(row) // 8), np.uint64)
        self.rows[:] = np.frombuffer(row, np.uint64)
        self.infinity = _words([infinity.encode("ascii")], _FLOAT_WORDS)[0]

    def render(self, first_id: int, levels, taus, a_taus) -> str:
        """The rows of stream ids first_id, first_id + 1, ... as one string."""
        m = len(levels)
        rows = self.rows[:m]
        z_at, tau_at, a_at, id_at, _ = self.offsets
        # _float_text renders finite floats; an infinite tau's words are
        # replaced below.
        never = np.isinf(taus)
        text = _float_text(np.concatenate((levels, np.where(never, 0.0, taus), a_taus)))
        for at, field in zip((z_at, tau_at, a_at), text.view(np.uint64).reshape(3, m, -1)):
            rows[:, at : at + _FLOAT_WORDS] = field
        rows[never, tau_at : tau_at + _FLOAT_WORDS] = self.infinity
        ids = np.arange(first_id, first_id + m, dtype=np.uint64)
        rows[:, id_at : id_at + self.id_words] = _integer_text(ids, self.id_words)
        # bytes.translate drops the NULs at about 1 ns a byte here, a boolean
        # mask over the same array at about 4.
        return rows.tobytes().translate(None, b"\0").decode("ascii")
