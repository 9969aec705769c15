"""The Cox construction: jump times from a compensator and an Exp(1) level.

Given a compensator A and an independent draw Z ~ Exp(1), the constructed
time is tau = inf{t >= 0 : A(t) >= Z}.  Feeding A(tau) back through the same
infimum returns tau itself (the round trip), and A(tau) recovers Z whenever
tau is finite, because a continuous A attains the level it crosses.

``cox_sample`` draws one level from one ``RngStream``, the scalar reference.
``cox_samples`` yields the same samples for stream ids 0..n-1, and
``write_cox_rows`` writes them as ``cox-demo``'s rows.  Both take their
levels from ``exponential_blocks`` (vectorised Philox blocks) and map each
block through ``A.inverse_exact`` and ``A.evaluate_exact``, the array forms
of the scalar ``A.inverse`` and ``A.evaluate`` with the same bits, so they
agree with ``cox_sample`` bit for bit.  ``CoxSample.to_json_dict`` is the
reference form of a row, and ``_COX_FORMATS`` holds the same row as the
templates ``write_cox_rows`` fills column by column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

import numpy as np

from .compensators import Compensator
from .core import (
    RngStream,
    TimeLike,
    TimePoint,
    as_timepoint,
    draw_exponential,
    exponential_blocks,
)

__all__ = [
    "CoxSample",
    "cox_round_trip",
    "cox_sample",
    "cox_samples",
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
#: header, the row template with its SEED still to be filled in (a decimal
#: integer needs no JSON escaping or CSV quoting), and an infinite tau.  The
#: floats come as the ``repr`` of the array columns' elements, which is what
#: ``json.dumps`` and ``csv.writer`` emit for finite floats; z and a_at_tau
#: are always finite (a_at_tau is z up to roundoff, or the compensator's
#: finite supremum when tau is infinite).
_COX_FORMATS = {
    "json": (
        "",
        '{"z": %s, "tau": %s, "a_at_tau": %s, "seed": "SEED", "stream_id": %d}\n',
        '"infinity"',
    ),
    "csv": ("z,tau,a_at_tau,seed,stream_id\n", "%s,%s,%s,SEED,%d\n", "infinity"),
}


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


def _cox_blocks(A: Compensator, seed: int, n: int) -> Iterator[tuple[np.ndarray, ...]]:
    """Levels, taus and A(taus) of streams 0..n-1, one draw block at a time.

    The columns carry the bits of the scalar ``A.inverse`` and ``A.evaluate``
    (inf for INFINITY).  A block that holds a level whose tau overflows a
    float is cut before that level; after it is yielded, that level's
    ``OverflowError`` is raised, as ``cox_sample`` would raise it.
    """
    for levels in exponential_blocks(seed, n):
        taus = A.inverse_exact(levels)
        stop = A.first_overflow(levels, taus)  # None slices the whole block
        yield levels[:stop], taus[:stop], A.evaluate_exact(taus[:stop])
        if stop is not None:
            raise A._overflow(float(levels[stop]))


def cox_samples(A: Compensator, seed: int, n: int) -> Iterator[CoxSample]:
    """``cox_sample(A, RngStream(seed, k))`` for k = 0..n-1, lazily.

    The samples are mapped one draw block at a time, so memory stays flat
    in n; each ``CoxSample`` is built as it is asked for.
    """
    rows = chain.from_iterable(
        zip(*(column.tolist() for column in block)) for block in _cox_blocks(A, seed, n)
    )
    for k, (z, tau, a_at_tau) in enumerate(rows):
        yield CoxSample(z=z, tau=TimePoint(tau), a_at_tau=a_at_tau, stream=RngStream(seed, k))


def write_cox_rows(fh, A: Compensator, seed: int, n: int, fmt: str) -> None:
    """Write ``cox_sample(A, RngStream(seed, k)).to_json_dict()`` for k < n as ``fmt`` rows.

    Each block of ``exponential_blocks`` is rendered column by column
    through one row template and handed to one ``writelines`` call, so
    memory stays flat in n; the rows before a level whose jump time
    overflows a float are written before the error propagates.
    """
    header, row, infinity = _COX_FORMATS[fmt]
    template = row.replace("SEED", str(seed))
    fh.write(header)
    start = 0
    for levels, taus, a_taus in _cox_blocks(A, seed, n):
        z_text = list(map(repr, levels.tolist()))
        tau_text = map(repr, taus.tolist())
        never = np.flatnonzero(np.isinf(taus)).tolist()
        if never:
            tau_text = list(tau_text)
            for i in never:
                tau_text[i] = infinity
        # A(tau) is z itself on many rows; only the others need their own text.
        a_text = z_text.copy()
        moved = np.flatnonzero(a_taus != levels)
        for i, text in zip(moved.tolist(), map(repr, a_taus[moved].tolist())):
            a_text[i] = text
        ids = range(start, start + len(z_text))
        # One call per block, but no block-sized string: joining the rows
        # first would add a few MB to the peak memory.
        fh.writelines(map(template.__mod__, zip(z_text, tau_text, a_text, ids)))
        start += len(z_text)


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
