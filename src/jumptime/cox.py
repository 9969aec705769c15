"""The Cox construction: jump times from a compensator and an Exp(1) level.

Given a compensator A and an independent draw Z ~ Exp(1), the constructed
time is tau = inf{t >= 0 : A(t) >= Z}.  Feeding A(tau) back through the same
infimum returns tau itself (the round trip), and A(tau) recovers Z whenever
tau is finite, because a continuous A attains the level it crosses.

``cox_sample`` draws one level from one ``RngStream``, the scalar reference.
``cox_samples`` yields the same samples for stream ids 0..n-1, taking the
levels from vectorised Philox blocks; both map a level to a sample through
the scalar ``cox_time`` and ``A.evaluate``, so their rows agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterator

from .compensators import Compensator
from .core import (
    RngStream,
    TimeLike,
    TimePoint,
    as_timepoint,
    draw_exponential,
    exponential_blocks,
)

__all__ = ["CoxSample", "cox_round_trip", "cox_sample", "cox_samples", "cox_time"]


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


def cox_time(A: Compensator, z: float) -> TimePoint:
    """tau = inf{t >= 0 : A(t) >= z}; INFINITY when the level is never reached."""
    z = float(z)
    if math.isnan(z) or z <= 0.0:
        raise ValueError(f"the exponential level must be positive, got {z}")
    return A.inverse(z)


def _sample_at(A: Compensator, z: float, stream: RngStream) -> CoxSample:
    tau = cox_time(A, z)
    return CoxSample(z=z, tau=tau, a_at_tau=A.evaluate(tau), stream=stream)


def cox_sample(A: Compensator, stream: RngStream) -> CoxSample:
    """Draw Z ~ Exp(1) from the stream and build the jump time."""
    return _sample_at(A, draw_exponential(stream), stream)


def cox_samples(A: Compensator, seed: int, n: int) -> Iterator[CoxSample]:
    """``cox_sample(A, RngStream(seed, k))`` for k = 0..n-1, lazily.

    The levels come one block at a time from ``exponential_blocks``, so
    memory stays flat in n; each sample is built as it is asked for.
    """
    levels = chain.from_iterable(block.tolist() for block in exponential_blocks(seed, n))
    for k, z in enumerate(levels):
        yield _sample_at(A, z, RngStream(seed, k))


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
