"""Jump-time models and the one-jump indicator process.

A JumpModel is its compensator: tau is drawn as the Cox time A^{-1}(Z) of an
Exp(1) level Z, and its law is P(tau <= t) = 1 - exp(-A(t)).  Only the
negative control draws tau through a different sampler compensator than the
one it claims.  The catalog covers homogeneous and inhomogeneous arrival
times, a Markov holding time, and a synthetic model whose compensator has a
flat piece.

The indicator process X_t = 1_{t >= tau} (started at x, jumping to x + 1) is
Feller; its semigroup has the closed form

    P_t f(x) = f(x) * P(t < tau) + f(x + 1) * P(tau <= t)

which follows the convention P_t f(x) = E[f(X_t + x)].  feller_check probes
the three semigroup axioms on a finite witness set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .compensators import (
    Compensator,
    LinearCompensator,
    PowerCompensator,
    TabulatedCompensator,
)
from .core import CadlagPath, RngStream, TimeLike, TimePoint, as_timepoint, draw_exponential

__all__ = [
    "C0_WITNESSES",
    "DEFAULT_T_SCHEDULE",
    "DEFAULT_X_GRID",
    "FellerReport",
    "IndicatorProcessLaw",
    "JumpModel",
    "build_model",
    "catalog_models",
    "catalog_names",
    "conditional_expectation_indicator",
    "ctmc_first_jump_model",
    "feller_check",
    "flat_compensator_model",
    "gauss_bump",
    "indicator_path",
    "inhomogeneous_model",
    "inverse_quad",
    "negative_control_model",
    "poisson_model",
    "semigroup_apply",
    "tent",
]


@dataclass(frozen=True)
class JumpModel:
    """A jump time tau together with the compensator of 1_{t >= tau}.

    tau is the Cox time ``S.inverse(z)`` of an Exp(1) draw z, and its law is
    ``P(tau <= t) = 1 - exp(-S(t))``, where S is ``sampler`` when set and the
    compensator otherwise.  A correct model leaves ``sampler`` unset; only
    the negative control draws tau through a compensator other than the one
    it claims.
    """

    name: str
    compensator: Compensator
    metadata: str = ""
    sampler: Optional[Compensator] = None

    @property
    def _drawn_through(self) -> Compensator:
        return self.compensator if self.sampler is None else self.sampler

    def tau_from_z(self, z: float) -> TimePoint:
        """Map one Exp(1) draw to tau (INFINITY when the level is never reached)."""
        return self._drawn_through.inverse(z)

    def taus_from_draws(self, zs: np.ndarray) -> np.ndarray:
        """Map an array of Exp(1) draws to jump times (inf when never)."""
        return self._drawn_through.inverse_many(zs)

    def tau_cdf(self, t: float) -> float:
        """P(tau <= t) = 1 - exp(-S(t)) at a finite time t."""
        return -math.expm1(-self._drawn_through.evaluate(t))

    def sample_tau(self, stream: RngStream) -> TimePoint:
        """One draw of tau; never 0 because the exponential draw is positive."""
        return self.tau_from_z(draw_exponential(stream))

    def law(self) -> "IndicatorProcessLaw":
        return IndicatorProcessLaw(self.tau_cdf, description=f"jump-time law of {self.name}")


@dataclass(frozen=True)
class IndicatorProcessLaw:
    """Law of tau driving the indicator process, as a CDF handle.

    The CDF must satisfy tau_cdf(0) = 0 (the jump happens strictly after 0)
    and be nondecreasing and right-continuous; only the value at 0 can be
    checked at construction time.
    """

    tau_cdf: Callable[[float], float]
    description: str = ""

    def __post_init__(self):
        at_zero = self.tau_cdf(0.0)
        if at_zero != 0.0:
            raise ValueError(f"tau_cdf(0) must be 0, got {at_zero}")


# --------------------------------------------------------------------------
# model catalog


def _check_rate(value, what: str) -> float:
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0.0):
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return float(value)


def poisson_model(rate: float) -> JumpModel:
    """First arrival at constant rate: tau = Z / rate, A(t) = rate * t."""
    rate = _check_rate(rate, "rate")
    return JumpModel(
        name=f"poisson(rate={rate:g})",
        compensator=LinearCompensator(rate),
        metadata="first arrival of a homogeneous counting process; totally inaccessible",
    )


def inhomogeneous_model(cumulative_intensity: Compensator, name: str | None = None) -> JumpModel:
    """First arrival with time-varying intensity: tau = A^{-1}(Z).

    Requires an unbounded cumulative intensity; a bounded one would leave tau
    infinite with positive probability, outside the finite-jump-time scope.
    """
    if math.isfinite(cumulative_intensity.range_sup):
        raise ValueError(
            "cumulative intensity must be unbounded "
            f"(range_sup={cumulative_intensity.range_sup:g} leaves tau infinite with "
            "positive probability)"
        )
    A = cumulative_intensity
    return JumpModel(
        name=name or f"inhomogeneous({type(A).__name__})",
        compensator=A,
        metadata="first arrival with deterministic cumulative intensity, sampled by inversion",
    )


def ctmc_first_jump_model(exit_rate: float) -> JumpModel:
    """Holding time of a Markov-chain state: Exp(exit_rate), A(t) = exit_rate * t."""
    exit_rate = _check_rate(exit_rate, "exit_rate")
    return JumpModel(
        name=f"ctmc(exit_rate={exit_rate:g})",
        compensator=LinearCompensator(exit_rate),
        metadata=(
            "first jump out of state 'initial' of a continuous-time Markov chain; "
            "the holding time is exponential with the exit rate"
        ),
    )


def flat_compensator_model() -> JumpModel:
    """Synthetic model whose compensator is flat on [1, 2].

    Knots (0,0), (1,1), (2,1), (3,2), slope 1 afterward.  Sampling by
    inversion lands in the flat interior with probability zero, so the
    round trip A^{-1}(A(tau)) = tau holds almost surely.
    """
    A = TabulatedCompensator(
        times=(0.0, 1.0, 2.0, 3.0),
        values=(0.0, 1.0, 1.0, 2.0),
        extrapolation_slope=1.0,
    )
    return JumpModel(
        name="flat",
        compensator=A,
        metadata="tabulated compensator with a flat piece on [1, 2]; exercises infimum semantics",
    )


def negative_control_model() -> JumpModel:
    """Deliberately wrong pairing: tau ~ Exp(2) against the claimed A(t) = t.

    A(tau) = tau is Exp(2), not Exp(1), so the exponential-law verification
    must fail.  Guards the test suite against vacuous passes.
    """
    return JumpModel(
        name="negative-control",
        compensator=LinearCompensator(1.0),
        metadata="mismatched on purpose: the stated compensator is not the compensator of tau",
        sampler=LinearCompensator(2.0),
    )


_BUILDERS: dict[str, Callable[..., JumpModel]] = {
    "poisson": lambda rate=1.0: poisson_model(rate),
    "power": lambda exponent=2.0: inhomogeneous_model(
        PowerCompensator(exponent), name=f"power(exponent={float(exponent):g})"
    ),
    "ctmc": lambda exit_rate=1.0: ctmc_first_jump_model(exit_rate),
    "flat": lambda: flat_compensator_model(),
}

_HIDDEN_BUILDERS: dict[str, Callable[..., JumpModel]] = {
    "negative-control": lambda: negative_control_model(),
}


def catalog_names() -> tuple[str, ...]:
    """Public model names addressable by the CLI."""
    return tuple(sorted(_BUILDERS))


def build_model(name: str, params: dict[str, float] | None = None) -> JumpModel:
    """Build a catalog model by name with keyword parameters."""
    builder = _BUILDERS.get(name) or _HIDDEN_BUILDERS.get(name)
    if builder is None:
        valid = ", ".join(catalog_names())
        raise ValueError(f"unknown model {name!r}; valid models: {valid}")
    try:
        return builder(**(params or {}))
    except TypeError:
        raise ValueError(
            f"invalid parameters {sorted((params or {}))} for model {name!r}"
        ) from None


def catalog_models() -> tuple[JumpModel, ...]:
    """The standard verification battery: every catalog family, concrete parameters."""
    return (
        poisson_model(0.5),
        poisson_model(1.0),
        poisson_model(2.0),
        inhomogeneous_model(PowerCompensator(2.0), name="power(exponent=2)"),
        ctmc_first_jump_model(3.0),
        flat_compensator_model(),
    )


# --------------------------------------------------------------------------
# indicator process and semigroup


def indicator_path(tau: TimeLike) -> CadlagPath:
    """The path t -> 1_{t >= tau}: 0 before tau, 1 from tau on."""
    tp = as_timepoint(tau)
    if not tp > 0:
        raise ValueError("tau must be positive")
    return CadlagPath.step(tp)


def semigroup_apply(f: Callable[[float], float], t: TimeLike, x: float, law: IndicatorProcessLaw) -> float:
    """P_t f(x) = f(x) * P(t < tau) + f(x + 1) * P(tau <= t)."""
    tp = as_timepoint(t)
    if not tp.is_finite:
        raise ValueError("semigroup time must be finite")
    p = law.tau_cdf(tp.value)
    return f(x) * (1.0 - p) + f(x + 1.0) * p


def conditional_expectation_indicator(
    f: Callable[[float], float],
    u: TimeLike,
    t: TimeLike,
    law: IndicatorProcessLaw,
) -> tuple[float, float]:
    """Coefficients of E[f(X_u) | past at t] = K1 * 1_{t >= tau} + K2 * 1_{t < tau}.

    On {t >= tau} the process has already jumped, so the prediction is
    K1 = f(1).  On {t < tau} it is the conditional average
    K2 = [f(0) * P(u < tau) + f(1) * P(t < tau <= u)] / P(t < tau),
    computed in closed form from the law (never estimated).
    """
    up, tp = as_timepoint(u), as_timepoint(t)
    if not (up.is_finite and tp.is_finite):
        raise ValueError("u and t must be finite")
    if not up > tp:
        raise ValueError(f"need u > t, got u={up!r}, t={tp!r}")
    p_t = law.tau_cdf(tp.value)
    p_u = law.tau_cdf(up.value)
    survive_t = 1.0 - p_t
    if survive_t <= 0.0:
        raise ValueError(f"P(t < tau) = 0 at t={tp!r}: conditioning on a null event")
    k1 = f(1.0)
    k2 = (f(0.0) * (1.0 - p_u) + f(1.0) * (p_u - p_t)) / survive_t
    return k1, k2


# --------------------------------------------------------------------------
# Feller checks

def gauss_bump(y: float) -> float:
    return math.exp(-y * y)


def inverse_quad(y: float) -> float:
    return 1.0 / (1.0 + y * y)


def tent(y: float) -> float:
    return max(0.0, 1.0 - abs(y))


#: Continuous functions vanishing at infinity; a finite witness set for C0.
C0_WITNESSES: tuple[Callable[[float], float], ...] = (gauss_bump, inverse_quad, tent)

DEFAULT_X_GRID: tuple[float, ...] = tuple(float(x) for x in np.linspace(-8.0, 8.0, 81))
DEFAULT_T_SCHEDULE: tuple[float, ...] = tuple(2.0**-k for k in range(21))


@dataclass(frozen=True)
class FellerReport:
    """Outcome of probing the three semigroup axioms on one witness function.

    identity_max_error covers P_0 f = f (must be exactly zero);
    tail_value_max against tail_bound covers vanishing at infinity;
    e_sequence = max |P_{t_k} f - f| covers strong continuity at 0 and must
    be nonincreasing with e_final below the law-derived e_final_bound.
    """

    function_name: str
    law_description: str
    x_min: float
    x_max: float
    identity_max_error: float
    tail_value_max: float
    tail_bound: float
    e_sequence: tuple[float, ...]
    e_final_bound: float

    @property
    def e_final(self) -> float:
        return self.e_sequence[-1]

    @property
    def nonincreasing(self) -> bool:
        return all(b <= a for a, b in zip(self.e_sequence, self.e_sequence[1:]))

    @property
    def passed(self) -> bool:
        """All three axioms hold on the witness set."""
        return (
            self.identity_max_error == 0.0
            and self.tail_value_max <= self.tail_bound
            and self.nonincreasing
            and self.e_final <= self.e_final_bound
        )

    def to_json_dict(self) -> dict:
        return {
            "function_name": self.function_name,
            "law_description": self.law_description,
            "x_min": self.x_min,
            "x_max": self.x_max,
            "identity_max_error": self.identity_max_error,
            "tail_value_max": self.tail_value_max,
            "tail_bound": self.tail_bound,
            "e_sequence": list(self.e_sequence),
            "e_final": self.e_final,
            "e_final_bound": self.e_final_bound,
            "nonincreasing": self.nonincreasing,
            "passed": self.passed,
        }


def feller_check(law: IndicatorProcessLaw, f: Callable[[float], float]) -> FellerReport:
    """Probe the semigroup axioms for one witness function.

    The axioms are checked on ``DEFAULT_X_GRID``, with the tail bound taken
    from f's own values at the grid extremes, and strong continuity along the
    strictly decreasing positive times ``DEFAULT_T_SCHEDULE``.
    """
    identity_max_error = max(abs(semigroup_apply(f, 0.0, x, law) - f(x)) for x in DEFAULT_X_GRID)

    x_min, x_max = min(DEFAULT_X_GRID), max(DEFAULT_X_GRID)
    tail_bound = max(abs(f(x)) for x in (x_min, x_min + 1.0, x_max, x_max + 1.0)) + 1e-15
    tail_value_max = max(
        abs(semigroup_apply(f, t, x, law)) for t in DEFAULT_T_SCHEDULE for x in (x_min, x_max)
    )

    e_sequence = tuple(
        max(abs(semigroup_apply(f, t, x, law) - f(x)) for x in DEFAULT_X_GRID)
        for t in DEFAULT_T_SCHEDULE
    )

    max_abs_f = max(abs(f(x)) for x in DEFAULT_X_GRID)
    e_final_bound = 2.0 * law.tau_cdf(DEFAULT_T_SCHEDULE[-1]) * max_abs_f + 1e-15

    return FellerReport(
        function_name=getattr(f, "__name__", repr(f)),
        law_description=law.description,
        x_min=x_min,
        x_max=x_max,
        identity_max_error=identity_max_error,
        tail_value_max=tail_value_max,
        tail_bound=tail_bound,
        e_sequence=e_sequence,
        e_final_bound=e_final_bound,
    )
