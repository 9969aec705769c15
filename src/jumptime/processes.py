"""Jump-time models and the space-time indicator process they drive.

A JumpModel is a name, its compensator A and the sampler S that tau is
drawn through, S = A unless given: tau is the Cox time S^{-1}(Z) of an
Exp(1) level Z, and its law is P(tau <= t) = 1 - exp(-S(t)).  Only the
negative control gives a sampler other than the compensator it claims.
``JumpModel.sample`` maps draws to the pairs (tau, A(tau)) the verifiers
read, refusing an infinite tau with ``InfiniteSampleError``.  It maps the
draws a block at a time, into the caller's arrays or fresh ones, so that no
map makes a full-length temporary, and raises the error one whole-array map
would raise first; given one array twice, it writes A(tau) over tau.  The
catalog is one table from each name to a factory, whose keyword defaults are
the CLI's.  It covers homogeneous and inhomogeneous arrival times, a Markov
holding time, a synthetic model whose compensator has a flat piece, and the
unlisted negative control.

tau is the jump time of the space-time indicator (u, J_u), J_u = 1_{u >= tau},
a Feller process.  Its one kernel, read off ``S.evaluate`` at float times, is

    P_t f(u, 0) = q f(u + t, 0) + (1 - q) f(u + t, 1),  q = exp(-(S(u + t) - S(u)))
    P_t f(u, 1) = f(u + t, 1)

q divides no survival probabilities, so it never underflows to 0/0.
``semigroup_apply`` and ``conditional_expectation_indicator`` check their
times first; ``feller_check`` reads the kernel directly on its float grids.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

from . import core
from .compensators import (
    Compensator,
    LinearCompensator,
    PowerCompensator,
    TabulatedCompensator,
    _check_nonnegative,
    _check_parameter,
)
from .core import RngStream, TimeLike, TimePoint, as_timepoint, draw_exponential, np

__all__ = [
    "C0_WITNESSES",
    "CHAPMAN_KOLMOGOROV_TOLERANCE",
    "DEFAULT_T_SCHEDULE",
    "FellerReport",
    "InfiniteSampleError",
    "JumpModel",
    "build_model",
    "catalog_models",
    "catalog_names",
    "conditional_expectation_indicator",
    "ctmc_first_jump_model",
    "feller_check",
    "flat_compensator_model",
    "gauss_bump",
    "inhomogeneous_model",
    "inverse_quad",
    "negative_control_model",
    "poisson_model",
    "semigroup_apply",
    "tent",
]


class InfiniteSampleError(RuntimeError):
    """A model produced an infinite jump time; the law checks assume tau < inf."""


@dataclass(frozen=True)
class JumpModel:
    """A jump time tau together with the compensator of 1_{t >= tau}.

    tau is the Cox time ``S.inverse(z)`` of an Exp(1) draw z, and its law is
    ``P(tau <= t) = 1 - exp(-S(t))``, where S is ``sampler``, the compensator
    unless one is given.  A correct model gives none; only the negative
    control draws tau through a compensator other than the one it claims.
    """

    name: str
    compensator: Compensator
    sampler: Optional[Compensator] = None

    def __post_init__(self):
        if self.sampler is None:
            object.__setattr__(self, "sampler", self.compensator)

    def tau_from_z(self, z: float) -> TimePoint:
        """Map one Exp(1) draw to tau (INFINITY when the level is never reached)."""
        return self.sampler.inverse(z)

    def sample(self, zs, out=None) -> tuple[np.ndarray, np.ndarray]:
        """(tau, A(tau)) per Exp(1) draw: tau from the sampler, A(tau) from the
        compensator; an infinite tau raises ``InfiniteSampleError``.

        The draws are mapped ``core._DRAW_BLOCK`` at a time, into ``out`` (a
        pair of float arrays as long as ``zs``) when it is given, else into
        fresh arrays, so no map makes a temporary longer than a block.  The
        checks keep the order of one whole-array map: the levels are checked,
        every block is inverted, then tau < inf is checked, then every block
        is evaluated.  Both maps are elementwise, so every value and every
        error is the one the whole-array maps give.

        ``out`` may name the same array twice: each block's A(tau) is then
        written over the taus it was computed from, and both returned entries
        are that array, holding A(tau) with the same bits and errors, since
        every tau is checked before any is evaluated and ``evaluate_many``
        never writes into its argument.
        """
        zs = _check_nonnegative(zs)
        taus, a_taus = (np.empty(len(zs)), np.empty(len(zs))) if out is None else out
        blocks = [slice(i, i + core._DRAW_BLOCK) for i in range(0, len(zs), core._DRAW_BLOCK)]
        for b in blocks:
            taus[b] = self.sampler.inverse_many(zs[b])
        if np.isinf(taus).any():
            raise InfiniteSampleError(
                f"model {self.name!r} produced an infinite jump time; "
                "the exponential-law checks require tau < infinity almost surely"
            )
        for b in blocks:
            a_taus[b] = self.compensator.evaluate_many(taus[b])
        return taus, a_taus

    def tau_cdf(self, t: float) -> float:
        """P(tau <= t) = 1 - exp(-S(t)) at a finite time t."""
        return -math.expm1(-self.sampler.evaluate(t))

    def sample_tau(self, stream: RngStream) -> TimePoint:
        """One draw of tau; never 0 because the exponential draw is positive."""
        return self.tau_from_z(draw_exponential(stream))


# --------------------------------------------------------------------------
# model catalog


def _linear_model(family: str, key: str, rate) -> JumpModel:
    """The model ``family(key=rate)`` with A(t) = rate * t."""
    rate = _check_parameter(rate, key)
    return JumpModel(name=f"{family}({key}={rate:g})", compensator=LinearCompensator(rate))


def poisson_model(rate: float = 1.0) -> JumpModel:
    """First arrival at constant rate: tau = Z / rate, A(t) = rate * t."""
    return _linear_model("poisson", "rate", rate)


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
    )


def ctmc_first_jump_model(exit_rate: float = 1.0) -> JumpModel:
    """Holding time of a Markov-chain state: Exp(exit_rate), A(t) = exit_rate * t."""
    return _linear_model("ctmc", "exit_rate", exit_rate)


def _power_model(exponent: float = 2.0) -> JumpModel:
    """First arrival with A(t) = t ** exponent, named ``power(exponent=...)``."""
    A = PowerCompensator(exponent)
    return inhomogeneous_model(A, name=f"power(exponent={A.exponent:g})")


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
    )


def negative_control_model() -> JumpModel:
    """Deliberately wrong pairing: tau ~ Exp(2) against the claimed A(t) = t.

    A(tau) = tau is Exp(2), not Exp(1), so the exponential-law verification
    must fail.  Guards the test suite against vacuous passes.
    """
    return JumpModel("negative-control", LinearCompensator(1.0), sampler=LinearCompensator(2.0))


#: Every model ``build_model`` can build; each factory's defaults are the CLI's.
_BUILDERS: dict[str, Callable[..., JumpModel]] = {
    "poisson": poisson_model,
    "power": _power_model,
    "ctmc": ctmc_first_jump_model,
    "flat": flat_compensator_model,
    "negative-control": negative_control_model,
}

#: Buildable names that ``catalog_names`` does not list.
_HIDDEN = {"negative-control"}


def catalog_names() -> tuple[str, ...]:
    """Public model names addressable by the CLI."""
    return tuple(sorted(_BUILDERS.keys() - _HIDDEN))


def build_model(name: str, params: dict[str, float] | None = None) -> JumpModel:
    """Build a catalog model by name with keyword parameters."""
    builder = _BUILDERS.get(name)
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
        _power_model(2.0),
        ctmc_first_jump_model(3.0),
        flat_compensator_model(),
    )


# --------------------------------------------------------------------------
# the space-time indicator process and its semigroup

def _kernel(
    S: Callable[[float], float], f: Callable[[float, int], float], u: float, v: float, j: int
) -> float:
    """E[f(v, J_v) | J_u = j] for times u <= v: from j = 0, no jump happens
    in (u, v] with probability q = exp(-(S(v) - S(u))), S the sampler's A."""
    if j:
        return f(v, 1)
    q = math.exp(-(S(v) - S(u)))
    return q * f(v, 0) + (1.0 - q) * f(v, 1)


def semigroup_apply(
    f: Callable[[float, int], float], t: TimeLike, u: TimeLike, j: int, model: JumpModel
) -> float:
    """P_t f(u, j) = E[f(u + t, J_{u+t}) | J_u = j]."""
    tp, up = as_timepoint(t), as_timepoint(u)
    if not (tp.is_finite and up.is_finite):
        raise ValueError("semigroup time must be finite")
    if j not in (0, 1):
        raise ValueError(f"indicator state must be 0 or 1, got {j!r}")
    return _kernel(model.sampler.evaluate, f, up.value, up.value + tp.value, j)


def conditional_expectation_indicator(
    f: Callable[[float], float], u: TimeLike, t: TimeLike, model: JumpModel
) -> tuple[float, float]:
    """Coefficients of E[f(J_u) | past at t] = K1 * 1_{t >= tau} + K2 * 1_{t < tau}.

    Both come from the kernel from time t to u: K1 = f(1) from the jumped
    state, and K2 = q * f(0) + (1 - q) * f(1) with q = exp(-(S(u) - S(t))).
    The closed form divides by nothing, so it holds however small
    P(t < tau) is.
    """
    up, tp = as_timepoint(u), as_timepoint(t)
    if not (up.is_finite and tp.is_finite):
        raise ValueError("u and t must be finite")
    if not up > tp:
        raise ValueError(f"need u > t, got u={up!r}, t={tp!r}")
    S, g = model.sampler.evaluate, lambda v, j: f(float(j))
    return _kernel(S, g, tp.value, up.value, 1), _kernel(S, g, tp.value, up.value, 0)


# --------------------------------------------------------------------------
# Feller checks

def gauss_bump(y: float) -> float:
    return math.exp(-y * y)


def inverse_quad(y: float) -> float:
    return 1.0 / (1.0 + y * y)


def tent(y: float) -> float:
    return max(0.0, 1.0 - abs(y))


#: Each witness, in ``C0_WITNESSES``'s order, with its Lipschitz constant sup |g'|.
_LIPSCHITZ = {gauss_bump: math.sqrt(2 / math.e), inverse_quad: 9 / (8 * math.sqrt(3)), tent: 1.0}

#: Continuous functions vanishing at infinity; a finite witness set for C0.
C0_WITNESSES: tuple[Callable[[float], float], ...] = tuple(_LIPSCHITZ)

DEFAULT_T_SCHEDULE: tuple[float, ...] = tuple(2.0**-k for k in range(21))

#: Start times of the probed states (u, j): 0 to 8 in steps of 1/4, exact in binary.
_U_GRID: tuple[float, ...] = tuple(i / 4 for i in range(33))

#: The steps t and s of the Chapman-Kolmogorov probe.
_CK_STEPS: tuple[float, ...] = (0.1, 0.5, 1.0)

#: P_{t+s} f and P_t P_s f differ by a few ulps of the witness values, which
#: lie in [0, 1]; a kernel that is not a semigroup misses by 0.1 or more.
CHAPMAN_KOLMOGOROV_TOLERANCE = 1e-12

#: Rounding allowance on e_final's bound: P_t f - f carries a few ulps of 1.
_ROUNDING = 1e-15


@dataclass(frozen=True)
class FellerReport:
    """Outcome of probing the semigroup laws on one witness f(u, j) = g(u + j).

    chapman_kolmogorov_max_error = max |P_{t+s} f - P_t P_s f| must lie
    within CHAPMAN_KOLMOGOROV_TOLERANCE.  e_sequence = max |P_{t_k} f - f|
    covers strong continuity at 0: it must be nonincreasing, with e_final
    below e_final_bound = L (t_min + max_u (S(u + t_min) - S(u))), where L is
    g's Lipschitz constant, since |P_t f - f| <= L t + (1 - q) L.
    """

    function_name: str
    chapman_kolmogorov_max_error: float
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
        """Both laws hold on the witness set."""
        return (
            self.chapman_kolmogorov_max_error <= CHAPMAN_KOLMOGOROV_TOLERANCE
            and self.nonincreasing
            and self.e_final <= self.e_final_bound
        )

    def to_json_dict(self) -> dict:
        return {
            **asdict(self),
            "chapman_kolmogorov_tolerance": CHAPMAN_KOLMOGOROV_TOLERANCE,
            "e_final": self.e_final,
            "nonincreasing": self.nonincreasing,
            "passed": self.passed,
        }


def feller_check(model: JumpModel, g: Callable[[float], float]) -> FellerReport:
    """Probe the semigroup laws of the model's indicator on f(u, j) = g(u + j).

    g is one of ``C0_WITNESSES``, and the states are (u, j) with u on a
    fixed grid of [0, 8].  Chapman-Kolmogorov is probed for the steps t, s
    in {0.1, 0.5, 1}, and strong continuity along the strictly decreasing
    times ``DEFAULT_T_SCHEDULE``.  Every semigroup value is read off the kernel
    on these float grids, as ``semigroup_apply`` reads it after its checks.
    """
    lipschitz = _LIPSCHITZ.get(g)
    if lipschitz is None:
        raise ValueError(f"{g!r} is not one of C0_WITNESSES, whose Lipschitz constants are known")
    f, S = lambda u, j: g(u + j), model.sampler.evaluate
    states = [(u, j) for u in _U_GRID for j in (0, 1)]
    chapman_kolmogorov_max_error = max(
        abs(
            _kernel(S, f, u, u + (t + s), j)
            - _kernel(S, lambda v, k: _kernel(S, f, v, v + s, k), u, u + t, j)
        )
        for t in _CK_STEPS
        for s in _CK_STEPS
        for u, j in states
    )
    e_sequence = tuple(
        max(abs(_kernel(S, f, u, u + t, j) - f(u, j)) for u, j in states)
        for t in DEFAULT_T_SCHEDULE
    )
    t_min = DEFAULT_T_SCHEDULE[-1]
    rise = max(S(u + t_min) - S(u) for u in _U_GRID)
    return FellerReport(
        function_name=g.__name__,
        chapman_kolmogorov_max_error=chapman_kolmogorov_max_error,
        e_sequence=e_sequence,
        e_final_bound=lipschitz * (t_min + rise) + _ROUNDING,
    )
