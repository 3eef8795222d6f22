"""Exception taxonomy for the simulation engine.

Every numerical failure derives from SimulationError so callers (and the CLI
exit-code contract) can distinguish engine breakdowns from configuration
mistakes, which raise ConfigError instead.
"""
from __future__ import annotations

import math


class SimulationError(Exception):
    """Base class for all numerical/engine failures; ``time`` is the time
    of the failing stage or step, or None."""

    def __init__(self, message: str, time: float | None = None):
        super().__init__(message)
        self.time = time


class IntegrationError(SimulationError):
    """A derivative evaluation produced a non-finite value at the stage
    time in ``time``."""


class BracketError(SimulationError):
    """A root bracket does not actually bracket a sign change."""


class ConvergenceError(SimulationError):
    """An iteration budget was exhausted, or no root bracket was found."""


class DomainError(SimulationError):
    """An argument lies outside the mathematical domain of an operation."""


class ConsistencyError(SimulationError):
    """Two inputs that must describe the same run disagree."""


class PriceFloorError(SimulationError):
    """A slump's holdings drove the clearing price (or its reflected price
    2*p0 - P) to zero or below (`market.holdings_field`).

    Signals parameter misconfiguration (the slump is too deep for the supply
    curve); the price is never clamped. A boom's floor is RK4 overshoot, a
    GridTooCoarseError (`market.boom_price`).
    """


class NoPlateauError(SimulationError):
    """No sell-start time produces a plateau (no boom to smooth out)."""


# the step checks a GridTooCoarseError names, with the step written dt: the
# SIR pass's RK4 stability, a boom's two overshoot bounds, the shooting's dt/2
STABILITY, DECAY, OVERSHOOT, HALVED = "(beta*N + gamma)*dt", "gamma*dt", "gamma*dt^2*top", "dt"


def _digits(a: float, b: float) -> int:
    """The fewest significant digits, at least 4, at which a > b read apart."""
    return next((k for k in range(4, 17) if float(f"{a:.{k}g}") > float(f"{b:.{k}g}")), 17)


def apart(a: float, b: float) -> tuple[str, str]:
    """a > b printed at the digits of _digits, so the printed sides read a > b."""
    k = _digits(a, b)
    return f"{a:.{k}g}", f"{b:.{k}g}"


class GridTooCoarseError(SimulationError):
    """The step size is too coarse: the grid lies beyond RK4's stability
    interval, which the SIR pass refuses before any step runs, a boom
    overshoots its price floor, or the shooting solve cannot meet
    tolerance at it.

    The refusal is a record, which str() prints, so every advice reads
    alike and each printed inequality reads true (its sides get the fewest
    digits, at least 4, that tell them apart). Its fields:
    - cause: what failed at the refused dt, in the raising site's words;
    - check: the step check that refused it (STABILITY, DECAY, OVERSHOOT,
      or HALVED: the shooting needs dt/2), with value and limit, the
      check at the refused dt and its limit;
    - advised: the largest dt of at most 4 digits that passes the check
      (`numerics.advised_dt`; dt/2 for the shooting), or None where no dt
      does, as a boom's top overflows for its demand;
    - span and steps, the grid's span and MAX_STEPS at the refusal;
      finest = span/steps, the finest grid's step, and at_finest, the
      check there; longest = bound*steps, the longest span a grid at the
      step bound runs;
    - top: a boom's max demand/p0; horizon: a longer horizon may help.
    The message advises the dt where finest lies at or below it. Else it
    advises none and says why: no allowed grid runs the input where the
    check fails at finest, and else the finest grid steps above the dt.
    """

    def __init__(self, cause: str, check: str, value: float, limit: float,
                 advised: float | None, *, span: float = math.nan, steps: int = 1,
                 bound: float = math.nan, at_finest: float = math.nan, top: float = math.nan,
                 demand: str = "", horizon: bool = False, time: float | None = None):
        super().__init__(cause, time)
        self.cause, self.check, self.value, self.limit = cause, check, value, limit
        self.advised, self.span, self.steps, self.at_finest = advised, span, steps, at_finest
        self.finest, self.longest = span / steps, bound * steps
        self.top, self.demand, self.horizon = top, demand, horizon

    def __str__(self) -> str:
        text = self.cause
        if self.check == STABILITY:
            value, limit = apart(self.value, self.limit)
            text += (f": {self.check} = {value} lies beyond its stability interval of "
                     f"about {limit}")
        if self.advised is None:
            return (f"{text}; no dt meets {self.check} <= kappa*p0, as top = max demand/p0 "
                    f"overflows for the demand {self.demand}")
        horizon = "extend the horizon" if self.horizon else ""
        if self.finest <= self.advised:
            if self.check == HALVED:
                return f"{text}; retry with dt/2" + (horizon and f" or {horizon}")
            if self.check == STABILITY:
                return f"{text}; use dt <= {self.limit:g}/(beta*N + gamma) = {self.advised:.4g}"
            return (f"{text}; use dt <= {self.advised:.4g} ({DECAY} <= 1, {OVERSHOOT} <= "
                    f"kappa*p0, top = max demand/p0 = {self.top:.4g}, every demand >= 0)")
        if self.at_finest <= self.limit:
            finest, advised = apart(self.finest, self.advised)
            return (f"{text}; no dt is advised, as the finest grid steps above the largest "
                    f"4-digit dt that meets the bound: span/MAX_STEPS = {finest} > {advised} "
                    f"for span = {self.span:g} and MAX_STEPS = {self.steps}")
        at, limit = apart(self.at_finest, self.limit)
        # no grid meeting the check runs span, though bound*steps may round up to it
        longest = min(self.longest, math.nextafter(self.span, 0.0))
        k = _digits(self.span, longest)  # the span at no fewer digits than elsewhere
        span, longest = f"{self.span:.{max(k, 6)}g}", f"{longest:.{k}g}"
        side = self.check.replace("dt^2", "(span/MAX_STEPS)^2").replace("dt", "span/MAX_STEPS")
        name = {OVERSHOOT: "kappa*p0 = ", HALVED: "dt/2 = "}.get(self.check, "")
        note = f" (top = max demand/p0 = {self.top:.4g})" if self.check == OVERSHOOT else ""
        grid = "halves dt over this span" if self.check == HALVED else "runs this input"
        return (f"{text}; no allowed grid {grid}, as {side} = {at} > {name}{limit}{note} for "
                f"span = {span} and MAX_STEPS = {self.steps}: the finest grid runs a span of "
                f"at most {longest}" + (horizon and f"; {horizon}"))


class BoundaryExtremumError(SimulationError):
    """The discrete extremum sits on the first or last sample, so parabolic
    refinement has no interior stencil."""


class ConfigError(Exception):
    """Invalid configuration text, key, or parameter bound."""


def require_finite(obj, names) -> None:
    """ConfigError naming the first field of obj in names that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")


def require_signs(obj, **signs) -> None:
    """ConfigError naming the first field of obj, in the order of signs, that
    is not > 0 or >= 0 as its sign says, then the first that is not finite."""
    for name, sign in signs.items():
        value = getattr(obj, name)
        if not (value > 0 if sign == ">" else value >= 0):
            raise ConfigError(f"{name} must be {sign} 0, got {value}")
    require_finite(obj, signs)
