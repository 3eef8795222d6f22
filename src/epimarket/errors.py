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


class GridTooCoarseError(SimulationError):
    """The step size is too coarse: the grid lies beyond RK4's stability
    interval, which the SIR pass refuses before any step runs, a boom
    overshoots its price floor, or the shooting solve cannot meet
    tolerance at it. Retry at the dt the message advises, which itself
    passes the check that refused (`numerics.advised_dt`), unless it says
    that none helps: no dt, or no grid of at most MAX_STEPS steps over the
    span (`numerics.no_grid_steps`), for the SIR pass, a boom and the
    shooting's dt/2 alike."""


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
