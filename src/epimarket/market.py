"""Asset market driven by the contagion.

Newly infected agents spend their endowment on shares at the going price;
recovered agents liquidate at rate gamma. Aggregate speculative holdings x
clear against an exogenous linear supply curve, so the price is an exact
closed-form function of x. The euphoric scenario integrates the holdings
ODE directly; the depressive scenario is its exact sign-mirror; a
trapezoid quadrature of the underlying cohort integral serves as an
independent oracle for the state variable.

Both scenarios take the SIR pass they run on (`epidemic_pass`), and
with it their params and grid, and run x alone, as a scalar RK4 pass
over its stage drives: `EpidemicTrajectory.steps` streams each step's
four drives and (S+I)+R at its end node, and S, I and R are that pass's
arrays (a grid beyond RK4's stability interval is refused there). The
coupled (S, I, R, x) field of each scenario, sir_derivatives with the x
rate appended (`holdings_field`), remains its definition: a step that
reaches the price floor at a stage, or ends non-finite, is replayed
through rk4_step on it from the grid's state at its start node
(`EpidemicTrajectory.replay`), so errors carry the coupled step's stage
time and message. The rational unwind after the plateau is the euphoric
pass restarted from the closing node (see rational).
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .epidemic import EpidemicParams, EpidemicTrajectory, coupled_field
from .errors import ConfigError, DomainError, PriceFloorError
from .numerics import Grid

if TYPE_CHECKING:
    from .rational import PlateauSolution


@dataclass(frozen=True)
class SupplyCurve:
    """Excess supply phi(p) = kappa*(p - p0): zero at the baseline price,
    strictly increasing, exactly invertible."""

    p0: float = 1.0
    kappa: float = 10.0

    def __post_init__(self):
        if not (self.p0 > 0):
            raise ConfigError(f"p0 must be > 0, got {self.p0}")
        if not (self.kappa > 0):
            raise ConfigError(f"kappa must be > 0, got {self.kappa}")
        for name in ("p0", "kappa"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")


def clearing_price(x: float, curve: SupplyCurve) -> float:
    """Price at which supply absorbs holdings x; exact inverse of the
    linear curve. Holdings at or below -kappa*p0 would need a zero or
    negative price, which is a parameter misconfiguration, never clamped.
    """
    if x <= -curve.kappa * curve.p0:
        raise PriceFloorError(
            f"holdings x={x} drive the clearing price to or below zero "
            f"(floor at x={-curve.kappa * curve.p0})"
        )
    return curve.p0 + x / curve.kappa


@dataclass(frozen=True, eq=False)
class MarketTrajectory:
    """Node-aligned market history.

    x is total speculative holdings; for the rational scenario it splits
    into z (held by the currently infected) and h (held by cured agents
    waiting out the plateau), and the plateau metadata t1/t2/p_star plus
    the two phase-boundary node indices are populated; a solved path
    (`re_price_path`) also carries its PlateauSolution as solution.
    """

    params: EpidemicParams
    curve: SupplyCurve
    grid: Grid
    scenario: str
    times: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    x: np.ndarray
    p: np.ndarray
    z: np.ndarray | None = None
    h: np.ndarray | None = None
    t1: float | None = None
    t2: float | None = None
    p_star: float | None = None
    plateau_start: int | None = None
    post_start: int | None = None
    solution: PlateauSolution | None = None

    def __len__(self) -> int:
        return len(self.times)

    def phases(self) -> list[str]:
        """Per-node phase labels for serialization.

        Non-rational scenarios are all 'na'. Rational runs are 'pre' up to
        the sell-start time, 'plateau' strictly inside it, and 'post' from
        the node where the plateau closed.
        """
        n = len(self.times)
        if self.scenario != "rational" or self.plateau_start is None:
            return ["na"] * n
        pre = self.plateau_start
        post = self.post_start if self.post_start is not None else n
        return ["pre"] * pre + ["plateau"] * (post - pre) + ["post"] * (n - post)


# ---------------------------------------------------------------------------
# scenario integrators
# ---------------------------------------------------------------------------


def holdings_field(params: EpidemicParams, curve: SupplyCurve, mirror: bool = False):
    """The coupled (s, i, r, x) field of a boom (mirror=False) or a slump."""
    gamma, w = params.gamma, params.endowment
    p0, kappa = curve.p0, curve.kappa
    floor = -kappa * p0

    def rate(t, inf, y):
        x = y[0]
        if x <= floor:
            raise PriceFloorError(
                f"clearing price hit zero at t={t} (x={x})", time=t
            )
        p = p0 + x / kappa
        return ((-inf * w / (2.0 * p0 - p) if mirror else inf * w / p) - gamma * x,)

    return coupled_field(params, rate)


def holdings_pass(params: EpidemicParams, curve: SupplyCurve, epi: EpidemicTrajectory,
                  k: int, x: float, mirror: bool = False) -> array:
    """x at node k and at each node after, from holdings x at node k.

    Scalar RK4 of dx = drive*w/P - gamma*x with P = p0 + x/kappa over the
    stage drives of epi's steps from node k (`EpidemicTrajectory.steps`);
    mirror=True divides minus the drive by the reflected price 2*p0 - P
    instead. A stage state at or below the floor -kappa*p0, or a
    non-finite step, is replayed (`EpidemicTrajectory.replay`) on
    holdings_field, the coupled field of the same equation, which raises
    what the coupled step raises; if it raises nothing, the step stands.
    """
    w, gamma = params.endowment, params.gamma
    p0, kappa = curve.p0, curve.kappa
    field, floor = holdings_field(params, curve, mirror), -kappa * p0
    dt = epi.grid.dt
    half, sixth, two_p0 = 0.5 * dt, dt / 6.0, 2.0 * p0
    out = array("d", [x])
    add = out.append
    for j, d1, d2, d3, d4, total in epi.steps(k):
        if x <= floor:
            epi.replay(field, j, (x,))
        p = p0 + x / kappa
        k1 = (-d1 * w / (two_p0 - p) if mirror else d1 * w / p) - gamma * x
        x2 = x + half * k1
        if x2 <= floor:
            epi.replay(field, j, (x,))
        p = p0 + x2 / kappa
        k2 = (-d2 * w / (two_p0 - p) if mirror else d2 * w / p) - gamma * x2
        x3 = x + half * k2
        if x3 <= floor:
            epi.replay(field, j, (x,))
        p = p0 + x3 / kappa
        k3 = (-d3 * w / (two_p0 - p) if mirror else d3 * w / p) - gamma * x3
        x4 = x + dt * k3
        if x4 <= floor:
            epi.replay(field, j, (x,))
        p = p0 + x4 / kappa
        k4 = (-d4 * w / (two_p0 - p) if mirror else d4 * w / p) - gamma * x4
        x1 = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        chk = total + x1
        if chk - chk != 0.0:
            epi.replay(field, j, (x,))
        x = x1
        add(x)
    return out


def _scenario(curve: SupplyCurve, epi: EpidemicTrajectory, mirror: bool) -> MarketTrajectory:
    x = np.frombuffer(holdings_pass(epi.params, curve, epi, 0, 0.0, mirror))
    return MarketTrajectory(
        params=epi.params, curve=curve, grid=epi.grid,
        scenario="depression" if mirror else "myopic",
        times=epi.times, s=epi.s, i=epi.i, r=epi.r,
        x=x, p=curve.p0 + x / curve.kappa,
    )


def simulate_myopic(curve: SupplyCurve, epi: EpidemicTrajectory) -> MarketTrajectory:
    """Euphoria with immediate liquidation on recovery, on the SIR pass epi.

    State equation for holdings: dx = beta*I*S*w/P - gamma*x, the
    exponential-kernel reduction of the cohort integral, with
    P = p0 + x/kappa evaluated at every integration stage.
    """
    return _scenario(curve, epi, False)


def simulate_depression(curve: SupplyCurve, epi: EpidemicTrajectory) -> MarketTrajectory:
    """Pessimism spreading: infected agents short, recovered agents cover.

    The drive term divides by the reflected price 2*p0 - P rather than P,
    which makes the run the exact sign-mirror of the euphoric one on the
    same pass: x(t) = -x_boom(t) and P(t) = 2*p0 - P_boom(t) node for
    node. The price floor therefore binds exactly when the mirrored boom
    would have peaked at or above 2*p0; that is a hard error, not a clamp.
    """
    return _scenario(curve, epi, True)


# ---------------------------------------------------------------------------
# cohort-integral oracle
# ---------------------------------------------------------------------------


def cohort_holdings_profile(trajectory: MarketTrajectory) -> np.ndarray:
    """Trapezoid of the cohort integral at every node, in one O(n) pass.

    Integrates the share-purchase rate of the freshly infected cohort
    against the exp(-gamma*(t-v)) survival kernel, using the run's params
    and stored I, S and P; an independent check on the ODE state x, never
    used by the integrator itself. The recurrence X(t+dt) =
    exp(-gamma*dt)*X(t) + local trapezoid reproduces the global trapezoid
    exactly (up to rounding) while staying stable for any gamma*t.
    """
    params = trajectory.params
    rate = params.beta * trajectory.i * trajectory.s * params.endowment
    if trajectory.scenario == "myopic":
        u = rate / trajectory.p
    elif trajectory.scenario == "depression":
        u = -rate / (2.0 * trajectory.curve.p0 - trajectory.p)
    else:
        raise DomainError(
            f"cohort quadrature is defined for myopic and depression runs, "
            f"not '{trajectory.scenario}'"
        )
    dt = trajectory.grid.dt
    decay = math.exp(-params.gamma * dt)
    half = 0.5 * dt
    out = np.empty(len(u))
    out[0] = 0.0
    acc = 0.0
    for j in range(1, len(u)):
        acc = acc * decay + half * (u[j - 1] * decay + u[j])
        out[j] = acc
    return out
