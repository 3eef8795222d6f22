"""Asset market driven by the contagion.

Newly infected agents spend their currency w on shares at the going
price, the demand beta*I*S*w; recovered agents liquidate at rate gamma.
Aggregate speculative holdings x clear against an exogenous linear supply
curve, so the price is an exact closed-form function of x. The euphoric
scenario integrates the holdings ODE directly; the depressive scenario
is its exact sign-mirror; a trapezoid quadrature of the underlying
cohort integral serves as an independent oracle for the state variable.

Both scenarios, and holdings_pass under them, take the SIR pass they
run on (`epidemic_pass`) and read their params and grid there; the leg
they return holds it (`MarketTrajectory.epi`), which is where its S, I
and R are read, and keeps only x and p of its own. They run x alone, as
a scalar RK4 pass over the pass's demand table, four stage demands per
step (negated in a slump). A boom that `holdings_cannot_raise` proves
safe before the loop (the myopic leg and the rational unwind on a usual
pass) runs in a loop with no check; any other pass, every slump among
them, is checked in its loop (`_checked_pass`). The coupled (S, I, R,
x) field of each scenario, `coupled_field` with the x rate appended
(`holdings_field`), remains its definition: a step that reaches the
price floor or a price (reflected, in a slump) <= 0 at a stage, or ends
with x non-finite, is replayed through rk4_step on it from the grid's
state at its start node (`EpidemicTrajectory.replay`), so errors carry
the coupled step's stage time and message (see epidemic); a boom's floor
is RK4 overshoot (`boom_price`). The rational unwind after the plateau
is the euphoric pass restarted from the closing node.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .epidemic import EpidemicTrajectory, coupled_field
from . import numerics
from .errors import (DECAY, OVERSHOOT, DomainError, GridTooCoarseError, PriceFloorError,
                     require_signs)

if TYPE_CHECKING:
    from .rational import PlateauSolution


@dataclass(frozen=True)
class SupplyCurve:
    """Excess supply phi(p) = kappa*(p - p0): zero at the baseline price,
    strictly increasing, exactly invertible."""

    p0: float = 1.0
    kappa: float = 10.0

    def __post_init__(self):
        require_signs(self, p0=">", kappa=">")


@dataclass(frozen=True, eq=False)
class MarketTrajectory:
    """Node-aligned market history on epi, the SIR pass it ran on, whose
    params, grid, times, S, I and R it reads.

    x is total speculative holdings (on a rational path, the sum z + h of
    the holdings of the currently infected and of the cured agents waiting
    out the plateau, which the path keeps only as that sum). A rational
    path also holds its two phase-boundary node indices and its one
    plateau record, whose t1, t2 and P* it keeps no copy of: the solve's
    PlateauSolution on a solved path (`re_price_path`), the closing scan
    entry's on a trial one (`simulate_re_given_t1`). x and p run over
    every node of epi, except on a head (`re_price_head`), which ends
    before epi does.
    """

    epi: EpidemicTrajectory
    curve: SupplyCurve
    scenario: str
    x: np.ndarray
    p: np.ndarray
    plateau_start: int | None = None
    post_start: int | None = None
    plateau: PlateauSolution | None = None

    def phases(self) -> list[str]:
        """Per-node phase labels for serialization.

        Non-rational scenarios are all 'na'. Rational runs are 'pre' up to
        the sell-start time, 'plateau' strictly inside it, and 'post' from
        the node where the plateau closed.
        """
        n = len(self.p)
        if self.scenario != "rational":
            return ["na"] * n
        pre = self.plateau_start
        post = self.post_start if self.post_start is not None else n
        return ["pre"] * pre + ["plateau"] * (post - pre) + ["post"] * (n - post)


# ---------------------------------------------------------------------------
# scenario integrators
# ---------------------------------------------------------------------------


def holdings_field(curve: SupplyCurve, epi: EpidemicTrajectory, mirror: bool = False):
    """The coupled (s, i, r, x) field of a boom (mirror=False) or a slump on
    the SIR pass epi; a boom's price is boom_price, and a slump's stage at
    the floor or dividing by a price <= 0 is a PriceFloorError."""
    gamma, p0, kappa = epi.params.gamma, curve.p0, curve.kappa
    floor, two_p0 = -kappa * p0, 2.0 * p0

    def rate(t, dem, y):
        x = y[0]
        if not mirror:
            return (dem / boom_price(curve, epi, t, x) - gamma * x,)
        div = two_p0 - (p0 + x / kappa)
        if x <= floor or div <= 0.0:
            price = "clearing price" if x <= floor else "reflected price 2*p0 - P"
            raise PriceFloorError(f"{price} hit zero at t={t} (x={x})", time=t)
        return (-dem / div - gamma * x,)

    return coupled_field(epi.params, rate)


def boom_price(curve: SupplyCurve, epi: EpidemicTrajectory, t: float, x: float) -> float:
    """The clearing price of a boom's holdings x at time t on the SIR pass
    epi. From x >= 0 a boom's exact holdings (and phase 1's z + h) never
    fall below 0, so at the floor it is RK4 overshoot: a GridTooCoarseError
    advising the largest 4-digit dt at which holdings_cannot_raise's step
    bound holds (`numerics.advised_dt`), or, where that bound's top
    overflows, naming the demand, which no dt meets."""
    p = curve.p0 + x / curve.kappa
    if x > -curve.kappa * curve.p0 and p > 0.0:
        return p
    gamma, kp, dt = epi.params.gamma, curve.kappa * curve.p0, epi.grid.dt
    top = float(np.max(epi.demand, initial=0.0)) / curve.p0
    cause = f"clearing price hit zero at t={t} (x={x}) in a boom: RK4 overshoot at dt={dt}"
    if not math.isfinite(top):
        raise GridTooCoarseError(cause, OVERSHOOT, math.inf, kp, None,
                                 demand=epi.params.demand_text, time=t)
    bound = min(1.0 / gamma, math.sqrt(kp / gamma) / math.sqrt(top) if top > 0.0 else math.inf)
    span, steps = epi.grid.t_end - epi.grid.t_start, numerics.MAX_STEPS
    finest = span / steps
    # the check named fails at the finest step where one does, else its bound binds
    decay = (bound == 1.0 / gamma if _step_holds(gamma, finest, top, kp)
             else gamma * finest > 1.0)
    check, limit, at = ((DECAY, 1.0, lambda d: gamma * d) if decay else
                        (OVERSHOOT, kp, lambda d: gamma * d * d * top))
    advised = numerics.advised_dt(bound, lambda d: _step_holds(gamma, d, top, kp))
    raise GridTooCoarseError(cause, check, at(dt), limit, advised, span=span, steps=steps,
                             bound=bound, at_finest=at(finest), top=top, time=t)


def holdings_cannot_raise(curve: SupplyCurve, epi: EpidemicTrajectory, k: int,
                          x: float) -> bool:
    """True if the boom's holdings_pass (mirror=False) from holdings x at
    node k, over the grid's demands from there, can neither reach the price
    floor nor go non-finite.

    Write a = gamma*dt, D = d/P for a stage's demand d (the table's entry)
    and price P, and top = max(d)/p0 over the steps. RK4 on dx = D - gamma*x
    is affine in x and the four D's:
        x2 = (1 - a/2)*x + dt/2*D1
        x3 = (1 - a/2 + a^2/4)*x - a*dt/4*D1 + dt/2*D2
        x4 = (1 - a + a^2/2 - a^3/4)*x + a^2*dt/4*D1 - a*dt/2*D2 + dt*D3
        next node = R(a)*x + dt/6*(c1*D1 + c2*D2 + c3*D3 + D4),
    with R(a) = 1 - a + a^2/2 - a^3/6 + a^4/24 and, for a <= 1, every
    coefficient of x and c1..c3 in (0, 2]. So from x >= 0 with every
    d >= 0: x2 >= 0, so P1, P2 >= p0 and D1, D2 <= top; then
    x3 >= -a*dt*top/4 and x4 >= -a*dt*top/2, both above -kappa*p0/2 once
    a*dt*top <= kappa*p0, so every stage clears at P >= p0/2 > 0 and every
    D is in [0, 2*top]; then the next node is >= 0 again, and at most
    1.5*dt*top above x. Every stage thus stays in [-kappa*p0/2,
    x + 3*top*span] over the span left, half the floor's distance inside
    it, which rounding does not close, and every rate D - gamma*x is
    finite when (1 + gamma) times that bound is. The SIR stage derivatives
    are finite on every pass that epidemic_pass returns (see epidemic).
    """
    d = epi.demand[k:]
    gamma = epi.params.gamma
    top = float(np.max(d, initial=0.0)) / curve.p0
    bound = x + 3.0 * top * (epi.grid.t_end - epi.grid.node(k))
    return bool(x >= 0.0 and np.min(d, initial=0.0) >= 0.0
                and _step_holds(gamma, epi.grid.dt, top, curve.kappa * curve.p0)
                and math.isfinite((1.0 + gamma) * bound))


def _step_holds(gamma: float, dt: float, top: float, kp: float) -> bool:
    """holdings_cannot_raise's step bound, which boom_price advises."""
    return gamma * dt <= 1.0 and gamma * dt * dt * top <= kp


def holdings_pass(curve: SupplyCurve, epi: EpidemicTrajectory, k: int, x: float,
                  mirror: bool = False) -> array:
    """x at node k and at each node after, from holdings x at node k.

    Scalar RK4 of dx = demand/P - gamma*x with P = p0 + x/kappa over the
    stage demands of epi's steps from node k; mirror=True divides minus the
    demand by the reflected price 2*p0 - P instead. A boom that
    holdings_cannot_raise proves safe runs in a loop with no check, since
    every stage clears at P >= p0/2 > 0; every other pass, every slump
    among them, is _checked_pass, the same arithmetic checked in its loop.
    """
    if mirror or not holdings_cannot_raise(curve, epi, k, x):
        return _checked_pass(curve, epi, k, x, mirror)
    gamma, p0, kappa = epi.params.gamma, curve.p0, curve.kappa
    dt = epi.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    out = array("d", [x])
    add = out.append
    d = iter(memoryview(epi.demand.reshape(-1))[4 * k:])
    for d1, d2, d3, d4 in zip(d, d, d, d):
        k1 = d1 / (p0 + x / kappa) - gamma * x
        x2 = x + half * k1
        k2 = d2 / (p0 + x2 / kappa) - gamma * x2
        x3 = x + half * k2
        k3 = d3 / (p0 + x3 / kappa) - gamma * x3
        x4 = x + dt * k3
        k4 = d4 / (p0 + x4 / kappa) - gamma * x4
        x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        add(x)
    return out


def _checked_pass(curve: SupplyCurve, epi: EpidemicTrajectory, k: int, x: float,
                  mirror: bool) -> array:
    """holdings_pass with its checks in the loop.

    Each stage state is tested against the floor -kappa*p0, and its
    divisor (P, or 2*p0 - P in a slump) for <= 0, before it divides, and
    each step's end x for finiteness; a step that fails one is replayed on
    holdings_field (`EpidemicTrajectory.replay`) at once, as in
    `rational._accumulate`, and raises what the coupled step raises. One
    that raises nothing stands. A slump reads the negated demands.
    """
    gamma, p0, kappa = epi.params.gamma, curve.p0, curve.kappa
    field, floor = holdings_field(curve, epi, mirror), -kappa * p0
    dt = epi.grid.dt
    half, sixth, two_p0 = 0.5 * dt, dt / 6.0, 2.0 * p0
    out = array("d", [x])
    add = out.append
    for j, d1, d2, d3, d4 in epi.steps(k, negate=mirror):
        p = p0 + x / kappa
        div = two_p0 - p if mirror else p
        if x <= floor or div <= 0.0:
            epi.replay(field, j, (x,))
        k1 = d1 / div - gamma * x
        x2 = x + half * k1
        p = p0 + x2 / kappa
        div = two_p0 - p if mirror else p
        if x2 <= floor or div <= 0.0:
            epi.replay(field, j, (x,))
        k2 = d2 / div - gamma * x2
        x3 = x + half * k2
        p = p0 + x3 / kappa
        div = two_p0 - p if mirror else p
        if x3 <= floor or div <= 0.0:
            epi.replay(field, j, (x,))
        k3 = d3 / div - gamma * x3
        x4 = x + dt * k3
        p = p0 + x4 / kappa
        div = two_p0 - p if mirror else p
        if x4 <= floor or div <= 0.0:
            epi.replay(field, j, (x,))
        k4 = d4 / div - gamma * x4
        x1 = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if x1 - x1 != 0.0:
            epi.replay(field, j, (x,))
        x = x1
        add(x)
    return out


def _scenario(curve: SupplyCurve, epi: EpidemicTrajectory, mirror: bool) -> MarketTrajectory:
    x = np.frombuffer(holdings_pass(curve, epi, 0, 0.0, mirror))
    return MarketTrajectory(
        epi=epi, curve=curve, scenario="depression" if mirror else "myopic",
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
    against the exp(-gamma*(t-v)) survival kernel, using the params, I
    and S of the run's SIR pass and the run's P; an independent check on
    the ODE state x, never used by the integrator itself. The recurrence
    X(t+dt) = exp(-gamma*dt)*X(t) + local trapezoid reproduces the global
    trapezoid exactly (up to rounding) while staying stable for any gamma*t.
    """
    if trajectory.scenario != "myopic":
        raise DomainError(
            f"cohort quadrature is defined for myopic runs, not '{trajectory.scenario}'")
    epi = trajectory.epi
    params = epi.params
    u = params.beta * epi.i * epi.s * params.endowment / trajectory.p
    dt = epi.grid.dt
    decay = math.exp(-params.gamma * dt)
    half = 0.5 * dt
    out = np.empty(len(u))
    out[0] = 0.0
    acc = 0.0
    for j in range(1, len(u)):
        acc = acc * decay + half * (u[j - 1] * decay + u[j])
        out[j] = acc
    return out
