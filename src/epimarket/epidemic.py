"""SIR contagion core.

Susceptible agents catch the sentiment from infected ones at rate beta*I*S
and drop out at rate gamma. The module carries the final size, the
long-run recovered mass, which the recovered first integral R +
(gamma/beta)*ln(S) fixes as the one root of a convex equation in the
susceptible mass lost, solved by Newton's method, and sub-grid refinement
of the infection peak. Each newly infected agent spends the endowment w,
so the market buys at the demand beta*I*S*w (`EpidemicParams.demand`).

The market never feeds back into the contagion, so S, I and R are
integrated once per (params, grid), with a demand table: the demand at
the four stages of every RK4 step. Every market pass on the grid
(market, rational) replays it as a scalar RK4 pass of its own holdings,
multiplying by w nowhere, and reads S, I and R from this pass; a
rational path leaves the nodes only around its sell-start time t1,
through its coupled fields.

The pass is rk4_step's arithmetic on the SIR field, written out on plain
floats, so every value matches a fixed-step RK4 run bit for bit. Its
Python loop steps only S and I, since no stage reads R. Every stage of
step k depends only on S and I at node k, so afterwards numpy rebuilds
the stage drives d = beta*I*S, the recovery terms gamma*I and R from the
stored nodes with the same operations in the same order, and writes
D = d*w to the table; R is np.add.accumulate over its increments, which
adds strictly left to right, as the loop did. Each market value keeps
the bits it had when the passes formed d*w themselves: numpy's product
rounds as Python's does; a slump's -D is d*(-w), as negation is exact;
max(D) = max(d)*w for w > 0, as rounding to nearest is monotone, so a
bound's top = max(D)/p0 is max(d)*w/p0; and min(D) >= 0 is the
condition holdings_cannot_raise's proof needs, as the loop it clears
reads D.

The pass refuses a grid beyond RK4's real-axis stability interval,
(beta*N + gamma)*dt above RK4_STABILITY, with GridTooCoarseError before
any step runs, and EpidemicParams a population on which a pass could
overflow; within both bounds every S, I, R and drive is finite (the
lemma in EpidemicParams), so it checks nothing. A demand overflows only
for a huge w. A market or rational pass checks only the variables it
steps, replaying a step where one ends non-finite on its own coupled
field (`coupled_field`: the SIR field, its own rates appended). No rate
reads R.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import count
from operator import neg

import numpy as np

from . import numerics
from .errors import (STABILITY, ConfigError, ConsistencyError, GridTooCoarseError,
                     require_signs)
from .numerics import Grid, advised_dt, newton_parabola, refine_max, rk4_step


# RK4's stability interval on the negative real axis (Hairer, Norsett and
# Wanner, Solving ODEs I): a step of size dt is stable on a decay rate
# lambda only while lambda*dt stays below it
RK4_STABILITY = 2.785
STAGE_BOUND = 16.0  # K of the population bound (see EpidemicParams)


@dataclass(frozen=True)
class EpidemicParams:
    """Rates and initial masses of the contagion.

    endowment is the currency w each newly infected agent spends on the
    asset, so the market buys at demand(S, I) = beta*I*S*w.

    The population N = n1 + n2 + n3 is refused unless K*N and 6*K^2*L*N
    are finite (K = STAGE_BOUND, L = beta*N + gamma), which keeps every
    value of an SIR pass finite. Proof: take a node with S, I >= 0 and
    S + I <= N on a grid epidemic_pass admits, sigma = S/N, iota = I/N,
    a = beta*N*dt and g = gamma*dt, so a + g <= RK4_STABILITY. RK4's stage
    k has S*P_k and I*M_k, so the drive beta*I*S*M_k*P_k: P_1 = M_1 = 1,
    P_{k+1} = 1 - c*a*iota*M_k*P_k and M_{k+1} = 1 + c*(a*sigma*P_k - g)*M_k
    for c = 1/2, 1/2, 1. With weights w = (1, 2, 2, 1)/6 the next node is
    S*Q, I*B and R + g*I*C, where Q = 1 - a*iota*sum(w*M*P), B = 1 +
    sum(w*(a*sigma*P - g)*M) and C = sum(w*M). Over that region Q, B, C >=
    0 and |P_k|, |M_k|, |Q|, |B| <= K - 1 (tests/test_sir_pass.py proves it
    by interval branch-and-bound; sampled, Q >= 0.18, B >= 0.27, C >= 1.59e-4
    and no factor above 13.7). So each node stays in the triangle, as S + I
    falls by g*I*C; stage values and their changes from the node stay
    within K*N; drives and rates gamma*I_k within K^2*L*N, a step's sums of
    them within 6*K^2*L*N, and beta*I_k within K*beta*N (below 6*K^2*L*N if
    N >= 1/(6*K), else below beta). The stability bound is what keeps
    C >= 0: at a = 0, g*C = 1 - R(g) for RK4's decay factor R, which
    exceeds 1 past g = 2.7853. Rounding moves a node by ulps a step, well
    inside these margins.
    """

    beta: float = 5e-4
    gamma: float = 0.1
    n1: float = 999.0
    n2: float = 1.0
    n3: float = 0.0
    endowment: float = 1.0

    def __post_init__(self):
        # beta=0 is admitted as the uncoupled limit: pure recovery decay
        require_signs(self, beta=">=", gamma=">", n1=">", n2=">=", n3=">=", endowment=">")
        total, reach = self.total, self.beta * self.total + self.gamma
        if not (math.isfinite(STAGE_BOUND * total)
                and math.isfinite(6.0 * STAGE_BOUND**2 * (reach * total))):
            raise ConfigError(
                f"population n1 + n2 + n3 = {total:g} lets the SIR pass overflow: K*N "
                f"and 6*K^2*(beta*N + gamma)*N, K = {STAGE_BOUND:g}, must be finite")

    @property
    def total(self) -> float:
        return self.n1 + self.n2 + self.n3

    def demand(self, s: float, i: float) -> float:
        """The market's buying rate beta*I*S*w at S = s and I = i."""
        return self.beta * i * s * self.endowment

    @property
    def demand_text(self) -> str:
        """The demand's formula with this w, for error messages."""
        return f"beta*I*S*w, w = {self.endowment:g}"

    @property
    def threshold(self) -> float:
        """gamma/beta: infections grow only while S exceeds this mass."""
        if self.beta == 0:
            return math.inf
        return self.gamma / self.beta

    @property
    def booms(self) -> bool:
        """Whether the contagion grows: seeded, with n1 above the threshold."""
        return self.n2 != 0 and self.n1 > self.threshold


@dataclass(frozen=True, eq=False)
class EpidemicTrajectory:
    """S, I and R at the grid's nodes.

    demand is the (n_steps, 4) table of the demand beta*I*S*w at the four
    RK4 stages of each step.
    """

    params: EpidemicParams
    grid: Grid
    times: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    demand: np.ndarray

    def state_at(self, k: int) -> tuple[float, float, float]:
        """(S, I, R) at node k as floats."""
        return float(self.s[k]), float(self.i[k]), float(self.r[k])

    def steps(self, k: int = 0, negate: bool = False):
        """The RK4 steps from node k to the end of the grid, for a scalar
        pass over the demand table.

        Yields (j, d1, d2, d3, d4) for each step j: the demands at its four
        stages, negated if negate (a slump's). `market.holdings_pass`'s
        loop with no check reads the table itself.
        """
        d = memoryview(self.demand.reshape(-1))[4 * k:]
        d = map(neg, d) if negate else iter(d)
        return zip(count(k), d, d, d, d)

    def replay(self, field, k: int, y: tuple) -> tuple:
        """rk4_step over step k on a coupled field, from the grid's t, S, I
        and R at node k and the field's own variables y."""
        return rk4_step(field, float(self.times[k]), self.state_at(k) + y, self.grid.dt)


@dataclass(frozen=True)
class InfectionPeak:
    """Refined time of the interior maximum of the infected mass, and S
    there, if one exists."""

    t_star: float | None
    s_star: float | None

    @property
    def exists(self) -> bool:
        return self.t_star is not None


def coupled_field(params: EpidemicParams, rate):
    """A coupled rk4_step field on y = (s, i, r, ...): the SIR field (ds,
    di, dr) = (-beta*I*S, beta*I*S - gamma*I, gamma*I), which sums to zero
    by construction, with the tuple rate(t, demand, y[3:]) of the variables
    after R appended, demand = params.demand(S, I)."""
    beta, gamma = params.beta, params.gamma

    def field(t, y):
        inf = beta * y[1] * y[0]
        rec = gamma * y[1]
        return (-inf, inf - rec, rec) + rate(t, params.demand(y[0], y[1]), y[3:])

    return field


# steps per block of the numpy rebuild after the SIR loop: bounds its
# temporaries, so a pass's peak memory stays that of its arrays
BLOCK = 4096


def epidemic_pass(params: EpidemicParams, grid: Grid) -> EpidemicTrajectory:
    """S, I and R over the grid with the demand table, for market passes
    to run on.

    Raises GridTooCoarseError before any step if (beta*N + gamma)*dt lies
    beyond RK4_STABILITY, advising the largest 4-digit dt that meets the
    bound where some grid Grid admits over the span steps at it
    (`numerics.advised_dt`; the error's fields say the rest). On any other
    grid S, I, R and every drive are finite (see EpidemicParams).
    """
    n = grid.n_steps
    beta, gamma, w, h = params.beta, params.gamma, params.endowment, grid.dt
    rate = beta * params.total + gamma
    if rate * h > RK4_STABILITY:
        span, steps, bound = grid.t_end - grid.t_start, numerics.MAX_STEPS, RK4_STABILITY / rate
        raise GridTooCoarseError(
            f"dt={h} is too coarse for RK4", STABILITY, rate * h, RK4_STABILITY,
            advised_dt(bound, lambda d: rate * d <= RK4_STABILITY),
            span=span, steps=steps, bound=bound, at_finest=rate * (span / steps))
    half, sixth = 0.5 * h, h / 6.0
    s, i = params.n1, params.n2
    # allocated at full size: growing them step by step fragments the heap
    s_arr = array("d", [s]) * (n + 1)
    i_arr = array("d", [i]) * (n + 1)
    for k in range(1, n + 1):
        # e is each stage's dI = beta*I*S - gamma*I, computed once
        d1 = beta * i * s
        e1 = d1 - gamma * i
        s2 = s - half * d1
        i2 = i + half * e1
        d2 = beta * i2 * s2
        e2 = d2 - gamma * i2
        s3 = s - half * d2
        i3 = i + half * e2
        d3 = beta * i3 * s3
        e3 = d3 - gamma * i3
        s4 = s - h * d3
        i4 = i + h * e3
        d4 = beta * i4 * s4
        e4 = d4 - gamma * i4
        s = s - sixth * (d1 + 2.0 * (d2 + d3) + d4)
        i = i + sixth * (e1 + 2.0 * (e2 + e3) + e4)
        s_arr[k] = s
        i_arr[k] = i
    s_nodes, i_nodes = np.frombuffer(s_arr), np.frombuffer(i_arr)
    demand = np.empty((n, 4))
    r_nodes = np.empty(n + 1)
    r_nodes[0] = params.n3
    # the loop's stage arithmetic again, on the stored S and I
    for a in range(0, n, BLOCK):
        b = min(a + BLOCK, n)
        s, i = s_nodes[a:b], i_nodes[a:b]
        d1 = beta * i * s
        c1 = gamma * i
        s2 = s - half * d1
        i2 = i + half * (d1 - c1)
        d2 = beta * i2 * s2
        c2 = gamma * i2
        s3 = s - half * d2
        i3 = i + half * (d2 - c2)
        d3 = beta * i3 * s3
        c3 = gamma * i3
        s4 = s - h * d3
        i4 = i + h * (d3 - c3)
        d4 = beta * i4 * s4
        c4 = gamma * i4
        with np.errstate(over="ignore"):  # d*w may overflow for a huge w
            for j, d in enumerate((d1, d2, d3, d4)):
                np.multiply(d, w, out=demand[a:b, j])
        # R(k+1) = R(k) + increment, strictly left to right
        r_inc = np.empty(b - a + 1)
        r_inc[0] = r_nodes[a]
        r_inc[1:] = sixth * (c1 + 2.0 * (c2 + c3) + c4)
        np.add.accumulate(r_inc, out=r_nodes[a:b + 1])
    return EpidemicTrajectory(params=params, grid=grid, times=grid.times(), s=s_nodes,
                              i=i_nodes, r=r_nodes, demand=demand)


# the SIR pass under the name the benchmark traces
simulate_epidemic = epidemic_pass


# ---------------------------------------------------------------------------
# final size
# ---------------------------------------------------------------------------


def steady_state_recovered(params: EpidemicParams) -> float:
    """Long-run recovered mass R_inf = n3 + n2 + u, where u is the
    susceptible mass the outbreak takes.

    R + (gamma/beta)*ln(S) is conserved and I dies out, so u is a root of
    k(u) = u + n1*expm1(-(u + n2)*beta/gamma). k is convex, and for n2,
    beta > 0, k(0) < 0 <= k(n1) = n1*exp(-(n1 + n2)*beta/gamma), so k has
    exactly one root in [0, n1]; its other root lies below -n2, where
    k = -n2. Newton's method from u = n1, where k >= 0 and k rises, stays
    above the root of a convex k and falls onto it; it stops at the first
    step that does not fall (a slope rounded to <= 0 takes no step) or
    that leaves [0, u). At beta = 0, k(u) = u and the first step lands on
    its root u = 0. n2 = 0 returns n3: nothing ever spreads, although at
    R0 > 1 the equation also has the epidemic root.
    """
    if params.n2 == 0:
        return params.n3
    n1, n2, beta, gamma = params.n1, params.n2, params.beta, params.gamma
    u = n1
    while True:
        x = (u + n2) * beta / gamma
        slope = 1.0 - n1 * beta * math.exp(-x) / gamma
        step = (u + n1 * math.expm1(-x)) / slope if slope > 0.0 else 0.0
        if not 0.0 <= u - step < u:
            return params.n3 + n2 + u
        u -= step


# ---------------------------------------------------------------------------
# infection peak
# ---------------------------------------------------------------------------


def infection_peak(params: EpidemicParams, trajectory: EpidemicTrajectory) -> InfectionPeak:
    """Sub-grid refinement of the interior maximum of I (`numerics.refine_max`).

    A peak exists only when the initial susceptible mass exceeds
    gamma/beta and some infection is seeded (n2 > 0); otherwise I never
    grows and the detector reports no peak rather than a boundary value.
    """
    if trajectory.params != params:
        raise ConsistencyError("trajectory was produced with different parameters")
    if not params.booms:
        return InfectionPeak(t_star=None, s_star=None)

    t, s = trajectory.times, trajectory.s
    k, t_star, _i = refine_max(t, trajectory.i, "infected maximum sits on the grid boundary "
                               "(node {k}); the horizon is too short to contain the peak")
    # S at the refined time, on the parabola through the same three nodes
    s_at = newton_parabola(*(float(col[j]) for j in (k - 1, k, k + 1) for col in (t, s)))[2]
    return InfectionPeak(t_star=t_star, s_star=s_at(t_star))
