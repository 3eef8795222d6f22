"""SIR contagion core.

Susceptible agents catch the sentiment from infected ones at rate beta*I*S
and drop out at rate gamma. The module carries the implicit final-size
equation for the long-run recovered mass, which follows from the
recovered first integral R + (gamma/beta)*ln(S), and sub-grid refinement
of the infection peak.

The market never feeds back into the contagion, so S, I and R are
integrated once per (params, grid). That pass keeps a drive table: for
every RK4 step, the drive beta*I*S at each of the four stages. Every
market pass on the same grid (market, rational) replays those drives as
a scalar RK4 pass of its own holdings (`EpidemicTrajectory.steps`), and
its S, I and R are this pass's arrays. A rational path leaves the nodes
only around its sell-start time t1: the steps to t1 and on to the next
node go through its coupled fields, and from that node on it reads the
grid's S, I and R again.

The pass is rk4_step's arithmetic on the SIR field, written out on plain
floats, so every value matches a fixed-step RK4 run bit for bit. Its
Python loop steps only S and I, since no stage of a step reads R. Every
stage of step k depends only on S and I at node k, so afterwards numpy
rebuilds the drive table, the recovery terms gamma*I and R from the
stored nodes, with the same operations in the same order; R is
np.add.accumulate over its increments, which adds strictly left to
right, as the loop did.

The pass refuses a grid beyond RK4's real-axis stability interval,
(beta*N + gamma)*dt above RK4_STABILITY, with GridTooCoarseError before
any step runs; every market and rational pass is driven by it, so none
steps on such a grid. Inside the interval the pass runs to the grid's
end unchecked. A reader replays a step whose result is non-finite
through rk4_step on its own coupled field (`EpidemicTrajectory.replay`),
which raises exactly what the coupled step raises. Every coupled field
is `coupled_field`: sir_derivatives with the field's own rates appended.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np

from .errors import (
    BoundaryExtremumError,
    ConfigError,
    ConsistencyError,
    ConvergenceError,
    GridTooCoarseError,
)
from .numerics import (
    Bracket,
    Grid,
    find_root_bracketed,
    parabolic_vertex,
    rk4_step,
)


@dataclass(frozen=True)
class EpidemicParams:
    """Rates and initial masses of the contagion.

    endowment is the currency each newly infected agent brings to the asset
    market; it rides along here because every market scenario needs it next
    to beta and gamma.
    """

    beta: float = 5e-4
    gamma: float = 0.1
    n1: float = 999.0
    n2: float = 1.0
    n3: float = 0.0
    endowment: float = 1.0

    def __post_init__(self):
        # beta=0 is admitted as the uncoupled limit: pure recovery decay
        if not (self.beta >= 0):
            raise ConfigError(f"beta must be >= 0, got {self.beta}")
        if not (self.gamma > 0):
            raise ConfigError(f"gamma must be > 0, got {self.gamma}")
        if not (self.n1 > 0):
            raise ConfigError(f"n1 must be > 0, got {self.n1}")
        if not (self.n2 >= 0):
            raise ConfigError(f"n2 must be >= 0, got {self.n2}")
        if not (self.n3 >= 0):
            raise ConfigError(f"n3 must be >= 0, got {self.n3}")
        if not (self.endowment > 0):
            raise ConfigError(f"endowment must be > 0, got {self.endowment}")
        for name in ("beta", "gamma", "n1", "n2", "n3", "endowment"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")

    @property
    def total(self) -> float:
        return self.n1 + self.n2 + self.n3

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


@dataclass(frozen=True)
class EpidemicState:
    s: float
    i: float
    r: float


# RK4's stability interval on the negative real axis (Hairer, Norsett and
# Wanner, Solving ODEs I): a step of size dt is stable on a decay rate
# lambda only while lambda*dt stays below it
RK4_STABILITY = 2.785


@dataclass(frozen=True, eq=False)
class EpidemicTrajectory:
    """S, I and R at the grid's nodes.

    drives is the (n_steps, 4) table of beta*I*S at the four RK4 stages of
    each step.
    """

    params: EpidemicParams
    grid: Grid
    times: np.ndarray
    s: np.ndarray
    i: np.ndarray
    r: np.ndarray
    drives: np.ndarray

    def state_at(self, k: int) -> EpidemicState:
        return EpidemicState(float(self.s[k]), float(self.i[k]), float(self.r[k]))

    @cached_property
    def _totals(self) -> np.ndarray:
        """(S+I)+R at every node, the first sums of a step's finiteness check."""
        with np.errstate(all="ignore"):  # a blow-up stays silent
            return (self.s + self.i) + self.r

    def steps(self, k: int = 0):
        """The RK4 steps from node k to the end of the grid, for a scalar
        pass over the drive table.

        Yields (j, d1, d2, d3, d4, total) for each step j: the drives
        beta*I*S at its four stages, and (S+I)+R at the node it ends at.
        A pass replays step j through `replay`.
        """
        drives = iter(memoryview(self.drives.reshape(-1))[4 * k:])
        return zip(count(k), drives, drives, drives, drives,
                   memoryview(self._totals)[k + 1:])

    def replay(self, field, k: int, y: tuple) -> tuple:
        """rk4_step over step k on a coupled field, from the grid's t, S, I
        and R at node k and the field's own variables y.

        A pass replays a step that reached the price floor or ended
        non-finite, so the coupled step raises what it raises.
        """
        st = self.state_at(k)
        return rk4_step(field, float(self.times[k]), (st.s, st.i, st.r) + y, self.grid.dt)


@dataclass(frozen=True)
class InfectionPeak:
    """Refined interior maximum of the infected mass, if one exists."""

    t_star: float | None
    s_star: float | None
    i_star: float | None
    exists: bool


def sir_derivatives(state: EpidemicState, params: EpidemicParams) -> tuple[float, float, float]:
    """(ds, di, dr) flow rates; they sum to zero by construction."""
    inf = params.beta * state.i * state.s
    rec = params.gamma * state.i
    return (-inf, inf - rec, rec)


def coupled_field(params: EpidemicParams, rate=None):
    """sir_derivatives as an rk4_step field on y = (s, i, r, ...), with the
    tuple rate(t, beta*I*S, y[3:]) of the variables after R appended."""
    def field(t, y):
        ds, di, dr = sir_derivatives(EpidemicState(y[0], y[1], y[2]), params)
        if rate is None:
            return (ds, di, dr)
        return (ds, di, dr) + rate(t, -ds, y[3:])  # -ds is beta*I*S to the bit

    return field


# steps per block of the numpy rebuild after the SIR loop: bounds its
# temporaries, so a pass's peak memory stays that of its arrays
_BLOCK = 4096


def epidemic_pass(params: EpidemicParams, grid: Grid) -> EpidemicTrajectory:
    """The SIR pass with its drive table, for market passes to run on.

    Raises GridTooCoarseError before any step if (beta*N + gamma)*dt lies
    beyond RK4_STABILITY. Otherwise it is simulate_epidemic, except that
    it never raises: a blow-up leaves non-finite values from its step on.
    A market pass driven by it replays that step through its own coupled
    field and raises what the coupled step raises, which may be an
    earlier error of its own.
    """
    n = grid.n_steps
    beta, gamma, h = params.beta, params.gamma, grid.dt
    rate = beta * params.total + gamma
    if rate * h > RK4_STABILITY:
        raise GridTooCoarseError(
            f"dt={h} is too coarse for RK4: (beta*N + gamma)*dt = "
            f"{rate * h:.4g} lies beyond its stability interval of about "
            f"{RK4_STABILITY}; use dt <= {RK4_STABILITY}/(beta*N + gamma) = "
            f"{RK4_STABILITY / rate:.4g}"
        )
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
    drives = np.empty((n, 4))
    r_nodes = np.empty(n + 1)
    r_nodes[0] = params.n3
    # the loop's stage arithmetic again, on the stored S and I; a blow-up
    # stays silent, as it is on plain floats
    with np.errstate(all="ignore"):
        for a in range(0, n, _BLOCK):
            b = min(a + _BLOCK, n)
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
            block = drives[a:b]
            block[:, 0], block[:, 1], block[:, 2], block[:, 3] = d1, d2, d3, d4
            # R(k+1) = R(k) + increment, strictly left to right
            r_inc = np.empty(b - a + 1)
            r_inc[0] = r_nodes[a]
            r_inc[1:] = sixth * (c1 + 2.0 * (c2 + c3) + c4)
            np.add.accumulate(r_inc, out=r_nodes[a:b + 1])
    return EpidemicTrajectory(
        params=params,
        grid=grid,
        times=grid.times(),
        s=s_nodes,
        i=i_nodes,
        r=r_nodes,
        drives=drives,
    )


def simulate_epidemic(params: EpidemicParams, grid: Grid) -> EpidemicTrajectory:
    """S, I and R over the grid with the drive table.

    Raises GridTooCoarseError before any step on a grid beyond RK4's
    stability interval (see epidemic_pass), and IntegrationError with the
    stage time if a stage derivative is non-finite: each step that ends
    non-finite is replayed through rk4_step until one raises
    (EpidemicTrajectory.replay).
    """
    epi = epidemic_pass(params, grid)
    field = coupled_field(params)
    finite = np.isfinite(epi.s[1:]) & np.isfinite(epi.i[1:]) & np.isfinite(epi.r[1:])
    for k in np.flatnonzero(~finite).tolist():
        epi.replay(field, k, ())
    return epi


# ---------------------------------------------------------------------------
# final size
# ---------------------------------------------------------------------------


def steady_state_recovered(params: EpidemicParams, tol: float = 1e-10) -> float:
    """Long-run recovered mass R_inf.

    Solves R = -(gamma/beta)*ln(N-R) + C_R on the branch where the leftover
    susceptible mass N-R sits below gamma/beta (the branch the dynamics
    actually reach; the implicit equation has a second, spurious root above
    the threshold for typical parameters). n2=0 short-circuits: nothing ever
    spreads and R stays at n3 exactly.

    tol bounds the equation residual, relative to the population size when
    that exceeds 1 (near-total outbreaks leave no float with a smaller
    absolute residual); the returned root is exact to machine resolution.
    """
    if params.n2 == 0:
        return params.n3
    if params.beta == 0:
        # nothing spreads; the seed infection simply recovers
        return params.n3 + params.n2
    n_total = params.total
    gb = params.threshold
    # the recovered first integral R + (gamma/beta)*ln(S) at the initial state
    c_r = params.n3 + gb * math.log(params.n1)

    def g(r: float) -> float:
        return r + gb * math.log(n_total - r) - c_r

    lo = max(n_total - gb, params.n3)
    hi = n_total * (1.0 - 1e-12)
    g_lo, g_hi = g(lo), g(hi)
    # g is strictly decreasing on [lo, hi]; a valid bracket has g_lo >= 0 >= g_hi
    if g_lo == 0.0:
        return lo
    if g_hi > 0.0:
        # near-total outbreak: the leftover susceptible mass is below the
        # bracket's floor of 1e-12*N, where ln(N-R) has no resolution left.
        # Solve the same relation for that mass directly via the fixed
        # point s = exp((C_R - N + s)/(gamma/beta)); contraction rate s/gb.
        s = 0.0
        for _ in range(100):
            s_next = math.exp((c_r - n_total + s) / gb)
            if s_next == s:
                break
            s = s_next
        return n_total - s
    if g_lo < 0.0:
        raise ConvergenceError(
            f"no bracket for the final-size root on [{lo}, {hi}]: "
            f"g(lo)={g_lo}, g(hi)={g_hi}"
        )
    bracket = Bracket(lo, hi, g_lo, g_hi)
    return find_root_bracketed(g, bracket, tol_x=0.0, max_iter=200,
                               tol_f=tol * max(1.0, n_total))


# ---------------------------------------------------------------------------
# infection peak
# ---------------------------------------------------------------------------


def infection_peak(params: EpidemicParams, trajectory: EpidemicTrajectory) -> InfectionPeak:
    """Sub-grid refinement of the interior maximum of I.

    A peak exists only when the initial susceptible mass exceeds
    gamma/beta and some infection is seeded (n2 > 0); otherwise I never
    grows and the detector reports no peak rather than a boundary value.
    Only params, times, s and i are read, so a market run serves too.
    """
    if trajectory.params != params:
        raise ConsistencyError("trajectory was produced with different parameters")
    if not params.booms:
        return InfectionPeak(t_star=None, s_star=None, i_star=None, exists=False)

    i_arr = trajectory.i
    k = int(np.argmax(i_arr))
    if k == 0 or k == len(i_arr) - 1:
        raise BoundaryExtremumError(
            f"infected maximum sits on the grid boundary (node {k}); "
            f"the horizon is too short to contain the peak"
        )
    t = trajectory.times
    t_star, i_star = parabolic_vertex(
        float(t[k - 1]), float(i_arr[k - 1]),
        float(t[k]), float(i_arr[k]),
        float(t[k + 1]), float(i_arr[k + 1]),
    )
    # quadratic (Newton-form) interpolation of S at the refined time
    s0, s1, s2 = float(trajectory.s[k - 1]), float(trajectory.s[k]), float(trajectory.s[k + 1])
    t0, t1v, t2v = float(t[k - 1]), float(t[k]), float(t[k + 1])
    c1 = (s1 - s0) / (t1v - t0)
    c2 = ((s2 - s1) / (t2v - t1v) - c1) / (t2v - t0)
    s_star = s0 + c1 * (t_star - t0) + c2 * (t_star - t0) * (t_star - t1v)
    return InfectionPeak(t_star=t_star, s_star=s_star, i_star=i_star, exists=True)
