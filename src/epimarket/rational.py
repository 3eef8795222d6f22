"""Rational-expectations scenario: cured agents wait out the peak.

Before a sell-start time t1 nobody who recovers sells, so holdings split
into z (currently infected) and h (cured and waiting) and the price climbs
on z+h. From t1 the price is pinned at P* = clearing(z(t1)+h(t1)) while
waiting inventory transfers to newly infected buyers; the plateau closes
when the waiting stock is gone (absorbed) or when net new buying at P*
turns negative (flow-reversed). The solver shoots on t1 until the two
closing events coincide: a node-level bisection on the event order,
followed by a continuous bisection inside the final one-node bracket on
the signed leftover inventory at the flow reversal. Sub-node states come
from single partial RK4 steps, so the whole solve stays deterministic.

Every public function takes the SIR pass it runs on (`epidemic_pass`),
and with it the params and grid. Every pass runs over that pass's drive
table (see epidemic), streamed by `EpidemicTrajectory.steps` as each
step's four drives and (S+I)+R at its end node; S, I and R are never
carried, and a replay reads the grid's state at the step's start node
(`EpidemicTrajectory.replay`). The accumulation phase (z, h) runs from
t=0; the solve's stops at k_f, the first node flow-reversed before any
scan (h > 0, net flow at its own P* <= 0), and its replay reuses those
arrays.

From a trial t1 in [node(k1), node(k1+1)) the plateau is one scan: an
rk4_step on the phase-1 field from node k1 reaches an off-node t1, one on
the phase-2 field carries it to node k1+1, and z and h run on over the
grid's drives, so S, I and R are the grid's arrays; the net flow at a
node is the first stage rate of the step from it. Stage one's node
diagnosis stops the scan at its first event, stage two's closure runs it
to the flow reversal, and the unwind starts at the closing node: h is
gone, the price clears on z alone, and `market.holdings_pass` runs the
myopic market on from there (from node k1+1, after one step on
`market.holdings_field`, if the plateau collapses at t1 itself).

A sweep judges a point on `re_price_head`, the solved path up to its
closing node: the event timeline and the plateau claims read nothing
after it. Its unwind runs only for the legs that are written
(`re_price_path`), or where a test on the drives after the closing node
cannot rule out that the unwind raises, so a head fails as its full path.

The phase-1 and phase-2 fields (`coupled_field`) define those phases:
partial steps, replays of non-finite steps and, in phase 1, of stages at
the price floor go through them by rk4_step, so each raises what the
coupled step raises. A grid beyond RK4's stability interval never gets
here: its SIR pass refuses it before any step (see epidemic).
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .epidemic import EpidemicParams, EpidemicTrajectory, coupled_field
from .errors import DomainError, GridTooCoarseError, NoPlateauError, PriceFloorError
from .market import (MarketTrajectory, SupplyCurve, clearing_price, holdings_field,
                     holdings_pass)
from .numerics import Grid, rk4_step


@dataclass(frozen=True)
class PlateauDiagnosis:
    """Which event ended the plateau scan, and when.

    kind is 'absorbed' (waiting inventory ran out first), 'flow-reversed'
    (net buying at P* turned negative first) or 'open' (neither happened
    before the horizon end).
    """

    kind: str
    time: float
    h_value: float
    flow_value: float


@dataclass(frozen=True)
class PlateauSolution:
    t1: float
    t2: float
    p_star: float
    residual_flow: float
    residual_absorption: float
    iterations: int


@dataclass(frozen=True)
class _Closure:
    """Diagnostics of one plateau integration at a trial t1."""

    found: bool
    t2: float
    p_star: float
    phi_star: float
    residual_flow: float
    residual_absorption: float


# ---------------------------------------------------------------------------
# phase fields
# ---------------------------------------------------------------------------


def _phase1_field(params: EpidemicParams, curve: SupplyCurve):
    gamma, w = params.gamma, params.endowment
    p0, kappa = curve.p0, curve.kappa
    floor = -kappa * p0

    def rate(t, inf, y):
        z, h = y
        x = z + h
        if x <= floor:
            raise PriceFloorError(
                f"clearing price hit zero at t={t} (x={x})", time=t
            )
        cure = gamma * z
        return (inf * w / (p0 + x / kappa) - cure, cure)

    return coupled_field(params, rate)


def _phase2_field(params: EpidemicParams, p_star: float):
    gamma, w = params.gamma, params.endowment

    def rate(t, inf, y):
        # z and h exchange at exactly opposite rates: z+h is conserved
        flow = inf * w / p_star - gamma * y[0]
        return (flow, -flow)

    return coupled_field(params, rate)


def _flow(params: EpidemicParams, p_star: float, y: tuple) -> float:
    """Net buying beta*I*S*w/P* - gamma*z at y = (s, i, r, z, ...)."""
    return (params.beta * y[1] * y[0] * params.endowment / p_star
            - params.gamma * y[3])


# ---------------------------------------------------------------------------
# scalar passes over stage drives
# ---------------------------------------------------------------------------


def _accumulate(params: EpidemicParams, curve: SupplyCurve, epi: EpidemicTrajectory,
                upto: int, stop_at_reversal: bool = False) -> tuple[array, array]:
    """Phase-1 z and h over the grid's drives at nodes 0..upto (0..k_f if
    stop_at_reversal and k_f < upto).

    A stage with z+h at or below the floor -kappa*p0, or a non-finite
    step, is replayed on the phase-1 field (`EpidemicTrajectory.replay`),
    which raises what the coupled step raises, as in `market.holdings_pass`.
    """
    gamma, w = params.gamma, params.endowment
    p0, kappa = curve.p0, curve.kappa
    field, floor = _phase1_field(params, curve), -kappa * p0
    dt = epi.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    z, h = 0.0, 0.0
    zs, hs = array("d", [z]), array("d", [h])
    add_z, add_h = zs.append, hs.append
    for k, d1, d2, d3, d4, total in islice(epi.steps(), upto):
        x = z + h
        if x <= floor:
            epi.replay(field, k, (z, h))
        cure1 = gamma * z
        kz1 = d1 * w / (p0 + x / kappa) - cure1
        # kz1 is _flow at this node's own P*, to the bit
        if kz1 <= 0.0 and h > 0.0 and stop_at_reversal:
            break
        z2, h2 = z + half * kz1, h + half * cure1
        x = z2 + h2
        if x <= floor:
            epi.replay(field, k, (z, h))
        cure2 = gamma * z2
        kz2 = d2 * w / (p0 + x / kappa) - cure2
        z3, h3 = z + half * kz2, h + half * cure2
        x = z3 + h3
        if x <= floor:
            epi.replay(field, k, (z, h))
        cure3 = gamma * z3
        kz3 = d3 * w / (p0 + x / kappa) - cure3
        z4, h4 = z + dt * kz3, h + dt * cure3
        x = z4 + h4
        if x <= floor:
            epi.replay(field, k, (z, h))
        cure4 = gamma * z4
        kz4 = d4 * w / (p0 + x / kappa) - cure4
        z1 = z + sixth * (kz1 + 2.0 * (kz2 + kz3) + kz4)
        h1 = h + sixth * (cure1 + 2.0 * (cure2 + cure3) + cure4)
        chk = total + z1 + h1
        if chk - chk != 0.0:
            epi.replay(field, k, (z, h))
        z, h = z1, h1
        add_z(z)
        add_h(h)
    return zs, hs


def _plateau(params: EpidemicParams, p_star: float, epi: EpidemicTrajectory,
             k: int, z: float, h: float):
    """The plateau at pinned price p_star from z and h at node k.

    Scalar RK4 of z and h over the drives of epi's steps from node k.
    Yields (j, z, h, flow) for each node j from k to the grid's end, with
    the net flow beta*I*S*w/P* - gamma*z there, before stepping on from it:
    a step's first stage rate is the flow at its start node, to the bit.
    """
    gamma, w = params.gamma, params.endowment
    field = _phase2_field(params, p_star)
    dt = epi.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    for j, d1, d2, d3, d4, total in epi.steps(k):
        f1 = d1 * w / p_star - gamma * z
        yield j, z, h, f1
        z2 = z + half * f1
        f2 = d2 * w / p_star - gamma * z2
        z3 = z + half * f2
        f3 = d3 * w / p_star - gamma * z3
        z4 = z + dt * f3
        f4 = d4 * w / p_star - gamma * z4
        # h's stage rates are -f, so its increment is exactly z's, negated
        dz = sixth * (f1 + 2.0 * (f2 + f3) + f4)
        z1, h1 = z + dz, h - dz
        chk = total + z1 + h1
        if chk - chk != 0.0:
            epi.replay(field, j, (z, h))
        z, h = z1, h1
    n = epi.grid.n_steps
    st = epi.state_at(n)
    yield n, z, h, _flow(params, p_star, (st.s, st.i, st.r, z))


def _node_below(grid: Grid, t: float) -> int:
    """The k with node(k) <= t < node(k+1), capped at n_steps."""
    n = grid.n_steps
    k = min(int((t - grid.t_start) / grid.dt), n)
    if t < grid.node(k):
        k -= 1
    elif k < n and grid.node(k + 1) <= t:
        k += 1
    return k


def _to_node(epi: EpidemicTrajectory, field, t1: float, k1: int, y: tuple) -> tuple:
    """The field's own variables (after S, I and R) at node k1+1, from y =
    (s, i, r, ...) at t1 in [node(k1), node(k1+1)), by one rk4_step on
    field; S, I and R there are the grid's."""
    return rk4_step(field, t1, y, epi.grid.node(k1 + 1) - t1)[3:]


def _scan(params: EpidemicParams, curve: SupplyCurve, epi: EpidemicTrajectory,
          zs: array, hs: array, t1: float):
    """The plateau from t1 at its pinned price: (k1, P*, y, nodes).

    t1 lies in [node(k1), node(k1+1)); its phase-1 state y = (s, i, r, z,
    h) comes from one partial step from node k1. nodes yields (j, z, h,
    flow) as _plateau does: first for t1 itself, as j = k1, then for node
    k1+1, reached by _to_node on the phase-2 field, and every later node
    over the grid's drives. Only t1 is yielded if node k1 is the last.
    """
    grid = epi.grid
    k1 = _node_below(grid, t1)
    if k1 >= len(zs):
        raise DomainError(f"t1={t1} beyond integrated phase-1 range")
    st = epi.state_at(k1)
    y = (st.s, st.i, st.r, zs[k1], hs[k1])
    rem = t1 - grid.node(k1)
    if rem > 0.0:
        y = rk4_step(_phase1_field(params, curve), grid.node(k1), y, rem)
    p_star = clearing_price(y[3] + y[4], curve)
    head = [(k1, y[3], y[4], _flow(params, p_star, y))]
    if k1 == grid.n_steps:
        return k1, p_star, y, iter(head)
    z, h = _to_node(epi, _phase2_field(params, p_star), t1, k1, y)
    return k1, p_star, y, chain(head, _plateau(params, p_star, epi, k1 + 1, z, h))


def _closing_kind(h: float) -> str:
    """The event that closed the plateau at a scan entry where h <= 0 or
    the net flow is <= 0."""
    return "absorbed" if h <= 0.0 else "flow-reversed"


# ---------------------------------------------------------------------------
# single-shot simulation at a given t1
# ---------------------------------------------------------------------------


def simulate_re_given_t1(
    curve: SupplyCurve, t1: float, epi: EpidemicTrajectory,
) -> tuple[MarketTrajectory, PlateauDiagnosis]:
    """Three-phase trajectory for a trial sell-start time t1, on the SIR pass epi.

    t1 is normally a grid node; off-node values are accepted (the solved
    t1 is generically sub-node) and handled with partial realignment
    steps. The plateau phase ends at the first node where h <= 0 or where
    net flow at P* is <= 0, whichever fires first; from that node h is
    frozen at zero and the price clears on z alone. The trajectory's S, I
    and R are epi's arrays.
    """
    grid = epi.grid
    if not (grid.t_start <= t1 < grid.t_end):
        raise DomainError(f"t1={t1} outside the grid [{grid.t_start}, {grid.t_end})")
    zs, hs = _accumulate(epi.params, curve, epi, _node_below(grid, t1))
    return _replay(epi.params, curve, t1, epi, zs, hs)


def _unwind_cannot_raise(params, curve, epi, k: int, x: float) -> bool:
    """True if holdings_pass from holdings x at node k, over the grid's
    drives from there, can neither reach the price floor nor go non-finite.

    Write a = gamma*dt, D = d*w/P for a stage's drive d and price P, and
    top = max(d)*w/p0 over the steps. RK4 on dx = D - gamma*x is affine
    in x and the four D's:
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
    finite when (1 + gamma) times that bound is. S, I and R stay finite
    too: a non-finite S or I at a node before the last makes that node's
    first drive non-finite, and none of the three turns finite again, so
    finite drives and a finite last node cover every node. (Overflow of
    sums of finite S, I and R past 1e308 is left out.)
    """
    d = epi.drives[k:]
    dt, gamma = epi.grid.dt, params.gamma
    top = float(np.max(d, initial=0.0)) * params.endowment / curve.p0
    bound = x + 3.0 * top * (epi.grid.t_end - epi.grid.node(k))
    return bool(x >= 0.0 and np.min(d, initial=0.0) >= 0.0 and gamma * dt <= 1.0
                and gamma * dt * dt * top <= curve.kappa * curve.p0
                and math.isfinite((1.0 + gamma) * bound
                                  + epi.s[-1] + epi.i[-1] + epi.r[-1]))


def _replay(params, curve, t1: float, epi, zs, hs, unwind: bool = True):
    """simulate_re_given_t1 from phase-1 z and h at nodes 0..k1 or beyond.

    With unwind=False the path ends at the closing node post_start, unless
    the unwind after it could raise (see _unwind_cannot_raise): then it
    runs, so the head fails exactly where the full path does.
    """
    grid = epi.grid
    p0, kappa = curve.p0, curve.kappa
    k1, p_star, y, nodes = _scan(params, curve, epi, zs, hs, t1)
    # the scan's first entry is t1 itself, not a node: dropped below
    z_plateau, h_plateau = array("d"), array("d")
    z_post = array("d")
    post_start: int | None = None
    for j, z, h, flow in nodes:
        if h > 0.0 and flow > 0.0:
            z_plateau.append(z)
            h_plateau.append(h)
            continue
        if j > k1:
            # the closing node clears on z alone and starts phase 3
            post_start, t2, x = j, grid.node(j), z
        else:
            # the plateau collapsed at t1 itself; unwind from node k1+1
            post_start, t2 = k1 + 1, t1
            x = (_to_node(epi, holdings_field(params, curve), t1, k1, y[:4])[0]
                 if k1 < grid.n_steps else None)
        diag = PlateauDiagnosis(_closing_kind(h), t2, h, flow)
        if x is not None:
            head = not unwind and _unwind_cannot_raise(params, curve, epi,
                                                       post_start, x)
            z_post = (array("d", [x]) if head
                      else holdings_pass(params, curve, epi, post_start, x))
        break
    else:
        diag = PlateauDiagnosis("open", grid.t_end, h, flow)

    z1, h1 = np.frombuffer(zs)[:k1 + 1], np.frombuffer(hs)[:k1 + 1]
    zp = np.frombuffer(z_plateau)[1:]
    z3 = np.frombuffer(z_post)
    z = np.concatenate((z1, zp, z3))
    h = np.concatenate((h1, np.frombuffer(h_plateau)[1:], np.zeros(len(z3))))
    p = np.concatenate((p0 + (z1 + h1) / kappa, np.full(len(zp), p_star),
                        p0 + z3 / kappa))
    traj = MarketTrajectory(
        params=params, curve=curve, grid=grid, scenario="rational",
        times=epi.times,
        s=epi.s, i=epi.i, r=epi.r,
        x=z + h, p=p, z=z, h=h,
        t1=t1, t2=diag.time, p_star=p_star,
        plateau_start=k1 + 1, post_start=post_start,
    )
    return traj, diag


# ---------------------------------------------------------------------------
# shooting solve
# ---------------------------------------------------------------------------


def _node_diagnosis(params, curve, epi, zs, hs, k1) -> str:
    """Event order for t1 at grid node k1: the first event of the path
    simulate_re_given_t1 takes from there, or 'open'."""
    _k1, _p_star, _y, nodes = _scan(params, curve, epi, zs, hs, epi.grid.node(k1))
    for _j, _z, h, flow in nodes:
        if h <= 0.0 or flow <= 0.0:
            return _closing_kind(h)
    return "open"


def _closure_at(params, curve, epi, zs, hs, t1: float) -> _Closure:
    """Integrate the plateau from t1 to the net-flow zero crossing.

    The (s, i, z) dynamics at pinned P* do not depend on h, so the scan
    runs past h <= 0 if needed; the signed leftover h at the crossing is
    the shooting defect (negative: inventory ran out early, raise t1;
    positive: inventory left over, lower t1).
    """
    k1, p_star, y, nodes = _scan(params, curve, epi, zs, hs, t1)
    phi_star = y[3] + y[4]
    for j, z, h, flow in nodes:
        if flow <= 0.0:
            # reversed at t1 itself, or the crossing is placed linearly in
            # flow inside the step to node j, from t1 or from node j-1
            t2, st2 = t1, y
            if j > k1:
                if j == k1 + 1:
                    t_prev, dt, st_prev = t1, epi.grid.node(j) - t1, y
                else:
                    st = epi.state_at(j - 1)
                    t_prev, dt = float(epi.times[j - 1]), epi.grid.dt
                    st_prev = (st.s, st.i, st.r, z_prev, h_prev)
                t2, st2 = t_prev + flow_prev / (flow_prev - flow) * dt, st_prev
                if t2 > t_prev:
                    st2 = rk4_step(_phase2_field(params, p_star), t_prev, st_prev,
                                   t2 - t_prev)
            return _Closure(True, t2, p_star, phi_star, _flow(params, p_star, st2),
                            st2[4])
        z_prev, h_prev, flow_prev = z, h, flow
    return _Closure(False, epi.grid.t_end, p_star, phi_star, flow_prev, h_prev)


def solve_plateau(curve: SupplyCurve, epi: EpidemicTrajectory,
                  tol: float = 1e-4) -> PlateauSolution:
    """Shoot on t1 over the SIR pass epi until the plateau closes cleanly.

    Stage one bisects t1 over grid nodes in [1, k_f] ([1, n-1] if there is
    no k_f; past z's one peak every node is flow-reversed) on the
    event-order sign from the plateau scan. Stage two bisects continuously
    inside the final one-node bracket on the leftover-inventory defect
    until both closure residuals sit within half the requested tolerance:
    |h(t2)| <= 0.5*tol*phi(P*) and |flow(t2)| <= 0.5*tol*gamma*phi(P*).
    iterations counts stage-one diagnoses plus stage-two closures.
    """
    return _solve(curve, epi, tol)[0]


def _solve(curve, epi, tol):
    """solve_plateau, and the phase-1 z and h it scanned (nodes 0..k_f)."""
    params, grid = epi.params, epi.grid
    if not params.booms:
        raise NoPlateauError(
            "no boom: the contagion never grows, so no plateau exists"
        )
    n = grid.n_steps
    zs, hs = _accumulate(params, curve, epi, n, stop_at_reversal=True)
    evals = 0

    def diag(k: int) -> str:
        nonlocal evals
        evals += 1
        return _node_diagnosis(params, curve, epi, zs, hs, k)

    lo_k, hi_k = 1, min(len(zs), n) - 1
    kind_lo, kind_hi = diag(lo_k), diag(hi_k)
    if kind_lo == kind_hi:
        raise NoPlateauError(
            f"plateau diagnosis is '{kind_lo}' across (0, {grid.t_end}): "
            f"no sign change to shoot on"
        )
    if kind_lo != "absorbed" or kind_hi != "flow-reversed":
        raise GridTooCoarseError(
            "event order is not monotone in t1 at this resolution; retry with dt/2"
        )
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        kind = diag(mid)
        if kind == "absorbed":
            lo_k = mid
        elif kind == "flow-reversed":
            hi_k = mid
        else:
            raise GridTooCoarseError(
                "plateau never closed before the horizon end; retry with dt/2 "
                "or extend the horizon"
            )

    t_lo, t_hi = grid.node(lo_k), grid.node(hi_k)
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        c = _closure_at(params, curve, epi, zs, hs, t_mid)
        evals += 1
        if not c.found:
            raise GridTooCoarseError(
                "flow never reversed before the horizon end; retry with dt/2"
            )
        if (abs(c.residual_absorption) <= 0.5 * tol * c.phi_star
                and abs(c.residual_flow) <= 0.5 * tol * params.gamma * c.phi_star):
            return PlateauSolution(
                t1=t_mid, t2=c.t2, p_star=c.p_star,
                residual_flow=c.residual_flow,
                residual_absorption=c.residual_absorption,
                iterations=evals,
            ), zs, hs
        if c.residual_absorption > 0.0:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= 1e-13 * max(1.0, t_hi):
            break
    raise GridTooCoarseError(
        f"plateau closure residuals did not reach tol={tol} at dt={grid.dt}; "
        f"retry with dt/2"
    )


def re_price_path(curve: SupplyCurve, epi: EpidemicTrajectory,
                  tol: float = 1e-4) -> MarketTrajectory:
    """Solved three-phase price path with t1, t2, P* attached as metadata.

    t2 in the metadata is the sub-node flow-reversal time from the solve,
    whose PlateauSolution is attached as solution; the phase column
    switches at whole nodes. The solve and the replay share the SIR pass
    epi and its phase 1.
    """
    return _solved_path(curve, epi, tol, True)


def re_price_head(curve: SupplyCurve, epi: EpidemicTrajectory,
                  tol: float = 1e-4) -> MarketTrajectory:
    """re_price_path up to its closing node post_start: phase 1, the
    plateau and the node that closed it, or the whole path when the
    plateau stays open or the unwind could raise.

    Every array is cut to that length; it is all that the event timeline
    and the plateau claims read. Raises what re_price_path raises.
    """
    traj = _solved_path(curve, epi, tol, False)
    n = len(traj.p)
    return replace(traj, times=traj.times[:n], s=traj.s[:n], i=traj.i[:n],
                   r=traj.r[:n])


def _solved_path(curve, epi, tol, unwind: bool):
    sol, zs, hs = _solve(curve, epi, tol)
    traj, _diag = _replay(epi.params, curve, sol.t1, epi, zs, hs, unwind)
    return replace(traj, t2=sol.t2, solution=sol)
