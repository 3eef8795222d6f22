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

Every function that runs a pass takes the SIR pass it runs on
(`epidemic_pass`) and reads its params and grid there; only the plateau
field and `_flow`, which belong to no pass, take params. Every pass runs
over that pass's demand table beta*I*S*w (see epidemic), so none
multiplies by w; phase 1 and the plateau stream it through
`EpidemicTrajectory.steps` as each step's four demands, and check each
step's own z and h inside their loops. S, I and R are never carried, and
a replay reads the grid's state at the step's start node
(`EpidemicTrajectory.replay`). The accumulation phase (z, h) runs from
t=0; the solve's stops at k_f, the first node flow-reversed before any
scan (h > 0, net flow at its own P* <= 0), and its replay reuses those
arrays.

From a trial t1 in [node(k1), node(k1+1)) the plateau is one scan: an
rk4_step on the phase-1 field from node k1 reaches an off-node t1, one on
the phase-2 field carries it to node k1+1, and z and h run on over the
grid's demands, so S, I and R are the grid's arrays; the net flow at a
node is the first stage rate of the step from it. Stage one's node
diagnosis stops the scan at its first event, stage two's closure runs it
to the flow reversal, and the unwind starts at the closing node: h is
gone, the price clears on z alone, and `market.holdings_pass` runs the
myopic market on from there (from node k1+1, after one step on
`market.holdings_field`, if the plateau collapses at t1 itself), with
its checks in its loop only where `market.holdings_cannot_raise`
cannot rule them out.

Every path holds the SIR pass it ran on (`MarketTrajectory.epi`), and
keeps x = z + h, not its parts, and one plateau record, a
PlateauSolution (`MarketTrajectory.plateau`): the solve's own on a
solved path, the closing scan entry's on a trial path from a given t1.
A sweep judges a point on `re_price_head`, whose x and p end at the
closing node: the event timeline and the plateau claims read nothing
after it. Its unwind runs only for the legs that are written
(`re_price_path`), or where `market.holdings_cannot_raise` cannot rule
out that the unwind raises, so a head fails as its full path.

The phase-1 and phase-2 fields (`coupled_field`) define those phases:
partial steps, replays of non-finite steps and, in phase 1, of stages at
the price floor go through them by rk4_step, so each raises what the
coupled step raises; phase 1 at the floor, or a price at t1 that cannot
clear, is a boom's RK4 overshoot (`market.boom_price`). A grid
beyond RK4's stability interval never gets here (see epidemic).
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from . import numerics
from .epidemic import EpidemicParams, EpidemicTrajectory, coupled_field, infection_peak
from .errors import HALVED, DomainError, GridTooCoarseError, NoPlateauError, SimulationError
from .market import (MarketTrajectory, SupplyCurve, boom_price,
                     holdings_cannot_raise, holdings_field, holdings_pass)
from .numerics import Grid, rk4_step


@dataclass(frozen=True)
class PlateauSolution:
    """A plateau: its sell-start time t1, its close t2 and its pinned price
    P*, with the waiting stock h (residual_absorption) and the net flow
    (residual_flow) at the close.

    A solve's record closes at the sub-node flow reversal, and iterations
    counts its evaluations. A trial leg's record (simulate_re_given_t1),
    with iterations 0, closes at the first scan entry where h <= 0
    (absorbed) or else the net flow is <= 0 (flow-reversed): at t1 itself
    on a collapse, at that node otherwise, and at the horizon end, with
    both values still positive, while the plateau stays open.
    """

    t1: float
    t2: float
    p_star: float
    residual_flow: float
    residual_absorption: float
    iterations: int


# ---------------------------------------------------------------------------
# phase fields
# ---------------------------------------------------------------------------


def _phase1_field(curve: SupplyCurve, epi: EpidemicTrajectory):
    gamma = epi.params.gamma

    def rate(t, dem, y):
        z, h = y
        cure = gamma * z
        return (dem / boom_price(curve, epi, t, z + h) - cure, cure)

    return coupled_field(epi.params, rate)


def _phase2_field(params: EpidemicParams, p_star: float):
    gamma = params.gamma

    def rate(t, dem, y):
        # z and h exchange at exactly opposite rates: z+h is conserved
        flow = dem / p_star - gamma * y[0]
        return (flow, -flow)

    return coupled_field(params, rate)


def _flow(params: EpidemicParams, p_star: float, y: tuple) -> float:
    """Net buying beta*I*S*w/P* - gamma*z at y = (s, i, r, z, ...)."""
    return params.demand(y[0], y[1]) / p_star - params.gamma * y[3]


# ---------------------------------------------------------------------------
# scalar passes over stage demands
# ---------------------------------------------------------------------------


def _accumulate(curve: SupplyCurve, epi: EpidemicTrajectory, upto: int,
                stop_at_reversal: bool = False) -> tuple[array, array]:
    """Phase-1 z and h over the grid's demands at nodes 0..upto (0..k_f if
    stop_at_reversal and k_f < upto).

    A stage with z+h at or below the floor -kappa*p0 and a step that ends
    with z+h non-finite are replayed on the phase-1 field
    (`EpidemicTrajectory.replay`), which raises what the coupled step
    raises, as in `market.holdings_pass`.
    """
    gamma, p0, kappa = epi.params.gamma, curve.p0, curve.kappa
    field, floor = _phase1_field(curve, epi), -kappa * p0
    dt = epi.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    z, h = 0.0, 0.0
    zs, hs = array("d", [z]), array("d", [h])
    add_z, add_h = zs.append, hs.append
    for k, d1, d2, d3, d4 in islice(epi.steps(), upto):
        x = z + h
        if x <= floor:
            epi.replay(field, k, (z, h))
        cure1 = gamma * z
        kz1 = d1 / (p0 + x / kappa) - cure1
        # kz1 is _flow at this node's own P*, to the bit
        if kz1 <= 0.0 and h > 0.0 and stop_at_reversal:
            break
        z2, h2 = z + half * kz1, h + half * cure1
        x = z2 + h2
        if x <= floor:
            epi.replay(field, k, (z, h))
        cure2 = gamma * z2
        kz2 = d2 / (p0 + x / kappa) - cure2
        z3, h3 = z + half * kz2, h + half * cure2
        x = z3 + h3
        if x <= floor:
            epi.replay(field, k, (z, h))
        cure3 = gamma * z3
        kz3 = d3 / (p0 + x / kappa) - cure3
        z4, h4 = z + dt * kz3, h + dt * cure3
        x = z4 + h4
        if x <= floor:
            epi.replay(field, k, (z, h))
        cure4 = gamma * z4
        kz4 = d4 / (p0 + x / kappa) - cure4
        z1 = z + sixth * (kz1 + 2.0 * (kz2 + kz3) + kz4)
        h1 = h + sixth * (cure1 + 2.0 * (cure2 + cure3) + cure4)
        chk = z1 + h1
        if chk - chk != 0.0:
            epi.replay(field, k, (z, h))
        z, h = z1, h1
        add_z(z)
        add_h(h)
    return zs, hs


def _plateau(p_star: float, epi: EpidemicTrajectory, k: int, z: float, h: float):
    """The plateau at pinned price p_star from z and h at node k.

    Scalar RK4 of z and h over the demands of epi's steps from node k.
    Yields (j, z, h, flow) for each node j from k to the grid's end, with
    the net flow beta*I*S*w/P* - gamma*z there, before stepping on from it:
    a step's first stage rate is the flow at its start node, to the bit.
    """
    gamma = epi.params.gamma
    field = _phase2_field(epi.params, p_star)
    dt = epi.grid.dt
    half, sixth = 0.5 * dt, dt / 6.0
    for j, d1, d2, d3, d4 in epi.steps(k):
        f1 = d1 / p_star - gamma * z
        yield j, z, h, f1
        z2 = z + half * f1
        f2 = d2 / p_star - gamma * z2
        z3 = z + half * f2
        f3 = d3 / p_star - gamma * z3
        z4 = z + dt * f3
        f4 = d4 / p_star - gamma * z4
        # h's stage rates are -f, so its increment is exactly z's, negated
        dz = sixth * (f1 + 2.0 * (f2 + f3) + f4)
        z1, h1 = z + dz, h - dz
        chk = z1 + h1
        if chk - chk != 0.0:
            epi.replay(field, j, (z, h))
        z, h = z1, h1
    n = epi.grid.n_steps
    yield n, z, h, _flow(epi.params, p_star, epi.state_at(n) + (z,))


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


def _scan(curve: SupplyCurve, epi: EpidemicTrajectory, zs: array, hs: array, t1: float):
    """The plateau from t1 at its pinned price: (k1, P*, y, nodes).

    t1 lies in [node(k1), node(k1+1)); its phase-1 state y = (s, i, r, z,
    h) comes from one partial step from node k1. nodes yields (j, z, h,
    flow) as _plateau does: first for t1 itself, as j = k1, then for node
    k1+1, reached by _to_node on the phase-2 field, and every later node
    over the grid's demands. Only t1 is yielded if node k1 is the last.
    The step to node k1+1 is taken only when that node is asked for, so a
    plateau that closes at t1 itself never steps the phase-2 field.
    """
    params, grid = epi.params, epi.grid
    k1 = _node_below(grid, t1)
    y = epi.state_at(k1) + (zs[k1], hs[k1])
    rem = t1 - grid.node(k1)
    if rem > 0.0:
        y = rk4_step(_phase1_field(curve, epi), grid.node(k1), y, rem)
    p_star = boom_price(curve, epi, t1, y[3] + y[4])

    def nodes():
        yield k1, y[3], y[4], _flow(params, p_star, y)
        if k1 < grid.n_steps:
            z, h = _to_node(epi, _phase2_field(params, p_star), t1, k1, y)
            yield from _plateau(p_star, epi, k1 + 1, z, h)
    return k1, p_star, y, nodes()


# ---------------------------------------------------------------------------
# single-shot simulation at a given t1
# ---------------------------------------------------------------------------


def simulate_re_given_t1(curve: SupplyCurve, t1: float,
                         epi: EpidemicTrajectory) -> MarketTrajectory:
    """Three-phase trajectory for a trial sell-start time t1, on the SIR pass epi.

    t1 is normally a grid node; off-node values are accepted (the solved
    t1 is generically sub-node) and handled with partial realignment
    steps. The plateau phase ends at the first node where h <= 0 or where
    net flow at P* is <= 0, whichever fires first; from that node h is
    frozen at zero and the price clears on z alone. The trajectory holds
    epi, the pass it ran on, and its plateau record, whose signs tell
    which event closed it (see PlateauSolution).
    """
    grid = epi.grid
    if not (grid.t_start <= t1 < grid.t_end):
        raise DomainError(f"t1={t1} outside the grid [{grid.t_start}, {grid.t_end})")
    zs, hs = _accumulate(curve, epi, _node_below(grid, t1))
    return _replay(curve, t1, epi, zs, hs)


def _replay(curve, t1: float, epi, zs, hs, unwind: bool = True):
    """simulate_re_given_t1 from phase-1 z and h at nodes 0..k1 or beyond.

    The leg's plateau record is its closing scan entry's (see
    PlateauSolution). With unwind=False the path ends at the closing node
    post_start, unless the unwind after it could raise (see
    market.holdings_cannot_raise): then it runs, so the head fails exactly
    where the full path does.
    """
    grid = epi.grid
    p0, kappa = curve.p0, curve.kappa
    k1, p_star, y, nodes = _scan(curve, epi, zs, hs, t1)
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
            x = (_to_node(epi, holdings_field(curve, epi), t1, k1, y[:4])[0]
                 if k1 < grid.n_steps else None)
        if x is not None:
            head = not unwind and holdings_cannot_raise(curve, epi, post_start, x)
            z_post = (array("d", [x]) if head
                      else holdings_pass(curve, epi, post_start, x))
        break
    else:
        t2 = grid.t_end
    plateau = PlateauSolution(t1, t2, p_star, flow, h, 0)

    z1, h1 = np.frombuffer(zs)[:k1 + 1], np.frombuffer(hs)[:k1 + 1]
    zp = np.frombuffer(z_plateau)[1:]
    z3 = np.frombuffer(z_post)
    z = np.concatenate((z1, zp, z3))
    h = np.concatenate((h1, np.frombuffer(h_plateau)[1:], np.zeros(len(z3))))
    p = np.concatenate((p0 + (z1 + h1) / kappa, np.full(len(zp), p_star),
                        p0 + z3 / kappa))
    return MarketTrajectory(
        epi=epi, curve=curve, scenario="rational", x=z + h, p=p,
        plateau_start=k1 + 1, post_start=post_start,
        plateau=plateau,
    )


# ---------------------------------------------------------------------------
# shooting solve
# ---------------------------------------------------------------------------

# the closure tolerance of every plateau solve
TOL = 1e-4


def _node_diagnosis(curve, epi, zs, hs, k1) -> str:
    """Event order for t1 at grid node k1: the first event of the path
    simulate_re_given_t1 takes from there, 'absorbed' where h <= 0 and
    'flow-reversed' where h > 0 >= the net flow, or 'open'."""
    _k1, _p_star, _y, nodes = _scan(curve, epi, zs, hs, epi.grid.node(k1))
    for _j, _z, h, flow in nodes:
        if h <= 0.0 or flow <= 0.0:
            return "absorbed" if h <= 0.0 else "flow-reversed"
    return "open"


def _closure_at(curve, epi, zs, hs, t1: float) -> tuple[PlateauSolution | None, float]:
    """The plateau from t1 closed at the net-flow zero crossing, with
    iterations 0, or None if the flow never reverses; and phi(P*) at t1.

    The (s, i, z) dynamics at pinned P* do not depend on h, so the scan
    runs past h <= 0 if needed; the signed leftover h at the crossing is
    the shooting defect (negative: inventory ran out early, raise t1;
    positive: inventory left over, lower t1).
    """
    k1, p_star, y, nodes = _scan(curve, epi, zs, hs, t1)
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
                    t_prev, dt = float(epi.times[j - 1]), epi.grid.dt
                    st_prev = epi.state_at(j - 1) + (z_prev, h_prev)
                t2, st2 = t_prev + flow_prev / (flow_prev - flow) * dt, st_prev
                if t2 > t_prev:
                    st2 = rk4_step(_phase2_field(epi.params, p_star), t_prev, st_prev,
                                   t2 - t_prev)
            return (PlateauSolution(t1, t2, p_star, _flow(epi.params, p_star, st2), st2[4], 0),
                    phi_star)
        z_prev, h_prev, flow_prev = z, h, flow
    return None, phi_star


def solve_plateau(curve: SupplyCurve, epi: EpidemicTrajectory) -> PlateauSolution:
    """Shoot on t1 over the SIR pass epi until the plateau closes cleanly.

    Stage one bisects t1 over grid nodes in [1, k_f] ([1, n-1] if there is
    no k_f; past z's one peak every node is flow-reversed) on the
    event-order sign from the plateau scan. Stage two bisects continuously
    inside the final one-node bracket on the leftover-inventory defect
    until both closure residuals sit within half the tolerance TOL:
    |h(t2)| <= 0.5*TOL*phi(P*) and |flow(t2)| <= 0.5*TOL*gamma*phi(P*).
    iterations counts stage-one diagnoses plus stage-two closures. A
    failed solve on a horizon that ends before the infection peak raises
    infection_peak's BoundaryExtremumError.
    """
    return _solve(curve, epi)[0]


def _solve(curve, epi):
    """solve_plateau, and the phase-1 z and h it scanned (nodes 0..k_f).

    No dt can help a solve on a horizon that ends before the infection
    peak, so a failure there is infection_peak's.
    """
    try:
        return _shoot(curve, epi)
    except SimulationError:
        infection_peak(epi.params, epi)
        raise


def _retry(cause: str, grid: Grid, horizon: bool = False) -> GridTooCoarseError:
    """A failed shooting's refusal: retry with dt/2, where a Grid over the
    span steps at it, and extend the horizon, if horizon."""
    half, span, steps = 0.5 * grid.dt, grid.t_end - grid.t_start, numerics.MAX_STEPS
    return GridTooCoarseError(cause, HALVED, grid.dt, half, half, span=span, steps=steps,
                              bound=half, at_finest=span / steps, horizon=horizon)


def _shoot(curve, epi):
    params, grid = epi.params, epi.grid
    if not params.booms:
        raise NoPlateauError(
            "no boom: the contagion never grows, so no plateau exists"
        )
    n = grid.n_steps
    zs, hs = _accumulate(curve, epi, n, stop_at_reversal=True)
    evals = 0

    def diag(k: int) -> str:
        nonlocal evals
        evals += 1
        return _node_diagnosis(curve, epi, zs, hs, k)

    lo_k, hi_k = 1, min(len(zs), n) - 1
    kind_lo, kind_hi = diag(lo_k), diag(hi_k)
    if kind_lo == kind_hi:
        raise NoPlateauError(
            f"plateau diagnosis is '{kind_lo}' across (0, {grid.t_end}): "
            f"no sign change to shoot on"
        )
    if kind_lo != "absorbed" or kind_hi != "flow-reversed":
        raise _retry("event order is not monotone in t1 at this resolution", grid)
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        kind = diag(mid)
        if kind == "absorbed":
            lo_k = mid
        elif kind == "flow-reversed":
            hi_k = mid
        else:
            raise _retry("plateau never closed before the horizon end", grid, True)

    t_lo, t_hi = grid.node(lo_k), grid.node(hi_k)
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        c, phi_star = _closure_at(curve, epi, zs, hs, t_mid)
        evals += 1
        if c is None:
            raise _retry("flow never reversed before the horizon end", grid)
        if (abs(c.residual_absorption) <= 0.5 * TOL * phi_star
                and abs(c.residual_flow) <= 0.5 * TOL * params.gamma * phi_star):
            return replace(c, iterations=evals), zs, hs
        if c.residual_absorption > 0.0:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= 1e-13 * max(1.0, t_hi):
            break
    raise _retry(f"plateau closure residuals did not reach tol={TOL} at dt={grid.dt}", grid)


def re_price_path(curve: SupplyCurve, epi: EpidemicTrajectory) -> MarketTrajectory:
    """Solved three-phase price path, whose plateau record is the solve's
    own PlateauSolution.

    Its t2 is the sub-node flow-reversal time from the solve; the phase
    column switches at whole nodes. The solve and the replay share the SIR
    pass epi and its phase 1.
    """
    return _solved_path(curve, epi, True)


def re_price_head(curve: SupplyCurve, epi: EpidemicTrajectory) -> MarketTrajectory:
    """re_price_path up to its closing node post_start: phase 1, the
    plateau and the node that closed it, or the whole path when the
    plateau stays open or the unwind could raise.

    x and p end where the path does, at post_start + 1 nodes if it stops
    at the closing node; epi is whole. That is all the event timeline and
    the plateau claims read. Raises what re_price_path raises.
    """
    return _solved_path(curve, epi, False)


def _solved_path(curve, epi, unwind: bool):
    sol, zs, hs = _solve(curve, epi)
    return replace(_replay(curve, sol.t1, epi, zs, hs, unwind), plateau=sol)
