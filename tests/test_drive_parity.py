"""The demand-table passes against the coupled-field formulation they replace.

The oracle below integrates each scenario the direct way: S, I, R and the
holdings together, as one 4- or 5-variable field through
integrate_fixed_step / rk4_step, forming beta*I*S*w from S and I itself.
Every market pass of the package reuses the SIR pass's stage demands
instead, and must agree with it bit for bit, and raise the same errors
with the same stage time and message. A boom's stage at the price floor
is RK4 overshoot, a GridTooCoarseError whose message goes on to advise
a dt (or to say that none helps), which no coupled step knows; the
comparison stops before that advice. The package refuses a grid beyond
RK4's stability interval before any step, and a population whose SIR
pass could overflow when its params are built; on a refused grid the
market passes run on a demand table built without that check (the
`unchecked_pass` fixture), so their floor and blow-up replays still
face the oracle.
"""
from __future__ import annotations

import math
import re
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    epidemic_pass,
    parameter_sweep,
    simulate_depression,
    simulate_myopic,
    simulate_re_given_t1,
    solve_plateau,
)
from epimarket import numerics, rational
from epimarket.epidemic import RK4_STABILITY, EpidemicTrajectory
from epimarket.errors import (HALVED, OVERSHOOT, STABILITY, ConfigError, GridTooCoarseError,
                              IntegrationError, PriceFloorError)
from epimarket.numerics import integrate_fixed_step, rk4_step

# ---------------------------------------------------------------------------
# oracle: the coupled fields
# ---------------------------------------------------------------------------


def _sir(params):
    beta, gamma = params.beta, params.gamma

    def field(t, y):
        s, i, r = y[:3]
        inf = beta * i * s
        rec = gamma * i
        return (-inf, inf - rec, rec)

    return field


def _overshoot(t, x, dt):
    """A boom's holdings at the floor: RK4 overshoot on a grid of step dt.
    The oracle derives no step bound: _raised compares the cause alone."""
    return GridTooCoarseError(
        f"clearing price hit zero at t={t} (x={x}) in a boom: RK4 overshoot at dt={dt}",
        OVERSHOOT, math.nan, math.nan, None, time=t)


def _boom_field(params, curve, mirror, dt):
    beta, gamma, w = params.beta, params.gamma, params.endowment
    p0, kappa = curve.p0, curve.kappa
    floor = -kappa * p0

    def field(t, y):
        s, i, r, x = y
        if x <= floor and not mirror:
            raise _overshoot(t, x, dt)
        if x <= floor:
            raise PriceFloorError(
                f"clearing price hit zero at t={t} (x={x})", time=t
            )
        inf = beta * i * s
        rec = gamma * i
        if mirror:
            mirrored = 2.0 * p0 - (p0 + x / kappa)
            return (-inf, inf - rec, rec, -inf * w / mirrored - gamma * x)
        p = p0 + x / kappa
        return (-inf, inf - rec, rec, inf * w / p - gamma * x)

    return field


def oracle_epidemic(params, grid):
    return integrate_fixed_step(_sir(params), (params.n1, params.n2, params.n3), grid)


def _sir_node(params, grid, j):
    """S, I and R at node j: rk4_step's arithmetic on the SIR field, without
    its finiteness check, since an unchecked pass runs on through a blow-up."""
    field, y, h = _sir(params), (params.n1, params.n2, params.n3), grid.dt
    half, sixth = 0.5 * h, h / 6.0
    for _ in range(j):
        k1 = field(0.0, y)
        k2 = field(0.0, tuple(a + half * b for a, b in zip(y, k1)))
        k3 = field(0.0, tuple(a + half * b for a, b in zip(y, k2)))
        k4 = field(0.0, tuple(a + h * b for a, b in zip(y, k3)))
        y = tuple(a + sixth * (b + 2.0 * (c + d) + e)
                  for a, b, c, d, e in zip(y, k1, k2, k3, k4))
    return y


def oracle_market(params, curve, grid, mirror=False):
    rows = integrate_fixed_step(_boom_field(params, curve, mirror, grid.dt),
                                (params.n1, params.n2, params.n3, 0.0), grid)
    return rows, curve.p0 + rows[:, 3] / curve.kappa


def _phase_fields(params, curve, dt, p_star=None):
    beta, gamma, w = params.beta, params.gamma, params.endowment
    p0, kappa = curve.p0, curve.kappa
    floor = -kappa * p0

    def phase1(t, y):
        s, i, r, z, h = y
        if z + h <= floor:
            raise _overshoot(t, z + h, dt)
        p = p0 + (z + h) / kappa
        inf = beta * i * s
        rec = gamma * i
        cure = gamma * z
        return (-inf, inf - rec, rec, inf * w / p - cure, cure)

    def phase2(t, y):
        s, i, r, z, h = y
        inf = beta * i * s
        rec = gamma * i
        flow = inf * w / p_star - gamma * z
        return (-inf, inf - rec, rec, flow, -flow)

    # after the plateau: the boom on z alone
    return phase1, phase2, _boom_field(params, curve, False, dt)


def oracle_re_given_t1(params, curve, t1, grid):
    """Columns (s, i, r, z, h, p) and the diagnosis kind, every phase
    stepped as one 5- or 4-variable field.

    Phase 1 runs node to node up to k1, node(k1) <= t1 < node(k1+1), and
    one step on to t1. One step carries the state from t1 to node k1+1,
    where S, I and R are set to the grid's coupled SIR values; every later
    step is exactly dt long. Phases 1 and 3 raise the boom's overshoot
    error at the first stage whose holdings reach -kappa*p0, as the boom
    field does, and so does a price at t1 that cannot clear.
    """
    beta, gamma, w = params.beta, params.gamma, params.endowment
    p0, kappa = curve.p0, curve.kappa
    n, dt = grid.n_steps, grid.dt
    f1, _, f3 = _phase_fields(params, curve, dt)
    k1 = max(k for k in range(n + 1) if grid.node(k) <= t1)
    y = (params.n1, params.n2, params.n3, 0.0, 0.0)
    nodes = [y]
    for k in range(k1):
        y = rk4_step(f1, grid.node(k), y, dt)
        nodes.append(y)
    st1 = nodes[k1]
    if t1 - grid.node(k1) > 0.0:
        st1 = rk4_step(f1, grid.node(k1), st1, t1 - grid.node(k1))
    if st1[3] + st1[4] <= -kappa * p0:
        raise _overshoot(t1, st1[3] + st1[4], dt)
    p_star = p0 + (st1[3] + st1[4]) / kappa
    f2 = _phase_fields(params, curve, dt, p_star)[1]

    def step(field, j, st):
        """The state at node j from st at the previous node, or at t1."""
        if j > k1 + 1:
            return rk4_step(field, grid.node(j - 1), st, dt)
        st = rk4_step(field, t1, st, grid.node(j) - t1)
        return _sir_node(params, grid, j) + st[3:]

    cols = np.empty((n + 1, 6))  # s, i, r, z, h, p
    for j, st in enumerate(nodes):
        cols[j, :5] = st
        cols[j, 5] = p0 + (st[3] + st[4]) / kappa

    def flow_at(st):
        return beta * st[1] * st[0] * w / p_star - gamma * st[3]

    kind = None
    if st1[4] <= 0.0:
        kind = "absorbed"
    elif flow_at(st1) <= 0.0:
        kind = "flow-reversed"
    st3, start = st1[:4], k1 + 1
    if kind is None:
        st = st1
        for j in range(k1 + 1, n + 1):
            st = step(f2, j, st)
            if st[4] <= 0.0 or flow_at(st) <= 0.0:
                kind = "absorbed" if st[4] <= 0.0 else "flow-reversed"
                cols[j, :4] = st[:4]
                cols[j, 4] = 0.0
                cols[j, 5] = p0 + st[3] / kappa
                st3, start = st[:4], j + 1
                break
            cols[j, :5] = st
            cols[j, 5] = p_star
        else:
            return cols, "open"
    for j in range(start, n + 1):
        st3 = step(f3, j, st3)
        cols[j, :4] = st3
        cols[j, 4] = 0.0
        cols[j, 5] = p0 + st3[3] / kappa
    return cols, kind


# ---------------------------------------------------------------------------
# bit parity
# ---------------------------------------------------------------------------

# (beta, gamma, kappa, grid, endowment): the defaults, two more
# epidemics, a finer step, a grid that starts off zero, as criterion 03's
# chained grids do, and an endowment w != 1, where a misplaced product by w
# would show
POINTS = [
    pytest.param(5e-4, 0.1, 10.0, (0.0, 300.0, 1e-2), 1.0, id="defaults"),
    pytest.param(1e-3, 0.05, 5.0, (0.0, 120.0, 1e-2), 1.0, id="fast-epidemic"),
    pytest.param(2.5e-4, 0.1, 20.0, (0.0, 120.0, 1e-2), 1.0, id="slow-epidemic"),
    pytest.param(5e-4, 0.1, 10.0, (0.0, 120.0, 5e-3), 1.0, id="dt-5e-3"),
    pytest.param(5e-4, 0.1, 10.0, (7.5, 127.5, 1e-2), 1.0, id="t_start-7.5"),
    pytest.param(5e-4, 0.1, 10.0, (0.0, 120.0, 1e-2), 0.4, id="endowment-0.4"),
]


def closing_kind(traj) -> str:
    """The event that closed a rational leg's plateau, read off the signs in
    its record: 'absorbed' where h <= 0, 'flow-reversed' where h > 0 >= the
    net flow, and 'open' where both are still positive."""
    plateau = traj.plateau
    if plateau.residual_absorption <= 0.0:
        return "absorbed"
    return "flow-reversed" if plateau.residual_flow <= 0.0 else "open"


def held(curve, traj):
    """z and h of a rational path at its nodes, which the path keeps only as
    their sum x: phase 1's and the plateau scan's up to its closing node,
    as rational._replay reads them, and z = x, h = 0 from there."""
    epi, k1 = traj.epi, traj.plateau_start - 1
    post = len(traj.p) if traj.post_start is None else traj.post_start
    zs, hs = rational._accumulate(curve, epi, k1)
    z, h = list(zs), list(hs)
    for j, zj, hj, _flow in rational._scan(curve, epi, zs, hs, traj.plateau.t1)[3]:
        if j >= post:
            break
        if j > k1:
            z.append(zj)
            h.append(hj)
    return (np.concatenate((z, traj.x[post:])),
            np.concatenate((h, np.zeros(len(traj.p) - post))))


def _column(traj, name):
    """A leg's column: S, I and R are its SIR pass's, the rest its own."""
    return getattr(traj.epi if name in ("s", "i", "r") else traj, name)


def _case(beta, gamma, kappa, bounds, w):
    return (EpidemicParams(beta=beta, gamma=gamma, endowment=w), SupplyCurve(kappa=kappa),
            Grid(*bounds))


@pytest.mark.parametrize("beta,gamma,kappa,bounds,w", POINTS)
def test_epidemic_and_myopic_match_the_coupled_fields(beta, gamma, kappa, bounds, w):
    params, curve, grid = _case(beta, gamma, kappa, bounds, w)
    epi = epidemic_pass(params, grid)
    rows = oracle_epidemic(params, grid)
    for col, name in enumerate("sir"):
        assert np.array_equal(getattr(epi, name), rows[:, col]), name
    assert epi.demand.shape == (grid.n_steps, 4)

    rows, p = oracle_market(params, curve, grid)
    traj = simulate_myopic(curve, epi)
    for col, name in enumerate("sirx"):
        assert np.array_equal(_column(traj, name), rows[:, col]), name
    assert np.array_equal(traj.p, p)


@pytest.mark.parametrize("beta,gamma,kappa,bounds,w", POINTS)
def test_depression_matches_the_coupled_field(beta, gamma, kappa, bounds, w):
    params, _curve, grid = _case(beta, gamma, kappa, bounds, w)
    deep = SupplyCurve(kappa=400.0)
    epi = epidemic_pass(params, grid)
    if beta * params.n1 / gamma > 6.0:
        # R0 near 20: the slump reaches the price floor even at this depth
        want = _raised(oracle_market, params, deep, grid, True)
        assert want[0] is PriceFloorError
        assert _raised(simulate_depression, deep, epi) == want
        return
    rows, p = oracle_market(params, deep, grid, mirror=True)
    traj = simulate_depression(deep, epi)
    for col, name in enumerate("sirx"):
        assert np.array_equal(_column(traj, name), rows[:, col]), name
    assert np.array_equal(traj.p, p)


@pytest.mark.parametrize("beta,gamma,kappa,bounds,w", POINTS)
def test_rational_path_matches_the_coupled_fields(beta, gamma, kappa, bounds, w):
    params, curve, grid = _case(beta, gamma, kappa, bounds, w)
    epi = epidemic_pass(params, grid)
    t1 = solve_plateau(curve, epi).t1
    k = int(round((t1 - grid.t_start) / grid.dt))
    t_peak = float(epi.times[int(np.argmax(epi.i))])
    late = grid.node(int(round((2.0 * t_peak - grid.t_start) / grid.dt)))
    trials = {
        "solved": t1,  # off-node, the generic case
        "on-node": grid.node(k),
        "early": grid.node(k - 7) + 0.37 * grid.dt,  # inventory runs out first
        "after": grid.node(k + 10) + 0.37 * grid.dt,  # flow reverses first
        # past the infection peak the flow is already negative at t1
        "late": late,
        "late-off": late + 0.37 * grid.dt,
        # nothing is held yet: absorbed at t1 itself
        "start": grid.t_start,
    }
    closings = set()
    for label, trial in trials.items():
        cols, kind = oracle_re_given_t1(params, curve, trial, grid)
        traj = simulate_re_given_t1(curve, trial, epi)
        assert closing_kind(traj) == kind, label
        closings.add((kind, traj.plateau.t2 == trial))
        for col, name in enumerate("sir"):
            assert np.array_equal(_column(traj, name), cols[:, col]), (label, name)
        z, h = held(curve, traj)
        assert np.array_equal(z, cols[:, 3]) and np.array_equal(h, cols[:, 4]), label
        assert np.array_equal(traj.x, cols[:, 3] + cols[:, 4]), label
        assert np.array_equal(traj.p, cols[:, 5]), label
    assert closings == {("absorbed", False), ("flow-reversed", False),
                        ("flow-reversed", True), ("absorbed", True)}


def test_open_plateau_matches_the_coupled_fields():
    # the horizon ends while the plateau is still open
    params, curve, grid = EpidemicParams(), SupplyCurve(), Grid(0.0, 16.0, 1e-2)
    cols, kind = oracle_re_given_t1(params, curve, 14.005, grid)
    traj = simulate_re_given_t1(curve, 14.005, epidemic_pass(params, grid))
    assert kind == closing_kind(traj) == "open"
    assert traj.plateau.t2 == grid.t_end
    for col, name in enumerate("sir"):
        assert np.array_equal(_column(traj, name), cols[:, col]), name
    z, h = held(curve, traj)
    assert np.array_equal(z, cols[:, 3]) and np.array_equal(h, cols[:, 4])
    assert np.array_equal(traj.p, cols[:, 5])


# ---------------------------------------------------------------------------
# error parity
# ---------------------------------------------------------------------------


def _raised(fn, *args):
    """(type, time, message) of what fn raises, a GridTooCoarseError's
    message its cause alone, before the dt it advises or its word that no
    dt or no allowed grid helps."""
    with pytest.raises((IntegrationError, PriceFloorError, GridTooCoarseError)) as exc:
        fn(*args)
    err = exc.value
    return type(err), err.time, err.cause if isinstance(err, GridTooCoarseError) else str(err)


# the ConfigError of a population whose SIR pass could overflow, n its N
POPULATION_REFUSAL = ("population n1 + n2 + n3 = {n} lets the SIR pass overflow: "
                      "K*N and 6*K^2*(beta*N + gamma)*N, K = 16, must be finite")

# the myopic leg's refusal of beta=1e-299, n1=1e300, n2=1e297 on [0, 20] at
# dt=0.1: its overshoot bound holds at dt <= 6.363e-150, about 3e150 steps
# over the span, so no allowed grid meets it
PR21_BOOM_REFUSAL = (
    "clearing price hit zero at t=0.05 (x=-2.5000000000000005e+294) in a boom: RK4 "
    "overshoot at dt=0.1; no allowed grid runs this input, as "
    "gamma*(span/MAX_STEPS)^2*top = 9.88e+287 > kappa*p0 = 10 (top = max demand/p0 = "
    "2.47e+300) for span = 20 and MAX_STEPS = 10000000: the finest grid runs a span of "
    "at most 6.363e-143")


def assert_inequalities_hold(text):
    """Every inequality a refusal prints reads true with its sides read
    back as floats: a value beyond the stability interval, each `a > b`,
    and the longest span `at most L` below the printed span."""
    pairs = re.findall(r"= (\S+) lies beyond its stability interval of about (\S+);", text)
    pairs += re.findall(r"= (\S+) > (?:\S+ = )?([^\s;]+)", text)
    pairs += re.findall(r"for span = (\S+) and MAX_STEPS = \d+: the finest grid runs a span "
                        r"of at most ([^\s;]+)", text)
    for big, small in pairs:
        assert float(big) > float(small), (big, small, text)
    return len(pairs)


def assert_advice_runs(grid, exc):
    """exc is a GridTooCoarseError on grid, and every inequality it prints
    holds. Where it advises a dt, its finest step lying at or below
    exc.advised, the text prints that float, and Grid admits some dt' <= it
    over the span (dt/2 itself for the shooting). Elsewhere it names no dt."""
    text = str(exc)
    assert_inequalities_hold(text)
    if exc.advised is None or exc.finest > exc.advised:
        assert "dt <= " not in text and "retry" not in text
        return
    if exc.check == HALVED:
        assert "retry with dt/2" in text and exc.advised == 0.5 * grid.dt
        assert Grid(grid.t_start, grid.t_end, exc.advised).n_steps == 2 * grid.n_steps
        return
    printed = f"{exc.advised:.4g}"
    assert float(printed) == exc.advised
    assert f"; use dt <= {printed} (" in text or text.endswith(f"(beta*N + gamma) = {printed}")
    span = grid.t_end - grid.t_start
    n = math.ceil(span / exc.advised)
    while n > 1 and span / (n - 1) <= exc.advised:
        n -= 1
    while span / n > exc.advised:
        n += 1
    assert Grid(grid.t_start, grid.t_end, span / n).n_steps == n


def assert_refused(params, grid):
    """epidemic_pass's GridTooCoarseError on grid, raised before any step.
    Its fields hold the check (beta*N + gamma)*dt beyond 2.785 at dt, an
    advised dt of at most 4 digits at or below the bound that passes it,
    and the span, the finest step and the check there under
    numerics.MAX_STEPS as read at the call; assert_advice_runs."""
    with pytest.raises(GridTooCoarseError) as info:
        epidemic_pass(params, grid)
    exc = info.value
    rate = params.beta * params.total + params.gamma
    assert (exc.check, exc.value, exc.limit) == (STABILITY, rate * grid.dt, RK4_STABILITY)
    assert exc.value > exc.limit
    assert exc.advised <= RK4_STABILITY / rate and rate * exc.advised <= RK4_STABILITY
    assert float(f"{exc.advised:.4g}") == exc.advised
    span, limit = grid.t_end - grid.t_start, numerics.MAX_STEPS
    assert (exc.span, exc.steps, exc.finest) == (span, limit, span / limit)
    assert exc.at_finest == rate * exc.finest
    assert_advice_runs(grid, exc)
    return exc


def assert_sir_refusal(params, grid, message):
    """message is the text of epidemic_pass's refusal of grid (as a sweep
    row or a CSV cell holds it), whose fields assert_refused checks."""
    assert message == str(assert_refused(params, grid))


def test_depression_floor_error_matches_the_coupled_field(params, grid, epidemic_run):
    shallow = SupplyCurve(kappa=100.0)
    got = _raised(simulate_depression, shallow, epidemic_run)
    want = _raised(oracle_market, params, shallow, grid, True)
    assert got == want
    assert got[0] is PriceFloorError


def _legs_raise_as_the_coupled_fields(params, grid, curve, epi, want):
    """Each leg on epi raises what its coupled fields raise, at the time of
    the SIR field's error want: its own field reports its own derivatives
    in the same message. The slump runs on a deep market, and the rational
    leg fails in phase 1, before t1=5."""
    deep = SupplyCurve(kappa=1e306)
    for got, oracle in (
            ((simulate_myopic, curve, epi), (oracle_market, params, curve, grid)),
            ((simulate_depression, deep, epi), (oracle_market, params, deep, grid, True)),
            ((simulate_re_given_t1, deep, 5.0, epi),
             (oracle_re_given_t1, params, deep, 5.0, grid))):
        want_own = _raised(*oracle)
        assert want_own[0] is IntegrationError and want_own[1] == want[1]
        assert want_own != want
        assert _raised(*got) == want_own


def test_sir_blow_up_error_matches_the_coupled_fields(curve, unchecked_pass):
    # beta*I*S overflows in the first step's second stage, on a grid far
    # beyond RK4's stability interval
    params, grid = EpidemicParams(beta=1e290), Grid(0.0, 10.0, 1e-2)
    want = _raised(oracle_epidemic, params, grid)
    assert want[0] is IntegrationError and want[1] == 0.005
    assert_refused(params, grid)
    epi = unchecked_pass(params, grid)
    assert not np.isfinite(epi.demand).all()
    _legs_raise_as_the_coupled_fields(params, grid, curve, epi, want)
    # inside the interval ((beta*N + gamma)*dt = 2.001) a population near
    # the float range would overflow at t=3.62: it is refused up front,
    # so no SIR pass and no leg runs on it
    with pytest.raises(ConfigError) as info:
        EpidemicParams(beta=2e-306, n1=1e308)
    assert str(info.value) == POPULATION_REFUSAL.format(n="1e+308")


@pytest.mark.parametrize("phase", ["pre", "plateau", "post"])
def test_a_blow_up_in_each_rational_phase_fails_at_its_step(curve, epidemic_run,
                                                             rational_run, phase):
    # S turns infinite at a node in the middle of the phase, and so do the
    # demands of the step from it: the phase's check of its own variables
    # (z and h, or x after the plateau) replays that step, and the coupled
    # step fails at its first stage, at that node
    labels = rational_run.phases()
    k = labels.index(phase) + labels.count(phase) // 2
    s, demand = epidemic_run.s.copy(), epidemic_run.demand.copy()
    s[k] = demand[k] = np.inf
    broken = replace(epidemic_run, s=s, demand=demand)
    with pytest.raises(IntegrationError) as info:
        simulate_re_given_t1(curve, rational_run.plateau.t1, broken)
    assert info.value.time == float(epidemic_run.times[k])


@pytest.mark.parametrize("leg", [
    pytest.param(simulate_myopic, id="myopic"),
    pytest.param(simulate_depression, id="depression"),
    pytest.param(lambda curve, epi: simulate_re_given_t1(curve, 15.0, epi), id="rational"),
])
def test_a_pass_whose_sir_sum_overflows_replays_no_step(leg):
    # the defaults at kappa=400, every mass scaled by 1e300, with R set to
    # the largest float: (S+I)+R overflows at every node, while S, I, R,
    # the demands and the leg's own variables stay finite. No pass sums S,
    # I and R, and I is finite, so none replays a step or warns, and R,
    # which no rate reads, changes no leg
    scale = 1e300
    params = EpidemicParams(beta=5e-4 / scale, n1=999.0 * scale, n2=scale)
    curve, grid = SupplyCurve(kappa=400.0 * scale), Grid(0.0, 60.0, 1e-2)
    own = epidemic_pass(params, grid)
    epi = replace(own, r=np.full_like(own.r, sys.float_info.max))
    with np.errstate(over="ignore"):
        assert not np.isfinite((epi.s + epi.i) + epi.r).any()
    with mock.patch.object(EpidemicTrajectory, "replay", autospec=True,
                           side_effect=EpidemicTrajectory.replay) as replay:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = leg(curve, epi)
        want = leg(curve, own)
    assert replay.call_count == 0
    assert np.isfinite(got.x).all()
    assert got.x.tobytes() == want.x.tobytes()
    assert got.p.tobytes() == want.p.tobytes()


@pytest.mark.parametrize("n_steps", [1, 5])
def test_gamma_i_overflowing_alone_fails_every_leg_at_its_stage(n_steps):
    # gamma*dt = 2.78, inside RK4's stability interval, at beta=0: gamma*I
    # alone would overflow at n2=1e307, at the first step's fourth stage.
    # The refusal's rate is beta*N + gamma, so it refuses that population
    # before any leg runs, and one 1e4 times smaller runs, I finite and
    # decaying at every node, with the coupled field's values
    with pytest.raises(ConfigError) as info:
        EpidemicParams(beta=0.0, gamma=10.0, n2=1e307)
    assert str(info.value) == POPULATION_REFUSAL.format(n="1e+307")
    params = EpidemicParams(beta=0.0, gamma=10.0, n2=1e303)
    grid = Grid(0.0, n_steps * 0.278, 0.278)
    epi = epidemic_pass(params, grid)
    assert np.array_equal(epi.i, oracle_epidemic(params, grid)[:, 1])
    assert (np.diff(epi.i) < 0.0).all() and np.isfinite(epi.demand).all()


def test_a_plateau_closed_at_t1_never_steps_the_plateau_field(curve, unchecked_pass):
    # beta=0, so z stays 0, on one step of dt=30 far beyond RK4's stability
    # interval (gamma*dt = 60): the partial step to t1 = 20 ends with I
    # overflowing, though none of its stage derivatives does, so the net
    # flow at t1 is not positive and the plateau closes at t1 itself. The
    # unwind then steps the boom field from t1 to node 1 and fails at its
    # first stage, as the coupled formulation's 4-variable step does; a
    # step of the 5-variable plateau field would fail at the same time
    # with five entries. The package refuses the grid, so the leg runs on
    # the unchecked pass
    params = EpidemicParams(beta=0.0, gamma=2.0, n2=3e303)
    grid = Grid(0.0, 30.0, 30.0)
    want = _raised(oracle_re_given_t1, params, curve, 20.0, grid)
    assert want == (IntegrationError, 20.0, "non-finite derivative [nan, nan, inf, nan] at t=20.0")
    assert_refused(params, grid)
    assert _raised(simulate_re_given_t1, curve, 20.0, unchecked_pass(params, grid)) == want


@pytest.mark.parametrize("mirror", [False, True], ids=["myopic", "depression"])
def test_floor_before_blow_up_matches_the_coupled_field(curve, unchecked_pass, mirror):
    # beta*N*dt = 50: the price floor binds in the first steps, long before
    # S and I overflow, and the coupled step reports the floor: at a node
    # for the boom, as overshoot, at a mid-step stage (t=0.005) for the
    # slump. The package refuses the grid; on the unchecked demands it
    # replays the floor
    params, grid = EpidemicParams(beta=5.0), Grid(0.0, 30.0, 1e-2)
    simulate = simulate_depression if mirror else simulate_myopic
    want = _raised(oracle_market, params, curve, grid, mirror)
    assert want[0] is (PriceFloorError if mirror else GridTooCoarseError)
    assert (want[1] == 0.005) is mirror
    assert_refused(params, grid)
    assert _raised(simulate, curve, unchecked_pass(params, grid)) == want


# beta*N*dt = 5, 10 and 20, far beyond RK4's stability interval: the
# package refuses the grid, and on the unchecked demands, which turn
# negative within a few steps, every leg reaches the price floor, the boom
# and the rational leg as overshoot.
# The rational leg does so in phase 1 (before t1; at t=0.0625 inside the
# partial step from node 6 to an off-node t1=0.065; at t=0.1, where a step
# that passed its stages' floor checks ended below the floor and the next
# step's first stage finds it), or in the unwind: after a plateau absorbed
# at t=0.05, or after one that collapsed at t1
FLOOR_POINTS = [
    pytest.param(0.5, 0.5, (0.0, 20.0, 1e-2), True, id="phase-1"),
    pytest.param(0.2, 1.95, (0.0, 2.0, 0.1), True, id="phase-1-step-end"),
    pytest.param(0.5, 0.065, (0.0, 20.0, 1e-2), True, id="partial-step-to-t1"),
    pytest.param(0.5, 0.02, (0.0, 30.0, 1e-2), False, id="unwind-after-plateau"),
    pytest.param(1.0, 0.0, (0.0, 30.0, 1e-2), False, id="unwind-after-collapse"),
]


@pytest.mark.parametrize("beta,t1,bounds,in_phase_1", FLOOR_POINTS)
def test_floor_errors_match_the_coupled_fields(curve, unchecked_pass, beta, t1, bounds,
                                              in_phase_1):
    params, grid = EpidemicParams(beta=beta), Grid(*bounds)
    epi = unchecked_pass(params, grid)
    for mirror, simulate in ((False, simulate_myopic), (True, simulate_depression)):
        want = _raised(oracle_market, params, curve, grid, mirror)
        assert want[0] is (PriceFloorError if mirror else GridTooCoarseError)
        assert _raised(simulate, curve, epi) == want
    want = _raised(oracle_re_given_t1, params, curve, t1, grid)
    assert want[0] is GridTooCoarseError
    assert _raised(simulate_re_given_t1, curve, t1, epi) == want
    assert_refused(params, grid)
    assert (want[1] < t1) is in_phase_1


# beta*N*dt = 50 and 40: the partial step from node 0 to an off-node t1
# passes its stages' floor checks but ends below the floor, so the price
# at t1 cannot clear: overshoot, at t1. The package refuses the grid; on
# the unchecked demands the price at t1 fails as the oracle's
@pytest.mark.parametrize("beta,t1,dt,kappa", [
    pytest.param(5.0, 0.005, 1e-2, 10.0, id="beta-5"),
    *(pytest.param(2.0, 0.015, 2e-2, kappa, id=f"beta-2-kappa-{kappa:g}")
      for kappa in (5.0, 10.0, 400.0)),
])
def test_a_price_at_t1_below_the_floor_matches_the_coupled_fields(unchecked_pass, beta,
                                                                 t1, dt, kappa):
    params, curve, grid = EpidemicParams(beta=beta), SupplyCurve(kappa=kappa), Grid(0.0, 20.0, dt)
    want = _raised(oracle_re_given_t1, params, curve, t1, grid)
    assert want[0] is GridTooCoarseError and want[1] == t1
    assert_refused(params, grid)
    epi = unchecked_pass(params, grid)
    assert _raised(simulate_re_given_t1, curve, t1, epi) == want


# ---------------------------------------------------------------------------
# sweep sharing
# ---------------------------------------------------------------------------


def test_sweep_runs_one_sir_pass_per_epidemic(monkeypatch, forks, params, curve):
    from epimarket import analysis

    calls = []

    def counting(p, g):
        calls.append((p.beta, g.dt))
        return epidemic_pass(p, g)

    monkeypatch.setattr(analysis, "epidemic_pass", counting)
    # one process, so a pass integrated for a single point is counted too
    forks(1)
    grid = Grid(0.0, 100.0, 1e-2)
    axes = {"beta": [5e-4, 1e-3], "kappa": [5.0, 10.0, 20.0]}
    rows = parameter_sweep(params, curve, grid, axes=axes)
    assert sorted(calls) == [(5e-4, 1e-2), (1e-3, 1e-2)]
    assert all(r.error is None and r.refinements == 0 for r in rows)
