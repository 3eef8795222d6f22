"""The drive-table passes against the coupled-field formulation they replace.

The oracle below integrates each scenario the direct way: S, I, R and the
holdings together, as one 4- or 5-variable field through
integrate_fixed_step / rk4_step. Every market pass of the package reuses
the SIR stage drives instead, and must agree with it bit for bit, and
raise the same errors with the same stage time and message. The package
refuses a grid beyond RK4's stability interval before any step; there
the market passes run on a drive table built without that check (the
`unchecked_pass` fixture), so their floor and blow-up replays still face
the oracle.
"""
from __future__ import annotations

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    epidemic_pass,
    parameter_sweep,
    simulate_depression,
    simulate_epidemic,
    simulate_myopic,
    simulate_re_given_t1,
    solve_plateau,
)
from epimarket.errors import GridTooCoarseError, IntegrationError, PriceFloorError
from epimarket.market import clearing_price
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


def _boom_field(params, curve, mirror):
    beta, gamma, w = params.beta, params.gamma, params.endowment
    p0, kappa = curve.p0, curve.kappa
    floor = -kappa * p0

    def field(t, y):
        s, i, r, x = y
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
    its finiteness check, since epidemic_pass runs on through a blow-up."""
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
    rows = integrate_fixed_step(_boom_field(params, curve, mirror),
                                (params.n1, params.n2, params.n3, 0.0), grid)
    return rows, curve.p0 + rows[:, 3] / curve.kappa


def _phase_fields(params, curve, p_star=None):
    beta, gamma, w = params.beta, params.gamma, params.endowment
    p0, kappa = curve.p0, curve.kappa
    floor = -kappa * p0

    def phase1(t, y):
        s, i, r, z, h = y
        if z + h <= floor:
            raise PriceFloorError(
                f"clearing price hit zero at t={t} (x={z + h})", time=t
            )
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
    return phase1, phase2, _boom_field(params, curve, False)


def oracle_re_given_t1(params, curve, t1, grid):
    """Columns (s, i, r, z, h, p) and the diagnosis kind, every phase
    stepped as one 5- or 4-variable field.

    Phase 1 runs node to node up to k1, node(k1) <= t1 < node(k1+1), and
    one step on to t1. One step carries the state from t1 to node k1+1,
    where S, I and R are set to the grid's coupled SIR values; every later
    step is exactly dt long. Phases 1 and 3 raise PriceFloorError at the
    first stage whose holdings reach -kappa*p0, as the boom field does.
    """
    beta, gamma, w = params.beta, params.gamma, params.endowment
    p0, kappa = curve.p0, curve.kappa
    n, dt = grid.n_steps, grid.dt
    f1, _, f3 = _phase_fields(params, curve)
    k1 = max(k for k in range(n + 1) if grid.node(k) <= t1)
    y = (params.n1, params.n2, params.n3, 0.0, 0.0)
    nodes = [y]
    for k in range(k1):
        y = rk4_step(f1, grid.node(k), y, dt)
        nodes.append(y)
    st1 = nodes[k1]
    if t1 - grid.node(k1) > 0.0:
        st1 = rk4_step(f1, grid.node(k1), st1, t1 - grid.node(k1))
    p_star = clearing_price(st1[3] + st1[4], curve)
    f2 = _phase_fields(params, curve, p_star)[1]

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

# (beta, gamma, kappa, grid): the defaults, two more epidemics, a finer
# step, and a grid that starts off zero, as criterion 03's chained grids do
POINTS = [
    pytest.param(5e-4, 0.1, 10.0, (0.0, 300.0, 1e-2), id="defaults"),
    pytest.param(1e-3, 0.05, 5.0, (0.0, 120.0, 1e-2), id="fast-epidemic"),
    pytest.param(2.5e-4, 0.1, 20.0, (0.0, 120.0, 1e-2), id="slow-epidemic"),
    pytest.param(5e-4, 0.1, 10.0, (0.0, 120.0, 5e-3), id="dt-5e-3"),
    pytest.param(5e-4, 0.1, 10.0, (7.5, 127.5, 1e-2), id="t_start-7.5"),
]


def _case(beta, gamma, kappa, bounds):
    return (EpidemicParams(beta=beta, gamma=gamma), SupplyCurve(kappa=kappa),
            Grid(*bounds))


@pytest.mark.parametrize("beta,gamma,kappa,bounds", POINTS)
def test_epidemic_and_myopic_match_the_coupled_fields(beta, gamma, kappa, bounds):
    params, curve, grid = _case(beta, gamma, kappa, bounds)
    epi = simulate_epidemic(params, grid)
    rows = oracle_epidemic(params, grid)
    for col, name in enumerate("sir"):
        assert np.array_equal(getattr(epi, name), rows[:, col]), name
    assert epi.drives.shape == (grid.n_steps, 4)

    rows, p = oracle_market(params, curve, grid)
    traj = simulate_myopic(curve, epi)
    for col, name in enumerate("sirx"):
        assert np.array_equal(getattr(traj, name), rows[:, col]), name
    assert np.array_equal(traj.p, p)


@pytest.mark.parametrize("beta,gamma,kappa,bounds", POINTS)
def test_depression_matches_the_coupled_field(beta, gamma, kappa, bounds):
    params, _curve, grid = _case(beta, gamma, kappa, bounds)
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
        assert np.array_equal(getattr(traj, name), rows[:, col]), name
    assert np.array_equal(traj.p, p)


@pytest.mark.parametrize("beta,gamma,kappa,bounds", POINTS)
def test_rational_path_matches_the_coupled_fields(beta, gamma, kappa, bounds):
    params, curve, grid = _case(beta, gamma, kappa, bounds)
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
        traj, diag = simulate_re_given_t1(curve, trial, epi)
        assert diag.kind == kind, label
        closings.add((kind, diag.time == trial))
        for col, name in enumerate("sirzh"):
            assert np.array_equal(getattr(traj, name), cols[:, col]), (label, name)
        assert np.array_equal(traj.x, cols[:, 3] + cols[:, 4]), label
        assert np.array_equal(traj.p, cols[:, 5]), label
    assert closings == {("absorbed", False), ("flow-reversed", False),
                        ("flow-reversed", True), ("absorbed", True)}


def test_open_plateau_matches_the_coupled_fields():
    # the horizon ends while the plateau is still open
    params, curve, grid = EpidemicParams(), SupplyCurve(), Grid(0.0, 16.0, 1e-2)
    cols, kind = oracle_re_given_t1(params, curve, 14.005, grid)
    traj, diag = simulate_re_given_t1(curve, 14.005, epidemic_pass(params, grid))
    assert kind == diag.kind == "open"
    for col, name in enumerate("sirzhp"):
        assert np.array_equal(getattr(traj, name), cols[:, col]), name


# ---------------------------------------------------------------------------
# error parity
# ---------------------------------------------------------------------------


def _raised(fn, *args):
    with pytest.raises((IntegrationError, PriceFloorError)) as exc:
        fn(*args)
    return type(exc.value), exc.value.time, str(exc.value)


def _refused(fn, *args):
    """fn refuses the grid before any step, naming the step bound."""
    with pytest.raises(GridTooCoarseError, match=r"use dt <= 2\.785/\(beta\*N \+ gamma\)"):
        fn(*args)


def test_depression_floor_error_matches_the_coupled_field(params, grid, epidemic_run):
    shallow = SupplyCurve(kappa=100.0)
    got = _raised(simulate_depression, shallow, epidemic_run)
    want = _raised(oracle_market, params, shallow, grid, True)
    assert got == want
    assert got[0] is PriceFloorError


def test_sir_blow_up_error_matches_the_coupled_fields(curve, unchecked_pass):
    # beta*I*S overflows in the first step's second stage, on a grid far
    # beyond RK4's stability interval
    params, grid = EpidemicParams(beta=1e300), Grid(0.0, 10.0, 1e-2)
    want = _raised(oracle_epidemic, params, grid)
    assert want[0] is IntegrationError
    _refused(simulate_epidemic, params, grid)
    _refused(epidemic_pass, params, grid)
    # the market's own field reports its x derivative in the same message
    epi = unchecked_pass(params, grid)
    assert not np.isfinite(epi.drives).all()
    want_x = _raised(oracle_market, params, curve, grid)
    assert want_x[0] is IntegrationError and want_x != want
    assert _raised(simulate_myopic, curve, epi) == want_x
    # inside the interval ((beta*N + gamma)*dt = 2.001) a population near
    # the float range still overflows, at t=3.62
    params = EpidemicParams(beta=2e-306, n1=1e308)
    want = _raised(oracle_epidemic, params, grid)
    assert want[0] is IntegrationError
    assert _raised(simulate_epidemic, params, grid) == want
    want_x = _raised(oracle_market, params, curve, grid)
    assert want_x[0] is IntegrationError and want_x != want
    assert _raised(simulate_myopic, curve, epidemic_pass(params, grid)) == want_x


@pytest.mark.parametrize("mirror", [False, True], ids=["myopic", "depression"])
def test_floor_before_blow_up_matches_the_coupled_field(curve, unchecked_pass, mirror):
    # beta*N*dt = 50: the price floor binds in the first steps, long before
    # S and I overflow, and the coupled step reports the floor: at a node
    # for the boom, at a mid-step stage (t=0.005) for the slump. The
    # package refuses the grid; on the unchecked drives it replays the floor
    params, grid = EpidemicParams(beta=5.0), Grid(0.0, 30.0, 1e-2)
    simulate = simulate_depression if mirror else simulate_myopic
    want = _raised(oracle_market, params, curve, grid, mirror)
    assert want[0] is PriceFloorError
    assert (want[1] == 0.005) is mirror
    _refused(epidemic_pass, params, grid)
    assert _raised(simulate, curve, unchecked_pass(params, grid)) == want


# beta*N*dt = 5 and 10, far beyond RK4's stability interval: the package
# refuses the grid, and on the unchecked drives, which turn negative
# within a few steps, every leg reaches the price floor.
# The rational leg does so in phase 1 (before t1; at t=0.0625 inside the
# partial step from node 6 to an off-node t1=0.065), or in the unwind:
# after a plateau absorbed at t=0.05, or after one that collapsed at t1
FLOOR_POINTS = [
    pytest.param(0.5, 0.5, (0.0, 20.0, 1e-2), True, id="phase-1"),
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
        assert want[0] is PriceFloorError
        assert _raised(simulate, curve, epi) == want
    want = _raised(oracle_re_given_t1, params, curve, t1, grid)
    assert want[0] is PriceFloorError
    assert _raised(simulate_re_given_t1, curve, t1, epi) == want
    _refused(epidemic_pass, params, grid)
    assert (want[1] < t1) is in_phase_1


# beta*N*dt = 50 and 40: the partial step from node 0 to an off-node t1
# passes its stages' floor checks but ends below the floor, so the price
# at t1 cannot clear; that error carries no time. The package refuses the
# grid; on the unchecked drives the price at t1 fails as the oracle's
@pytest.mark.parametrize("beta,t1,dt,kappa", [
    pytest.param(5.0, 0.005, 1e-2, 10.0, id="beta-5"),
    *(pytest.param(2.0, 0.015, 2e-2, kappa, id=f"beta-2-kappa-{kappa:g}")
      for kappa in (5.0, 10.0, 400.0)),
])
def test_a_price_at_t1_below_the_floor_matches_the_coupled_fields(unchecked_pass, beta,
                                                                 t1, dt, kappa):
    params, curve, grid = EpidemicParams(beta=beta), SupplyCurve(kappa=kappa), Grid(0.0, 20.0, dt)
    want = _raised(oracle_re_given_t1, params, curve, t1, grid)
    assert want[0] is PriceFloorError and want[1] is None
    _refused(epidemic_pass, params, grid)
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
