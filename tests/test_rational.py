"""Three-phase price path with a sell-start time solved by shooting."""
from __future__ import annotations

import inspect
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    epidemic_pass,
    infection_peak,
    re_price_path,
    simulate_depression,
    simulate_myopic,
    simulate_re_given_t1,
    solve_plateau,
)
from epimarket import analysis, numerics, rational
from epimarket.errors import (BoundaryExtremumError, ConfigError, DomainError,
                              GridTooCoarseError, NoPlateauError, SimulationError)
from epimarket.market import holdings_cannot_raise, holdings_pass
from test_drive_parity import closing_kind, held


# ---------------------------------------------------------------------------
# solved plateau on defaults
# ---------------------------------------------------------------------------


def test_solution_anchors(plateau):
    assert plateau.t1 == pytest.approx(14.864, abs=2e-3)
    assert plateau.t2 == pytest.approx(20.535, abs=2e-3)
    assert plateau.p_star == pytest.approx(7.9492, abs=1e-3)
    assert 0.0 < plateau.t1 < plateau.t2
    assert plateau.iterations > 0


def test_solution_residuals_within_tolerance(curve, plateau):
    phi_star = curve.kappa * (plateau.p_star - curve.p0)
    assert abs(plateau.residual_absorption) <= 1e-4 * phi_star
    assert abs(plateau.residual_flow) <= 1e-4 * 0.1 * phi_star


def test_path_metadata_matches_solution(plateau, rational_run):
    assert rational_run.scenario == "rational"
    assert rational_run.plateau.t1 == plateau.t1
    assert rational_run.plateau.t2 == plateau.t2
    assert rational_run.plateau.p_star == plateau.p_star


def test_solved_path_carries_its_solution(plateau, rational_run):
    assert rational_run.plateau == plateau


def test_trial_path_carries_no_solution(curve, epidemic_run, plateau):
    traj = simulate_re_given_t1(curve, plateau.t1, epidemic_run)
    assert traj.plateau.iterations == 0
    assert traj.plateau != plateau


def test_every_rational_leg_holds_one_plateau_record(curve, epidemic_run):
    # a solved leg holds the solve's own record; a trial leg's is its
    # scan's, with no iterations
    sol = solve_plateau(curve, epidemic_run)
    path, head = re_price_path(curve, epidemic_run), rational.re_price_head(curve, epidemic_run)
    assert path.plateau == head.plateau == sol
    trial = simulate_re_given_t1(curve, sol.t1, epidemic_run)
    assert trial.plateau.iterations == 0 < sol.iterations


def test_plateau_price_is_flat(curve, rational_run):
    k1, k2 = rational_run.plateau_start, rational_run.post_start
    assert k1 is not None and k2 is not None and k2 > k1
    seg_p = rational_run.p[k1:k2]
    assert float(np.abs(seg_p - rational_run.plateau.p_star).max()) == 0.0
    # holdings stay consistent with the pinned price through clearing
    implied = curve.p0 + rational_run.x[k1:k2] / curve.kappa
    p_star = rational_run.plateau.p_star
    rel = np.abs(implied - p_star) / p_star
    assert float(rel.max()) <= 1e-6


def test_plateau_conserves_total_holdings(rational_run):
    # during the plateau z and h trade off at exactly opposite rates
    k1, k2 = rational_run.plateau_start, rational_run.post_start
    x_seg = rational_run.x[k1:k2]
    assert float(np.abs(x_seg - x_seg[0]).max()) <= 1e-10


def test_pre_plateau_holdings_never_fall(rational_run):
    k1 = rational_run.plateau_start
    assert float(np.diff(rational_run.x[:k1]).min()) >= 0.0


def test_path_boundary_values(curve, rational_run):
    assert float(rational_run.p[0]) == curve.p0
    assert abs(float(rational_run.p[-1]) - curve.p0) <= 0.01 * curve.p0


def test_split_holdings_stay_nonnegative(curve, rational_run):
    z, h = held(curve, rational_run)
    assert float(z.min()) >= 0.0
    assert float(h.min()) >= 0.0
    assert np.array_equal(z + h, rational_run.x)


# ---------------------------------------------------------------------------
# diagnosis of a given sell-start time
# ---------------------------------------------------------------------------


def test_early_start_absorbs_immediately(curve, grid, epidemic_run):
    traj = simulate_re_given_t1(curve, grid.node(1), epidemic_run)
    assert closing_kind(traj) == "absorbed"
    assert traj.plateau.t2 <= grid.node(5)
    assert traj.scenario == "rational"


def test_late_start_reverses_flow_with_inventory_left(curve, grid, epidemic_run, peak):
    t1 = grid.node(int(round(2.0 * peak.t_star / grid.dt)))
    traj = simulate_re_given_t1(curve, t1, epidemic_run)
    assert closing_kind(traj) == "flow-reversed"
    assert traj.plateau.residual_absorption > 0.0
    assert traj.plateau.residual_flow <= 0.0


def test_solved_start_closes_both_events_together(curve, grid, epidemic_run, plateau):
    traj = simulate_re_given_t1(curve, plateau.t1, epidemic_run)
    assert closing_kind(traj) in ("absorbed", "flow-reversed")
    assert abs(traj.plateau.t2 - plateau.t2) <= 5.0 * grid.dt


def test_off_grid_start_is_rejected(curve, grid, epidemic_run):
    with pytest.raises(DomainError):
        simulate_re_given_t1(curve, -1.0, epidemic_run)
    with pytest.raises(DomainError):
        simulate_re_given_t1(curve, grid.t_end, epidemic_run)


def test_a_start_outside_the_grid_is_refused_by_name(curve):
    epi = epidemic_pass(EpidemicParams(), Grid(0.0, 50.0, 1e-2))
    for t1 in (-0.01, 50.0, math.nan, math.inf):
        with pytest.raises(DomainError) as info:
            simulate_re_given_t1(curve, t1, epi)
        assert str(info.value) == f"t1={t1} outside the grid [0.0, 50.0)"
    # a start inside the last step runs
    assert closing_kind(simulate_re_given_t1(curve, 49.995, epi)) == "flow-reversed"


def test_node_below_places_every_node_on_itself(grid):
    for k in range(grid.n_steps):
        assert rational._node_below(grid, grid.node(k)) == k
        assert rational._node_below(grid, math.nextafter(grid.node(k + 1), 0.0)) == k
    assert rational._node_below(grid, grid.node(grid.n_steps)) == grid.n_steps


@pytest.mark.parametrize("beta, kind", [(5e-4, "flow-reversed"), (1.2e-4, "open")])
def test_start_past_the_last_node_holds_no_plateau_node(curve, beta, kind):
    # node(96) rounds to just below t_end: a t1 in between has no later node
    grid = Grid(45.605, 112.805, 0.7)
    n = grid.n_steps
    t1 = math.nextafter(grid.t_end, 0.0)
    assert grid.node(n) < t1 < grid.t_end
    assert rational._node_below(grid, t1) == n
    epi = epidemic_pass(EpidemicParams(beta=beta), grid)
    traj = simulate_re_given_t1(curve, t1, epi)
    assert closing_kind(traj) == kind
    assert traj.phases() == ["pre"] * (n + 1)
    assert len(traj.x) == len(traj.p) == n + 1


def test_a_flow_that_reverses_inside_the_first_partial_step_closes_before_its_node(
        curve, grid, epidemic_run):
    # t1 = 19.265 lies in [node(1926), node(1927)), and the net flow turns
    # before node 1927: the crossing is placed inside the partial phase-2
    # step from t1, not at t1 itself and not past the node
    zs, hs = rational._accumulate(curve, epidemic_run, grid.n_steps, stop_at_reversal=True)
    t1 = 19.265
    k1 = rational._node_below(grid, t1)
    closure, _phi_star = rational._closure_at(curve, epidemic_run, zs, hs, t1)
    assert k1 == 1926
    assert t1 < closure.t2 < grid.node(k1 + 1)
    assert (closure.t1, closure.iterations) == (t1, 0)


def test_a_flow_that_never_reverses_closes_no_plateau(params, curve):
    # on [0, 16] the plateau from t1 = 14.865 still buys at the horizon end
    grid = Grid(0.0, 16.0, 1e-2)
    epi = epidemic_pass(params, grid)
    zs, hs = rational._accumulate(curve, epi, grid.n_steps, stop_at_reversal=True)
    closure, phi_star = rational._closure_at(curve, epi, zs, hs, 14.865)
    assert closure is None
    assert phi_star > 0.0


# ---------------------------------------------------------------------------
# S, I and R of a rational path are the driving pass's
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bounds", [(0.0, 300.0, 1e-2), (7.5, 127.5, 1e-2)],
                         ids=["defaults", "t_start-7.5"])
def test_rational_sir_is_the_driving_pass(params, curve, bounds):
    grid = Grid(*bounds)
    epi = epidemic_pass(params, grid)
    myopic = simulate_myopic(curve, epi)
    solved = re_price_path(curve, epi)
    k = rational._node_below(grid, solved.plateau.t1)
    t_peak = float(epi.times[int(np.argmax(epi.i))])
    late = grid.node(int(round((2.0 * t_peak - grid.t_start) / grid.dt)))
    trials = {"on-node": grid.node(k), "off-node": grid.node(k) + 0.37 * grid.dt,
              "collapse": late}
    runs = {"solved": solved}
    for label, t1 in trials.items():
        runs[label] = simulate_re_given_t1(curve, t1, epi)
        assert (runs[label].plateau.t2 == t1) is (label == "collapse"), label
    for label, traj in runs.items():
        assert traj.epi is epi, label
        for name in "sir":
            assert getattr(traj.epi, name) is getattr(epi, name), (label, name)
            assert np.array_equal(getattr(traj.epi, name),
                                  getattr(myopic.epi, name)), (label, name)


@pytest.mark.parametrize("beta", [5e-4, 1.0], ids=["defaults", "unstable"])
def test_collapse_at_the_start_unwinds_as_the_myopic_market(curve, beta):
    # no inventory waits at t_start, so the plateau closes at t1 and the
    # unwind is the myopic holdings pass; at beta=1 the grid lies beyond
    # RK4's stability interval, and both runs meet its pass's refusal
    params, grid = EpidemicParams(beta=beta), Grid(0.0, 30.0, 1e-2)

    def outcome(run):
        # the pass is built here, so a grid it refuses is the outcome too
        try:
            out = run(epidemic_pass(params, grid))
        except SimulationError as exc:
            return type(exc), getattr(exc, "time", None), str(exc)
        traj = out[0] if isinstance(out, tuple) else out
        return traj.p.tobytes()

    want = outcome(lambda epi: simulate_myopic(curve, epi))
    assert outcome(lambda epi: simulate_re_given_t1(curve, grid.t_start, epi)) == want
    assert isinstance(want, bytes) is (beta < 1.0)


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------


def test_no_plateau_without_seed(curve, grid):
    with pytest.raises(NoPlateauError):
        solve_plateau(curve, epidemic_pass(EpidemicParams(n2=0.0, n1=1000.0), grid))


def test_no_plateau_below_threshold(curve, grid):
    with pytest.raises(NoPlateauError):
        solve_plateau(curve, epidemic_pass(EpidemicParams(gamma=0.6), grid))


def test_unreachable_tolerance_blames_the_grid(params, curve, monkeypatch):
    epi = epidemic_pass(params, Grid(0.0, 300.0, 2e-2))
    monkeypatch.setattr(rational, "TOL", 1e-9)
    with pytest.raises(GridTooCoarseError):
        solve_plateau(curve, epi)


def test_a_retry_no_allowed_grid_takes_advises_no_dt_over_the_span(curve, monkeypatch):
    # the closure misses tol at dt=0.05 and meets it at dt=0.025; with the
    # limit at 8,000 steps no grid over [0, 300] halves dt, so the error
    # names the longest span dt/2 runs in place of the retry
    epi = epidemic_pass(EpidemicParams(beta=1e-3, gamma=0.05), Grid(0.0, 300.0, 0.05))
    with pytest.raises(GridTooCoarseError) as info:
        re_price_path(curve, epi)
    assert str(info.value) == ("plateau closure residuals did not reach tol=0.0001 at "
                               "dt=0.05; retry with dt/2")
    fine = epidemic_pass(epi.params, Grid(0.0, 300.0, 0.025))
    assert re_price_path(curve, fine).plateau.t1 == 7.96875
    monkeypatch.setattr(numerics, "MAX_STEPS", 8000)
    with pytest.raises(GridTooCoarseError) as info:
        re_price_path(curve, epi)
    assert str(info.value) == (
        "plateau closure residuals did not reach tol=0.0001 at dt=0.05; no allowed grid "
        "halves dt over this span, as span/MAX_STEPS = 0.0375 > dt/2 = 0.025 for span = "
        "300 and MAX_STEPS = 8000: the finest grid runs a span of at most 200")
    with pytest.raises(ConfigError, match=r"limit of 8000 steps allows, as span/MAX_STEPS = "
                                          r"0\.0375 > dt = 0\.025 for span = 300\.0;"):
        Grid(0.0, 300.0, 0.025)


def test_each_retry_text_reads_true():
    # dt/2 = 0.025 against span/MAX_STEPS = 0.0250001 over [0, 250001]:
    # both sides, and the longest span against the span, are printed with
    # the digits that tell them apart
    grid = Grid(0.0, 250001.0, 0.05)
    assert str(rational._retry("flow never reversed before the horizon end", grid, True)) == (
        "flow never reversed before the horizon end; no allowed grid halves dt over this "
        "span, as span/MAX_STEPS = 0.0250001 > dt/2 = 0.025 for span = 250001 and "
        "MAX_STEPS = 10000000: the finest grid runs a span of at most 250000; extend the "
        "horizon")
    # where a grid steps at dt/2, the shooting's four causes read as before
    grid = Grid(0.0, 300.0, 0.05)
    for cause, horizon, advice in (
            ("event order is not monotone in t1 at this resolution", False, "retry with dt/2"),
            ("plateau never closed before the horizon end", True,
             "retry with dt/2 or extend the horizon"),
            ("flow never reversed before the horizon end", False, "retry with dt/2"),
            ("plateau closure residuals did not reach tol=0.0001 at dt=0.05", False,
             "retry with dt/2")):
        exc = rational._retry(cause, grid, horizon)
        assert str(exc) == f"{cause}; {advice}"
        assert (exc.check, exc.value, exc.limit, exc.advised) == ("dt", 0.05, 0.025, 0.025)


@pytest.mark.parametrize("t_end", [10.0, 19.0, 20.0])
def test_horizon_short_of_the_infection_peak_blames_the_horizon(params, curve, t_end):
    # I still rises at the horizon end (its peak is at t = 21.159), so no
    # dt can close the plateau: the failed solve names the horizon
    epi = epidemic_pass(params, Grid(0.0, t_end, 1e-2))
    for solve in (re_price_path, rational.re_price_head, solve_plateau):
        with pytest.raises(BoundaryExtremumError, match="horizon is too short"):
            solve(curve, epi)


def test_a_flow_that_reverses_past_the_horizon_in_stage_two_blames_the_horizon(params):
    # at kappa=7 on [0, 20.53] the flow of both bracketing nodes' plateaus
    # turns by the horizon end, but that of a t1 between them only after
    # it; the horizon ends before the infection peak, as it must where t2
    # is before the peak, so the failed solve names the horizon
    curve = SupplyCurve(kappa=7.0)
    epi = epidemic_pass(params, Grid(0.0, 20.53, 1e-2))
    with pytest.raises(GridTooCoarseError) as info:
        rational._shoot(curve, epi)
    assert info.value.cause == "flow never reversed before the horizon end"
    with pytest.raises(BoundaryExtremumError, match="horizon is too short"):
        solve_plateau(curve, epi)


# beta=2e-4, gamma=0.199 (R0 about 1.005, outside the paper's regime) at
# kappa=5.5 on [0, 23.28]: the infection peak, t_I* = 19.9536, lies inside
# the horizon, but stage one's node bisection meets a node whose plateau
# never closes by the horizon end, a refusal no horizon check replaces
STAGE_ONE_PARAMS = EpidemicParams(beta=2e-4, gamma=0.199)
STAGE_ONE_CURVE = SupplyCurve(kappa=5.5)
STAGE_ONE_GRID = Grid(0.0, 23.28, 0.02)
STAGE_ONE_REFUSAL = ("plateau never closed before the horizon end; "
                     "retry with dt/2 or extend the horizon")


def test_a_stage_one_refusal_past_the_infection_peak_reaches_every_solver():
    epi = epidemic_pass(STAGE_ONE_PARAMS, STAGE_ONE_GRID)
    assert infection_peak(STAGE_ONE_PARAMS, epi).t_star == pytest.approx(19.9536, abs=1e-4)
    for solve in (solve_plateau, re_price_path, rational.re_price_head):
        with pytest.raises(GridTooCoarseError) as info:
            solve(STAGE_ONE_CURVE, epi)
        assert str(info.value) == STAGE_ONE_REFUSAL


def test_the_stage_one_refusal_point_solves_over_a_long_horizon():
    # over [0, 300] the same point closes its plateau after the infection
    # peak (t2 = 30.43 > t_I* = 19.95), so the refusal above is the horizon's
    epi = epidemic_pass(STAGE_ONE_PARAMS, replace(STAGE_ONE_GRID, t_end=300.0))
    sol = solve_plateau(STAGE_ONE_CURVE, epi)
    assert sol.t1 == 4.675625
    assert sol.t2 == pytest.approx(30.4345, abs=1e-4)
    assert sol.t2 > infection_peak(STAGE_ONE_PARAMS, epi).t_star


def test_solve_that_closes_before_the_infection_peak_is_kept(params, curve):
    epi = epidemic_pass(params, Grid(0.0, 21.0, 1e-2))
    with pytest.raises(BoundaryExtremumError):
        infection_peak(params, epi)
    assert re_price_path(curve, epi).plateau.t1 == 14.8640625
    assert rational.re_price_head(curve, epi).plateau.t1 == 14.8640625
    assert solve_plateau(curve, epi).t1 == 14.8640625


# ---------------------------------------------------------------------------
# assembled path vs the myopic benchmark
# ---------------------------------------------------------------------------


def test_rational_price_dominates_before_the_plateau(grid, myopic_run, rational_run):
    k1 = rational_run.plateau_start
    diff = rational_run.p[1:k1] - myopic_run.p[1:k1]
    assert float(diff.min()) >= 0.0
    assert float(diff[10:].min()) > 0.0


def test_rational_peak_is_lower(myopic_run, rational_run):
    assert rational_run.plateau.p_star < float(myopic_run.p.max())


def test_phase_labels_partition_the_path(rational_run):
    labels = rational_run.phases()
    assert len(labels) == len(rational_run.epi.times) == len(rational_run.p)
    assert labels[0] == "pre"
    assert labels[-1] == "post"
    changes = [
        (a, b) for a, b in zip(labels, labels[1:]) if a != b
    ]
    assert changes == [("pre", "plateau"), ("plateau", "post")]


# ---------------------------------------------------------------------------
# the accumulation scan that stops at k_f against a full-grid oracle
# ---------------------------------------------------------------------------


def _full_grid_solve(params, curve, grid, tol, epi):
    """The solve with phase 1 accumulated over all n steps and stage one
    bracketed on [1, n-1]: (t1, t2, P*, residual_flow, residual_absorption),
    or the shooting's refusal, as rational._retry records it."""
    n = grid.n_steps
    zs, hs = rational._accumulate(curve, epi, n)
    assert len(zs) == n + 1

    def diag(k):
        return rational._node_diagnosis(curve, epi, zs, hs, k)

    lo_k, hi_k = 1, n - 1
    kind_lo, kind_hi = diag(lo_k), diag(hi_k)
    if kind_lo == kind_hi:
        raise NoPlateauError(
            f"plateau diagnosis is '{kind_lo}' across (0, {grid.t_end}): "
            f"no sign change to shoot on"
        )
    if kind_lo != "absorbed" or kind_hi != "flow-reversed":
        raise rational._retry("event order is not monotone in t1 at this resolution", grid)
    while hi_k - lo_k > 1:
        mid = (lo_k + hi_k) // 2
        kind = diag(mid)
        if kind == "absorbed":
            lo_k = mid
        elif kind == "flow-reversed":
            hi_k = mid
        else:
            raise rational._retry("plateau never closed before the horizon end", grid, True)
    t_lo, t_hi = grid.node(lo_k), grid.node(hi_k)
    for _ in range(80):
        t_mid = 0.5 * (t_lo + t_hi)
        c, phi_star = rational._closure_at(curve, epi, zs, hs, t_mid)
        if c is None:
            raise rational._retry("flow never reversed before the horizon end", grid)
        if (abs(c.residual_absorption) <= 0.5 * tol * phi_star
                and abs(c.residual_flow) <= 0.5 * tol * params.gamma * phi_star):
            assert c.t1 == t_mid
            return (t_mid, c.t2, c.p_star, c.residual_flow, c.residual_absorption)
        if c.residual_absorption > 0.0:
            t_hi = t_mid
        else:
            t_lo = t_mid
        if t_hi - t_lo <= 1e-13 * max(1.0, t_hi):
            break
    raise rational._retry(f"plateau closure residuals did not reach tol={tol} at dt={grid.dt}",
                          grid)


def _first_reversed_node(params, curve, epi, zs, hs):
    """k_f by _node_diagnosis's own pre-scan check, or None."""
    for k in range(1, epi.grid.n_steps):
        y = epi.state_at(k) + (zs[k], hs[k])
        if y[4] > 0.0:
            p_star = curve.p0 + (y[3] + y[4]) / curve.kappa
            if rational._flow(params, p_star, y) <= 0.0:
                return k
    return None


def _fields(sol):
    return sol.t1, sol.t2, sol.p_star, sol.residual_flow, sol.residual_absorption


def _solved(curve, epi):
    return _fields(solve_plateau(curve, epi))


def _shot(curve, epi):
    """The shooting alone, before a failure is checked against the horizon."""
    return _fields(rational._shoot(curve, epi)[0])


def _outcome(fn, *args):
    """fn's result, or (type, message) of the SimulationError it raised."""
    try:
        return fn(*args)
    except SimulationError as exc:
        return type(exc), str(exc)


# one SIR pass per row: (dt, t_end, beta, gamma, [(kappa, tol), ...]). The
# first point is the README default. The short horizons (all but t_end=21),
# tol=1e-9 and beta=2e-3 at dt=2e-2 end in the shooting's errors; the solve
# names the short horizons' as infection_peak's.
_ORACLE_ROWS = [
    (1e-2, 300.0, 5e-4, 0.1, [(10.0, 1e-4), (5.0, 1e-4), (50.0, 1e-4), (400.0, 1e-4)]),
    (1e-2, 300.0, 2.5e-4, 0.05, [(5.0, 1e-4), (20.0, 1e-4), (400.0, 1e-4)]),
    (2e-2, 300.0, 5e-4, 0.1, [(10.0, 1e-4), (400.0, 1e-4), (10.0, 1e-9)]),
    (2e-2, 300.0, 1e-3, 0.2, [(5.0, 1e-4), (50.0, 1e-4), (400.0, 1e-4)]),
    (2e-2, 300.0, 2e-3, 0.1, [(10.0, 1e-4)]),
    (5e-3, 300.0, 5e-4, 0.1, [(10.0, 1e-4), (100.0, 1e-4), (400.0, 1e-4)]),
    (1e-2, 0.05, 5e-4, 0.1, [(10.0, 1e-4)]),
    (1e-2, 12.0, 5e-4, 0.1, [(10.0, 1e-4)]),
    (1e-2, 20.0, 5e-4, 0.1, [(10.0, 1e-4)]),
    (1e-2, 21.0, 5e-4, 0.1, [(10.0, 1e-4)]),
    (2e-2, 60.0, 1.5e-4, 0.1, [(10.0, 1e-4)]),
]


@pytest.mark.parametrize("dt, t_end, beta, gamma, row", _ORACLE_ROWS)
def test_solve_matches_the_full_grid_oracle(dt, t_end, beta, gamma, row, monkeypatch):
    params = EpidemicParams(beta=beta, gamma=gamma)
    grid = Grid(0.0, t_end, dt)
    epi = epidemic_pass(params, grid)
    for kappa, tol in row:
        curve = SupplyCurve(kappa=kappa)
        # the solve's tolerance is rational.TOL; a row at another one patches it
        monkeypatch.setattr(rational, "TOL", tol)
        expected = _outcome(_full_grid_solve, params, curve, grid, tol, epi)
        assert _outcome(_shot, curve, epi) == expected, (kappa, tol)
        # a failed solve raises infection_peak's error, if it has one
        peak = _outcome(infection_peak, params, epi)
        if isinstance(expected[0], type) and isinstance(peak, tuple):
            expected = peak
        assert _outcome(_solved, curve, epi) == expected, (kappa, tol)
        # the solve's scan is the full scan's prefix up to k_f
        zs, hs = rational._accumulate(curve, epi, grid.n_steps,
                                      stop_at_reversal=True)
        full_z, full_h = rational._accumulate(curve, epi, grid.n_steps)
        k_f = _first_reversed_node(params, curve, epi, full_z, full_h)
        assert len(zs) - 1 == (grid.n_steps if k_f is None else k_f), (kappa, tol)
        assert zs == full_z[:len(zs)] and hs == full_h[:len(hs)]


@pytest.mark.parametrize("beta, gamma, kappa", [(5e-4, 0.1, 10.0), (1e-3, 0.2, 50.0)],
                         ids=["defaults", "fast-epidemic"])
def test_stage_one_reads_the_written_path(beta, gamma, kappa):
    # each node diagnosis the bisection reads is the closing event of the
    # path simulate_re_given_t1 writes from that node
    params, curve = EpidemicParams(beta=beta, gamma=gamma), SupplyCurve(kappa=kappa)
    grid = Grid(0.0, 300.0, 0.1)
    epi = epidemic_pass(params, grid)
    zs, hs = rational._accumulate(curve, epi, grid.n_steps, stop_at_reversal=True)
    k_f = len(zs) - 1
    kinds = set()
    for k in range(1, k_f + 1):
        kind = closing_kind(rational._replay(curve, grid.node(k), epi, zs, hs))
        assert rational._node_diagnosis(curve, epi, zs, hs, k) == kind, k
        kinds.add(kind)
    assert kinds == {"absorbed", "flow-reversed"}


@pytest.mark.parametrize("kappa, dt", [(10.0, 1e-2), (400.0, 1e-2), (5.0, 2e-2)])
def test_price_path_replays_from_the_solves_phase_one(params, kappa, dt):
    curve = SupplyCurve(kappa=kappa)
    grid = Grid(0.0, 300.0, dt)
    epi = epidemic_pass(params, grid)
    sol = solve_plateau(curve, epi)
    traj = re_price_path(curve, epi)
    own = simulate_re_given_t1(curve, sol.t1, epi)
    assert traj.epi is own.epi is epi
    for name in ("s", "i", "r"):
        assert getattr(traj.epi, name).tobytes() == getattr(own.epi, name).tobytes(), name
    for name in ("x", "p"):
        assert getattr(traj, name).tobytes() == getattr(own, name).tobytes(), name
    assert (traj.plateau_start, traj.post_start) == (own.plateau_start, own.post_start)
    assert traj.plateau == sol
    assert (own.plateau.t1, own.plateau.p_star) == (sol.t1, sol.p_star)


@pytest.mark.parametrize("leg", [simulate_myopic, simulate_depression, re_price_path,
                                 rational.re_price_head],
                         ids=["myopic", "depression", "rational", "head"])
def test_a_leg_holds_the_sir_pass_it_ran_on(epidemic_run, leg):
    # kappa=400 keeps the slump above the price floor; the leg keeps no
    # copy of the pass's params, grid, times, S, I or R, nor of its plateau
    # record's t1, t2 or P*
    traj = leg(SupplyCurve(kappa=400.0), epidemic_run)
    assert traj.epi is epidemic_run
    copies = {"params", "grid", "times", "s", "i", "r", "t1", "t2", "p_star", "solution"}
    assert not copies & {f.name for f in fields(traj)}
    assert not any(hasattr(traj, name) for name in copies)
    n = len(epidemic_run.times)
    if leg is rational.re_price_head:
        # the head ends at its closing node; its pass is whole
        assert traj.post_start < n - 1
        n = traj.post_start + 1
    assert len(traj.p) == len(traj.x) == len(traj.phases()) == n


def test_every_pass_reads_its_params_and_grid_from_its_sir_pass():
    # only the fields and _flow, which belong to no pass, take params
    for fn in (holdings_pass, rational._accumulate, rational._plateau, rational._scan,
               holdings_cannot_raise, rational._replay,
               rational._node_diagnosis, rational._closure_at, analysis._point_result):
        names = inspect.signature(fn).parameters
        assert "epi" in names and not {"params", "grid"} & set(names), fn.__name__
