"""Three-phase price path with a sell-start time solved by shooting."""
from __future__ import annotations

import math

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    epidemic_pass,
    re_price_path,
    simulate_myopic,
    simulate_re_given_t1,
    solve_plateau,
)
from epimarket import rational
from epimarket.errors import (DomainError, GridTooCoarseError, NoPlateauError,
                              SimulationError)
from epimarket.market import clearing_price


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
    assert rational_run.t1 == plateau.t1
    assert rational_run.t2 == plateau.t2
    assert rational_run.p_star == plateau.p_star


def test_solved_path_carries_its_solution(plateau, rational_run):
    assert rational_run.solution == plateau


def test_trial_path_carries_no_solution(curve, epidemic_run, plateau):
    traj, _diag = simulate_re_given_t1(curve, plateau.t1, epidemic_run)
    assert traj.solution is None


def test_plateau_price_is_flat(curve, rational_run):
    k1, k2 = rational_run.plateau_start, rational_run.post_start
    assert k1 is not None and k2 is not None and k2 > k1
    seg_p = rational_run.p[k1:k2]
    assert float(np.abs(seg_p - rational_run.p_star).max()) == 0.0
    # holdings stay consistent with the pinned price through clearing
    implied = curve.p0 + rational_run.x[k1:k2] / curve.kappa
    rel = np.abs(implied - rational_run.p_star) / rational_run.p_star
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


def test_split_holdings_stay_nonnegative(rational_run):
    assert float(rational_run.z.min()) >= 0.0
    assert float(rational_run.h.min()) >= 0.0
    assert float(np.abs(rational_run.z + rational_run.h - rational_run.x).max()) <= 1e-9


# ---------------------------------------------------------------------------
# diagnosis of a given sell-start time
# ---------------------------------------------------------------------------


def test_early_start_absorbs_immediately(curve, grid, epidemic_run):
    traj, diag = simulate_re_given_t1(curve, grid.node(1), epidemic_run)
    assert diag.kind == "absorbed"
    assert diag.time <= grid.node(5)
    assert traj.scenario == "rational"


def test_late_start_reverses_flow_with_inventory_left(curve, grid, epidemic_run, peak):
    t1 = grid.node(int(round(2.0 * peak.t_star / grid.dt)))
    _, diag = simulate_re_given_t1(curve, t1, epidemic_run)
    assert diag.kind == "flow-reversed"
    assert diag.h_value > 0.0
    assert diag.flow_value <= 0.0


def test_solved_start_closes_both_events_together(curve, grid, epidemic_run, plateau):
    _, diag = simulate_re_given_t1(curve, plateau.t1, epidemic_run)
    assert diag.kind in ("absorbed", "flow-reversed")
    assert abs(diag.time - plateau.t2) <= 5.0 * grid.dt


def test_off_grid_start_is_rejected(curve, grid, epidemic_run):
    with pytest.raises(DomainError):
        simulate_re_given_t1(curve, -1.0, epidemic_run)
    with pytest.raises(DomainError):
        simulate_re_given_t1(curve, grid.t_end, epidemic_run)


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
    traj, diag = simulate_re_given_t1(curve, t1, epi)
    assert diag.kind == kind
    assert traj.phases() == ["pre"] * (n + 1)
    assert len(traj.z) == len(traj.h) == len(traj.p) == n + 1


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
    k = rational._node_below(grid, solved.t1)
    t_peak = float(epi.times[int(np.argmax(epi.i))])
    late = grid.node(int(round((2.0 * t_peak - grid.t_start) / grid.dt)))
    trials = {"on-node": grid.node(k), "off-node": grid.node(k) + 0.37 * grid.dt,
              "collapse": late}
    runs = {"solved": solved}
    for label, t1 in trials.items():
        runs[label], diag = simulate_re_given_t1(curve, t1, epi)
        assert (diag.time == t1) is (label == "collapse"), label
    for label, traj in runs.items():
        for name in "sir":
            assert getattr(traj, name) is getattr(epi, name), (label, name)
            assert np.array_equal(getattr(traj, name), getattr(myopic, name)), (label, name)


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


def test_unreachable_tolerance_blames_the_grid(params, curve):
    epi = epidemic_pass(params, Grid(0.0, 300.0, 2e-2))
    with pytest.raises(GridTooCoarseError):
        solve_plateau(curve, epi, tol=1e-9)


# ---------------------------------------------------------------------------
# assembled path vs the myopic benchmark
# ---------------------------------------------------------------------------


def test_rational_price_dominates_before_the_plateau(grid, myopic_run, rational_run):
    k1 = rational_run.plateau_start
    diff = rational_run.p[1:k1] - myopic_run.p[1:k1]
    assert float(diff.min()) >= 0.0
    assert float(diff[10:].min()) > 0.0


def test_rational_peak_is_lower(myopic_run, rational_run):
    assert rational_run.p_star < float(myopic_run.p.max())


def test_phase_labels_partition_the_path(rational_run):
    labels = rational_run.phases()
    assert len(labels) == len(rational_run.times)
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
    bracketed on [1, n-1]: (t1, t2, P*, residual_flow, residual_absorption)."""
    n = grid.n_steps
    zs, hs = rational._accumulate(params, curve, epi, n)
    assert len(zs) == n + 1

    def diag(k):
        return rational._node_diagnosis(params, curve, epi, zs, hs, k)

    lo_k, hi_k = 1, n - 1
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
        c = rational._closure_at(params, curve, epi, zs, hs, t_mid)
        if not c.found:
            raise GridTooCoarseError(
                "flow never reversed before the horizon end; retry with dt/2"
            )
        if (abs(c.residual_absorption) <= 0.5 * tol * c.phi_star
                and abs(c.residual_flow) <= 0.5 * tol * params.gamma * c.phi_star):
            return (t_mid, c.t2, c.p_star, c.residual_flow, c.residual_absorption)
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


def _first_reversed_node(params, curve, epi, zs, hs):
    """k_f by _node_diagnosis's own pre-scan check, or None."""
    for k in range(1, epi.grid.n_steps):
        st = epi.state_at(k)
        y = (st.s, st.i, st.r, zs[k], hs[k])
        if y[4] > 0.0:
            p_star = clearing_price(y[3] + y[4], curve)
            if rational._flow(params, p_star, y) <= 0.0:
                return k
    return None


def _solved(curve, epi, tol):
    sol = solve_plateau(curve, epi, tol)
    return sol.t1, sol.t2, sol.p_star, sol.residual_flow, sol.residual_absorption


def _outcome(fn, *args):
    """fn's result, or (type, message) of the SimulationError it raised."""
    try:
        return fn(*args)
    except SimulationError as exc:
        return type(exc), str(exc)


# one SIR pass per row: (dt, t_end, beta, gamma, [(kappa, tol), ...]). The
# first point is the README default. The short horizons (all but t_end=21),
# tol=1e-9 and beta=2e-3 at dt=2e-2 end in the solve's errors.
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
def test_solve_matches_the_full_grid_oracle(dt, t_end, beta, gamma, row):
    params = EpidemicParams(beta=beta, gamma=gamma)
    grid = Grid(0.0, t_end, dt)
    epi = epidemic_pass(params, grid)
    for kappa, tol in row:
        curve = SupplyCurve(kappa=kappa)
        expected = _outcome(_full_grid_solve, params, curve, grid, tol, epi)
        assert _outcome(_solved, curve, epi, tol) == expected, (kappa, tol)
        # the solve's scan is the full scan's prefix up to k_f
        zs, hs = rational._accumulate(params, curve, epi, grid.n_steps,
                                      stop_at_reversal=True)
        full_z, full_h = rational._accumulate(params, curve, epi, grid.n_steps)
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
    zs, hs = rational._accumulate(params, curve, epi, grid.n_steps, stop_at_reversal=True)
    k_f = len(zs) - 1
    kinds = set()
    for k in range(1, k_f + 1):
        _traj, diag = rational._replay(params, curve, grid.node(k), epi, zs, hs)
        assert rational._node_diagnosis(params, curve, epi, zs, hs, k) == diag.kind, k
        kinds.add(diag.kind)
    assert kinds == {"absorbed", "flow-reversed"}


@pytest.mark.parametrize("kappa, dt", [(10.0, 1e-2), (400.0, 1e-2), (5.0, 2e-2)])
def test_price_path_replays_from_the_solves_phase_one(params, kappa, dt):
    curve = SupplyCurve(kappa=kappa)
    grid = Grid(0.0, 300.0, dt)
    epi = epidemic_pass(params, grid)
    sol = solve_plateau(curve, epi)
    traj = re_price_path(curve, epi)
    own, _diag = simulate_re_given_t1(curve, sol.t1, epi)
    for name in ("s", "i", "r", "z", "h", "p"):
        assert getattr(traj, name).tobytes() == getattr(own, name).tobytes(), name
    assert (traj.plateau_start, traj.post_start) == (own.plateau_start, own.post_start)
    assert (traj.t1, traj.t2, traj.p_star) == (own.t1, sol.t2, own.p_star)
