"""Supply curve, clearing, the euphoric and depressive scenarios, quadrature."""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    cohort_holdings_profile,
    epidemic_pass,
    simulate_depression,
    simulate_myopic,
)
from epimarket import numerics
from epimarket.analysis import refine_peak
from epimarket.errors import ConfigError, DomainError, GridTooCoarseError, PriceFloorError
from epimarket.market import boom_price, holdings_field, holdings_pass
from epimarket.numerics import rk4_step
from test_drive_parity import PR21_BOOM_REFUSAL, assert_advice_runs


# ---------------------------------------------------------------------------
# supply curve
# ---------------------------------------------------------------------------


def test_curve_rejects_bad_values():
    with pytest.raises(ConfigError):
        SupplyCurve(p0=0.0)
    with pytest.raises(ConfigError):
        SupplyCurve(kappa=-1.0)
    for name in ("p0", "kappa"):
        with pytest.raises(ConfigError, match="finite"):
            SupplyCurve(**{name: float("inf")})


# ---------------------------------------------------------------------------
# myopic scenario
# ---------------------------------------------------------------------------


def test_myopic_boundary_values(curve, myopic_run):
    assert float(myopic_run.p[0]) == curve.p0
    assert float(myopic_run.x[0]) == 0.0
    assert abs(float(myopic_run.p[-1]) - curve.p0) <= 0.01 * curve.p0


def test_myopic_price_peak_values(myopic_run):
    t_p, p_p = refine_peak(myopic_run.epi.times, myopic_run.p, mode="max")
    assert t_p == pytest.approx(19.886189, abs=1e-4)
    assert p_p == pytest.approx(8.474567, abs=1e-4)


def test_myopic_clearing_holds_at_every_node(curve, myopic_run):
    resid = np.abs(curve.kappa * (myopic_run.p - curve.p0) - myopic_run.x)
    scale = np.maximum(1.0, np.abs(myopic_run.x))
    assert float((resid / scale).max()) <= 1e-9


def test_myopic_embeds_the_pure_epidemic(epidemic_run, myopic_run):
    # the market never feeds back into the contagion: a run holds the SIR
    # pass it is given, and with it that pass's params, grid, S, I and R
    assert myopic_run.epi is epidemic_run
    assert len(myopic_run.p) == len(epidemic_run.times) == len(myopic_run.x)


def test_myopic_without_seed_is_flat(curve):
    p = EpidemicParams(n2=0.0, n1=1000.0)
    traj = simulate_myopic(curve, epidemic_pass(p, Grid(0.0, 50.0, 1e-2)))
    assert np.all(traj.p == curve.p0)
    assert np.all(traj.x == 0.0)


def test_myopic_beta_zero_never_buys(curve):
    p = EpidemicParams(beta=0.0)
    traj = simulate_myopic(curve, epidemic_pass(p, Grid(0.0, 50.0, 1e-2)))
    assert np.all(traj.x == 0.0)
    assert np.all(traj.p == curve.p0)


def test_myopic_peak_height_falls_with_deeper_markets(epidemic_run):
    peaks = []
    for kappa in (5.0, 10.0, 20.0):
        traj = simulate_myopic(SupplyCurve(kappa=kappa), epidemic_run)
        peaks.append(refine_peak(traj.epi.times, traj.p, mode="max")[1])
    assert peaks[0] > peaks[1] > peaks[2]


# ---------------------------------------------------------------------------
# cohort quadrature oracle
# ---------------------------------------------------------------------------


def test_quadrature_empty_at_zero(myopic_run):
    assert cohort_holdings_profile(myopic_run)[0] == 0.0


def test_quadrature_matches_state_at_price_peak(grid, myopic_run):
    t_p, _ = refine_peak(myopic_run.epi.times, myopic_run.p, mode="max")
    k = int(round(t_p / grid.dt))
    q = float(cohort_holdings_profile(myopic_run)[k])
    x = float(myopic_run.x[k])
    assert q == pytest.approx(x, rel=1e-4)


def test_quadrature_refuses_a_leg_that_is_not_myopic(epidemic_run, rational_run):
    # the oracle integrates a boom's cohorts; a slump or a plateau has none
    slump = simulate_depression(SupplyCurve(kappa=400.0), epidemic_run)
    for leg in (slump, rational_run):
        with pytest.raises(DomainError) as info:
            cohort_holdings_profile(leg)
        assert str(info.value) == (
            f"cohort quadrature is defined for myopic runs, not '{leg.scenario}'")


def test_quadrature_no_recovery_limit(curve):
    # with gamma ~ 0 the kernel is flat and holdings are cumulative buying
    p = EpidemicParams(gamma=1e-9)
    g = Grid(0.0, 50.0, 1e-2)
    traj = simulate_myopic(curve, epidemic_pass(p, g))
    prof = cohort_holdings_profile(traj)
    for k in (1000, 2500, 5000):
        q = float(prof[k])
        x = float(traj.x[k])
        assert q == pytest.approx(x, rel=1e-4)


def test_profile_agrees_with_pointwise_quadrature(params, grid, myopic_run):
    # the recurrence against a global trapezoid of the cohort integral
    prof = cohort_holdings_profile(myopic_run)
    epi = myopic_run.epi
    t = epi.times
    u = params.beta * epi.i * epi.s * params.endowment / myopic_run.p
    for k in (1, 500, 2116, 10000, 30000):
        g = u[: k + 1] * np.exp(-params.gamma * (t[k] - t[: k + 1]))
        q = float(grid.dt * (g.sum() - 0.5 * (g[0] + g[-1])))
        assert abs(prof[k] - q) <= 1e-9 * max(1.0, abs(q))


# ---------------------------------------------------------------------------
# depression scenario
# ---------------------------------------------------------------------------


def test_depression_is_the_exact_mirror(epidemic_run):
    deep = SupplyCurve(kappa=400.0)
    bust = simulate_depression(deep, epidemic_run)
    boom = simulate_myopic(deep, epidemic_run)
    assert float(np.abs(bust.x + boom.x).max()) <= 1e-12
    assert float(np.abs(bust.p - (2.0 * deep.p0 - boom.p)).max()) <= 1e-12


def test_depression_trough_and_recovery(epidemic_run):
    deep = SupplyCurve(kappa=400.0)
    bust = simulate_depression(deep, epidemic_run)
    t_t, p_t = refine_peak(bust.epi.times, bust.p, mode="min")
    assert t_t == pytest.approx(20.5475, abs=1e-3)
    assert p_t == pytest.approx(0.224340, abs=1e-4)
    assert p_t > 0.0
    assert abs(float(bust.p[-1]) - deep.p0) <= 0.01 * deep.p0
    assert float(np.abs(deep.kappa * (bust.p - deep.p0) - bust.x).max()) <= 1e-6


def test_depression_floors_in_shallow_markets(epidemic_run):
    # the boom peak exceeds 2*p0 here, so the mirrored trough would need a
    # negative price; the guard must fire rather than clamp
    with pytest.raises(PriceFloorError):
        simulate_depression(SupplyCurve(kappa=1.0), epidemic_run)
    with pytest.raises(PriceFloorError):
        simulate_depression(SupplyCurve(kappa=100.0), epidemic_run)


def _floor_error(fn, *args):
    with pytest.raises((PriceFloorError, GridTooCoarseError)) as info:
        fn(*args)
    return type(info.value), info.value.time, str(info.value)


def _coupled_holdings(curve, epi, k, x, mirror):
    """The coupled (s, i, r, x) steps of holdings_field from node k, each
    from the grid's S, I and R at its start node, to the end of the grid."""
    field = holdings_field(curve, epi, mirror)
    for j in range(k, epi.grid.n_steps):
        x = rk4_step(field, float(epi.times[j]), epi.state_at(j) + (x,), epi.grid.dt)[3]
    return x


@pytest.mark.parametrize("mirror", [False, True])
def test_holdings_pass_raises_at_the_floor(params, curve, mirror):
    # from the floor at node k the replay is of step k itself, at its time;
    # a boom's floor is the grid's
    g = Grid(5.0, 6.0, 0.1)
    epi = epidemic_pass(params, g)
    floor = -curve.kappa * curve.p0
    for k in (0, 4):
        got = _floor_error(holdings_pass, curve, epi, k, floor, mirror)
        assert got == _floor_error(_coupled_holdings, curve, epi, k, floor, mirror)
        assert got[0] is (PriceFloorError if mirror else GridTooCoarseError)
        assert got[1] == epi.times[k]
    assert epi.times[0] == g.t_start


def test_holdings_pass_from_a_later_node_raises_steps_on(params, curve):
    # the slump from x=-4 at node 100 reaches the floor four steps on, at a
    # mid-step stage: the replayed stage state, and so the message, is
    # built from that step's own start node's S, I and R
    g = Grid(0.0, 20.0, 0.1)
    epi = epidemic_pass(params, g)
    got = _floor_error(holdings_pass, curve, epi, 100, -4.0, True)
    assert got == _floor_error(_coupled_holdings, curve, epi, 100, -4.0, True)
    assert epi.times[104] < got[1] < epi.times[105]


def test_a_boom_at_its_floor_is_the_grids_fault(curve):
    # a population of 1e300 inside both SIR bounds, beta*N*dt = 1.0: drives
    # near 2.5e300 carry the boom's first mid-step stage far below the
    # floor. From 0 the exact holdings never fall below 0, so that is RK4
    # overshoot. holdings_cannot_raise's bound holds on these drives at dt
    # <= sqrt(kappa*p0/(gamma*top)) = 6.363e-150, about 3e150 steps over
    # the span, so no allowed grid meets it: the error names the bound that
    # fails on the finest grid, span/MAX_STEPS, and advises no dt. The
    # slump on the same pass keeps the model's floor
    epi = epidemic_pass(EpidemicParams(beta=1e-299, n1=1e300, n2=1e297), Grid(0.0, 20.0, 0.1))
    with pytest.raises(GridTooCoarseError) as info:
        simulate_myopic(curve, epi)
    assert info.value.time == 0.05
    assert str(info.value) == PR21_BOOM_REFUSAL
    with pytest.raises(PriceFloorError, match=r"^clearing price hit zero at t=0\.05 "):
        simulate_depression(curve, epi)


def test_a_boom_whose_bound_a_grid_meets_names_its_dt(curve):
    # drives near 6e6 against kappa*p0 = 10: the bound holds at dt <=
    # 0.004076, 4,907 steps over the span, and a grid at dt = 0.004 runs
    params = EpidemicParams(beta=2e-5, n1=1e6, n2=1e5)
    with pytest.raises(GridTooCoarseError) as info:
        simulate_myopic(curve, epidemic_pass(params, Grid(0.0, 20.0, 0.1)))
    assert str(info.value) == (
        "clearing price hit zero at t=0.05 (x=-482.04679532046794) in a boom: RK4 "
        "overshoot at dt=0.1; use dt <= 0.004076 (gamma*dt <= 1, gamma*dt^2*top <= "
        "kappa*p0, top = max demand/p0 = 6.019e+06, every demand >= 0)")
    assert simulate_myopic(curve, epidemic_pass(params, Grid(0.0, 20.0, 0.004))).p.min() > 0.0


def _log(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    size=st.one_of(_log(3.0, 12.0), _log(12.0, 290.0)), share=_log(-3.0, -0.3),
    decay=st.one_of(_log(-3.0, 0.0), st.floats(min_value=1.0, max_value=2.7)),
    reach=st.floats(min_value=0.01, max_value=1.0), p0=_log(-1.0, 1.0),
    kappa=_log(-1.0, 3.0), dt=st.sampled_from((1e-2, 0.1, 1.0)),
    n=st.integers(min_value=20, max_value=200),
    spare=st.one_of(st.none(), st.floats(min_value=1.0, max_value=4.0)),
)
def test_every_boom_refusal_advises_a_grid_that_runs_or_no_dt(size, share, decay, reach, p0,
                                                              kappa, dt, n, spare):
    # stiff booms on grids the SIR pass admits: gamma*dt = decay and beta*N*dt
    # a share reach of what the stability interval leaves, so the holdings
    # pass overshoots its floor where gamma*dt^2*max demand/p0 is large
    # against kappa*p0. With spare set, the step limit is at most spare
    # times the grid's steps, so the finest grid may miss either bound
    n2 = share * size
    beta = reach * (2.78 - decay) / ((size + n2) * dt)
    params, grid = EpidemicParams(beta=beta, gamma=decay / dt, n1=size, n2=n2), Grid(0.0, n * dt, dt)
    limit = numerics.MAX_STEPS if spare is None else max(n, int(n * spare))
    with mock.patch.object(numerics, "MAX_STEPS", limit):
        epi = epidemic_pass(params, grid)
        try:
            simulate_myopic(SupplyCurve(p0=p0, kappa=kappa), epi)
        except GridTooCoarseError as exc:
            assert_advice_runs(grid, exc)
            # the advised dt has at most 4 digits and meets holdings_cannot_raise's
            # bound; where the finest step lies above it, none is advised
            # (assert_advice_runs)
            gamma, top = params.gamma, float(np.max(epi.demand)) / p0
            assert math.isfinite(top) and top > 0.0 and exc.top == top
            bound = min(1.0 / gamma, math.sqrt(kappa * p0 / gamma) / math.sqrt(top))
            assert exc.advised <= bound and float(f"{exc.advised:.4g}") == exc.advised
            assert gamma * exc.advised <= 1.0
            assert gamma * exc.advised * exc.advised * top <= kappa * p0
            assert exc.finest == n * dt / limit


def test_a_boom_whose_finest_grid_steps_above_the_advised_dt_advises_none(curve):
    # with the limit at 10 steps, the finest grid over [0, 33.3331] steps at
    # 3.33331: gamma*dt <= 1 holds there, but the step lies above the
    # advised 3.333, the bound 1/gamma rounded down. That grid runs, so the
    # error advises no dt and says no "no allowed grid"; each side of its
    # comparison is printed apart from the other, and true
    params = EpidemicParams(beta=1e-5, gamma=0.3)
    with mock.patch.object(numerics, "MAX_STEPS", 10):
        epi = epidemic_pass(params, Grid(0.0, 33.3331, 3.33331))
        with pytest.raises(GridTooCoarseError) as info:
            boom_price(curve, epi, 0.0, -20.0)
    assert str(info.value) == (
        "clearing price hit zero at t=0.0 (x=-20.0) in a boom: RK4 overshoot at dt=3.33331; "
        "no dt is advised, as the finest grid steps above the largest 4-digit dt that meets "
        "the bound: span/MAX_STEPS = 3.3333 > 3.333 for span = 33.3331 and MAX_STEPS = 10")
    exc = info.value
    assert (exc.check, exc.advised, exc.finest) == ("gamma*dt", 3.333, 3.33331)
    assert exc.at_finest <= 1.0 and exc.time == 0.0


def test_a_boom_whose_demand_overflows_advises_no_dt(curve):
    # at w = 5e307 the demand table overflows from the first steps on, so
    # top = max demand/p0 is inf: no dt meets holdings_cannot_raise's
    # bound, and the error names the demand and its w in place of a dt
    epi = epidemic_pass(EpidemicParams(endowment=5e307), Grid(0.0, 50.0, 1e-2))
    assert not np.isfinite(epi.demand).all()
    with pytest.raises(GridTooCoarseError) as info:
        simulate_myopic(curve, epi)
    assert info.value.time == 0.005
    assert str(info.value) == (
        "clearing price hit zero at t=0.005 (x=-6.243750000000001e+301) in a boom: RK4 "
        "overshoot at dt=0.01; no dt meets gamma*dt^2*top <= kappa*p0, as top = max "
        "demand/p0 overflows for the demand beta*I*S*w, w = 5e+307")


def test_depression_without_seed_is_flat(curve):
    p = EpidemicParams(n2=0.0, n1=1000.0)
    traj = simulate_depression(curve, epidemic_pass(p, Grid(0.0, 50.0, 1e-2)))
    assert np.all(traj.p == curve.p0)
