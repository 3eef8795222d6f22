"""Supply curve, clearing, the euphoric and depressive scenarios, quadrature."""
from __future__ import annotations

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    clearing_price,
    cohort_holdings_profile,
    epidemic_pass,
    simulate_depression,
    simulate_myopic,
)
from epimarket.analysis import refine_peak
from epimarket.errors import ConfigError, PriceFloorError
from epimarket.market import holdings_field, holdings_pass
from epimarket.numerics import rk4_step


# ---------------------------------------------------------------------------
# supply curve and clearing
# ---------------------------------------------------------------------------


def test_curve_rejects_bad_values():
    with pytest.raises(ConfigError):
        SupplyCurve(p0=0.0)
    with pytest.raises(ConfigError):
        SupplyCurve(kappa=-1.0)
    for name in ("p0", "kappa"):
        with pytest.raises(ConfigError, match="finite"):
            SupplyCurve(**{name: float("inf")})


def test_clearing_price_inverts_the_curve(curve):
    assert clearing_price(0.0, curve) == 1.0
    assert clearing_price(5.0, curve) == pytest.approx(1.5, rel=1e-12)
    assert clearing_price(-5.0, curve) == pytest.approx(0.5, rel=1e-12)
    for p in (0.2, 1.0, 3.7, 25.0):
        assert clearing_price(curve.kappa * (p - curve.p0), curve) == pytest.approx(
            p, rel=1e-9
        )


def test_clearing_price_floor(curve):
    with pytest.raises(PriceFloorError):
        clearing_price(-10.0, curve)  # exactly -kappa*p0
    with pytest.raises(PriceFloorError):
        clearing_price(-11.0, curve)
    assert clearing_price(-9.99, curve) > 0.0


# ---------------------------------------------------------------------------
# myopic scenario
# ---------------------------------------------------------------------------


def test_myopic_boundary_values(curve, myopic_run):
    assert float(myopic_run.p[0]) == curve.p0
    assert float(myopic_run.x[0]) == 0.0
    assert abs(float(myopic_run.p[-1]) - curve.p0) <= 0.01 * curve.p0


def test_myopic_price_peak_values(myopic_run):
    t_p, p_p = refine_peak(myopic_run.times, myopic_run.p, mode="max")
    assert t_p == pytest.approx(19.886189, abs=1e-4)
    assert p_p == pytest.approx(8.474567, abs=1e-4)


def test_myopic_clearing_holds_at_every_node(curve, myopic_run):
    resid = np.abs(curve.kappa * (myopic_run.p - curve.p0) - myopic_run.x)
    scale = np.maximum(1.0, np.abs(myopic_run.x))
    assert float((resid / scale).max()) <= 1e-9


def test_myopic_embeds_the_pure_epidemic(epidemic_run, myopic_run):
    # the market never feeds back into the contagion: a run takes its
    # params and grid from the SIR pass it is given, and its S, I and R
    # are that pass's arrays
    assert myopic_run.params is epidemic_run.params
    assert myopic_run.grid is epidemic_run.grid
    for name in "sir":
        assert getattr(myopic_run, name) is getattr(epidemic_run, name), name


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
        peaks.append(refine_peak(traj.times, traj.p, mode="max")[1])
    assert peaks[0] > peaks[1] > peaks[2]


# ---------------------------------------------------------------------------
# cohort quadrature oracle
# ---------------------------------------------------------------------------


def test_quadrature_empty_at_zero(myopic_run):
    assert cohort_holdings_profile(myopic_run)[0] == 0.0


def test_quadrature_matches_state_at_price_peak(grid, myopic_run):
    t_p, _ = refine_peak(myopic_run.times, myopic_run.p, mode="max")
    k = int(round(t_p / grid.dt))
    q = float(cohort_holdings_profile(myopic_run)[k])
    x = float(myopic_run.x[k])
    assert q == pytest.approx(x, rel=1e-4)


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
    t = myopic_run.times
    u = params.beta * myopic_run.i * myopic_run.s * params.endowment / myopic_run.p
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
    t_t, p_t = refine_peak(bust.times, bust.p, mode="min")
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
    with pytest.raises(PriceFloorError) as info:
        fn(*args)
    return info.value.time, str(info.value)


def _coupled_holdings(params, curve, epi, k, x, mirror):
    """The coupled (s, i, r, x) steps of holdings_field from node k, each
    from the grid's S, I and R at its start node, to the end of the grid."""
    field = holdings_field(params, curve, mirror)
    for j in range(k, epi.grid.n_steps):
        st = epi.state_at(j)
        x = rk4_step(field, float(epi.times[j]), (st.s, st.i, st.r, x), epi.grid.dt)[3]
    return x


@pytest.mark.parametrize("mirror", [False, True])
def test_holdings_pass_raises_at_the_floor(params, curve, mirror):
    # from the floor at node k the replay is of step k itself, at its time
    g = Grid(5.0, 6.0, 0.1)
    epi = epidemic_pass(params, g)
    floor = -curve.kappa * curve.p0
    for k in (0, 4):
        got = _floor_error(holdings_pass, params, curve, epi, k, floor, mirror)
        assert got == _floor_error(_coupled_holdings, params, curve, epi, k, floor, mirror)
        assert got[0] == epi.times[k]
    assert epi.times[0] == g.t_start


def test_holdings_pass_from_a_later_node_raises_steps_on(params, curve):
    # the slump from x=-4 at node 100 reaches the floor four steps on, at a
    # mid-step stage: the replayed stage state, and so the message, is
    # built from that step's own start node's S, I and R
    g = Grid(0.0, 20.0, 0.1)
    epi = epidemic_pass(params, g)
    got = _floor_error(holdings_pass, params, curve, epi, 100, -4.0, True)
    assert got == _floor_error(_coupled_holdings, params, curve, epi, 100, -4.0, True)
    assert epi.times[104] < got[0] < epi.times[105]


def test_depression_without_seed_is_flat(curve):
    p = EpidemicParams(n2=0.0, n1=1000.0)
    traj = simulate_depression(curve, epidemic_pass(p, Grid(0.0, 50.0, 1e-2)))
    assert np.all(traj.p == curve.p0)
