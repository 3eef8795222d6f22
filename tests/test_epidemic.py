"""Contagion dynamics: conservation, first integrals, final size, peak."""
from __future__ import annotations

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    epidemic_pass,
    infection_peak,
    steady_state_recovered,
)
from epimarket.epidemic import coupled_field
from epimarket.numerics import refine_max
from epimarket.errors import (
    BoundaryExtremumError,
    ConfigError,
    ConsistencyError,
)
from epimarket.verify import _drifts, _integrate_until_extinct
from test_drive_parity import POPULATION_REFUSAL

N_TOTAL = 1000.0


def _i_star(epi):
    """The pass's refined infected maximum: the vertex of the parabola
    through I at the three nodes around its largest, as infection_peak
    refines t_star."""
    return refine_max(epi.times, epi.i, "infected maximum at node {k}")[2]


# ---------------------------------------------------------------------------
# parameters and derivatives
# ---------------------------------------------------------------------------


def test_params_defaults_and_threshold(params):
    assert params.total == N_TOTAL
    assert params.threshold == pytest.approx(200.0)


@pytest.mark.parametrize("overrides, booms", [
    ({}, True),
    ({"n2": 0.0}, False),
    ({"beta": 0.0}, False),
    # n1 == gamma/beta exactly: S never starts above the threshold
    ({"beta": 0.5, "gamma": 499.5}, False),
])
def test_booms_truth_table(overrides, booms):
    p = EpidemicParams(**overrides)
    assert p.booms is booms


def test_params_reject_bad_values():
    with pytest.raises(ConfigError):
        EpidemicParams(beta=-1e-4)
    with pytest.raises(ConfigError):
        EpidemicParams(gamma=0.0)
    with pytest.raises(ConfigError):
        EpidemicParams(n1=0.0)
    with pytest.raises(ConfigError):
        EpidemicParams(n2=-1.0)
    with pytest.raises(ConfigError):
        EpidemicParams(endowment=0.0)
    for name in ("beta", "gamma", "n1", "n2", "n3", "endowment"):
        with pytest.raises(ConfigError, match="finite"):
            EpidemicParams(**{name: math.inf})


def test_params_reject_a_population_beyond_the_float_range():
    # each mass is finite, their sum is not
    with pytest.raises(ConfigError) as info:
        EpidemicParams(beta=0.0, n1=1e308, n3=1e308)
    assert str(info.value) == POPULATION_REFUSAL.format(n="inf")
    # K*N overflows alone: 6*K^2*(beta*N + gamma)*N is 1.5e301
    with pytest.raises(ConfigError) as info:
        EpidemicParams(beta=0.0, gamma=1e-10, n1=1e308)
    assert str(info.value) == POPULATION_REFUSAL.format(n="1e+308")
    # 6*K^2*(beta*N + gamma)*N overflows on its gamma*N alone
    with pytest.raises(ConfigError) as info:
        EpidemicParams(beta=0.0, gamma=1e10, n1=1e300)
    assert str(info.value) == POPULATION_REFUSAL.format(n="1e+300")
    # inside both: K*N = 1.6e307, and 6*K^2*(beta*N + gamma)*N = 1.5e307
    assert EpidemicParams(beta=0.0, gamma=1e-10, n1=1e307).total == 1e307
    assert EpidemicParams(beta=0.0, gamma=1e10, n1=1e294).total == 1e294


def test_beta_zero_is_the_uncoupled_limit():
    p = EpidemicParams(beta=0.0)
    assert p.threshold == math.inf


def test_derivatives_at_seed_state(params):
    ds, di, dr = coupled_field(params, lambda t, d, y: ())(0.0, (999.0, 1.0, 0.0))
    assert ds == pytest.approx(-0.4995, rel=1e-12)
    assert di == pytest.approx(0.3995, rel=1e-12)
    assert dr == pytest.approx(0.1, rel=1e-12)
    assert ds + di + dr == pytest.approx(0.0, abs=1e-15)


def test_derivatives_vanish_without_infection(params):
    assert coupled_field(params, lambda t, d, y: ())(0.0, (999.0, 0.0, 1.0)) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# simulation
# ---------------------------------------------------------------------------


def test_conservation_on_defaults(epidemic_run):
    total = epidemic_run.s + epidemic_run.i + epidemic_run.r
    assert float(np.abs(total - N_TOTAL).max()) <= 1e-8 * N_TOTAL


def test_monotone_susceptible_and_recovered(epidemic_run):
    assert float(np.diff(epidemic_run.s).max()) <= 0.0
    assert float(np.diff(epidemic_run.r).min()) >= 0.0


def test_epidemic_dies_out_on_defaults(params, epidemic_run):
    assert float(epidemic_run.i[-1]) < 1e-6
    r_inf = steady_state_recovered(params)
    assert float(epidemic_run.r[-1]) == pytest.approx(r_inf, rel=1e-5)


def test_no_seed_means_frozen_dynamics():
    p = EpidemicParams(n2=0.0, n1=1000.0)
    traj = epidemic_pass(p, Grid(0.0, 50.0, 1e-2))
    assert np.all(traj.s == 1000.0)
    assert np.all(traj.i == 0.0)
    assert np.all(traj.r == 0.0)


def test_beta_zero_decays_exponentially():
    p = EpidemicParams(beta=0.0)
    g = Grid(0.0, 50.0, 1e-2)
    traj = epidemic_pass(p, g)
    assert np.all(traj.s == p.n1)
    exact = p.n2 * np.exp(-p.gamma * g.times())
    assert float(np.abs(traj.i - exact).max()) <= 1e-10


# ---------------------------------------------------------------------------
# first integrals
# ---------------------------------------------------------------------------


def test_first_integral_value_at_threshold(params, epidemic_run):
    # I + S - (gamma/beta)*ln(S) is conserved, so at S = gamma/beta the
    # infected mass peaks at N - g + g*ln(g/n1) = 478.3125...
    g = params.threshold
    i_max = params.n1 + params.n2 - g + g * math.log(g / params.n1)
    assert i_max == pytest.approx(478.3125, abs=1e-4)
    assert _i_star(epidemic_run) == pytest.approx(i_max, abs=1e-6)


def test_first_integrals_constant_along_trajectory(params, grid):
    drift_i, drift_r = _drifts(params, grid)
    assert drift_i <= 1e-6 * N_TOTAL
    assert drift_r <= 1e-6 * N_TOTAL


# ---------------------------------------------------------------------------
# final size
# ---------------------------------------------------------------------------


def test_final_size_on_defaults(params):
    assert steady_state_recovered(params) == pytest.approx(993.03007544, abs=1e-7)


def test_the_extinction_oracle_steps_the_runs_own_span(params):
    # criterion 03's oracle runs chunks as long as the run's grid, at its
    # dt, for at most 16: I falls below 1e-10 at the fourth 100-unit
    # chunk's end, and is still above it at the sixteenth 10-unit one
    r_end, t_end = _integrate_until_extinct(params, Grid(0.0, 100.0, 1e-2))
    assert t_end == 400.0
    assert r_end == pytest.approx(steady_state_recovered(params), rel=1e-12)
    assert _integrate_until_extinct(params, Grid(0.0, 10.0, 0.05))[1] == 160.0


def test_final_size_without_seed_is_exact():
    assert steady_state_recovered(EpidemicParams(n2=0.0, n1=1000.0)) == 0.0
    assert steady_state_recovered(EpidemicParams(n2=0.0, n1=990.0, n3=10.0)) == 10.0


def test_final_size_at_beta_zero_is_seed_plus_recovered():
    assert steady_state_recovered(EpidemicParams(beta=0.0)) == 1.0


def test_final_size_near_total_outbreak_matches_integration():
    # gamma/beta = 10: essentially everyone is infected; the leftover
    # susceptible mass sits below float resolution next to N
    p = EpidemicParams(beta=1e-2, gamma=0.1)
    r_inf = steady_state_recovered(p)
    traj = epidemic_pass(p, Grid(0.0, 300.0, 1e-2))
    assert r_inf == pytest.approx(float(traj.r[-1]), abs=1e-4)
    assert r_inf <= p.total


def _final_size_reference(p: EpidemicParams) -> Decimal:
    """n3 + n2 + u at 50 digits, u the root in [0, n1] of u + n1*expm1(-(u +
    n2)*beta/gamma), found by bisection on the float inputs' exact values."""
    with localcontext() as ctx:
        ctx.prec = 50
        n1, n2, rate = Decimal(p.n1), Decimal(p.n2), Decimal(p.beta) / Decimal(p.gamma)
        lo, hi = Decimal(0), n1
        while hi - lo > n1 * Decimal("1e-40"):
            mid = (lo + hi) / 2
            if mid + n1 * ((-(mid + n2) * rate).exp() - 1) < 0:
                lo = mid
            else:
                hi = mid
        return Decimal(p.n3) + n2 + lo


def test_final_size_matches_a_decimal_reference(params):
    # criterion 03's ten points: the oracle must sit far below the gap it
    # judges RK4 by
    points = [params] + [EpidemicParams(beta=b, gamma=g)
                         for b in (2.5e-4, 5e-4, 1e-3) for g in (0.05, 0.1, 0.2)]
    for p in points:
        ref = _final_size_reference(p)
        assert abs(Decimal(steady_state_recovered(p)) - ref) <= Decimal("1e-14") * ref, p


def test_final_size_near_the_threshold():
    # R0 = n1*beta/gamma = 0.998 with a seed of 1.9e-7: the root sits where
    # a long SIR pass ends (R = 1.1181923214708295e-04 over [0, 1e5])
    p = EpidemicParams(beta=0.0021964505971129667, gamma=0.3686724491329531,
                       n1=167.5650469711399, n2=1.8932870300402187e-07)
    assert steady_state_recovered(p) == pytest.approx(1.1181923214708992e-04, abs=1e-12)


# ---------------------------------------------------------------------------
# infection peak
# ---------------------------------------------------------------------------


def test_peak_location_and_height(params, epidemic_run, peak):
    assert peak.exists
    assert peak.t_star == pytest.approx(21.159076, abs=1e-4)
    assert _i_star(epidemic_run) == pytest.approx(478.31252, abs=1e-3)
    # the peak sits where S crosses gamma/beta
    assert abs(peak.s_star - params.threshold) <= 1e-4 * params.threshold


def test_peak_refinement_returns_plain_floats(peak):
    assert type(peak.t_star) is float
    assert type(peak.s_star) is float


def test_infected_mass_is_unimodal(epidemic_run, peak):
    t = epidemic_run.times
    di = np.diff(epidemic_run.i)
    rising = di[: np.searchsorted(t, peak.t_star - epidemic_run.grid.dt) - 1]
    falling = di[np.searchsorted(t, peak.t_star + epidemic_run.grid.dt) :]
    assert float(rising.min()) >= 0.0
    assert float(falling.max()) <= 0.0


def test_no_peak_when_threshold_exceeds_population():
    p = EpidemicParams(gamma=0.6)  # gamma/beta = 1200 > n1
    g = Grid(0.0, 50.0, 1e-2)
    traj = epidemic_pass(p, g)
    detected = infection_peak(p, traj)
    assert not detected.exists
    assert detected.t_star is None
    assert float(np.diff(traj.i).max()) < 0.0  # strictly decreasing


def test_no_peak_without_seed():
    p = EpidemicParams(n2=0.0, n1=1000.0)
    traj = epidemic_pass(p, Grid(0.0, 50.0, 1e-2))
    assert not infection_peak(p, traj).exists


def test_peak_rejects_mismatched_params(params, epidemic_run):
    other = EpidemicParams(beta=6e-4)
    with pytest.raises(ConsistencyError):
        infection_peak(other, epidemic_run)


def test_peak_on_short_horizon_is_a_boundary_error(params):
    traj = epidemic_pass(params, Grid(0.0, 10.0, 1e-2))
    with pytest.raises(BoundaryExtremumError):
        infection_peak(params, traj)
