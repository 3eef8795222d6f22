"""Property tests: config round trips, pass sharing and the step bound,
SIR conservation, the depression mirror, sweep determinism, the rational
head against the full rational path, the paper's claims over the regime,
any parameters running or raising from errors.py, and CLI exit codes.

Every property runs derandomized and without an example database, so a
run draws the same examples each time.
"""
from __future__ import annotations

import json
import math
import re
import warnings
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    check_propositions,
    epidemic_pass,
    parameter_sweep,
    re_price_path,
    simulate_depression,
    simulate_myopic,
    simulate_re_given_t1,
    steady_state_recovered,
    write_sweep_csv,
)
from epimarket import analysis, cli, rational
from epimarket.config import ScenarioConfig, parse_config, serialize_config, with_overrides
from epimarket.epidemic import RK4_STABILITY
from epimarket.errors import ConfigError, GridTooCoarseError, PriceFloorError, SimulationError
from test_drive_parity import assert_sir_refusal

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)

# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------

_finite = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def _config_keys(draw):
    dt = draw(st.floats(min_value=1e-3, max_value=1.0))
    kwargs = dict(
        beta=draw(st.floats(min_value=0.0, max_value=1e6)),
        gamma=draw(_positive),
        n1=draw(_positive),
        n2=draw(st.floats(min_value=0.0, max_value=1e6)),
        n3=draw(st.floats(min_value=0.0, max_value=1e6)),
        endowment=draw(_positive),
        p0=draw(_positive),
        kappa=draw(_positive),
        t_end=draw(st.integers(1, 10_000)) * dt,
        dt=dt,
        scenario=draw(st.sampled_from(("myopic", "rational", "depression", "all"))),
        out_dir=draw(st.text(max_size=12)),
        format=draw(st.sampled_from(("csv", "json"))),
        sweep=draw(st.dictionaries(
            st.sampled_from(("beta", "gamma", "n1", "kappa")),
            st.lists(_finite, min_size=1, max_size=4),
        )),
    )
    try:
        with_overrides(ScenarioConfig(), **kwargs)
    except ConfigError:
        assume(False)
    return kwargs


@DETERMINISTIC
@given(_config_keys())
def test_config_survives_serialize_and_parse(keys):
    cfg = with_overrides(ScenarioConfig(), **keys)
    assert parse_config(serialize_config(cfg)) == cfg
    # the same keys as one JSON object, each axis its sweep.<param> key,
    # set the same config
    flat = {k: v for k, v in keys.items() if k != "sweep"}
    flat.update({f"sweep.{p}": vals for p, vals in keys["sweep"].items()})
    assert parse_config(json.dumps(flat)) == cfg


# ---------------------------------------------------------------------------
# a run carries the S, I and R of the SIR pass it is given, and a grid is
# refused if and only if it lies beyond RK4's stability interval
# ---------------------------------------------------------------------------

_STEPS = 2000


def _outcome(fn, *args):
    """The bytes of a run's arrays, or (type, time, message) of what it raised."""
    try:
        traj = fn(*args)
    except SimulationError as exc:
        return type(exc), getattr(exc, "time", None), str(exc)
    epi = traj.epi
    return tuple(c.tobytes() for c in (epi.s, epi.i, epi.r, traj.x, traj.p))


@DETERMINISTIC
# (beta*N + gamma)*dt = 2.801 is refused, 2.001 runs
@example(beta=0.28, gamma=0.1, dt=1e-2, kappa=10.0, mirror=False)
@example(beta=0.2, gamma=0.1, dt=1e-2, kappa=10.0, mirror=False)
@given(
    beta=st.floats(min_value=-5.0, max_value=1.0).map(lambda e: 10.0 ** e),
    gamma=st.floats(min_value=1e-3, max_value=10.0),
    dt=st.sampled_from((1e-3, 1e-2, 5e-2)),
    kappa=st.floats(min_value=1.0, max_value=1e4),
    mirror=st.booleans(),
)
def test_shared_pass_gives_the_same_run_or_error(beta, gamma, dt, kappa, mirror):
    params = EpidemicParams(beta=beta, gamma=gamma)
    curve = SupplyCurve(kappa=kappa)
    grid = Grid(0.0, _STEPS * dt, dt)
    simulate = simulate_depression if mirror else simulate_myopic
    if (beta * params.total + gamma) * dt > RK4_STABILITY:
        run = _outcome(lambda: simulate(curve, epidemic_pass(params, grid)))
        assert run[0] is GridTooCoarseError
        assert_sir_refusal(params, grid, run[2])
        return
    epi = epidemic_pass(params, grid)
    assert epi.demand.shape == (_STEPS, 4)
    assert len(epi.s) == len(epi.i) == len(epi.r) == _STEPS + 1
    run = _outcome(simulate, curve, epi)
    if isinstance(run[0], bytes):
        assert run[:3] == (epi.s.tobytes(), epi.i.tobytes(), epi.r.tobytes())


# ---------------------------------------------------------------------------
# S + I + R
# ---------------------------------------------------------------------------


@DETERMINISTIC
@given(
    n=st.tuples(st.floats(1.0, 1e4), st.floats(0.0, 1e3), st.floats(0.0, 1e3)),
    rate=st.floats(min_value=0.0, max_value=0.5),
    gamma=st.floats(min_value=1e-3, max_value=5.0),
    dt=st.sampled_from((1e-2, 2e-2, 5e-2)),
)
def test_population_is_conserved_on_stable_epidemics(n, rate, gamma, dt):
    # rate = beta*N*dt, inside RK4's stability interval
    total = sum(n)
    params = EpidemicParams(beta=rate / (total * dt), gamma=gamma,
                            n1=n[0], n2=n[1], n3=n[2])
    epi = epidemic_pass(params, Grid(0.0, 20.0, dt))
    drift = np.abs(epi.s + epi.i + epi.r - params.total)
    assert float(drift.max()) <= 1e-8 * params.total


# ---------------------------------------------------------------------------
# the depression mirrors the boom
# ---------------------------------------------------------------------------

_MIRROR = Grid(0.0, 40.0, 2e-2)


@DETERMINISTIC
@given(
    log_beta=st.floats(min_value=-3.6, max_value=-2.7),
    gamma=st.floats(min_value=0.05, max_value=0.5),
    log_kappa=st.floats(min_value=1.0, max_value=4.0),
)
def test_depression_price_mirrors_the_boom_off_the_floor(log_beta, gamma, log_kappa):
    params = EpidemicParams(beta=10.0 ** log_beta, gamma=gamma)
    curve = SupplyCurve(kappa=10.0 ** log_kappa)
    epi = epidemic_pass(params, _MIRROR)
    try:
        dep = simulate_depression(curve, epi)
    except PriceFloorError:
        assume(False)
    boom = simulate_myopic(curve, epi)
    mirror_err = np.abs(dep.p - (2.0 * curve.p0 - boom.p))
    assert float(mirror_err.max()) <= 1e-12


# ---------------------------------------------------------------------------
# sweep bytes equal those of each point swept alone
# ---------------------------------------------------------------------------

_SWEEP = Grid(0.0, 80.0, 2e-2)
_AXIS_VALUES = {
    "beta": st.floats(min_value=2.5e-4, max_value=1e-3),
    "gamma": st.floats(min_value=0.05, max_value=0.2),
    "kappa": st.floats(min_value=5.0, max_value=400.0),
}


@st.composite
def _small_axes(draw):
    names = draw(st.lists(st.sampled_from(sorted(_AXIS_VALUES)),
                          min_size=1, max_size=2, unique=True))
    return {name: draw(st.lists(_AXIS_VALUES[name], min_size=1, max_size=2))
            for name in names}


@settings(DETERMINISTIC, max_examples=6)
@given(axes=_small_axes())
@example(axes={"kappa": [5.0, 400.0]})
def test_sweep_csv_bytes_match_each_point_swept_alone(tmp_path_factory, axes):
    # points of one epidemic share its SIR pass in the sweep; swept alone,
    # each has its own, so a point leaking into the shared pass shows here
    out = tmp_path_factory.mktemp("sweep")
    params, curve = EpidemicParams(), SupplyCurve()
    write_sweep_csv(parameter_sweep(params, curve, _SWEEP, axes=axes),
                    out / "sweep.csv")
    alone = [
        replace(parameter_sweep(params, curve, _SWEEP,
                                axes={k: [v] for k, v in point.items()})[0],
                index=index)
        for index, point in enumerate(analysis.grid_points(axes))
    ]
    write_sweep_csv(alone, out / "alone.csv")
    assert (out / "sweep.csv").read_bytes() == (out / "alone.csv").read_bytes()


# ---------------------------------------------------------------------------
# the rational head gives what the full path gives, errors included
# ---------------------------------------------------------------------------

# about half the draws of beta lie in the sweep's range; the rest reach 1,
# where beta*N*dt is up to 20, far beyond RK4's stability interval: the
# package refuses those grids, and on their unchecked demands, which turn
# negative, legs reach the price floor
_HEAD_GRIDS = (Grid(0.0, 20.0, 1e-2), _SWEEP)
_HEAD_LOG_BETA = st.one_of(st.floats(min_value=-3.6, max_value=-3.0),
                           st.floats(min_value=-3.0, max_value=0.0))


def _run(fn, *args):
    """What fn returns, or (type, time, message) of what it raised."""
    try:
        return fn(*args)
    except SimulationError as exc:
        return type(exc), getattr(exc, "time", None), str(exc)


def _head_at(curve, t1, grid, epi):
    """simulate_re_given_t1's path up to its closing node."""
    zs, hs = rational._accumulate(curve, epi, rational._node_below(grid, t1))
    return rational._replay(curve, t1, epi, zs, hs, unwind=False)


@settings(DETERMINISTIC, max_examples=25)
# the plateau collapses at t1 and the unwind reaches the floor at t=0.015
@example(log_beta=0.0, gamma=0.1, kappa=10.0, grid=_HEAD_GRIDS[0], frac=0.0)
@given(
    log_beta=_HEAD_LOG_BETA,
    gamma=st.floats(min_value=0.05, max_value=0.2),
    kappa=st.floats(min_value=1.0, max_value=400.0),
    grid=st.sampled_from(_HEAD_GRIDS),
    frac=st.floats(min_value=0.0, max_value=0.05),
)
def test_the_rational_head_gives_what_the_full_path_gives(unchecked_pass, log_beta,
                                                          gamma, kappa, grid, frac):
    params = EpidemicParams(beta=10.0 ** log_beta, gamma=gamma)
    curve = SupplyCurve(kappa=kappa)
    # sweep rows judged on the head and on the full re_price_path
    axes = {"beta": [params.beta], "gamma": [gamma], "kappa": [kappa]}
    head_rows = parameter_sweep(EpidemicParams(), SupplyCurve(), grid, axes=axes)
    with mock.patch.object(analysis, "re_price_head", re_price_path):
        full_rows = parameter_sweep(EpidemicParams(), SupplyCurve(), grid, axes=axes)
    for head, full in zip(head_rows, full_rows, strict=True):
        for f in fields(head):
            assert repr(getattr(head, f.name)) == repr(getattr(full, f.name)), f.name
    # the head at any t1 fails as the full path does, or is its start
    try:
        epi = epidemic_pass(params, grid)
    except GridTooCoarseError:
        epi = unchecked_pass(params, grid)
    t1 = grid.t_start + frac * (grid.t_end - grid.t_start)
    head = _run(_head_at, curve, t1, grid, epi)
    full = _run(simulate_re_given_t1, curve, t1, epi)
    if isinstance(full, tuple):
        assert head == full
        return
    n = len(head.p)
    assert n == len(full.p) or n == full.post_start + 1
    assert (head.plateau, head.post_start) == (full.plateau, full.post_start)
    for name in "xp":
        assert getattr(head, name).tobytes() == getattr(full, name)[:n].tobytes(), name


# ---------------------------------------------------------------------------
# any parameters run, or raise an exception from errors.py
# ---------------------------------------------------------------------------

# each draw sets up to two values to the smallest subnormal or near the
# float range, and the rest log-uniform around the defaults
_EXTREMES = (0.0, 5e-324, 1e300, 1.7e308)


def _log(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


_USUAL = {
    "beta": _log(-4.0, -2.5), "gamma": _log(-1.5, -0.5), "n1": _log(2.5, 3.5),
    "n2": _log(-1.0, 1.0), "n3": _log(-1.0, 2.0), "endowment": _log(-1.0, 1.0),
    "p0": _log(-1.0, 1.0), "kappa": _log(0.0, 3.0), "dt": st.sampled_from((1e-2, 0.05, 0.1)),
}


@st.composite
def _any_parameters(draw):
    odd = draw(st.sets(st.sampled_from(sorted(_USUAL)), max_size=2))
    values = {name: draw(st.sampled_from(_EXTREMES) if name in odd else usual)
              for name, usual in _USUAL.items()}
    values["t_end"] = min(draw(st.integers(1, 5000)) * values["dt"], 50.0)
    return values


@settings(DETERMINISTIC, max_examples=300)
@given(values=_any_parameters())
def test_any_parameters_run_or_raise_from_errors(values):
    # the final size, every leg, the propositions on them and a one-point
    # sweep, with numpy warnings as errors: nothing may escape as another
    # exception, such as a ZeroDivisionError from a holdings pass, or warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = with_overrides(ScenarioConfig(), **values)
            params, curve, grid = cfg.params, cfg.curve, cfg.grid
        except ConfigError:
            return
        # finite, between what is recovered or infected and the whole
        # population, as a value of R the pass could reach
        r_inf, low = _run(steady_state_recovered, params), params.n3 + params.n2
        assert isinstance(r_inf, tuple) or low <= r_inf <= low + params.n1, r_inf
        try:
            epi = epidemic_pass(params, grid)
        except SimulationError:
            return
        myopic = _run(simulate_myopic, curve, epi)
        rational = _run(re_price_path, curve, epi)
        _run(simulate_depression, curve, epi)
        if not isinstance(myopic, tuple):
            _run(check_propositions, myopic,
                 None if isinstance(rational, tuple) else rational)
        _run(parameter_sweep, params, curve, grid, {"beta": [params.beta]})


# ---------------------------------------------------------------------------
# exact scaling laws on the judged run
# ---------------------------------------------------------------------------

# A power of two c = 2^m scales every float exactly, and RK4's arithmetic
# commutes with it, so each law holds bit for bit or not at all:
#  (a) beta/c and n1, n2, n3, kappa times c scale S, I, R, the demand and
#      the holdings by c and leave every time, price, verdict and claim;
#  (b) beta and gamma times c on a grid of dt/c and t_end/c take the same
#      steps on times over c: every time (a claim's margin too, where it
#      is a gap) scales by 1/c, and every price, verdict and status stays.
# Under (b) a claim's detail is not expected to hold: it prints its dt=
# (and the peak-lead and chain claims their gaps), which scale.
_SCALED_GRID = Grid(0.0, 300.0, 1e-2)
_GAP_MARGINS = ("price_peak_leads_infection_peak", "event_ordering_chain")
_REGIME = dict(
    log_beta=st.floats(min_value=math.log10(2.5e-4), max_value=-3.0),
    gamma=st.floats(min_value=0.05, max_value=0.2),
    log_kappa=st.floats(min_value=math.log10(5.0), max_value=math.log10(20.0)),
    m=st.integers(-8, 8),
)


def _law_a(params, curve, c):
    """The run of law (a): beta/c, and n1, n2, n3 and kappa times c."""
    return (replace(params, beta=params.beta / c, n1=params.n1 * c, n2=params.n2 * c,
                    n3=params.n3 * c), replace(curve, kappa=curve.kappa * c))


def _law_b(params, c):
    """The run of law (b): beta and gamma times c, on dt/c up to t_end/c."""
    g = _SCALED_GRID
    return (replace(params, beta=params.beta * c, gamma=params.gamma * c),
            Grid(g.t_start, g.t_end / c, g.dt / c))


def _judged(params, curve, grid):
    """The myopic and rational legs of one run and their report."""
    epi = epidemic_pass(params, grid)
    legs = (simulate_myopic(curve, epi), re_price_path(curve, epi))
    return legs, check_propositions(*legs)


def _claim_bits(claims, scale=None):
    """Each claim's status, margin (its gap margins times scale) and detail,
    bit for bit; with a scale the detail is left out."""
    return {name: (c.status, (c.margin * scale if scale and name in _GAP_MARGINS
                              else c.margin).hex(), None if scale else c.detail)
            for name, c in claims.items()}


@settings(DETERMINISTIC, max_examples=12)
@given(**_REGIME)
def test_population_scaled_by_a_power_of_two_gives_the_same_judged_run(
        log_beta, gamma, log_kappa, m):
    c = 2.0 ** m
    params = EpidemicParams(beta=10.0 ** log_beta, gamma=gamma)
    curve = SupplyCurve(kappa=10.0 ** log_kappa)
    legs, report = _judged(params, curve, _SCALED_GRID)
    scaled_legs, scaled = _judged(*_law_a(params, curve, c), _SCALED_GRID)
    for leg, twin in zip(legs, scaled_legs):
        assert twin.p.tobytes() == leg.p.tobytes()
        assert (twin.x / c).tobytes() == leg.x.tobytes()
        for name in ("s", "i", "r", "demand"):
            assert (getattr(twin.epi, name) / c).tobytes() == getattr(leg.epi, name).tobytes()
    assert repr(scaled.timeline) == repr(report.timeline)
    assert _claim_bits(scaled.claims) == _claim_bits(report.claims)
    # the plateau record: its times and price stay, its stock and flow scale
    plateau, twin = legs[1].plateau, scaled_legs[1].plateau
    assert replace(twin, residual_flow=twin.residual_flow / c,
                   residual_absorption=twin.residual_absorption / c) == plateau


@settings(DETERMINISTIC, max_examples=12)
@given(**_REGIME)
def test_rates_and_grid_scaled_by_a_power_of_two_scale_every_time(
        log_beta, gamma, log_kappa, m):
    c = 2.0 ** m
    params = EpidemicParams(beta=10.0 ** log_beta, gamma=gamma)
    curve = SupplyCurve(kappa=10.0 ** log_kappa)
    legs, report = _judged(params, curve, _SCALED_GRID)
    scaled_params, scaled_grid = _law_b(params, c)
    scaled_legs, scaled = _judged(scaled_params, curve, scaled_grid)
    for leg, twin in zip(legs, scaled_legs):
        assert (twin.epi.times * c).tobytes() == leg.epi.times.tobytes()
        for name in ("p", "x"):
            assert getattr(twin, name).tobytes() == getattr(leg, name).tobytes(), name
    tl, twin_tl = report.timeline, scaled.timeline
    for name in ("t_i_star", "t_p_star_m", "t1", "t2"):
        assert getattr(twin_tl, name) * c == getattr(tl, name), name
    assert (twin_tl.p_star_m, twin_tl.p_star_re) == (tl.p_star_m, tl.p_star_re)
    assert twin_tl.ordering_ok == tl.ordering_ok
    assert _claim_bits(scaled.claims, c) == _claim_bits(report.claims, 1.0)
    # the plateau record: its times scale by 1/c, its flow, a rate, by c
    plateau, twin = legs[1].plateau, scaled_legs[1].plateau
    assert replace(twin, t1=twin.t1 * c, t2=twin.t2 * c,
                   residual_flow=twin.residual_flow / c) == plateau


def _slump(params, curve, grid):
    """The depression leg of one run and its report, or its floor refusal."""
    try:
        leg = simulate_depression(curve, epidemic_pass(params, grid))
    except PriceFloorError as exc:
        return exc, None
    return leg, check_propositions(leg)


def _floor_refusal(exc, t_scale, x_scale):
    """A floor refusal's type and text, its t and x read back and scaled."""
    price, t, x = re.fullmatch(r"(.*) hit zero at t=(\S+) \(x=(\S+)\)", str(exc)).groups()
    return type(exc), price, float(t) * t_scale, float(x) * x_scale, exc.time * t_scale


# kappa up to 800, so some draws clear the floor (3 of the 12) and the rest meet it
@settings(DETERMINISTIC, max_examples=12)
@given(**dict(_REGIME, log_kappa=st.floats(min_value=math.log10(5.0),
                                           max_value=math.log10(800.0))))
def test_a_depression_leg_keeps_both_laws(log_beta, gamma, log_kappa, m):
    # a leg that runs keeps each law as a boom does; a floor refusal keeps
    # its type and time, its x scaled by c under (a) and its time by 1/c
    # under (b)
    c = 2.0 ** m
    params = EpidemicParams(beta=10.0 ** log_beta, gamma=gamma)
    curve = SupplyCurve(kappa=10.0 ** log_kappa)
    leg, report = _slump(params, curve, _SCALED_GRID)
    by_a, report_a = _slump(*_law_a(params, curve, c), _SCALED_GRID)
    b_params, b_grid = _law_b(params, c)
    by_b, report_b = _slump(b_params, curve, b_grid)
    if report is None:
        assert _floor_refusal(by_a, 1.0, 1.0 / c) == _floor_refusal(leg, 1.0, 1.0)
        assert _floor_refusal(by_b, c, 1.0) == _floor_refusal(leg, 1.0, 1.0)
        return
    assert by_a.p.tobytes() == leg.p.tobytes()
    assert (by_a.x / c).tobytes() == leg.x.tobytes()
    assert repr(report_a.timeline) == repr(report.timeline)
    assert _claim_bits(report_a.claims) == _claim_bits(report.claims)
    assert (by_b.epi.times * c).tobytes() == leg.epi.times.tobytes()
    assert (by_b.p.tobytes(), by_b.x.tobytes()) == (leg.p.tobytes(), leg.x.tobytes())
    tl, twin = report.timeline, report_b.timeline
    assert (twin.t_i_star * c, twin.t_p_star_m * c) == (tl.t_i_star, tl.t_p_star_m)
    assert (twin.p_star_m, twin.ordering_ok) == (tl.p_star_m, tl.ordering_ok)
    assert _claim_bits(report_b.claims, c) == _claim_bits(report.claims, 1.0)


@settings(DETERMINISTIC, max_examples=8)
@given(**_REGIME)
def test_a_one_group_sweep_row_keeps_law_a(log_beta, gamma, log_kappa, m):
    # the sweep's rational head, refinement and row carry law (a) too
    c = 2.0 ** m
    params = EpidemicParams(beta=10.0 ** log_beta, gamma=gamma)
    curve = SupplyCurve(kappa=10.0 ** log_kappa)
    [row] = parameter_sweep(params, curve, _SCALED_GRID, {"beta": [params.beta]})
    scaled_params, scaled_curve = _law_a(params, curve, c)
    [twin] = parameter_sweep(scaled_params, scaled_curve, _SCALED_GRID,
                             {"beta": [scaled_params.beta]})
    assert (twin.params, twin.curve) == (scaled_params, scaled_curve)
    assert repr(twin.timeline) == repr(row.timeline)
    assert _claim_bits(twin.claims) == _claim_bits(row.claims)
    assert (twin.error, twin.refinements, twin.dt_used) == (
        row.error, row.refinements, row.dt_used)


# every m of the draws above, for the refusals, which are cheap to take
_EVERY_M = range(-8, 9)


def _refusal(fn, *args) -> GridTooCoarseError:
    with pytest.raises(GridTooCoarseError) as info:
        fn(*args)
    return info.value


def _record(exc):
    """Every field of a refusal, bit for bit (a NaN equal to a NaN)."""
    return {name: repr(value) for name, value in vars(exc).items()}


@pytest.mark.parametrize("beta", [5.0, 0.4, 1000.0])
def test_a_stability_refusal_keeps_law_a(beta):
    # (beta*N + gamma)*dt is unchanged, so is every field and the text
    params, curve = EpidemicParams(beta=beta), SupplyCurve()
    exc = _refusal(epidemic_pass, params, _SCALED_GRID)
    for m in _EVERY_M:
        scaled_params, _curve = _law_a(params, curve, 2.0 ** m)
        twin = _refusal(epidemic_pass, scaled_params, _SCALED_GRID)
        assert (_record(twin), str(twin)) == (_record(exc), str(exc)), m


def test_a_boom_overshoot_refusal_keeps_law_a():
    # the holdings, top = max demand/p0 and kappa*p0 scale by c, so both
    # sides of the check do and the advised dt stays. The bound on dt,
    # sqrt(kappa*p0/gamma)/sqrt(top), takes sqrt(c), exact only at even m:
    # longest = bound*MAX_STEPS is where the law does not hold bit for bit
    params = EpidemicParams(beta=2e-5, n1=1e6, n2=1e5)
    curve, grid = SupplyCurve(), Grid(0.0, 20.0, 0.1)
    exc = _refusal(simulate_myopic, curve, epidemic_pass(params, grid))
    x = float(re.search(r"\(x=(\S+)\)", exc.cause)[1])
    for m in _EVERY_M:
        c = 2.0 ** m
        scaled_params, scaled_curve = _law_a(params, curve, c)
        twin = _refusal(simulate_myopic, scaled_curve, epidemic_pass(scaled_params, grid))
        assert ((twin.check, twin.advised, twin.finest, twin.time)
                == (exc.check, exc.advised, exc.finest, exc.time)), m
        assert ((twin.value, twin.limit, twin.top, twin.at_finest)
                == (exc.value * c, exc.limit * c, exc.top * c, exc.at_finest * c)), m
        assert twin.cause == exc.cause.replace(f"x={x}", f"x={x * c}"), m
        assert str(twin) == str(exc).replace(exc.cause, twin.cause).replace(
            f"{exc.top:.4g}", f"{twin.top:.4g}"), m
        if m % 2 == 0:
            assert twin.longest == exc.longest, m
        else:
            assert math.isclose(twin.longest, exc.longest, rel_tol=2.0 ** -51), m


def test_a_shooting_refusal_keeps_law_a():
    # the closure's residuals and their tolerances, TOL*phi(P*), scale by
    # c, so the solve fails where it failed, with every field and the text
    params, curve = EpidemicParams(beta=1e-3, gamma=0.05), SupplyCurve()
    grid = Grid(0.0, 300.0, 0.05)
    exc = _refusal(re_price_path, curve, epidemic_pass(params, grid))
    assert str(exc) == ("plateau closure residuals did not reach tol=0.0001 at dt=0.05; "
                        "retry with dt/2")
    for m in _EVERY_M:
        scaled_params, scaled_curve = _law_a(params, curve, 2.0 ** m)
        twin = _refusal(re_price_path, scaled_curve, epidemic_pass(scaled_params, grid))
        assert (_record(twin), str(twin)) == (_record(exc), str(exc)), m


# ---------------------------------------------------------------------------
# the paper's claims over the regime, judged on the rational head with no
# dt refinement
# ---------------------------------------------------------------------------


# the boom regime of the scaling laws, at one scale
_CLAIMS_REGIME = {name: draw for name, draw in _REGIME.items() if name != "m"}


@settings(DETERMINISTIC, max_examples=30)
@given(**_CLAIMS_REGIME)
def test_the_boom_claims_hold_over_the_regime(log_beta, gamma, log_kappa):
    params = EpidemicParams(beta=10.0 ** log_beta, gamma=gamma)
    curve = SupplyCurve(kappa=10.0 ** log_kappa)
    epi = epidemic_pass(params, _SCALED_GRID)
    report = check_propositions(simulate_myopic(curve, epi), rational.re_price_head(curve, epi))
    statuses = {name: c.status for name, c in report.claims.items()}
    chain = statuses.pop("event_ordering_chain")
    assert set(statuses.values()) == {"pass"}, statuses
    # the chain is undecided only where one of its gaps is within a step
    if chain != "pass":
        assert chain == "inconclusive"
        assert min(abs(report.timeline.gap(k)) for k in analysis.EVENT_CHAIN) <= _SCALED_GRID.dt


@settings(DETERMINISTIC, max_examples=30)
@given(**dict(_CLAIMS_REGIME, log_kappa=st.floats(min_value=math.log10(5.0),
                                                  max_value=math.log10(800.0))))
def test_a_depression_meets_its_floor_or_holds_its_claims(log_beta, gamma, log_kappa):
    params = EpidemicParams(beta=10.0 ** log_beta, gamma=gamma)
    curve = SupplyCurve(kappa=10.0 ** log_kappa)
    # a slump that meets its floor raises PriceFloorError, which _slump
    # returns in place of the leg; any other error fails the property
    _leg, report = _slump(params, curve, _SCALED_GRID)
    if report is None:
        return
    assert {name: c.status for name, c in report.claims.items()} == dict.fromkeys(
        ("long_run_price_returns", "price_unimodal", "price_peak_leads_infection_peak"),
        "pass")


# ---------------------------------------------------------------------------
# the CLI returns a documented exit code on any arguments
# ---------------------------------------------------------------------------

# verify is left out: one well-formed call runs the whole battery
_GOOD_CONFIGS = {
    "kappa400.cfg": "kappa=400\n",
    "unstable.cfg": "beta=5\n",
    "noboom.cfg": "gamma=0.6\n",
    "axes.cfg": "sweep.kappa=5,400\nsweep.beta=5e-4\n",
    "json.cfg": '{"kappa": 20, "scenario": "all"}',
}
_BAD_CONFIGS = {
    "badaxis.cfg": "sweep.n2=1,2\n",
    "broken.cfg": "{",
    "unknown.cfg": "colour=blue\n",
}


def _mostly(valid, invalid):
    """A value from valid about two draws in three, else one from invalid."""
    return st.one_of(st.sampled_from(valid), st.sampled_from(valid),
                     st.sampled_from(invalid))


_PAIRS = {
    "--scenario": _mostly(("myopic", "rational", "depression", "all"), ("none",)),
    "--format": _mostly(("csv", "json"), ("xml",)),
    "--workers": _mostly(("1", "2", "3", "4"), ("0", "two")),
    "--config": _mostly(tuple(_GOOD_CONFIGS), tuple(_BAD_CONFIGS) + ("missing.cfg",)),
}
_LONE = ("--dt", "--bogus", "stray", "-h")
# the last --dt and --horizon win, so a well-formed run takes at most
# 40 / 1e-2 = 4000 steps (16000 after a sweep point's two dt halvings)
_DT = _mostly(("0.02", "0.01", "0.5"), ("0", "-0.01", "nan", "abc"))
_HORIZON = _mostly(("40", "5", "0.5"), ("0", "-5", "inf", "1e300"))


@st.composite
def _cli_argv(draw):
    argv = [draw(_mostly(("simulate", "sweep"), ("frobnicate", "--bogus")))]
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.integers(0, 4)):
            flag = draw(st.sampled_from(sorted(_PAIRS)))
            argv += [flag, draw(_PAIRS[flag])]
        else:
            argv.append(draw(st.sampled_from(_LONE)))
    argv += ["--dt", draw(_DT), "--horizon", draw(_HORIZON)]
    return argv, draw(_mostly(("dir",), ("file", "under-file")))


@settings(DETERMINISTIC, max_examples=100)
@given(drawn=_cli_argv())
def test_cli_returns_a_documented_exit_code(tmp_path_factory, drawn):
    argv, out_kind = drawn
    base = tmp_path_factory.mktemp("cli")
    for name, text in {**_GOOD_CONFIGS, **_BAD_CONFIGS}.items():
        (base / name).write_text(text, encoding="utf-8")
    (base / "file").write_text("", encoding="utf-8")
    out = {"dir": base / "out", "file": base / "file",
           "under-file": base / "file" / "out"}[out_kind]
    argv = [str(base / a) if a.endswith(".cfg") else a for a in argv]
    assert cli.main(argv + ["--out", str(out)]) in (0, 1, 2, 3)
