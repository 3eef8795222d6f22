"""holdings_pass against a per-stage-checked loop written apart from it.

`checked_holdings_pass` below is the holdings pass with every check
inside its RK4 loop, over stage demands beta*I*S*w it forms from S and I
itself, not from the pass's demand table: each stage state is tested
against the price floor, each stage's divisor (the price, or a slump's
reflected price) for being positive, and each step's end node for
finiteness, and a failing step is replayed on the coupled field at once.
The package's pass runs a loop with no check for a boom
`holdings_cannot_raise` proves safe, and `market._checked_pass`, the
same checks in its loop, for every other. All of them test x alone for
finiteness: S, I and R are finite on every SIR pass (see epidemic).
holdings_pass and the oracle must give the same bytes, or raise the
same exception with the same stage time and message, and on a proven
boom the package's two loops must give the same bytes.
"""
from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    epidemic_pass,
    parameter_sweep,
    re_price_path,
    simulate_myopic,
)
from epimarket import market
from epimarket.rational import re_price_head
from epimarket.errors import (GridTooCoarseError, IntegrationError, PriceFloorError,
                              SimulationError)
from epimarket.market import holdings_cannot_raise, holdings_field, holdings_pass

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


def stage_demands(epi, k, negated=False):
    """(j, D1, D2, D3, D4) for each step j from node k: beta*I*S*w at its
    four RK4 stages (negated if negated), formed from S and I at node j
    as the SIR pass's loop forms its stages."""
    beta, gamma, w = epi.params.beta, epi.params.gamma, epi.params.endowment
    dt = epi.grid.dt
    half = 0.5 * dt
    for j in range(k, epi.grid.n_steps):
        s, i = epi.s[j].item(), epi.i[j].item()
        d1 = beta * i * s
        s2, i2 = s - half * d1, i + half * (d1 - gamma * i)
        d2 = beta * i2 * s2
        s3, i3 = s - half * d2, i + half * (d2 - gamma * i2)
        d3 = beta * i3 * s3
        s4, i4 = s - dt * d3, i + dt * (d3 - gamma * i3)
        d4 = beta * i4 * s4
        demands = (d1 * w, d2 * w, d3 * w, d4 * w)
        yield (j, *(-d for d in demands)) if negated else (j, *demands)


def checked_holdings_pass(curve, epi, k, x, mirror=False, negated=False):
    """holdings_pass with the floor, divisor and finiteness checks inside
    its loop: a stage state at or below -kappa*p0, a stage whose divisor
    (P for a boom, 2*p0 - P for a slump) is <= 0, or a step that ends
    with x non-finite, is replayed on holdings_field at once. Its demands
    are stage_demands(epi, k, negated)."""
    gamma = epi.params.gamma
    p0, kappa = curve.p0, curve.kappa
    field, floor = holdings_field(curve, epi, mirror), -kappa * p0
    dt = epi.grid.dt
    half, sixth, two_p0 = 0.5 * dt, dt / 6.0, 2.0 * p0

    def rate(j, x0, d, xs):
        if xs <= floor:
            epi.replay(field, j, (x0,))
        p = p0 + xs / kappa
        div = two_p0 - p if mirror else p
        if div <= 0.0:
            epi.replay(field, j, (x0,))
        return (-d if mirror else d) / div - gamma * xs

    out = array("d", [x])
    for j, d1, d2, d3, d4 in stage_demands(epi, k, negated):
        k1 = rate(j, x, d1, x)
        x2 = x + half * k1
        k2 = rate(j, x, d2, x2)
        x3 = x + half * k2
        k3 = rate(j, x, d3, x3)
        x4 = x + dt * k3
        k4 = rate(j, x, d4, x4)
        x1 = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
        if x1 - x1 != 0.0:
            epi.replay(field, j, (x,))
        x = x1
        out.append(x)
    return out


def _outcome(fn, *args):
    """The bytes fn returns, or (type, time, message) of what it raised."""
    try:
        return fn(*args).tobytes()
    except SimulationError as exc:
        return type(exc), getattr(exc, "time", None), str(exc)


# start holdings as a multiple of kappa*p0: on the floor (-1), a float
# either side of it, inside the band, and at or above the slump's pole (1)
_STARTS = st.one_of(
    st.sampled_from((-1.0, "below", "above", 0.0, 1.0)),
    st.floats(min_value=-1.5, max_value=1.5),
)


def _start(draw, curve):
    floor = -curve.kappa * curve.p0
    if draw == "below":
        return math.nextafter(floor, -math.inf)
    if draw == "above":
        return math.nextafter(floor, math.inf)
    return -draw * floor


@settings(DETERMINISTIC, max_examples=300)
# the slump floors at a mid-step stage, t=0.05
@example(mirror=True, log_n=3.0, rate=0.5, gamma=0.1, dt=0.1, steps=200, log_kappa=-1.0,
         p0=1.0, log_w=0.0, at=0.0, start=0.0)
# beta=0: every drive is 0, the boom from the floor fails at its first stage
@example(mirror=False, log_n=3.0, rate=0.0, gamma=0.1, dt=0.1, steps=50, log_kappa=1.0,
         p0=1.0, log_w=0.0, at=0.0, start=-1.0)
# a population of 1e300 on a stable grid: drives near 1e300 carry a
# mid-step stage of the boom to the floor, which the bound does not rule
# out: RK4 overshoot, a GridTooCoarseError
@example(mirror=False, log_n=300.0, rate=1.0, gamma=0.1, dt=0.1, steps=200,
         log_kappa=1.0, p0=1.0, log_w=0.0, at=0.0, start=0.0)
@given(
    mirror=st.booleans(),
    log_n=st.one_of(st.sampled_from((3.0, 300.0)), st.floats(0.0, 300.0)),
    # beta*N*dt; 0 is beta=0. Above 2.785 the package refuses the grid, and
    # S and I are the unchecked pass's
    rate=st.one_of(st.just(0.0), st.floats(1e-3, 8.0)),
    gamma=st.floats(min_value=1e-2, max_value=2.0),
    dt=st.sampled_from((1e-2, 0.1, 0.25)),
    steps=st.integers(min_value=1, max_value=200),
    # down to kappa=0.1, where any slump reaches the floor
    log_kappa=st.floats(min_value=-1.0, max_value=3.0),
    p0=st.floats(min_value=0.1, max_value=10.0),
    log_w=st.floats(min_value=-3.0, max_value=3.0),
    at=st.floats(min_value=0.0, max_value=1.0),
    start=_STARTS,
)
def test_holdings_pass_matches_the_checked_loop(unchecked_pass, mirror, log_n, rate,
                                                gamma, dt, steps, log_kappa, p0, log_w,
                                                at, start):
    n = 10.0 ** log_n
    params = EpidemicParams(beta=rate / (n * dt), gamma=gamma, n1=n, n2=1e-3 * n,
                            endowment=10.0 ** log_w)
    curve = SupplyCurve(p0=p0, kappa=10.0 ** log_kappa)
    grid = Grid(0.0, steps * dt, dt)
    try:
        epi = epidemic_pass(params, grid)
    except GridTooCoarseError:
        epi = unchecked_pass(params, grid)
    k = round(at * steps)
    x = _start(start, curve)
    want = _outcome(checked_holdings_pass, curve, epi, k, x, mirror)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(holdings_pass, curve, epi, k, x, mirror) == want


def test_a_stage_price_of_exactly_zero_replays_as_a_floor_error(params):
    # p0 + floor/kappa is exactly 0 here, so the first stage is at the
    # floor and divides by zero; the check replays it before it divides,
    # and the boom's floor is the grid's
    curve = SupplyCurve(p0=1.0, kappa=10.0)
    floor = -curve.kappa * curve.p0
    assert curve.p0 + floor / curve.kappa == 0.0
    epi = epidemic_pass(params, Grid(0.0, 1.0, 0.1))
    for mirror in (False, True):
        want = _outcome(checked_holdings_pass, curve, epi, 3, floor, mirror)
        assert want[0] is (PriceFloorError if mirror else GridTooCoarseError)
        assert _outcome(holdings_pass, curve, epi, 3, floor, mirror) == want


@pytest.mark.parametrize("x", [10.0, 12.0], ids=["at-the-pole", "above-the-pole"])
def test_a_slump_from_its_pole_or_above_is_a_price_floor_error(x):
    # the slump divides by 2*p0 - P: 0 at x = kappa*p0 and negative above;
    # the check replays either before the first stage divides
    curve = SupplyCurve()
    epi = epidemic_pass(EpidemicParams(), Grid(0.0, 20.0, 1e-2))
    want = (PriceFloorError, 0.0,
            f"reflected price 2*p0 - P hit zero at t=0.0 (x={x})")
    assert _outcome(holdings_pass, curve, epi, 0, x, True) == want
    assert _outcome(checked_holdings_pass, curve, epi, 0, x, True) == want


def test_negative_drives_are_not_proven(params, curve):
    # from x >= 0 the bound needs every demand >= 0: on negated demands the
    # boom slumps to the floor, which the checked loop must see
    epi = epidemic_pass(params, Grid(0.0, 20.0, 0.1))
    neg = replace(epi, demand=-epi.demand)
    assert not holdings_cannot_raise(curve, neg, 0, 0.0)
    want = _outcome(checked_holdings_pass, curve, neg, 0, 0.0, False, True)
    assert want[0] is GridTooCoarseError
    assert _outcome(holdings_pass, curve, neg, 0, 0.0) == want


def test_the_bound_reads_the_demand_table_at_its_edge():
    # at w = 2.5 the bound's top is max(demand)/p0, with w applied once, in
    # the table: a kappa at which gamma*dt^2*top equals kappa*p0 exactly is
    # proven, and one a float below it is not
    epi = epidemic_pass(EpidemicParams(endowment=2.5), Grid(0.0, 300.0, 1e-2))
    gamma, dt = epi.params.gamma, epi.grid.dt
    edge = gamma * dt * dt * float(epi.demand.max())  # p0 = 1
    assert holdings_cannot_raise(SupplyCurve(kappa=edge), epi, 0, 0.0)
    below = SupplyCurve(kappa=math.nextafter(edge, 0.0))
    assert not holdings_cannot_raise(below, epi, 0, 0.0)


def test_a_boom_whose_decay_rate_overflows_is_not_proven(curve):
    # from x = 1e308 at gamma = 2, gamma*x overflows at the first stage:
    # every condition of the bound holds but its finiteness
    epi = epidemic_pass(EpidemicParams(gamma=2.0), Grid(0.0, 1.0, 1e-2))
    assert not holdings_cannot_raise(curve, epi, 0, 1e308)
    want = _outcome(checked_holdings_pass, curve, epi, 0, 1e308)
    assert want[0] is IntegrationError
    assert _outcome(holdings_pass, curve, epi, 0, 1e308) == want


def test_proven_passes_run_no_check(params, curve, grid, epidemic_run, forks):
    # the myopic leg, the rational unwind and every sweep point of the
    # benchmark regime (beta 2.5e-4..1e-3, gamma 0.1, kappa 5..20) are
    # proven up front; a depression pass is checked in its loop
    forks(1)
    assert holdings_cannot_raise(curve, epidemic_run, 0, 0.0)
    with mock.patch.object(market, "_checked_pass", wraps=market._checked_pass) as check:
        simulate_myopic(curve, epidemic_run)
        re_price_path(curve, epidemic_run)
        axes = {"beta": [2.5e-4, 5e-4, 1e-3], "kappa": [5.0, 20.0]}
        rows = parameter_sweep(params, curve, grid, axes=axes)
        assert all(row.error is None for row in rows)
        assert check.call_count == 0
        with pytest.raises(PriceFloorError):
            holdings_pass(curve, epidemic_run, 0, 0.0, mirror=True)
        assert check.call_count == 1


def test_the_two_loops_agree_on_proven_booms(curve, epidemic_run, rational_run):
    # the default myopic leg, the default rational unwind and the myopic
    # legs and unwinds of the benchmark regime's sweep points (beta
    # 2.5e-4..1e-3, gamma 0.1, kappa 5..20): the loop with no check and
    # the checked loop must not drift apart
    starts = [(curve, epidemic_run, 0, 0.0),
              (curve, epidemic_run, rational_run.post_start,
               float(rational_run.x[rational_run.post_start]))]
    for beta in (2.5e-4, 5e-4, 1e-3):
        epi = epidemic_pass(EpidemicParams(beta=beta, gamma=0.1), Grid(0.0, 300.0, 1e-2))
        for kappa in (5.0, 20.0):
            swept = SupplyCurve(kappa=kappa)
            head = re_price_head(swept, epi)
            starts += [(swept, epi, 0, 0.0),
                       (swept, epi, head.post_start, float(head.x[head.post_start]))]
    for args in starts:
        assert holdings_cannot_raise(*args)
        assert market._checked_pass(*args, False).tobytes() == holdings_pass(*args).tobytes()
