"""Every step-size refusal prints only true inequalities.

A GridTooCoarseError is a record that str() prints (`errors`). Drawn
refusals of all three kinds, the SIR pass's stability bound, a boom's
overshoot bound (boom_price called at the floor on a pass of at most
1,000 steps) and the shooting's dt/2, are read back: each inequality the
text prints holds with its sides read as floats, the longest span a grid
at the bound runs reads below the span, the advised dt passes the check
that refused, and none is advised where the finest step lies above it.
The step limit is patched to a few times the grid's steps, and the finest
step is drawn near the step bound, so the finest grid may step inside the
bound but above the advised 4-digit dt. No drawn grid runs a large pass:
every refusal comes before its first step, or after a pass of at most
1,000 steps.

Grid's own refusal of a dt finer than MAX_STEPS steps allows reads true
too: a span built as n*dt at n = MAX_STEPS may round above MAX_STEPS*dt,
and Grid refuses it by the comparison it prints.
"""
from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from epimarket import EpidemicParams, Grid, SupplyCurve, cli, epidemic_pass, numerics, rational
from epimarket.epidemic import RK4_STABILITY
from epimarket.errors import STABILITY, ConfigError, GridTooCoarseError
from epimarket.market import boom_price
from test_drive_parity import assert_advice_runs, assert_inequalities_hold, assert_refused


def _log(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda e: 10.0 ** e)


def _grid(bound, near, n, spare):
    """(grid, limit): n steps whose finest step under the step limit, at
    most spare times n, is near times bound."""
    limit = max(n, int(n * spare))
    span = bound * near * limit
    return Grid(0.0, span, span / n), limit


def _assert_reads_true(grid, exc):
    """assert_advice_runs; the text says that no allowed grid runs the
    input exactly where the check fails at the finest step, above the
    advised dt, and prints each inequality its case has: the SIR pass's
    value beyond the stability interval, the finest step above the advised
    dt or the check failing there, and the longest span below the span."""
    assert_advice_runs(grid, exc)
    advises_none = exc.finest > exc.advised
    beyond = advises_none and exc.at_finest > exc.limit
    assert ("; no allowed grid " in str(exc)) is beyond
    printed = assert_inequalities_hold(str(exc))
    assert printed == (exc.check == STABILITY) + advises_none + beyond


NEAR = st.one_of(st.floats(min_value=0.998, max_value=1.002),
                 st.floats(min_value=0.5, max_value=2.0))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(beta=_log(-4.0, 2.0), gamma=_log(-2.0, 1.0), near=NEAR,
       n=st.integers(min_value=1, max_value=1000),
       spare=st.floats(min_value=1.0, max_value=100.0))
def test_every_sir_refusal_reads_true(beta, gamma, near, n, spare):
    params = EpidemicParams(beta=beta, gamma=gamma)
    rate = beta * params.total + gamma
    grid, limit = _grid(RK4_STABILITY / rate, near, n, spare)
    assume(rate * grid.dt > RK4_STABILITY)
    with mock.patch.object(numerics, "MAX_STEPS", limit):
        exc = assert_refused(params, grid)
        _assert_reads_true(grid, exc)
    assert rate * exc.advised <= RK4_STABILITY


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(gamma=_log(-2.0, 0.3), kappa=_log(-3.0, 1.0), near=NEAR,
       n=st.integers(min_value=1, max_value=1000),
       spare=st.floats(min_value=1.0, max_value=2.5))
def test_every_boom_refusal_reads_true(gamma, kappa, near, n, spare):
    # beta*N*dt stays small, so gamma*dt decides the SIR pass; the finest
    # step is drawn near 1/gamma, the boom's bound where gamma*dt binds
    params, curve = EpidemicParams(beta=1e-5, gamma=gamma), SupplyCurve(kappa=kappa)
    grid, limit = _grid(1.0 / gamma, near, n, spare)
    assume((params.beta * params.total + gamma) * grid.dt <= RK4_STABILITY)
    with mock.patch.object(numerics, "MAX_STEPS", limit):
        epi = epidemic_pass(params, grid)
        with pytest.raises(GridTooCoarseError) as info:
            boom_price(curve, epi, 0.0, -2.0 * kappa)
        exc = info.value
        _assert_reads_true(grid, exc)
    top, kp = exc.top, kappa * curve.p0
    assert gamma * exc.advised <= 1.0 and gamma * exc.advised * exc.advised * top <= kp


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(dt=_log(-4.0, 0.0), near=NEAR, n=st.integers(min_value=1, max_value=10**4),
       horizon=st.booleans())
def test_every_shooting_refusal_reads_true(dt, near, n, horizon):
    # a step limit near 2n, where dt/2 begins to be allowed, and above the
    # grid's own n steps, which n*dt may exceed by an ulp
    limit = max(n + 1, int(2 * n * near))
    with mock.patch.object(numerics, "MAX_STEPS", limit):
        grid = Grid(0.0, n * dt, dt)
        exc = rational._retry(f"closure missed tol at dt={dt}", grid, horizon)
        _assert_reads_true(grid, exc)
    assert exc.advised == 0.5 * dt
    assert str(exc).endswith("extend the horizon") is horizon


@settings(derandomize=True, database=None, deadline=None, max_examples=1000)
@given(dt=_log(-9.0, 3.0), limit=st.integers(min_value=2, max_value=10**7),
       off=st.sampled_from((-1, 0, 1)))
def test_every_grid_refusal_reads_true(dt, limit, off):
    # n*dt at n = MAX_STEPS may round an ulp above MAX_STEPS*dt: Grid
    # refuses that span, and its text prints the comparison it made
    n = limit + off
    with mock.patch.object(numerics, "MAX_STEPS", limit):
        if n * dt / limit <= dt:
            assert off < 1 and Grid(0.0, n * dt, dt).n_steps == n
            return
        assert off > -1
        with pytest.raises(ConfigError) as info:
            Grid(0.0, n * dt, dt)
    assert assert_inequalities_hold(str(info.value)) == 1


def test_the_cli_refuses_a_max_steps_grid_whose_span_rounds_above_it(tmp_path, caplog):
    # 4.9/MAX_STEPS rounds above 4.9e-7, so Grid refuses the grid of
    # exactly MAX_STEPS steps: exit 2 with the comparison, read true
    cfg = tmp_path / "max_steps.cfg"
    cfg.write_text("t_end=4.9\ndt=4.9e-7\n")
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [
        "dt is finer than the limit of 10000000 steps allows, as span/MAX_STEPS = "
        "4.900000000000001e-07 > dt = 4.9e-07 for span = 4.9; use a larger dt or a shorter span"]
    assert not out.exists()
