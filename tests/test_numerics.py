"""Grid, RK4 stepper, bracketed root finding, extremum refinement."""
from __future__ import annotations

import math

import numpy as np
import pytest

from epimarket.errors import (
    BoundaryExtremumError,
    BracketError,
    ConfigError,
    IntegrationError,
)
from epimarket.numerics import (
    MAX_STEPS,
    Bracket,
    Grid,
    find_root_bracketed,
    integrate_fixed_step,
    refine_max,
    rk4_step,
)


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


def test_grid_basic_layout():
    g = Grid(0.0, 1.0, 0.25)
    assert g.n_steps == 4
    assert np.allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert g.node(2) == 0.5
    assert g.node(0) == 0.0


def test_grid_rejects_bad_construction():
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, -0.1)
    with pytest.raises(ConfigError):
        Grid(1.0, 1.0, 0.1)
    with pytest.raises(ConfigError):
        Grid(0.0, 1.0, 0.3)  # span is not an integer number of steps
    for bad in ((0.0, math.inf, 0.1), (0.0, 1.0, math.inf), (-math.inf, 1.0, 0.1)):
        with pytest.raises(ConfigError, match="finite"):
            Grid(*bad)
    # above the step cap, including spans whose step count overflows
    for bad in ((0.0, 1e300, 1e-2), (0.0, MAX_STEPS + 1.0, 1.0),
                (-1e308, 1e308, 1.0)):
        with pytest.raises(ConfigError, match="limit"):
            Grid(*bad)
    assert Grid(0.0, float(MAX_STEPS), 1.0).n_steps == MAX_STEPS


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------


def test_rk4_step_exact_on_cubic_rate():
    # y' = 3t^2 integrates exactly under any 4th-order rule
    y1 = rk4_step(lambda t, y: (3.0 * t * t,), 0.0, (0.0,), 2.0)
    assert y1[0] == pytest.approx(8.0, abs=1e-12)


def test_rk4_fourth_order_convergence_on_decay():
    def err(h: float) -> float:
        g = Grid(0.0, 1.0, h)
        ys = integrate_fixed_step(lambda t, y: (-y[0],), (1.0,), g)
        return abs(float(ys[-1, 0]) - math.exp(-1.0))

    e1, e2, e3 = err(0.1), err(0.05), err(0.025)
    # fourth order means ~16x per halving; demand at least 12x
    assert e1 / e2 >= 12.0
    assert e2 / e3 >= 12.0


def test_integrate_fixed_step_shape_and_initial_row():
    g = Grid(0.0, 1.0, 0.1)
    ys = integrate_fixed_step(lambda t, y: (1.0, -y[1]), (2.0, 1.0), g)
    assert ys.shape == (11, 2)
    assert ys[0, 0] == 2.0 and ys[0, 1] == 1.0
    assert float(ys[-1, 0]) == pytest.approx(3.0, abs=1e-12)


def test_integrate_fixed_step_reports_blow_up_with_time():
    # y' = y^2 from y=1 blows up at t=1; the stepper must say when
    with pytest.raises(IntegrationError) as exc:
        integrate_fixed_step(lambda t, y: (y[0] * y[0],), (1.0,), Grid(0.0, 2.0, 1e-3))
    assert exc.value.time is not None
    assert 0.9 < exc.value.time < 1.2


# ---------------------------------------------------------------------------
# root finding
# ---------------------------------------------------------------------------


def test_bracket_rejects_same_sign_and_bad_order():
    with pytest.raises(BracketError):
        Bracket(0.0, 1.0, 1.0, 2.0)
    with pytest.raises(BracketError):
        Bracket(1.0, 0.0, -1.0, 1.0)
    f = lambda x: x - 0.5
    b = Bracket(0.0, 1.0, f(0.0), f(1.0))
    assert b.f_lo == -0.5 and b.f_hi == 0.5


def test_find_root_quadratic():
    f = lambda x: x * x - 4.0
    root = find_root_bracketed(f, Bracket(0.0, 5.0, f(0.0), f(5.0)), 1e-10)
    assert root == pytest.approx(2.0, abs=1e-9)


def test_find_root_hits_exact_zero_at_midpoint():
    f = lambda x: x
    root = find_root_bracketed(f, Bracket(-1.0, 1.0, f(-1.0), f(1.0)), 0.0)
    assert root == 0.0


def test_find_root_respects_residual_tolerance():
    f = lambda x: x * x * x - 8.0
    root = find_root_bracketed(f, Bracket(0.0, 5.0, f(0.0), f(5.0)), 1e-9)
    assert abs(f(root)) <= 1e-9


def test_find_root_survives_bracket_at_machine_resolution():
    # adjacent floats with an unattainable residual target: the finder
    # must return the better endpoint instead of spinning to MAX_ITER
    lo = 1.0
    hi = math.nextafter(1.0, 2.0)
    f = lambda x: -2e-3 if x <= lo else 1e-3
    root = find_root_bracketed(f, Bracket(lo, hi, f(lo), f(hi)), 1e-12)
    assert root == hi  # the endpoint with the smaller residual


# ---------------------------------------------------------------------------
# extremum refinement
# ---------------------------------------------------------------------------


def test_refine_max_recovers_exact_parabola():
    f = lambda x: -((x - 3.0) ** 2) + 5.0
    xs = [0.5, 2.0, 3.5, 4.0, 6.0]
    k, xv, yv = refine_max(xs, [f(x) for x in xs], "unused")
    assert k == 2
    assert xv == pytest.approx(3.0, abs=1e-12)
    assert yv == pytest.approx(5.0, abs=1e-12)


def test_refine_max_collinear_nodes_return_the_middle_node():
    # a maximum strictly above its left neighbour is collinear with its
    # two neighbours only where the divided differences underflow to 0
    k, xv, yv = refine_max(np.array([0.0, 10.0, 20.0]), np.array([0.0, 5e-324, 0.0]), "")
    assert (k, xv, yv) == (1, 10.0, 5e-324)
    assert type(xv) is float and type(yv) is float


def test_refine_max_refuses_an_end_node_with_its_callers_text():
    for ys, k in (([3.0, 2.0, 1.0], 0), ([1.0, 2.0, 3.0], 2)):
        with pytest.raises(BoundaryExtremumError) as info:
            refine_max([0.0, 1.0, 2.0], ys, "peak at node {k}")
        assert str(info.value) == f"peak at node {k}"
