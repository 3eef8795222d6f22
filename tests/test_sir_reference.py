"""The SIR pass against an exact reference: the time along the trajectory
as a quadrature of the first integral.

R + (gamma/beta)*ln(S) is conserved, so on a trajectory
I(S) = n2 + (n1 - S) + (gamma/beta)*ln(S/n1), and S falls strictly while
I > 0. With u = ln(S/n1), du/dt = -beta*I, so the time from the start to
S is t(S) = integral over [ln(S/n1), 0] of du / (beta*I), and the
infection peak, at S* = gamma/beta, comes at t_I* = t(S*) exactly
(Kermack and McKendrick 1927; Harko, Lobo and Mak 2014). I is evaluated as
n2 - n1*expm1(u) + (gamma/beta)*u: the form N - S - n3 - (gamma/beta)*ln(n1/S)
loses about 1e-13 of I to cancellation near the start, where I ~ n2 and
the integrand is largest, and moves the defaults' t_I* by about 1e-12.

The integrand grows as 1/I, so node times are read only on the nodes
before I first falls to 1e-6*N. Composite Gauss-Legendre does the
quadrature: uniform panels in u for t_I*, and one panel per step of the
pass for the node times, where each node's error is the running sum of
its steps' defects (exact step time minus dt), so no time near 60 is
rounded into the sum.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from epimarket import EpidemicParams, Grid, epidemic_pass, infection_peak


def _panel_times(params, edges, order):
    """The time the trajectory takes over each panel [edges[j+1], edges[j]]
    of u = ln(S/n1), by Gauss-Legendre with order nodes a panel."""
    x, w = np.polynomial.legendre.leggauss(order)
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[:-1] - edges[1:])
    u = mid + half[:, None] * x
    i = params.n2 - params.n1 * np.expm1(u) + params.threshold * u
    return half * ((1.0 / (params.beta * i)) @ w)


def exact_peak_time(params, panels=4000, order=20) -> float:
    """t_I* = t(gamma/beta), over panels uniform panels in u."""
    edges = np.linspace(0.0, math.log(params.threshold / params.n1), panels + 1)
    return math.fsum(_panel_times(params, edges, order))


def node_time_errors(epi, order=8) -> np.ndarray:
    """t(S_k) - t_k at the nodes k of the pass epi before I first falls to
    1e-6*N, one Gauss-Legendre panel per step."""
    params = epi.params
    low = np.flatnonzero(epi.i <= 1e-6 * params.total)
    n = low[0] if low.size else len(epi.i)
    defects = _panel_times(params, np.log(epi.s[:n] / params.n1), order) - epi.grid.dt
    return np.concatenate(([0.0], np.cumsum(defects)))


BETAS = (2.5e-4, 5e-4, 1e-3)
GAMMAS = (0.05, 0.1, 0.2)
FINE = (4e-2, 2e-2, 1e-2)
# the two slowest epidemics (beta*N/gamma = 2.5 and 1.25) change S so
# slowly late on that at FINE the pass's rounding of S, read through
# 1/(beta*I*S), sets their node-time error: 1.2e-6, 6.7e-8, 3.4e-8 at
# gamma=0.1 and 9.8e-10, 1.2e-9, 2.9e-9 at gamma=0.2. Their ladders start
# where RK4's error stands above that floor
LADDERS = {(2.5e-4, 0.1): (1e-1, 5e-2, 2.5e-2), (2.5e-4, 0.2): (6e-1, 3e-1, 1.5e-1)}


def test_the_reference_peak_time_is_converged():
    params = EpidemicParams()
    t_star = exact_peak_time(params)
    # a 30-digit adaptive quadrature of the same integral (mpmath) gives
    # 21.1590721898102652...
    assert abs(t_star - 21.159072189810265) <= 1e-13
    assert abs(t_star - exact_peak_time(params, 8000, 30)) <= 1e-13


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("beta", BETAS)
def test_node_times_converge_at_fourth_order(beta, gamma):
    params = EpidemicParams(beta=beta, gamma=gamma)
    errors = []
    for dt in LADDERS.get((beta, gamma), FINE):
        epi = epidemic_pass(params, Grid(0.0, 300.0, dt))
        nodes = node_time_errors(epi)
        worst = float(np.max(np.abs(nodes)))
        # a second node count per panel moves no error beyond rounding
        assert float(np.max(np.abs(node_time_errors(epi, 16) - nodes))) <= 1e-3 * worst
        errors.append(worst)
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    print(f"beta={beta:g} gamma={gamma:g}: worst node-time errors "
          f"{', '.join(f'{e:.3e}' for e in errors)}; halving ratios "
          f"{', '.join(f'{r:.2f}' for r in ratios)}")
    assert all(r >= 8.0 for r in ratios), ratios


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("beta", BETAS)
def test_the_refined_peak_is_within_its_second_order_bound(beta, gamma):
    """The parabola vertex refine_max places the peak at is second order:
    its error over the 3x3 grid and FINE is at most 0.133*dt^2 (beta=1e-3,
    gamma=0.05), 0.0388*dt^2 at the defaults' dt=1e-2; the bound is 0.2*dt^2."""
    params = EpidemicParams(beta=beta, gamma=gamma)
    t_star = exact_peak_time(params)
    for dt in FINE:
        peak = infection_peak(params, epidemic_pass(params, Grid(0.0, 300.0, dt)))
        assert abs(peak.t_star - t_star) <= 0.2 * dt**2, (dt, peak.t_star - t_star)
