"""epidemic_pass against the loop it replaces.

The oracle below is the SIR pass as one Python loop that also writes the
drive table and steps R. The package's loop steps only S and I, and
numpy rebuilds the drives and R after it, in blocks of epidemic._BLOCK
steps. The two must agree byte for byte, also across block edges, off
t=0, at a fine step and through a blow-up, and the rebuild must raise no
floating-point warning.
"""
from __future__ import annotations

import warnings
from array import array

import numpy as np
import pytest

from epimarket import EpidemicParams, Grid, epidemic, epidemic_pass

B = epidemic._BLOCK


def oracle_pass(params, grid):
    """(s, i, r, drives) of the SIR pass, every value written in the loop."""
    n = grid.n_steps
    beta, gamma, h = params.beta, params.gamma, grid.dt
    half, sixth = 0.5 * h, h / 6.0
    s, i, r = params.n1, params.n2, params.n3
    s_arr = array("d", [s]) * (n + 1)
    i_arr = array("d", [i]) * (n + 1)
    r_arr = array("d", [r]) * (n + 1)
    drives = array("d", [0.0]) * (4 * n)
    j = 0
    for k in range(1, n + 1):
        d1 = beta * i * s
        c1 = gamma * i
        s2 = s - half * d1
        i2 = i + half * (d1 - c1)
        d2 = beta * i2 * s2
        c2 = gamma * i2
        s3 = s - half * d2
        i3 = i + half * (d2 - c2)
        d3 = beta * i3 * s3
        c3 = gamma * i3
        s4 = s - h * d3
        i4 = i + h * (d3 - c3)
        d4 = beta * i4 * s4
        c4 = gamma * i4
        s = s - sixth * (d1 + 2.0 * (d2 + d3) + d4)
        i = i + sixth * ((d1 - c1) + 2.0 * ((d2 - c2) + (d3 - c3)) + (d4 - c4))
        r = r + sixth * (c1 + 2.0 * (c2 + c3) + c4)
        s_arr[k] = s
        i_arr[k] = i
        r_arr[k] = r
        drives[j] = d1
        drives[j + 1] = d2
        drives[j + 2] = d3
        drives[j + 3] = d4
        j += 4
    return s_arr.tobytes(), i_arr.tobytes(), r_arr.tobytes(), drives.tobytes()


def _bytes(epi):
    return tuple(a.tobytes() for a in (epi.s, epi.i, epi.r, epi.drives))


# (beta, gamma, t_start, n_steps, dt)
CASES = [
    pytest.param(5e-4, 0.1, 0.0, n, 1e-2, id=f"steps-{label}")
    for n, label in ((1, "1"), (B - 1, "B-1"), (B, "B"), (B + 1, "B+1"),
                     (2 * B + 1, "2B+1"))
] + [
    pytest.param(5e-4, 0.1, 7.5, 12000, 1e-2, id="t_start-7.5"),
    pytest.param(5e-4, 0.1, 0.0, 40000, 5e-4, id="dt-5e-4"),
    # (beta*N + gamma)*dt = 50: S, I and R leave the finite range after
    # three steps, so inf and NaN fill the rest of the grid
    pytest.param(5.0, 0.1, 0.0, 3000, 1e-2, id="beta-5"),
]


@pytest.mark.parametrize("beta,gamma,t_start,n,dt", CASES)
def test_sir_pass_matches_its_loop_oracle(beta, gamma, t_start, n, dt):
    params = EpidemicParams(beta=beta, gamma=gamma)
    grid = Grid(t_start, t_start + n * dt, dt)
    assert grid.n_steps == n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        epi = epidemic_pass(params, grid)
        assert _bytes(epi) == oracle_pass(params, grid)
    assert epi.drives.shape == (n, 4)
    if beta == 5.0:
        assert not np.isfinite(epi.s[-1])
        assert not np.isfinite(epi.drives).all()
