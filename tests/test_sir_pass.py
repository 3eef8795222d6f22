"""epidemic_pass against the loop it replaces.

The oracle is the SIR pass as one Python loop that also writes the drive
table and steps R (the `unchecked_pass` fixture, conftest.py). The
package's loop steps only S and I, and numpy rebuilds the drives and R
after it, in blocks of epidemic.BLOCK steps. The two must agree byte for
byte, also across block edges, off t=0 and at a fine step, and the
rebuild must raise no floating-point warning. Through a blow-up the pass
raises the error of the SIR field stepped the direct way
(`test_drive_parity.oracle_epidemic`). A grid beyond RK4's stability
interval is refused before any step.
"""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from epimarket import EpidemicParams, Grid, epidemic, epidemic_pass
from epimarket.errors import GridTooCoarseError, IntegrationError
from test_drive_parity import oracle_epidemic

B = epidemic.BLOCK


def _bytes(epi):
    return tuple(a.tobytes() for a in (epi.s, epi.i, epi.r, epi.drives))


# (beta, gamma, n1, t_start, n_steps, dt)
CASES = [
    pytest.param(5e-4, 0.1, 999.0, 0.0, n, 1e-2, id=f"steps-{label}")
    for n, label in ((1, "1"), (B - 1, "B-1"), (B, "B"), (B + 1, "B+1"),
                     (2 * B + 1, "2B+1"))
] + [
    pytest.param(5e-4, 0.1, 999.0, 7.5, 12000, 1e-2, id="t_start-7.5"),
    pytest.param(5e-4, 0.1, 999.0, 0.0, 40000, 5e-4, id="dt-5e-4"),
    # (beta*N + gamma)*dt = 2.001, inside RK4's stability interval, but N
    # lies near the float range: beta*I*S overflows in step 363, and the
    # pass raises there
    pytest.param(2e-306, 0.1, 1e308, 0.0, 3000, 1e-2, id="overflow"),
    # (beta*N + gamma)*dt = 50, far beyond it: refused before any step
    pytest.param(5.0, 0.1, 999.0, 0.0, 3000, 1e-2, id="beta-5"),
]


@pytest.mark.parametrize("beta,gamma,n1,t_start,n,dt", CASES)
def test_sir_pass_matches_its_loop_oracle(unchecked_pass, beta, gamma, n1, t_start,
                                          n, dt):
    params = EpidemicParams(beta=beta, gamma=gamma, n1=n1)
    grid = Grid(t_start, t_start + n * dt, dt)
    assert grid.n_steps == n
    if (beta * params.total + gamma) * dt > epidemic.RK4_STABILITY:
        with pytest.raises(GridTooCoarseError, match=r"use dt <= 2\.785/\(beta\*N"):
            epidemic_pass(params, grid)
        return
    oracle = unchecked_pass(params, grid)
    if n1 == 1e308:
        assert not np.isfinite(oracle.s[-1])
        with pytest.raises(IntegrationError) as want:
            oracle_epidemic(params, grid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError) as got:
                epidemic_pass(params, grid)
        assert (got.value.time, str(got.value)) == (want.value.time, str(want.value))
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        epi = epidemic_pass(params, grid)
    assert _bytes(epi) == _bytes(oracle)
    assert epi.drives.shape == (n, 4)
