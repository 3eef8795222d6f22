"""Shared fixtures: the default-parameter runs reused across test modules.

Everything here is deterministic, so session scope is safe; no test
mutates a trajectory (they build modified copies via dataclasses.replace).
"""
from __future__ import annotations

import os
from array import array

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    infection_peak,
    re_price_path,
    simulate_epidemic,
    simulate_myopic,
    solve_plateau,
)
from epimarket.epidemic import EpidemicTrajectory


@pytest.fixture(scope="session")
def params():
    return EpidemicParams()


@pytest.fixture(scope="session")
def curve():
    return SupplyCurve()


@pytest.fixture(scope="session")
def grid():
    return Grid(0.0, 300.0, 1e-2)


@pytest.fixture(scope="session")
def epidemic_run(params, grid):
    return simulate_epidemic(params, grid)


@pytest.fixture(scope="session")
def myopic_run(curve, epidemic_run):
    return simulate_myopic(curve, epidemic_run)


@pytest.fixture(scope="session")
def peak(params, epidemic_run):
    return infection_peak(params, epidemic_run)


@pytest.fixture(scope="session")
def plateau(curve, epidemic_run):
    return solve_plateau(curve, epidemic_run)


@pytest.fixture(scope="session")
def rational_run(curve, epidemic_run):
    return re_price_path(curve, epidemic_run)


def _unchecked_pass(params, grid):
    """The SIR pass as one Python loop that also writes the drive table and
    steps R, with no stability check and no finiteness check."""
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
    return EpidemicTrajectory(
        params=params, grid=grid, times=grid.times(), s=np.frombuffer(s_arr),
        i=np.frombuffer(i_arr), r=np.frombuffer(r_arr),
        drives=np.frombuffer(drives).reshape(n, 4),
    )


@pytest.fixture(scope="session")
def unchecked_pass():
    """unchecked_pass(params, grid): epidemic_pass's values as one plain
    loop, its oracle. It also runs on a grid beyond RK4's stability
    interval, which epidemic_pass refuses, so a test can drive the market
    passes' floor and blow-up replays there."""
    return _unchecked_pass


@pytest.fixture
def forks(monkeypatch):
    """at(procs) gives this process procs usable CPUs, the process count
    of the sweep's and the writer's pools (`pool.usable_cpus`), and
    returns the pids os.fork gives this process from then on. Afterwards
    no child process may be left unreaped."""
    made = []
    real = os.fork

    def fork():
        pid = real()
        made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def at(procs):
        made.clear()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(procs)),
                            raising=False)
        return made

    yield at
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
