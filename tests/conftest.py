"""Shared fixtures: the default-parameter runs reused across test modules.

Everything here is deterministic, so session scope is safe; no test
mutates a trajectory (they build modified copies via dataclasses.replace).
"""
from __future__ import annotations

import os

import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    analysis,
    infection_peak,
    output,
    re_price_path,
    simulate_epidemic,
    simulate_myopic,
    solve_plateau,
)


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
def myopic_run(params, curve, grid):
    return simulate_myopic(params, curve, grid)


@pytest.fixture(scope="session")
def peak(params, epidemic_run):
    return infection_peak(params, epidemic_run)


@pytest.fixture(scope="session")
def plateau(params, curve, grid):
    return solve_plateau(params, curve, grid)


@pytest.fixture(scope="session")
def rational_run(params, curve, grid):
    return re_price_path(params, curve, grid)


@pytest.fixture
def forks(monkeypatch):
    """at(procs) sets the process count of the sweep's and the writer's
    pools (`_usable_cpus`) and returns the pids os.fork gives this process
    from then on. Afterwards no child process may be left unreaped."""
    made = []
    real = os.fork

    def fork():
        pid = real()
        made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def at(procs):
        made.clear()
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: procs)
        monkeypatch.setattr(output, "_usable_cpus", lambda: procs)
        return made

    yield at
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
