"""The sweep's process pool: one strided share of a group's points per CPU.

`analysis._usable_cpus` is patched to set the number of processes. Every
test checks afterwards that no child process is left unreaped.
"""
from __future__ import annotations

import os
import time

import pytest

from epimarket import EpidemicParams, Grid, SupplyCurve, analysis, parameter_sweep
from epimarket.output import write_sweep_csv

# one epidemic group of three points on a coarse grid: kappa=-1 is a
# config-error row, kappa=80 refines dt once and kappa=10 carries the
# solve's error in its row
GRID = Grid(0.0, 100.0, 0.05)
AXES = {"beta": [2e-3], "kappa": [-1.0, 80.0, 10.0]}


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """The pids os.fork returns in this process, with the pool at procs."""
    made = []
    real = os.fork

    def fork():
        pid = real()
        made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)

    def at(procs):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: procs)
        return made

    return at


def _sweep_csv(tmp_path, name, axes=AXES):
    rows = parameter_sweep(EpidemicParams(), SupplyCurve(), GRID, axes=axes)
    path = tmp_path / name
    write_sweep_csv(rows, path)
    return rows, path.read_bytes()


def test_group_rows_do_not_depend_on_the_process_count(tmp_path, forks):
    made = forks(1)
    rows, serial = _sweep_csv(tmp_path, "serial.csv")
    assert made == []
    assert "kappa must be > 0" in rows[0].error
    assert rows[1].error is None and rows[1].refinements == 1
    assert rows[2].error is not None
    for procs in (2, 3):
        made.clear()
        forks(procs)
        _rows, pooled = _sweep_csv(tmp_path, f"pooled-{procs}.csv")
        assert len(made) == procs - 1
        assert pooled == serial


def test_sweep_runs_serially_without_fork(tmp_path, forks, monkeypatch):
    made = forks(3)
    _rows, serial = _sweep_csv(tmp_path, "pooled.csv")
    assert len(made) == 2
    monkeypatch.delattr(os, "fork")
    _rows, unforked = _sweep_csv(tmp_path, "unforked.csv")
    assert unforked == serial


def test_one_point_groups_run_in_this_process(tmp_path, forks):
    made = forks(3)
    _sweep_csv(tmp_path, "two-groups.csv",
               axes={"beta": [2e-3, 1e-3], "kappa": [80.0]})
    assert made == []


def test_an_exception_in_a_child_reaches_the_caller(forks, monkeypatch):
    forks(2)
    parent = os.getpid()
    point_result = analysis._point_result

    def failing(params, curve, grid, index, *args):
        if index == 1:  # the second share's point, run by the child
            raise RuntimeError(f"bug in process {os.getpid()}")
        return point_result(params, curve, grid, index, *args)

    monkeypatch.setattr(analysis, "_point_result", failing)
    with pytest.raises(RuntimeError, match="bug in process") as info:
        parameter_sweep(EpidemicParams(), SupplyCurve(), GRID, axes=AXES)
    assert str(info.value) != f"bug in process {parent}"


def test_a_child_that_sends_nothing_names_its_exit_status(forks, monkeypatch):
    forks(2)
    point_result = analysis._point_result

    def dying(params, curve, grid, index, *args):
        if index == 1:
            os._exit(7)
        return point_result(params, curve, grid, index, *args)

    monkeypatch.setattr(analysis, "_point_result", dying)
    with pytest.raises(RuntimeError, match=r"without sending rows \(exit status 7\)"):
        parameter_sweep(EpidemicParams(), SupplyCurve(), GRID, axes=AXES)


def test_an_error_in_this_process_kills_and_reaps_the_children(forks, monkeypatch):
    forks(3)
    point_result = analysis._point_result

    def slow_children(params, curve, grid, index, *args):
        if index == 0:  # the first share stays in this process
            raise RuntimeError("parent share failed")
        time.sleep(60)  # unless killed
        return point_result(params, curve, grid, index, *args)

    monkeypatch.setattr(analysis, "_point_result", slow_children)
    started = time.monotonic()
    with pytest.raises(RuntimeError, match="parent share failed"):
        parameter_sweep(EpidemicParams(), SupplyCurve(), GRID,
                        axes={"beta": [2e-3], "kappa": [80.0, 10.0, 5.0]})
    assert time.monotonic() - started < 30.0


def test_output_buffered_before_a_pooled_sweep_is_written_once(tmp_path, forks,
                                                               capfd):
    forks(3)
    # a buffered stream on stdout: a child that flushed it on leaving
    # would write the line a second time
    out = os.fdopen(os.dup(1), "w", buffering=1 << 16)
    out.write("buffered line\n")
    print("printed line")
    _sweep_csv(tmp_path, "pooled.csv")
    out.close()
    captured = capfd.readouterr().out
    assert captured.count("buffered line\n") == 1
    assert captured.count("printed line\n") == 1
