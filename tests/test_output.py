"""File writers: time series, plot data, timeline, sweep table, run report."""
from __future__ import annotations

import errno
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from epimarket import (
    EpidemicParams,
    Grid,
    SupplyCurve,
    build_timeline,
    check_propositions,
    epidemic_pass,
    parameter_sweep,
    simulate_depression,
    simulate_myopic,
)
from epimarket import cli, output
from epimarket.errors import ConfigError
from epimarket.output import (
    BLOCK_ROWS,
    RunReport,
    prepare_out_dir,
    read_timeseries_csv,
    timeline_payload,
    write_legs,
    write_plot_dat,
    write_report,
    write_sweep_csv,
    write_timeline_json,
    write_timeseries,
)

TIMELINE_KEYS = [
    "t_i_star", "t_p_star_m", "p_star_m", "t1", "t2", "p_star_re",
    "ordering_ok", "verdicts",
]


@pytest.fixture(scope="module")
def tiny_run(curve):
    return simulate_myopic(curve, epidemic_pass(EpidemicParams(), Grid(0.0, 0.02, 0.01)))


# ---------------------------------------------------------------------------
# time series
# ---------------------------------------------------------------------------


def test_csv_layout(tmp_path, tiny_run):
    path = write_timeseries(tiny_run, "csv", tmp_path / "run.csv")
    lines = (tmp_path / "run.csv").read_text().splitlines()
    assert path == str(tmp_path / "run.csv")
    assert lines[0] == "t,S,I,R,X,P,phase"
    assert len(lines) == 4  # header + one row per node
    assert lines[1].split(",")[0] == "0.0"
    assert lines[1].endswith(",na")


def test_csv_round_trip_is_exact(tmp_path, myopic_run):
    write_timeseries(myopic_run, "csv", tmp_path / "m.csv")
    back = read_timeseries_csv(tmp_path / "m.csv")
    assert np.array_equal(back["t"], myopic_run.times)
    assert np.array_equal(back["S"], myopic_run.s)
    assert np.array_equal(back["I"], myopic_run.i)
    assert np.array_equal(back["R"], myopic_run.r)
    assert np.array_equal(back["X"], myopic_run.x)
    assert np.array_equal(back["P"], myopic_run.p)
    assert back["phase"] == ["na"] * len(myopic_run.times)


def test_repeated_writes_are_byte_identical(tmp_path, tiny_run):
    write_timeseries(tiny_run, "csv", tmp_path / "a.csv")
    write_timeseries(tiny_run, "csv", tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_json_mirror(tmp_path, tiny_run):
    write_timeseries(tiny_run, "json", tmp_path / "run.json")
    payload = json.loads((tmp_path / "run.json").read_text())
    assert sorted(payload) == sorted(["t", "S", "I", "R", "X", "P", "phase"])
    assert payload["t"] == [0.0, 0.01, 0.02]
    assert payload["P"][0] == 1.0
    assert payload["phase"] == ["na", "na", "na"]


def test_unknown_format_is_rejected(tmp_path, tiny_run):
    with pytest.raises(ConfigError):
        write_timeseries(tiny_run, "xml", tmp_path / "run.xml")


def test_read_rejects_foreign_headers(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_timeseries_csv(bad)


def test_plot_dat_layout(tmp_path, tiny_run):
    write_plot_dat(tiny_run, tmp_path / "run.dat")
    lines = (tmp_path / "run.dat").read_text().splitlines()
    assert lines[0] == "# t P I"
    assert len(lines) == 4
    assert len(lines[1].split(" ")) == 3


# ---------------------------------------------------------------------------
# timeline and sweep
# ---------------------------------------------------------------------------


def test_timeline_json_payload(tmp_path, myopic_run, rational_run, peak):
    tl = build_timeline(myopic_run, rational_run, peak)
    verdicts = check_propositions(myopic_run, rational_run, timeline=tl).claims
    write_timeline_json(tl, verdicts, tmp_path / "timeline.json")
    payload = json.loads((tmp_path / "timeline.json").read_text())
    assert list(payload) == TIMELINE_KEYS
    assert payload["t1"] == tl.t1
    assert payload["ordering_ok"]["t2_lt_t_i_star"] is True
    assert payload["verdicts"]["re_peak_lower"] == "pass"
    assert timeline_payload(tl, verdicts) == payload


def test_sweep_csv_layout(tmp_path, params, curve, grid):
    rows = parameter_sweep(params, curve, grid, axes={"n1": [100.0]})
    # a grid the SIR pass refuses
    rows += parameter_sweep(params, curve, grid, axes={"beta": [5.0]})
    # an in-bound overflow: "non-finite derivative [inf, -inf, ...]"
    rows += parameter_sweep(params, curve, grid,
                            axes={"beta": [2e-306], "n1": [1e308]})
    assert "," in rows[2].error
    write_sweep_csv(rows, tmp_path / "sweep.csv")
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["index", "beta", "gamma", "n1", "kappa", "boom"]
    assert header[-3:] == ["refinements", "dt_used", "error"]
    assert len(header) == 22
    assert len(lines) == 4
    for ln in lines[1:]:
        assert len(ln.split(",")) == 22
    no_boom = lines[1].split(",")
    assert no_boom[5] == "false"
    refused = lines[2].split(",")
    assert refused[1] == "5.0"
    assert "dt <= 2.785/(beta*N + gamma)" in refused[-1]
    overflow = lines[3].split(",")
    assert overflow[-1] == rows[2].error.replace(",", ";")


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------


def test_report_payload(tmp_path):
    report = RunReport(
        config_echo="beta=0.0005\n",
        scenario="myopic",
        timeline=None,
        verdicts=None,
        manifest=["myopic.csv"],
        engine_version="0.1.0",
        duration_s=1.25,
        error=None,
    )
    write_report(report, tmp_path / "report.json")
    payload = json.loads((tmp_path / "report.json").read_text())
    assert list(payload) == [
        "config", "scenario", "timeline", "manifest",
        "engine_version", "duration_s", "error",
    ]
    assert payload["timeline"] is None
    assert payload["manifest"] == ["myopic.csv"]
    assert payload["error"] is None


# ---------------------------------------------------------------------------
# streamed writer against the per-row reference
# ---------------------------------------------------------------------------


def _ref_fmt(v) -> str:
    return repr(float(v))


def _reference_csv(traj) -> bytes:
    """The per-row CSV formatting the streamed writer must reproduce."""
    cols = (traj.times, traj.s, traj.i, traj.r, traj.x, traj.p)
    phases = traj.phases()
    lines = ["t,S,I,R,X,P,phase"]
    for k in range(len(traj)):
        lines.append(",".join(_ref_fmt(c[k]) for c in cols) + f",{phases[k]}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_dat(traj) -> bytes:
    lines = ["# t P I"]
    for k in range(len(traj)):
        lines.append(f"{_ref_fmt(traj.times[k])} {_ref_fmt(traj.p[k])} "
                     f"{_ref_fmt(traj.i[k])}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def _reference_json(traj) -> bytes:
    cols = (traj.times, traj.s, traj.i, traj.r, traj.x, traj.p)
    payload = {name: [float(v) for v in col]
               for name, col in zip(("t", "S", "I", "R", "X", "P"), cols)}
    payload["phase"] = traj.phases()
    return (json.dumps(payload, indent=2) + "\n").encode("utf-8")


@pytest.fixture(scope="module")
def shared_legs(epidemic_run, myopic_run, rational_run):
    """myopic, rational and depression over one SIR pass, at the defaults
    except depression's curve, which sits above the price floor."""
    return [
        ("myopic", myopic_run),
        ("rational", rational_run),
        ("depression", simulate_depression(SupplyCurve(kappa=700.0), epidemic_run)),
    ]


def _check_legs(out, legs, fmt="csv"):
    series, plots = write_legs(legs, fmt, out)
    assert series == [str(out / f"{name}.{fmt}") for name, _ in legs]
    assert plots == [str(out / f"{name}.dat") for name, _ in legs]
    ref = _reference_csv if fmt == "csv" else _reference_json
    for (_name, traj), s_path, d_path in zip(legs, series, plots):
        assert Path(s_path).read_bytes() == ref(traj)
        assert Path(d_path).read_bytes() == _reference_dat(traj)


def _cut_legs(shared_legs, rows):
    """The myopic and depression legs cut to their first rows nodes."""
    (_, myopic), _, (_, depression) = shared_legs
    # cut the shared SIR columns once, so both legs still hold the same arrays
    cut = {name: getattr(myopic, name)[:rows] for name in ("times", "s", "i", "r")}
    legs = [(name, replace(traj, **cut, x=traj.x[:rows], p=traj.p[:rows]))
            for name, traj in (("myopic", myopic), ("depression", depression))]
    assert legs[0][1].s is legs[1][1].s
    return legs


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                  2 * BLOCK_ROWS + 1])
def test_streamed_files_match_the_row_reference_at_block_edges(
        tmp_path, shared_legs, rows):
    legs = _cut_legs(shared_legs, rows)
    _check_legs(tmp_path, legs)
    # the single-file entry points write the same bytes
    for name, traj in legs:
        write_timeseries(traj, "csv", tmp_path / f"one_{name}.csv")
        write_plot_dat(traj, tmp_path / f"one_{name}.dat")
        assert (tmp_path / f"one_{name}.csv").read_bytes() == _reference_csv(traj)
        assert (tmp_path / f"one_{name}.dat").read_bytes() == _reference_dat(traj)


def test_full_run_with_shared_columns_matches_the_row_reference(tmp_path, shared_legs):
    (_, myopic), (_, rational), (_, depression) = shared_legs
    assert myopic.times is rational.times is depression.times
    assert myopic.s is depression.s and myopic.i is depression.i
    assert len(myopic) == 30_001
    assert set(rational.phases()) == {"pre", "plateau", "post"}
    _check_legs(tmp_path, shared_legs)


def test_json_legs_are_unchanged(tmp_path, shared_legs):
    _check_legs(tmp_path, _cut_legs(shared_legs, 2 * BLOCK_ROWS + 1), fmt="json")


def test_streamed_writer_closes_every_file_when_it_raises(tmp_path, monkeypatch,
                                                          tiny_run):
    opened = []

    def recording_open(*args, **kwargs):
        fh = open(*args, **kwargs)
        opened.append(fh)
        return fh

    monkeypatch.setattr(output, "open", recording_open, raising=False)
    (tmp_path / "b.csv").mkdir()  # the second leg's series cannot be opened
    with pytest.raises(ConfigError, match="b.csv"):
        write_legs([("a", tiny_run), ("b", tiny_run)], "csv", tmp_path)
    assert len(opened) == 2
    assert all(fh.closed for fh in opened)


# ---------------------------------------------------------------------------
# row ranges on several processes
# ---------------------------------------------------------------------------


def _leg_files(legs):
    return sorted(f"{name}.{ext}" for name, _ in legs for ext in ("csv", "dat"))


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 1])
def test_tables_do_not_depend_on_the_process_count(tmp_path, shared_legs, forks,
                                                   monkeypatch, rows):
    legs = _cut_legs(shared_legs, rows)
    blocks = -(-rows // BLOCK_ROWS)
    for procs in (1, 2, 3, None):  # None: three CPUs, no os.fork
        made = forks(procs or 3)
        if procs is None:
            monkeypatch.delattr(os, "fork")
        out = tmp_path / f"procs-{procs}"
        out.mkdir()
        _check_legs(out, legs)
        assert len(made) == (min(procs, blocks) - 1 if procs else 0)
        # the children's parts went to unlinked temporary files
        assert sorted(p.name for p in out.iterdir()) == _leg_files(legs)


def _failing_later_ranges(monkeypatch, exc):
    """Make every row range but the first, the forked children's, raise."""
    write_rows = output._write_rows

    def failing(tables, files, lo, hi):
        if lo > 0:
            raise exc(os.getpid())
        write_rows(tables, files, lo, hi)

    monkeypatch.setattr(output, "_write_rows", failing)


def test_an_exception_in_a_child_reaches_the_caller(tmp_path, shared_legs, forks,
                                                    monkeypatch):
    forks(3)
    opened = []

    def recording(open_file):
        def opener(*args, **kwargs):
            fh = open_file(*args, **kwargs)
            opened.append(fh)
            return fh
        return opener

    monkeypatch.setattr(output, "open", recording(open), raising=False)
    monkeypatch.setattr(output.tempfile, "TemporaryFile",
                        recording(output.tempfile.TemporaryFile))
    _failing_later_ranges(monkeypatch, lambda pid: RuntimeError(f"bug in process {pid}"))
    legs = _cut_legs(shared_legs, 3 * BLOCK_ROWS)
    with pytest.raises(RuntimeError, match="bug in process") as info:
        write_legs(legs, "csv", tmp_path)
    assert str(info.value) != f"bug in process {os.getpid()}"
    assert len(opened) == 3 * 4  # the four files and two children's parts of each
    assert all(fh.closed for fh in opened)
    assert sorted(p.name for p in tmp_path.iterdir()) == _leg_files(legs)


@pytest.mark.parametrize("where", ["here", "in-a-child"])
def test_simulate_exits_2_when_a_data_file_cannot_be_written(tmp_path, forks,
                                                             monkeypatch, caplog, where):
    forks(2)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t_end=80\ndt=0.02\n")  # 4,001 rows: four blocks
    out = tmp_path / "out"
    if where == "here":
        (out / "myopic.dat").mkdir(parents=True)
    else:
        _failing_later_ranges(
            monkeypatch, lambda pid: OSError(errno.ENOSPC, os.strerror(errno.ENOSPC)))
    caplog.clear()
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1
    named = "myopic.dat" if where == "here" else os.strerror(errno.ENOSPC)
    assert named in errors[0].getMessage()
    assert sorted(p.name for p in out.iterdir()) == ["myopic.csv", "myopic.dat"]


def test_unusable_out_dir_is_a_config_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("keep\n")
    for bad in (blocker, blocker / "sub"):
        with pytest.raises(ConfigError, match=str(bad)):
            prepare_out_dir(bad)
    assert blocker.read_text() == "keep\n"
    assert prepare_out_dir(tmp_path / "new" / "dir").is_dir()
