"""Artifact writers: time series, plot data, timelines, sweep tables.

All numbers are written with shortest round-trip precision (repr of the
Python float), so a write-then-read cycle is bit-exact and two runs with
the same config produce byte-identical data files. Wall-clock timing
lives only in the run report, which is excluded from that guarantee.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .analysis import (
    ORDERING_KEYS,
    ClaimResult,
    EventTimeline,
    SweepResult,
    claim_counts,
)
from .errors import ConfigError
from .market import MarketTrajectory

_TS_COLUMNS = ("t", "S", "I", "R", "X", "P")


def _fmt(v) -> str:
    return repr(float(v))


def _opt(v) -> str:
    return "" if v is None else _fmt(v)


def _verdict_cell(v: bool | None) -> str:
    if v is None:
        return ""
    return "true" if v else "false"


# ---------------------------------------------------------------------------
# time series
# ---------------------------------------------------------------------------


def write_timeseries(trajectory: MarketTrajectory, fmt: str, path) -> str:
    """One row per grid node with columns t, S, I, R, X, P, phase."""
    path = Path(path)
    phases = trajectory.phases()
    cols = (trajectory.times, trajectory.s, trajectory.i, trajectory.r,
            trajectory.x, trajectory.p)
    if fmt == "csv":
        lines = [",".join(_TS_COLUMNS + ("phase",))]
        for k in range(len(trajectory)):
            lines.append(
                ",".join(_fmt(c[k]) for c in cols) + f",{phases[k]}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    elif fmt == "json":
        payload = {name: [float(v) for v in col]
                   for name, col in zip(_TS_COLUMNS, cols)}
        payload["phase"] = phases
        with path.open("w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    else:
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    return str(path)


def read_timeseries_csv(path) -> dict[str, object]:
    """Inverse of the CSV writer; numeric columns come back as arrays."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln]
    header = tuple(lines[0].split(","))
    if header != _TS_COLUMNS + ("phase",):
        raise ConfigError(f"unexpected time-series header: {lines[0]!r}")
    numeric: dict[str, list[float]] = {name: [] for name in _TS_COLUMNS}
    phase: list[str] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        for name, cell in zip(_TS_COLUMNS, parts):
            numeric[name].append(float(cell))
        phase.append(parts[-1])
    out: dict[str, object] = {name: np.asarray(vals)
                              for name, vals in numeric.items()}
    out["phase"] = phase
    return out


def write_plot_dat(trajectory: MarketTrajectory, path) -> str:
    """Whitespace-separated t P I columns for external plotting tools."""
    path = Path(path)
    lines = ["# t P I"]
    for k in range(len(trajectory)):
        lines.append(
            f"{_fmt(trajectory.times[k])} {_fmt(trajectory.p[k])} "
            f"{_fmt(trajectory.i[k])}"
        )
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# timeline and sweep
# ---------------------------------------------------------------------------


def _f(v) -> float | None:
    return None if v is None else float(v)


def timeline_payload(timeline: EventTimeline,
                     verdicts: dict[str, ClaimResult] | None) -> dict:
    return {
        "t_i_star": _f(timeline.t_i_star),
        "t_p_star_m": _f(timeline.t_p_star_m),
        "p_star_m": _f(timeline.p_star_m),
        "t1": _f(timeline.t1),
        "t2": _f(timeline.t2),
        "p_star_re": _f(timeline.p_star_re),
        "ordering_ok": dict(timeline.ordering_ok),
        "verdicts": {name: c.status for name, c in (verdicts or {}).items()},
    }


def write_timeline_json(timeline: EventTimeline,
                        verdicts: dict[str, ClaimResult] | None, path) -> str:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(timeline_payload(timeline, verdicts), fh, indent=2)
        fh.write("\n")
    return str(path)


def write_sweep_csv(rows: list[SweepResult], path) -> str:
    """One row per grid point with effective parameters and verdicts."""
    path = Path(path)
    header = (
        ["index", "beta", "gamma", "n1", "kappa", "boom",
         "t_i_star", "t_p_star_m", "p_star_m", "t1", "t2", "p_star_re"]
        + list(ORDERING_KEYS)
        + ["claims_pass", "claims_fail", "claims_inconclusive",
           "refinements", "dt_used", "error"]
    )
    lines = [",".join(header)]
    for row in rows:
        tl = row.timeline
        cells = [
            str(row.index),
            _fmt(row.params.beta), _fmt(row.params.gamma),
            _fmt(row.params.n1), _fmt(row.curve.kappa),
        ]
        if row.error is not None or tl is None:
            cells += [""] * (7 + len(ORDERING_KEYS))
            cells += ["", "", ""]
        else:
            cells.append("true" if tl.boom else "false")
            cells += [_opt(tl.t_i_star), _opt(tl.t_p_star_m), _opt(tl.p_star_m),
                      _opt(tl.t1), _opt(tl.t2), _opt(tl.p_star_re)]
            cells += [_verdict_cell(tl.ordering_ok.get(k))
                      for k in ORDERING_KEYS]
            counts = claim_counts((row.claims or {}).values())
            cells += [str(n) for n in counts.values()]
        cells.append(str(row.refinements))
        cells.append(_fmt(row.dt_used))
        err = "" if row.error is None else row.error.replace(",", ";").replace("\n", " ")
        cells.append(err)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Provenance for one CLI invocation.

    The manifest lists exactly the data files written. duration_s is the
    only field allowed to differ between identical runs.
    """

    config_echo: str
    scenario: str
    timeline: EventTimeline | None
    verdicts: dict[str, ClaimResult] | None
    manifest: list[str]
    engine_version: str
    duration_s: float
    error: str | None = None


def write_report(report: RunReport, path) -> str:
    path = Path(path)
    payload = {
        "config": report.config_echo,
        "scenario": report.scenario,
        "timeline": (None if report.timeline is None
                     else timeline_payload(report.timeline, report.verdicts)),
        "manifest": list(report.manifest),
        "engine_version": report.engine_version,
        "duration_s": float(report.duration_s),
        "error": report.error,
    }
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return str(path)
