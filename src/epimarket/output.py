"""Artifact writers: time series, plot data, timelines, sweep tables and
the run report. Every artifact file of the package is written here, and
every JSON one in `write_json`'s format: the small ones by `write_json`,
the time series as the same bytes from json's C encoder, with each
column a leg shares with another encoded once.

All numbers are written with shortest round-trip precision (repr of the
Python float), so a write-then-read cycle is bit-exact and two runs with
the same config produce byte-identical data files. Wall-clock timing
lives only in the run report, which is excluded from that guarantee.

The CSV time series and `.dat` plot files of a run are written in one
streamed pass of BLOCK_ROWS-row blocks. In each block every distinct
column array is formatted once, and that text feeds every file that has
the column: the grid times go to all files, S, I and R of a shared SIR
pass to every leg that shares it, and t, P and I to both files of a leg.
Only one block's text is held at a time in each process, so memory is
bounded by the block, not by the run's length.

The blocks are cut into one contiguous range per usable CPU. The calling
process writes the first range straight into the files; each later range
is written by a forked child (`pool.forked`) into one unlinked
temporary file per table, in the table's directory, and the caller then
appends those parts in range order, so no text passes back through a
pipe. Every cell is ASCII and the files are written as its bytes, so
they do not depend on the number of processes.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from array import array
from contextlib import ExitStack
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    ORDERING_KEYS,
    ClaimResult,
    EventTimeline,
    SweepResult,
    claim_counts,
)
from .errors import ConfigError
from .market import MarketTrajectory
from .pool import forked, usable_cpus

_TS_COLUMNS = ("t", "S", "I", "R", "X", "P")

# rows per streamed block: per-block overhead already vanishes against
# formatting here, and a block's text stays well under a megabyte
BLOCK_ROWS = 1024


def _fmt(v) -> str:
    return repr(float(v))


def _opt(v) -> str:
    return "" if v is None else _fmt(v)


# a sweep.csv cell of a flag or an ordering verdict (None: inconclusive)
_BOOL_CELLS = {True: "true", False: "false", None: ""}


def prepare_out_dir(path) -> Path:
    """Create the output directory path (and its parents) if missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in path
        raise ConfigError(f"cannot use {str(out)!r} as output directory: {exc}") from exc
    return out


def write_json(payload, path) -> str:
    """payload as UTF-8 JSON, indented by 2, with one trailing newline: the
    format of every JSON artifact."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return str(path)


# ---------------------------------------------------------------------------
# streamed text tables
# ---------------------------------------------------------------------------


def _series_table(trajectory: MarketTrajectory, path) -> tuple:
    epi = trajectory.epi
    cols = (epi.times, epi.s, epi.i, epi.r, trajectory.x, trajectory.p)
    return (Path(path), ",".join(_TS_COLUMNS + ("phase",)), ",",
            tuple(np.asarray(c, dtype=float) for c in cols) + (trajectory.phases(),))


def _plot_table(trajectory: MarketTrajectory, path) -> tuple:
    cols = (trajectory.epi.times, trajectory.p, trajectory.epi.i)
    return (Path(path), "# t P I", " ",
            tuple(np.asarray(c, dtype=float) for c in cols))


def _write_tables(tables: list[tuple]) -> None:
    """Write every table in one pass over BLOCK_ROWS-row blocks, cut into
    one contiguous range per usable CPU as the module docstring describes.

    A table is one text file, (path, header line, cell separator,
    columns), with one row per index; a column is a float array or a list
    of cell strings written as they are. One usable CPU (`usable_cpus`)
    or a table shorter than two blocks leaves one range, written here.
    Every file opened is closed, also when a write raises.
    """
    n = max((len(c) for *_, cols in tables for c in cols), default=0)
    blocks = -(-n // BLOCK_ROWS)
    procs = max(1, min(usable_cpus(), blocks))
    cuts = [blocks * c // procs * BLOCK_ROWS for c in range(procs + 1)]
    with ExitStack() as stack:
        files = []
        for path, header, _sep, _cols in tables:
            try:
                fh = stack.enter_context(open(path, "wb"))
            except OSError as exc:
                raise ConfigError(f"cannot write {str(path)!r}: {exc}") from exc
            fh.write(f"{header}\n".encode())
            files.append(fh)
        parts = [[stack.enter_context(tempfile.TemporaryFile(dir=path.parent))
                  for path, *_ in tables] for _c in range(1, procs)]
        forked(lambda share: _write_rows(tables, *share),
               [(out, cuts[c], cuts[c + 1]) for c, out in enumerate([files] + parts)])
        for part in parts:
            for fh, tmp in zip(files, part):
                tmp.seek(0)
                shutil.copyfileobj(tmp, fh)


def _write_rows(tables: list[tuple], files, lo: int, hi: int) -> None:
    """Rows [lo, hi) of every table into its file in files, block by block.

    Within a block each distinct array (by identity) is formatted once
    and its text reused by every table that holds it; the cache lives for
    that block only. Every cell is ASCII, so the encoded text is the file's
    bytes.
    """
    for start in range(lo, hi, BLOCK_ROWS):
        end = start + BLOCK_ROWS
        text: dict[int, list[str]] = {}
        for fh, (_path, _header, sep, cols) in zip(files, tables):
            cells = []
            for col in cols:
                if isinstance(col, np.ndarray):
                    block = text.get(id(col))
                    if block is None:
                        block = text[id(col)] = list(map(repr, col[start:end].tolist()))
                else:
                    block = col[start:end]
                cells.append(block)
            rows = "\n".join(map(sep.join, zip(*cells)))
            if rows:
                fh.write(f"{rows}\n".encode())
    for fh in files:
        fh.flush()  # a forked child leaves by os._exit, which flushes nothing


# ---------------------------------------------------------------------------
# time series
# ---------------------------------------------------------------------------


def write_timeseries(trajectory: MarketTrajectory, fmt: str, path) -> str:
    """One row per grid node with columns t, S, I, R, X, P, phase."""
    path = Path(path)
    if fmt == "csv":
        _write_tables([_series_table(trajectory, path)])
    elif fmt == "json":
        _write_json_series(trajectory, path, {})
    else:
        raise ConfigError(f"format must be 'csv' or 'json', got {fmt!r}")
    return str(path)


def _write_json_series(trajectory: MarketTrajectory, path: Path, encoded: dict) -> None:
    """The JSON time series with write_json's bytes, each column through
    json's C encoder (json.dump runs it only without indent) with indent=2's
    separators. encoded holds each float column's text by array identity,
    with the array, so no other array takes that id while encoded lives,
    and legs that share a column encode it once."""
    def items(values):
        return json.dumps(values, separators=(",\n    ", ": "))[1:-1]

    *_, cols = _series_table(trajectory, path)
    texts = []
    for col in cols[:-1]:
        if id(col) not in encoded:
            encoded[id(col)] = col, items(col.tolist())
        texts.append(encoded[id(col)][1])
    texts.append(items(cols[-1]))
    body = ",\n".join(f'  "{name}": [\n    {text}\n  ]'
                      for name, text in zip(_TS_COLUMNS + ("phase",), texts))
    path.write_text(f"{{\n{body}\n}}\n", encoding="utf-8")


def read_timeseries_csv(path) -> dict[str, object]:
    """Inverse of the CSV writer; numeric columns come back as arrays.

    Reads line by line into packed float buffers, so memory stays near
    the size of the returned arrays, not of the file's text.
    """
    numeric = {name: array("d") for name in _TS_COLUMNS}
    phase: list[str] = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if tuple(header.split(",")) != _TS_COLUMNS + ("phase",):
            raise ConfigError(f"unexpected time-series header: {header!r}")
        appends = [numeric[name].append for name in _TS_COLUMNS]
        for ln in fh:
            parts = ln.rstrip("\n").split(",")
            if parts == [""]:
                continue
            for add, cell in zip(appends, parts):
                add(float(cell))
            phase.append(parts[-1])
    out: dict[str, object] = {name: np.array(vals)
                              for name, vals in numeric.items()}
    out["phase"] = phase
    return out


def write_plot_dat(trajectory: MarketTrajectory, path) -> str:
    """Whitespace-separated t P I columns for external plotting tools."""
    _write_tables([_plot_table(trajectory, path)])
    return str(path)


def write_legs(legs, fmt: str, out_dir) -> tuple[list[str], list[str]]:
    """Time series and plot file of every (name, trajectory) leg of a run.

    Writes `<name>.<fmt>` and `<name>.dat` into out_dir, every CSV and
    `.dat` file in one streamed pass, so columns the legs share are
    formatted once. Returns the series paths and the plot paths, each in
    leg order.
    """
    out = Path(out_dir)
    tables, series, plots, encoded = [], [], [], {}
    for name, trajectory in legs:
        path = out / f"{name}.{fmt}"
        if fmt == "csv":
            tables.append(_series_table(trajectory, path))
        elif fmt == "json":
            _write_json_series(trajectory, path, encoded)
        else:
            write_timeseries(trajectory, fmt, path)
        series.append(str(path))
        tables.append(_plot_table(trajectory, out / f"{name}.dat"))
        plots.append(str(out / f"{name}.dat"))
    _write_tables(tables)
    return series, plots


# ---------------------------------------------------------------------------
# timeline and sweep
# ---------------------------------------------------------------------------


# the timeline's times and prices, in field order (its verdicts: ORDERING_KEYS)
_EVENT_COLUMNS = [f.name for f in fields(EventTimeline) if f.name != "ordering_ok"]


def write_timeline_json(timeline: EventTimeline, verdicts: dict[str, ClaimResult],
                        path) -> str:
    """The timeline's own fields, in field order, and each claim's status."""
    return write_json({
        **asdict(timeline),
        "verdicts": {name: c.status for name, c in verdicts.items()},
    }, path)


def write_sweep_csv(rows: list[SweepResult], path) -> str:
    """One row per grid point with effective parameters and verdicts."""
    path = Path(path)
    header = ["index", "beta", "gamma", "n1", "kappa", "boom", *_EVENT_COLUMNS,
              *ORDERING_KEYS, "claims_pass", "claims_fail", "claims_inconclusive",
              "refinements", "dt_used", "error"]
    lines = [",".join(header)]
    for row in rows:
        tl = row.timeline
        cells = [
            str(row.index),
            _fmt(row.params.beta), _fmt(row.params.gamma),
            _fmt(row.params.n1), _fmt(row.curve.kappa),
        ]
        if row.error is not None:
            # blank up to the refinements column
            cells += [""] * (len(header) - len(cells) - 3)
        else:
            cells.append(_BOOL_CELLS[tl.boom])
            cells += [_opt(getattr(tl, name)) for name in _EVENT_COLUMNS]
            cells += [_BOOL_CELLS[tl.ordering_ok.get(k)] for k in ORDERING_KEYS]
            cells += [str(n) for n in claim_counts(row.claims.values()).values()]
        err = "" if row.error is None else row.error.replace(",", ";").replace("\n", " ")
        cells += [str(row.refinements), _fmt(row.dt_used), err]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def write_sweep_summary(summary: dict[str, int], path) -> str:
    """One metric,value row per entry of summarize_sweep's summary."""
    path = Path(path)
    path.write_text(
        "metric,value\n" + "".join(f"{k},{v}\n" for k, v in summary.items()),
        encoding="utf-8",
    )
    return str(path)


# ---------------------------------------------------------------------------
# run report
# ---------------------------------------------------------------------------


def write_report(path, config: str, manifest: list[str], duration_s: float,
                 error: str | None = None) -> str:
    """Provenance for one CLI invocation, with the package's version.

    The manifest lists exactly the data files written. duration_s is the
    only field allowed to differ between identical runs.
    """
    return write_json({
        "config": config,
        "manifest": list(manifest),
        "engine_version": __version__,
        "duration_s": float(duration_s),
        "error": error,
    }, path)
