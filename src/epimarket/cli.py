"""Command-line entry points: simulate, sweep, verify.

Logs go to standard error only; data goes to files. Exit codes separate
failure classes: 0 success, 1 failed verification, 2 usage, config and
file-write errors, 3 numerical failures (engine errors surfaced verbatim).
"""
from __future__ import annotations

import argparse
import logging
import sys
import time
from pathlib import Path

from .analysis import judge_run, parameter_sweep, summarize_sweep
from .config import (
    FORMATS,
    SCENARIOS,
    ScenarioConfig,
    parse_config,
    serialize_config,
    with_overrides,
)
from .epidemic import epidemic_pass
from .errors import ConfigError, SimulationError
from .output import (
    prepare_out_dir,
    write_legs,
    write_report,
    write_sweep_csv,
    write_sweep_summary,
    write_timeline_json,
)
from .verify import run_verification

log = logging.getLogger("epimarket")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="epimarket",
        description="Contagion-driven asset market simulator and verifier",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="config file (key=value lines or JSON object)")
    common.add_argument("--scenario", choices=SCENARIOS,
                        help="which price mechanism(s) to run")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--dt", type=float, help="integration step")
    common.add_argument("--horizon", type=float, help="end time t_end")
    common.add_argument("--format", choices=FORMATS,
                        help="time-series file format")

    sub.add_parser("simulate", parents=[common],
                   help="run one scenario and write trajectory, timeline, report")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run the parameter sweep and write verdict rows")
    p_sweep.add_argument("--workers", type=int, default=1,
                         help="kept for compatibility, must be >= 1; a sweep "
                              "runs on every usable CPU")
    p_verify = sub.add_parser("verify",
                              help="run the full acceptance battery on defaults")
    p_verify.add_argument("--out", metavar="DIR", default="verification",
                          help="artifact directory (default: verification)")
    return parser


def _load_config(args) -> ScenarioConfig:
    text = ""
    if args.config is not None:
        path = Path(args.config)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {str(path)!r}: {exc}") from exc
    cfg = parse_config(text)
    return with_overrides(
        cfg,
        scenario=args.scenario,
        out_dir=args.out,
        dt=args.dt,
        t_end=args.horizon,
        format=args.format,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    started = time.perf_counter()
    # one SIR pass drives every leg, judged before any file is written
    legs, judged, error = judge_run(cfg.curve, epidemic_pass(cfg.params, cfg.grid),
                                    cfg.scenario)
    if error is not None:
        # the failed leg is recorded, and the artifacts that exist are kept
        log.error("depression leg failed: %s", error)
    timeline = judged.timeline

    # made only now, so a refused run leaves no directory behind
    out = prepare_out_dir(cfg.out_dir)
    series, plots = write_legs(legs, cfg.format, out)
    manifest = [path for pair in zip(series, plots) for path in pair]
    manifest.append(write_timeline_json(timeline, judged.claims, out / "timeline.json"))

    write_report(out / "report.json", serialize_config(cfg), manifest,
                 time.perf_counter() - started, None if error is None else str(error))

    if timeline.boom:
        log.info("infection peak at t=%.4f", timeline.t_i_star)
        log.info("price extremum %.4f at t=%.4f",
                 timeline.p_star_m, timeline.t_p_star_m)
        if timeline.t1 is not None:
            log.info("plateau [%.4f, %.4f] at P*=%.4f",
                     timeline.t1, timeline.t2, timeline.p_star_re)
    else:
        log.info("no boom at these parameters")
    log.info("wrote %d files to %s", len(manifest) + 1, out)
    return 3 if error is not None else 0


def _cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {args.workers}")
    cfg = _load_config(args)
    if cfg.scenario == "depression":
        raise ConfigError("sweep supports the myopic and rational scenarios")
    out = prepare_out_dir(cfg.out_dir)
    started = time.perf_counter()

    rows = parameter_sweep(cfg.params, cfg.curve, cfg.grid,
                           axes=cfg.sweep or None, rational=cfg.scenario != "myopic")
    summary = summarize_sweep(rows)
    manifest = [write_sweep_csv(rows, out / "sweep.csv"),
                write_sweep_summary(summary, out / "sweep_summary.csv")]
    write_report(out / "report.json", serialize_config(cfg), manifest,
                 time.perf_counter() - started)
    log.info("swept %d points (%d booms, %d errors)",
             summary["points"], summary["booms"], summary["errors"])
    return 0


def _cmd_verify(args) -> int:
    results = run_verification(args.out)
    for result in results:
        log.info("%s", result.line())
    failed = [r.criterion for r in results if not r.passed]
    if not failed:
        log.info("all %d checks passed", len(results))
        return 0
    log.error("failed criteria: %s", ", ".join(str(c) for c in failed))
    return 1


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        return _cmd_verify(args)
    except ConfigError as exc:
        log.error("%s", exc)
        return 2
    except SimulationError as exc:
        log.error("%s", exc)
        return 3
    except OSError as exc:  # e.g. a directory where a data file goes
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
