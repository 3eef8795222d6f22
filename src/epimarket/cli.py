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

from . import __version__
from .analysis import (
    build_timeline,
    check_propositions,
    default_sweep_axes,
    parameter_sweep,
    summarize_sweep,
)
from .config import ScenarioConfig, parse_config, serialize_config, with_overrides
from .epidemic import epidemic_pass, infection_peak
from .errors import ConfigError, SimulationError
from .market import simulate_depression, simulate_myopic
from .output import (
    RunReport,
    prepare_out_dir,
    write_legs,
    write_report,
    write_sweep_csv,
    write_timeline_json,
)
from .rational import re_price_path
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
    common.add_argument("--scenario",
                        choices=("myopic", "rational", "depression", "all"),
                        help="which price mechanism(s) to run")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument("--dt", type=float, help="integration step")
    common.add_argument("--horizon", type=float, help="end time t_end")
    common.add_argument("--format", choices=("csv", "json"),
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
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
    out = prepare_out_dir(cfg.out_dir)
    params, curve, grid = cfg.epidemic_params(), cfg.supply_curve(), cfg.grid()
    started = time.perf_counter()
    error: str | None = None

    # one SIR pass drives every leg; a blow-up in it surfaces as the
    # myopic leg's own error, at the step where that leg fails
    epi = epidemic_pass(params, grid)
    myopic = simulate_myopic(curve, epi)
    peak = infection_peak(params, epi)
    rational = None
    if cfg.scenario in ("rational", "all"):
        rational = re_price_path(curve, epi)
    depression = None
    if cfg.scenario == "depression":
        depression = simulate_depression(curve, epi)
    elif cfg.scenario == "all":
        try:
            depression = simulate_depression(curve, epi)
        except SimulationError as exc:
            # record the failed leg but keep the artifacts that exist
            error = str(exc)
            log.error("depression leg failed: %s", exc)

    legs = [("myopic", myopic), ("rational", rational), ("depression", depression)]
    series, plots = write_legs([leg for leg in legs if leg[1] is not None],
                               cfg.format, out)
    manifest = [path for pair in zip(series, plots) for path in pair]

    if cfg.scenario == "depression":
        timeline = build_timeline(depression, None, peak)
        verdicts = check_propositions(depression, None, timeline).claims
    else:
        timeline = build_timeline(myopic, rational, peak)
        verdicts = dict(check_propositions(myopic, rational, timeline).claims)
        if depression is not None:
            dep_claims = check_propositions(depression, None, None).claims
            for name, claim in dep_claims.items():
                verdicts[f"depression_{name}"] = claim
    manifest.append(write_timeline_json(timeline, verdicts, out / "timeline.json"))

    report = RunReport(
        config_echo=serialize_config(cfg),
        scenario=cfg.scenario,
        timeline=timeline,
        verdicts=verdicts,
        manifest=manifest,
        engine_version=__version__,
        duration_s=time.perf_counter() - started,
        error=error,
    )
    write_report(report, out / "report.json")

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
    scenarios = ("myopic",) if cfg.scenario == "myopic" else ("myopic", "rational")
    axes = cfg.sweep_axes() or default_sweep_axes()
    started = time.perf_counter()

    rows = parameter_sweep(cfg.epidemic_params(), cfg.supply_curve(), cfg.grid(),
                           axes=axes, scenarios=scenarios)
    manifest = [write_sweep_csv(rows, out / "sweep.csv")]
    summary = summarize_sweep(rows)
    summary_path = out / "sweep_summary.csv"
    summary_path.write_text(
        "metric,value\n"
        + "".join(f"{k},{v}\n" for k, v in summary.items()),
        encoding="utf-8",
    )
    manifest.append(str(summary_path))

    report = RunReport(
        config_echo=serialize_config(cfg),
        scenario=cfg.scenario,
        timeline=None,
        verdicts=None,
        manifest=manifest,
        engine_version=__version__,
        duration_s=time.perf_counter() - started,
    )
    write_report(report, out / "report.json")
    log.info("swept %d points (%d booms, %d errors)",
             summary["points"], summary["booms"], summary["errors"])
    return 0


def _cmd_verify(args) -> int:
    report = run_verification(args.out)
    for line in report.lines():
        log.info("%s", line)
    if report.ok:
        log.info("all %d checks passed", len(report.results))
        return 0
    failed = [r.criterion for r in report.results if not r.passed]
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
