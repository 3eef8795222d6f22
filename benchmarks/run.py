"""epimarket benchmark: one command, every metric, output checks included.

    python3 benchmarks/run.py --workload {simulate,sweep,sir} --seed N
                              [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src/``.
Every pass runs in a fresh interpreter (``worker.py``), so nothing cached
in one pass reaches the next.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` is the median of
several fresh interpreters timed from spawn until their inputs are ready;
the rest come from one untraced timed pass, sweeps at one worker. At two
workers the sweep's thread pool hands the GIL between the two vCPUs, and
its time follows the host's scheduler more than the program; the pool is
timed by ``pool_speedup`` instead. ``--trace 1`` reports the
per-layer metrics from a traced pass (sweeps at one worker so every span
lands in-process) and compares it with an untraced pass on the same
inputs; on ``sweep`` it also times an untraced pass at two workers for
``analysis.parameter_sweep.pool_speedup``.

The timed pass reports its timings in reference seconds (see
``hostspeed.py``): raw seconds times NOMINAL_S over the mean time of a
fixed kernel run in the same interpreter between the timed calls. This
takes out the shared host's swings in speed; the raw timings and the
factor are printed as ``info raw`` lines. ``setup_s`` stays in raw
seconds: the kernel does not follow the cost of starting an interpreter.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files live under ``.bench_run/`` and are removed afterwards,
except the span dump of the last traced run of each workload.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import SPANNED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("simulate", "sweep", "sir")
SETUP_REPEATS = 15
SWEEP_WORKERS = 2  # the pool size that pool_speedup times against one worker
RUN_LIMIT_S = 170.0  # the whole run, children included, ends within this

# derived per-layer metric -> unit; the names are the benchmark's contract
DERIVED_UNITS = {
    "numerics.integrate_fixed_step.steps": "count",
    "numerics.integrate_fixed_step.us_per_step": "us",
    "numerics.rk4_step.calls": "count",
    "rational.solve_plateau.evals": "count",
    "rational.solve_plateau.evals_per_solve": "count",
    "analysis.parameter_sweep.points": "count",
    "analysis.parameter_sweep.refinements": "count",
    "analysis.parameter_sweep.errors": "count",
    "analysis.parameter_sweep.pool_speedup": "ratio",
    "output.write_timeseries.bytes": "bytes",
    "output.write_plot_dat.bytes": "bytes",
    "cli.main.exit_nonzero": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def _fail(what: str, code, err_path: Path) -> BenchError:
    tail = err_path.read_text(errors="replace").splitlines()[-20:]
    return BenchError(f"{what} failed (exit {code})\n" + "\n".join(tail))


def _child_cmd(mode: str, args, run_dir: Path, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), mode,
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--dir", str(run_dir), *extra]


def _time_left(args) -> float:
    return max(1.0, args.deadline - time.monotonic())


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def time_setup(args, run_dir: Path) -> float:
    """Seconds from spawning a fresh interpreter until its inputs are ready."""
    err_path = run_dir.with_suffix(".stderr")
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(_child_cmd("setup", args, run_dir),
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        started = time.perf_counter()
        watchdog = threading.Timer(_time_left(args), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - started
            proc.stdout.close()
            code = proc.wait(timeout=_time_left(args))
        finally:
            watchdog.cancel()
            _stop(proc)
    if line.strip() != b"ready" or code != 0:
        raise _fail("set-up child", code, err_path)
    return ready


def run_pass(args, run_dir: Path, workers: int, trace: bool) -> dict:
    extra = ["--workers", str(workers)] + (["--trace"] if trace else [])
    err_path = run_dir.with_suffix(".stderr")
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(_child_cmd("run", args, run_dir, *extra),
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        try:
            out, _ = proc.communicate(timeout=_time_left(args))
        finally:
            _stop(proc)
    if proc.returncode != 0:
        raise _fail("timed child", proc.returncode, err_path)
    return json.loads(out.decode().strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(args, scratch: Path) -> tuple[dict, list[dict], dict]:
    setups = [time_setup(args, scratch / f"setup-{k}") for k in range(SETUP_REPEATS)]
    res = run_pass(args, scratch / "timed", 1, trace=False)
    times, wall = res["point_times"], res["wall_s"]
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "point_p50_s": (statistics.median(times), "s", len(times)),
        "points_per_s": (res["points"] / wall, "1/s", res["points"]),
        "wall_s": (wall, "s", 1),
        "peak_rss_mb": (res["peak_rss_mb"], "MB", 1),
    }
    raw = {"point_p50_s": statistics.median(res["raw_point_times"]),
           "wall_s": res["raw_wall_s"],
           "host_factor": res["host_factor"]}
    return metrics, [res], raw


def per_layer(args, scratch: Path) -> tuple[dict, list[dict], dict]:
    plain = run_pass(args, scratch / "plain", 1, trace=False)
    traced = run_pass(args, scratch / "traced", 1, trace=True)
    passes = [plain, traced]
    speedup = 0.0  # reported as 0 where the workload runs no sweep
    if args.workload == "sweep":
        pooled = run_pass(args, scratch / "pooled", SWEEP_WORKERS, trace=False)
        passes.append(pooled)
        speedup = plain["wall_s"] / pooled["wall_s"]

    t = traced["trace"]
    f_traced = traced["host_factor"]  # self times in reference seconds
    metrics: dict = {}
    for mod, fn in SPANNED:
        name = f"{mod}.{fn}"
        metrics[f"{name}.calls"] = (t[f"{name}.calls"], "count", 1)
        metrics[f"{name}.self_s"] = (t[f"{name}.self_s"] * f_traced, "s", 1)
    steps = t.get("numerics.integrate_fixed_step.steps", 0)
    # it has no child spans, so its self time is its whole time
    inclusive = t["numerics.integrate_fixed_step.self_s"] * f_traced
    solves = t["rational.solve_plateau.calls"]
    evals = t.get("rational.solve_plateau.evals", 0)
    derived = {
        "numerics.integrate_fixed_step.steps": steps,
        "numerics.integrate_fixed_step.us_per_step": 1e6 * inclusive / steps if steps else 0.0,
        "numerics.rk4_step.calls": t.get("numerics.rk4_step.calls", 0),
        "rational.solve_plateau.evals": evals,
        "rational.solve_plateau.evals_per_solve": evals / solves if solves else 0.0,
        "analysis.parameter_sweep.points": t.get("analysis.parameter_sweep.points", 0),
        "analysis.parameter_sweep.refinements": t.get("analysis.parameter_sweep.refinements", 0),
        "analysis.parameter_sweep.errors": t.get("analysis.parameter_sweep.errors", 0),
        "analysis.parameter_sweep.pool_speedup": speedup,
        "output.write_timeseries.bytes": t.get("output.write_timeseries.bytes", 0),
        "output.write_plot_dat.bytes": t.get("output.write_plot_dat.bytes", 0),
        "cli.main.exit_nonzero": t.get("cli.main.exit_nonzero", 0),
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    }
    bases = {"rational.solve_plateau.evals_per_solve": solves,
             "numerics.integrate_fixed_step.us_per_step": steps}
    for name, value in derived.items():
        metrics[name] = (value, DERIVED_UNITS[name], bases.get(name, 1))
    raw = {f"{name}_wall_s": p["raw_wall_s"]
           for name, p in zip(("plain", "traced", "pooled"), passes)}
    return metrics, passes, raw


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "epimarket" / "__init__.py").is_file():
        print(f"no epimarket sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    base = ROOT / ".bench_run"
    scratch = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        collect = per_layer if args.trace else end_to_end
        metrics, passes, raw = collect(args, scratch)
        if args.trace:
            shutil.copyfile(scratch / "traced" / "trace.json",
                            base / f"trace-{args.workload}.json")
    except subprocess.TimeoutExpired:
        print(f"benchmark failed: not done within {RUN_LIMIT_S:g} s", file=sys.stderr)
        return 1
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}: {passes[0]['points']} points per pass")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name} = {value:.6g} {unit} (n={n})")
    print(f"  checks: {attempted - failed}/{attempted} passed, "
          f"fail_ratio = {failed / attempted:.6g}")
    for p in passes:
        for problem in p["problems"]:
            print(f"  FAILED {problem}")
    for key, value in passes[0]["info"].items():
        print(f"  info {key} = {value}")
    for key, value in raw.items():
        print(f"  info raw {key} = {value:.6g}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _n) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
