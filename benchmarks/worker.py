"""One fresh interpreter of the benchmark: set up, then optionally run a pass.

    python3 benchmarks/worker.py setup --workload W --seed N --seconds S --dir D
    python3 benchmarks/worker.py run   --workload W --seed N --seconds S --dir D
                                       [--workers K] [--trace]

``setup`` imports epimarket from ``src/``, writes the seeded inputs under D
and prints ``ready``; the parent times it from spawn to that line. ``run``
does the same set-up, one timed pass and its output checks, and prints
one JSON object, with timings in reference seconds (``hostspeed.py``) and
the raw ones beside them. Everything is written under D.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--dir", type=Path, required=True)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import epimarket
    import numpy
    import workloads

    inputs = workloads.generate(args.workload, args.seed, args.seconds,
                                args.dir / "inputs")
    if args.mode == "setup":
        print("ready", flush=True)
        return 0

    from hostspeed import HostClock

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(epimarket)
    clock = HostClock()
    res = workloads.run(args.workload, inputs, args.dir / "out", args.workers, clock)
    ref = clock.factor()
    res.info.update(nproc=os.cpu_count(), python=platform.python_version(),
                    numpy=numpy.__version__)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out = {
        "wall_s": res.wall_s * ref,
        "point_times": res.point_times,
        "points": res.points,
        "attempted": res.attempted,
        "failed": res.failed,
        "problems": res.problems,
        "info": res.info,
        "peak_rss_mb": rss_kb / 1024.0,
        "raw_wall_s": res.wall_s,
        "raw_point_times": res.raw_point_times,
        "host_factor": ref,
        "trace": None if tracer is None else tracer.summary(),
    }
    if tracer is not None:
        tracer.dump(args.dir / "trace.json")
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
