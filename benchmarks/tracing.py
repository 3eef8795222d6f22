"""Span tracing of epimarket's public functions, installed from outside.

The tracer replaces each listed function at every module-level binding of
its name inside the ``epimarket`` package (modules import by name, so
``analysis.simulate_myopic`` and ``cli.simulate_myopic`` are both bindings)
with a wrapper that records a span: name, start, end, parent span and
thread. Parents are tracked per thread. ``rk4_step`` runs about a million
times a run, so it gets a call counter only.

Spans stay in memory until the run ends and are then written out whole.
Work counts come from arguments and return values, never from timers.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict

# (module, function) pairs that get a span; the layer names of the benchmark
SPANNED = (
    ("numerics", "integrate_fixed_step"),
    ("numerics", "find_root_bracketed"),
    ("epidemic", "simulate_epidemic"),
    ("epidemic", "steady_state_recovered"),
    ("epidemic", "infection_peak"),
    ("market", "simulate_myopic"),
    ("market", "simulate_depression"),
    ("rational", "solve_plateau"),
    ("rational", "simulate_re_given_t1"),
    ("rational", "re_price_path"),
    ("analysis", "parameter_sweep"),
    ("analysis", "check_propositions"),
    ("analysis", "build_timeline"),
    ("output", "write_timeseries"),
    ("output", "write_plot_dat"),
    ("output", "write_timeline_json"),
    ("output", "write_report"),
    ("output", "write_sweep_csv"),
    ("config", "parse_config"),
    ("cli", "main"),
)
COUNTED = (("numerics", "rk4_step"),)


def _work(name: str, args, kwargs, result) -> dict[str, int]:
    """Work counts of one call, taken from its arguments and return value."""
    if name == "numerics.integrate_fixed_step":
        grid = args[2] if len(args) > 2 else kwargs["grid"]
        return {"steps": grid.n_steps}
    if name == "rational.solve_plateau":
        return {"evals": result.iterations}
    if name == "analysis.parameter_sweep":
        return {
            "points": len(result),
            "refinements": sum(r.refinements for r in result),
            "errors": sum(r.error is not None for r in result),
        }
    if name in ("output.write_timeseries", "output.write_plot_dat"):
        return {"bytes": os.path.getsize(result)}
    if name == "cli.main":
        return {"exit_nonzero": int(result != 0)}
    return {}


class Tracer:
    """Records spans and counts for one traced run of the program."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, thread, start, end)
        self.counts: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every listed function at each of its module-level bindings.

        The wrappers stay for the life of the process, which ends with the run.
        """
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        targets = [(mod, fn, True) for mod, fn in SPANNED]
        targets += [(mod, fn, False) for mod, fn in COUNTED]
        for mod_name, fn_name, spanned in targets:
            original = getattr(sys.modules[f"{package.__name__}.{mod_name}"], fn_name)
            label = f"{mod_name}.{fn_name}"
            wrapper = (self._span_wrapper(label, original) if spanned
                       else self._count_wrapper(label, original))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span_wrapper(self, label: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append((span_id, parent, label,
                                       threading.get_ident(), start, end))
            with self._lock:
                for key, value in _work(label, args, kwargs, result).items():
                    counts[f"{label}.{key}"] += value
            return result

        return wrapper

    def _count_wrapper(self, label: str, fn):
        counts = self.counts
        key = f"{label}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """calls and self_s per spanned function, plus the work counts.

        Self time is a span's duration minus the time covered by its direct
        children; children of one span run in its thread, one after another.
        """
        child_time: dict[int, float] = defaultdict(float)
        for _sid, parent, _name, _tid, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for mod, fn in SPANNED:
            out[f"{mod}.{fn}.calls"] = 0
            out[f"{mod}.{fn}.self_s"] = 0.0
        for sid, _parent, name, _tid, start, end in self.spans:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += (end - start) - child_time[sid]
        out.update(self.counts)
        return out

    def dump(self, path) -> None:
        """Write every span and count as JSON; times are seconds."""
        t0 = min((s[4] for s in self.spans), default=0.0)
        payload = {
            "spans": [{"id": sid, "parent": parent, "name": name, "thread": tid,
                       "start": start - t0, "end": end - t0}
                      for sid, parent, name, tid, start, end in self.spans],
            "counts": dict(self.counts),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
            fh.write("\n")
