"""Every name the benchmark harness looks up in epimarket still resolves.

The tracer in benchmarks/tracing.py wraps each (module, function) pair it
lists through getattr, and benchmarks/workloads.py calls into the package
by name, so removing or renaming one of those names breaks benchmark runs
without failing any other test.
"""
from __future__ import annotations

import ast
import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
sys.path.insert(0, str(BENCH))

from tracing import COUNTED, SPANNED  # noqa: E402


def _workload_names() -> set[tuple[str, str]]:
    """(module, name) pairs workloads.py imports from epimarket or reads
    as attributes of the epimarket modules it imports."""
    tree = ast.parse((BENCH / "workloads.py").read_text(encoding="utf-8"))
    names: set[tuple[str, str]] = set()
    modules: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.module == "epimarket":
            modules.update(a.asname or a.name for a in node.names)
        elif (node.module or "").startswith("epimarket."):
            names.update((node.module[len("epimarket."):], a.name)
                         for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((node.value.id, node.attr))
    return names


def test_benchmark_names_resolve_in_the_package():
    used = _workload_names()
    assert {("numerics", "Grid"), ("output", "read_timeseries_csv"),
            ("epidemic", "EpidemicParams"), ("epidemic", "simulate_epidemic"),
            ("epidemic", "steady_state_recovered"),
            ("epidemic", "infection_peak"), ("cli", "main")} <= used
    missing = [f"{mod}.{name}" for mod, name in sorted(set(SPANNED + COUNTED) | used)
               if not hasattr(importlib.import_module(f"epimarket.{mod}"), name)]
    assert missing == []
