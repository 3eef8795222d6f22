"""Nothing in the package lives for its tests alone.

Every module-level function and class in src/epimarket must be named, as
a Name or an Attribute, somewhere in the package's own code outside its
definition. A re-export in __init__.py is an import, which names nothing,
so it does not count as a use. The names the benchmark harness looks up
(benchmarks/tracing.py and benchmarks/workloads.py, read as
tests/test_bench_names.py reads them) are allowed until the benchmark
stops naming them.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from test_bench_names import COUNTED, SPANNED, _workload_names

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "epimarket"


def _spelled(node: ast.AST) -> Counter:
    """How often each name is spelled by a Name or Attribute node under node."""
    return Counter(here.id if isinstance(here, ast.Name) else here.attr
                   for here in ast.walk(node) if isinstance(here, (ast.Name, ast.Attribute)))


def unused_definitions(package: Path, allowed: set[tuple[str, str]]) -> list[str]:
    """module.name of each module-level function or class in package that
    no package code outside its own definition names, less allowed."""
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    everywhere = sum(map(_spelled, trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and (module, node.name) not in allowed
            and everywhere[node.name] == _spelled(node)[node.name]]


def test_every_definition_has_a_caller_in_the_package():
    allowed = set(SPANNED + COUNTED) | _workload_names()
    assert unused_definitions(PACKAGE, allowed) == []
