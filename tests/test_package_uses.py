"""Nothing in the package lives for its tests alone.

Every module-level function and class in src/epimarket must be named, as
a Name or an Attribute, somewhere in the package's own code outside its
definition. A re-export in __init__.py is an import, which names nothing,
so it does not count as a use. The names the benchmark harness looks up
(benchmarks/tracing.py and benchmarks/workloads.py, read as
tests/test_bench_names.py reads them) are allowed until the benchmark
stops naming them.

The same holds for every member of those classes: each field (a class
annotation, or an attribute a method sets on self), method and property,
dunders aside, must be read by package code outside its own definition.
A read is an attribute load of that name, or a string constant equal to
it, as config.serialize_config and errors.require_finite read fields
through getattr. Allowed are the attribute names that the benchmark
harness (benchmarks/workloads.py and benchmarks/tracing.py) and the
README's library examples spell.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

from test_bench_names import BENCH, COUNTED, SPANNED, _workload_names
from test_readme import _library_blocks

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "epimarket"


def _spelled(node: ast.AST) -> Counter:
    """How often each name is spelled by a Name or Attribute node under node."""
    return Counter(here.id if isinstance(here, ast.Name) else here.attr
                   for here in ast.walk(node) if isinstance(here, (ast.Name, ast.Attribute)))


def _read(node: ast.AST) -> Counter:
    """How often each name is read under node: as an attribute load, or as a
    string constant of that text."""
    return Counter(
        here.attr if isinstance(here, ast.Attribute) else here.value
        for here in ast.walk(node)
        if isinstance(here, ast.Attribute) and isinstance(here.ctx, ast.Load)
        or isinstance(here, ast.Constant) and isinstance(here.value, str))


def _trees(package: Path) -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(package.glob("*.py"))}


def unused_definitions(package: Path, allowed: set[tuple[str, str]]) -> list[str]:
    """module.name of each module-level function or class in package that
    no package code outside its own definition names, less allowed."""
    trees = _trees(package)
    everywhere = sum(map(_spelled, trees.values()), Counter())
    return [f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and (module, node.name) not in allowed
            and everywhere[node.name] == _spelled(node)[node.name]]


def _members(cls: ast.ClassDef):
    """(name, defining node) of each field, method and property of cls."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
            for here in ast.walk(node):
                if (isinstance(here, ast.Attribute) and isinstance(here.ctx, ast.Store)
                        and isinstance(here.value, ast.Name) and here.value.id == "self"):
                    yield here.attr, here


def unread_members(package: Path, allowed: set[str]) -> list[str]:
    """module.Class.member of each member of a class in package, dunders
    aside, that no package code outside its own definition reads, less the
    member names in allowed."""
    trees = _trees(package)
    everywhere = sum(map(_read, trees.values()), Counter())
    return [f"{module}.{cls.name}.{name}" for module, tree in trees.items()
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for name, node in _members(cls)
            if not (name.startswith("__") and name.endswith("__"))
            and name not in allowed
            and everywhere[name] == _read(node)[name]]


def _attributes(source: str) -> set[str]:
    return {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}


def test_every_definition_has_a_caller_in_the_package():
    allowed = set(SPANNED + COUNTED) | _workload_names()
    assert unused_definitions(PACKAGE, allowed) == []


def test_every_member_is_read_in_the_package():
    allowed: set[str] = set()
    for name in ("workloads.py", "tracing.py"):
        allowed |= _attributes((BENCH / name).read_text(encoding="utf-8"))
    for block in _library_blocks():
        allowed |= _attributes(block)
    assert unread_members(PACKAGE, allowed) == []
