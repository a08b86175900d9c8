"""Static checks on the package source: no unused module-level import (an
``__init__.py`` re-exports names, so it is exempt), no private function,
class or method that no module of the package reads, no import of a
package that pyproject.toml does not declare, and no module global that the
benchmark's span wrappers target gone missing beyond the known stale ones."""

import ast
import importlib.util
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TREES = {
    path.relative_to(ROOT): ast.parse(path.read_text(encoding="utf-8"), str(path))
    for path in sorted((ROOT / "src").rglob("*.py"))
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_the_source_is_found():
    assert pathlib.Path("src/bnmarg/engine.py") in TREES


def test_no_unused_module_level_imports():
    bad = []
    for path, tree in TREES.items():
        if path.name == "__init__.py":
            continue
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        bad.append(f"{path}:{node.lineno}: {name} is imported but never read")
    assert not bad, "\n".join(bad)


def test_every_private_helper_is_read():
    used = set()  # every name a module of the package reads, by name, attribute or import
    for tree in TREES.values():
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                used.update(alias.name for alias in n.names)
    bad = []
    for path, tree in TREES.items():
        defs = []  # module-level functions and classes, and the classes' methods
        for node in tree.body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                defs.append(node)
            if isinstance(node, ast.ClassDef):
                defs += [m for m in node.body if isinstance(m, FUNCTIONS)]
        for node in defs:
            if node.name.startswith("_") and not node.name.endswith("__") and node.name not in used:
                bad.append(f"{path}:{node.lineno}: {node.name} is private and no src/ module reads it")
    assert not bad, "\n".join(bad)


def test_every_import_is_declared():
    # the package may import only the standard library, itself and its declared dependencies
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as f:
        requirements = tomllib.load(f)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", r).group().lower().replace("-", "_") for r in requirements}
    allowed = set(sys.stdlib_module_names) | {"bnmarg"} | declared
    bad = []
    for path, tree in TREES.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.Import):
                tops = [alias.name.split(".")[0] for alias in n.names]
            elif isinstance(n, ast.ImportFrom) and n.level == 0:
                tops = [n.module.split(".")[0]]
            else:
                continue
            bad += [f"{path}:{n.lineno}: {top} is imported but pyproject.toml does not declare it" for top in tops if top not in allowed]
    assert not bad, "\n".join(bad)


def test_the_span_wrappers_miss_only_the_stale_targets():
    # a refactor that drops or renames a global the benchmark wraps would zero
    # its per-layer metric; only these four targets are known to be gone
    stale = {"sampling.relevant_subgraph", "decompose.subset_boundaries", "decompose.moralize", "junction.moralize"}
    name = "_bnmarg_bench_spans"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    sys.modules[name] = spans  # its dataclasses look their module up there
    try:
        spec.loader.exec_module(spans)
        tracer = spans.Tracer(spans.SpanRecorder())
        try:
            tracer.install()
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[name]
    assert set(tracer.absent) <= stale, tracer.absent
