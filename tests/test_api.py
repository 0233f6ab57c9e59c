import ast
import glob
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import twinrep
import twinrep.cli  # the benchmark tracer patches cli.main
from twinrep import irreducibility, oracle, reduction
from twinrep.scalars import ex, fl

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Import one module by name as the first of the package in a fresh
# interpreter.  A bare package object stands in for twinrep, so the
# package's __init__, which every plain import runs first, does not fix the
# order: the module's own imports do.
_IMPORT_FIRST = """
import sys, types
pkg = types.ModuleType("twinrep")
pkg.__path__ = [sys.argv[2]]
sys.modules["twinrep"] = pkg
__import__("twinrep." + sys.argv[1])
"""


def test_all_names_resolve():
    missing = [name for name in twinrep.__all__ if not hasattr(twinrep, name)]
    assert missing == []


def test_all_names_are_documented():
    path = os.path.join(_ROOT, "README.md")
    with open(path, encoding="utf-8") as fh:
        readme = fh.read()
    missing = [name for name in twinrep.__all__
               if not re.search(r"\b%s\b" % re.escape(name), readme)]
    assert missing == []


@pytest.mark.parametrize("module", sorted(
    m.name for m in pkgutil.iter_modules(twinrep.__path__)))
def test_each_module_imports_first(module):
    # the imports among the modules stay acyclic in any order
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_FIRST, module, twinrep.__path__[0]],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _unused_imports(path):
    """The names a module imports and never reads, with their lines.  A
    name counts as read when it appears as a bare name anywhere in the
    module, or is listed in `__all__`; `from __future__` is skipped."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    paths = sorted(glob.glob(os.path.join(twinrep.__path__[0], "*.py"))
                   + glob.glob(os.path.join(_ROOT, "tests", "**", "*.py"),
                               recursive=True))
    assert len(paths) > 20
    unused = {os.path.relpath(p, _ROOT): found for p in paths
              if (found := _unused_imports(p))}
    assert unused == {}


def test_package_imports_only_the_stdlib():
    # every absolute import in the package names a standard-library module
    # (relative imports are the package's own)
    found = {}
    for path in sorted(glob.glob(os.path.join(twinrep.__path__[0], "*.py"))):
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], []).append(
                    "%s:%d" % (os.path.basename(path), node.lineno))
    assert "fractions" in found
    assert {name: where for name, where in found.items()
            if name not in sys.stdlib_module_names} == {}


def test_bench_tracer_still_installs():
    # the per-layer benchmark patches names of the package and reads
    # ClosureResult.rank_gap; it must still install, trace every detector,
    # and report exactly the per-layer metrics BENCHMARK.json declares
    # (bench/worker.py adds the last two)
    spec = importlib.util.spec_from_file_location(
        "bench_tracer", os.path.join(_ROOT, "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    spans = tracer.Tracer()
    spans.install()
    try:
        irreducibility.decide(4, ex(0, 1), ex(1))
        irreducibility.roots_of_P(5)
        images = reduction.reduced_generators(4, fl(0.0, 1.0), fl(1.0))
        oracle.algebra_closure(images)
        oracle.common_eigenlines(images)
    finally:
        spans.uninstall()
    metrics = spans.layer_metrics()
    assert metrics["oracle.algebra_closure.calls"] == 1
    assert metrics["oracle.common_eigenlines.calls"] == 1
    assert metrics["irreducibility.decide.reason.root-of-P"] == 1
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(metrics) | {"scalars.Scalar.constructions",
                           "trace.overhead_ratio"} == declared
    # the Scalar count wraps `Scalar.__init__`: every Scalar of a float
    # root witness, w's n - 1 entries and the chain's 3, must pass there
    root, counter = irreducibility.roots_of_P(8)[2], tracer.ScalarCounter()
    counter.install()
    try:
        verdict = irreducibility.decide(8, root, fl(1.0))
    finally:
        counter.uninstall()
    distinct = {id(x) for v in verdict.witness.basis
                for x in v.column_entries()}
    assert len(distinct) == 8 - 1 + 3 and counter.count >= len(distinct)
