import ast
import glob
import os
import pkgutil
import re
import subprocess
import sys

import pytest

import twinrep

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
