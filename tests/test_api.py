import os
import pkgutil
import re
import subprocess
import sys

import pytest

import twinrep

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
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "README.md")
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
