"""Replay the golden CLI outputs in tests/golden/ (written by
tests/golden/generate.py) and compare stdout, stderr and exit code byte for
byte."""

import glob
import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest

from twinrep.cli import main

GOLDEN = sorted(glob.glob(os.path.join(os.path.dirname(
    os.path.abspath(__file__)), "golden", "*.json")))


def test_golden_set_is_present():
    assert len(GOLDEN) >= 40


@pytest.mark.parametrize("path", GOLDEN,
                         ids=[os.path.basename(p)[:-5] for p in GOLDEN])
def test_golden_cli_output(path, monkeypatch):
    with open(path, encoding="utf-8") as fh:
        case = json.load(fh)
    if case["eps"] is None:
        monkeypatch.delenv("TWINREP_EPS", raising=False)
    else:
        monkeypatch.setenv("TWINREP_EPS", case["eps"])
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(case["argv"])
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
    assert err.getvalue() == case["stderr"]


def _reject_constant(name):
    raise ValueError("non-standard JSON constant %s" % name)


def test_golden_json_stdout_is_strict():
    # every JSON line the CLI prints is RFC 8259 JSON: no NaN or Infinity
    for path in GOLDEN:
        with open(path, encoding="utf-8") as fh:
            case = json.load(fh)
        if case["argv"][0] == "sweep" or "--csv" in case["argv"]:
            continue  # CSV output
        for line in case["stdout"].splitlines():
            json.loads(line, parse_constant=_reject_constant)
