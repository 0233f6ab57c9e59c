import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

from twinrep.cli import EXIT_ERROR, EXIT_OK, EXIT_REDUCIBLE, main
from twinrep.linalg import Matrix

EX = lambda v: "%s+0/1*i" % v  # exact literal shorthand for the tests


def run(argv, env_eps=None, monkeypatch=None):
    if env_eps is not None:
        monkeypatch.setenv("TWINREP_EPS", env_eps)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_gen_json_round_trip_bit_exact():
    code, out, _ = run(["gen", "--family", "1", "--n", "4",
                        "--a", EX("2/3"), "--b", EX("1/1"), "--k", "2"])
    assert code == EXIT_OK
    obj = json.loads(out)
    m = Matrix.from_json(obj["matrix"])
    code2, out2, _ = run(["gen", "--family", "1", "--n", "4",
                          "--a", EX("2/3"), "--b", EX("1/1"), "--k", "2"])
    m2 = Matrix.from_json(json.loads(out2)["matrix"])
    assert all(x.re == y.re and x.im == y.im
               for r1, r2 in zip(m.data, m2.data) for x, y in zip(r1, r2))
    assert obj["index"] == 2 and m.rows == 4


def test_gen_all():
    code, out, _ = run(["gen", "--family", "3", "--n", "5", "--all"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert len(obj["generators"]) == 4


def test_verify_ok_and_stderr():
    code, out, err = run(["verify", "--family", "2", "--n", "4",
                          "--sign", "-1", "--c", EX("3/2")])
    assert code == EXIT_OK
    assert json.loads(out)["ok"] is True
    assert "all relations hold" in err


def test_decide_exit_codes():
    base = ["decide", "--n", "4", "--b", EX("1/1")]
    code, out, _ = run(base + ["--a", EX("2/1")])
    assert code == EXIT_OK and json.loads(out)["status"] == "Irreducible"
    code, out, _ = run(base + ["--a", EX("1/1")])
    assert code == EXIT_REDUCIBLE and json.loads(out)["reason"] == "a=1"
    code, _, err = run(["decide", "--n", "4", "--a", EX("2/1"), "--b", EX("0/1")])
    assert code == EXIT_ERROR and "error:" in err


def test_decide_emit_witness():
    # negative literals need the --a=value form, or argparse eats the dash
    code, out, _ = run(["decide", "--n", "5", "--a=" + EX("-1/1"),
                        "--b", EX("2/1"), "--emit-witness"])
    assert code == EXIT_REDUCIBLE
    obj = json.loads(out)
    assert len(obj["witness"]) == 1
    assert Matrix.from_json(obj["witness"][0]).rows == 4


def test_decide_float_backend():
    code, out, _ = run(["decide", "--n", "4", "--a", "0.0+1.0i", "--b", "1.0+0.0i"])
    assert code == EXIT_REDUCIBLE
    assert json.loads(out)["reason"] == "root-of-P"


def test_roots_json_and_csv():
    code, out, _ = run(["roots", "--n", "4"])
    assert code == EXIT_OK
    obj = json.loads(out)
    assert len(obj["roots"]) == 2
    assert all(r["residual"] <= 1e-10 for r in obj["roots"])
    code, out, _ = run(["roots", "--n", "4", "--csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "n,re,im,residual"
    assert len(lines) == 3


def test_delta_modes():
    args = ["delta", "--n", "5", "--a", EX("0/1"), "--b", EX("1/1")]
    code, out, _ = run(args)
    obj = json.loads(out)
    assert code == EXIT_OK and obj["equal"] is True
    assert obj["closed"]["re"] == ["-5", "2"]
    code, out, _ = run(args + ["--mode", "closed"])
    assert "direct" not in json.loads(out)


def test_reduce_both_bases():
    for basis in ("std", "B"):
        code, out, _ = run(["reduce", "--n", "4", "--a", EX("2/1"),
                            "--b", EX("1/1"), "--basis", basis])
        assert code == EXIT_OK
        obj = json.loads(out)
        assert obj["basis"] == basis and len(obj["generators"]) == 3
        assert Matrix.from_json(obj["generators"][0]["matrix"]).rows == 3


def test_oracle_reduced_and_full():
    code, out, _ = run(["oracle", "--reduced", "--family", "1", "--n", "4",
                        "--a", EX("2/1"), "--b", EX("1/1")])
    obj = json.loads(out)
    assert code == EXIT_OK and obj["irreducible"] and obj["algebra_dim"] == 9
    code, out, _ = run(["oracle", "--family", "1", "--n", "3",
                        "--a", EX("2/1"), "--b", EX("1/1")])
    obj = json.loads(out)
    assert code == EXIT_REDUCIBLE and not obj["irreducible"]
    assert len(obj["eigenlines"]) >= 1  # the invariant vector line


def test_sweep_csv():
    code, out, _ = run(["sweep", "--n-min", "4", "--n-max", "5",
                        "--b", EX("1/1"),
                        "--a-list", "%s,%s" % (EX("2/1"), EX("1/1"))])
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,re_a,im_a,status,reason,abs_phat"
    assert len(lines) == 5
    assert "Reducible,a=1" in lines[2]


def test_sweep_grid_and_cap():
    code, out, _ = run(["sweep", "--n-min", "4", "--b", "1.0+0.0i",
                        "--re-min", "2.0", "--re-max", "3.0", "--re-steps", "3"])
    assert code == EXIT_OK and len(out.strip().splitlines()) == 4
    code, _, err = run(["sweep", "--n-min", "4", "--b", EX("1/1"),
                        "--re-steps", "10", "--im-steps", "10",
                        "--max-points", "5"])
    assert code == EXIT_ERROR and "cap" in err


def test_sweep_with_oracle_column():
    code, out, _ = run(["sweep", "--n-min", "4", "--b", EX("1/1"),
                        "--a-list", EX("2/1"), "--with-oracle"])
    lines = out.strip().splitlines()
    assert lines[0].endswith(",algebra_dim")
    assert lines[1].endswith(",9")


def test_env_eps_override(monkeypatch):
    # with a loose tolerance, 1 + 1e-6 is indistinguishable from a = 1
    code, out, _ = run(["decide", "--n", "4", "--a", "1.000001+0.0i",
                        "--b", "1.0+0.0i"], env_eps="1e-3",
                       monkeypatch=monkeypatch)
    assert code == EXIT_REDUCIBLE and json.loads(out)["reason"] == "a=1"
    monkeypatch.setenv("TWINREP_EPS", "not-a-number")
    code, _, err = run(["decide", "--n", "4", "--a", "1.0+0.0i",
                        "--b", "1.0+0.0i"])
    assert code == EXIT_ERROR and "TWINREP_EPS" in err
    # an infinite eps used to pass and then report "b must be nonzero"
    monkeypatch.setenv("TWINREP_EPS", "inf")
    code, _, err = run(["decide", "--n", "5", "--a", "2.0+0.0i",
                        "--b", "1.0+0.0i"])
    assert code == EXIT_ERROR and "invalid TWINREP_EPS" in err


def test_unset_env_eps_restores_default(monkeypatch):
    # a tolerance from TWINREP_EPS must not outlive its own call
    argv = ["decide", "--n", "5", "--a", "0.0+1e-6i", "--b", "1.0+0.0i"]
    reasons = []
    for env_eps in (None, "1e-3", None):
        if env_eps is None:
            monkeypatch.delenv("TWINREP_EPS", raising=False)
        code, out, _ = run(argv, env_eps, monkeypatch)
        assert code == EXIT_OK
        reasons.append(json.loads(out)["reason"])
    assert reasons == ["generic", "a=0", "generic"]


def test_closed_stdout_exits_quietly():
    # 14800 CSV rows overflow the pipe long before the sweep ends
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("TWINREP_EPS", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "twinrep.cli", "sweep", "--n-min", "4",
         "--n-max", "40", "--b", "1.0+0.0i", "--re-min", "0.5", "--re-max",
         "2", "--re-steps", "20", "--im-min", "0.5", "--im-max", "2",
         "--im-steps", "20"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"n,re_a,im_a")
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_ERROR
    assert "Traceback" not in err and "Exception ignored" not in err


def test_malformed_scalar_is_error_exit():
    code, _, err = run(["decide", "--n", "4", "--a", "2", "--b", EX("1/1")])
    assert code == EXIT_ERROR and "malformed" in err


def test_non_finite_scalar_is_error_exit():
    code, out, err = run(["decide", "--n", "4", "--a=1e999+0i",
                          "--b", "1.0+0.0i"])
    assert code == EXIT_ERROR and out == ""
    assert "non-finite scalar" in err


def test_backend_coercion_flag():
    code, out, _ = run(["gen", "--family", "1", "--n", "3", "--a", EX("1/2"),
                        "--b", EX("1/1"), "--k", "1", "--backend", "float"])
    assert code == EXIT_OK
    assert json.loads(out)["matrix"]["backend"] == "float"
    code, _, err = run(["gen", "--family", "1", "--n", "3", "--a", "0.5+0.0i",
                        "--b", EX("1/1"), "--k", "1", "--backend", "exact"])
    assert code == EXIT_ERROR
