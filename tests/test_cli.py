import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from twinrep.cli import EXIT_ERROR, EXIT_OK, EXIT_REDUCIBLE, build_parser, main
from helpers import matrix_from_json

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
    m = matrix_from_json(obj["matrix"])
    code2, out2, _ = run(["gen", "--family", "1", "--n", "4",
                          "--a", EX("2/3"), "--b", EX("1/1"), "--k", "2"])
    m2 = matrix_from_json(json.loads(out2)["matrix"])
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
    assert matrix_from_json(obj["witness"][0]).rows == 4


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
        assert matrix_from_json(obj["generators"][0]["matrix"]).rows == 3


def test_reduce_rejects_what_the_reduction_rejects():
    # std: the reduced representation exists from n = 1 (with no generator);
    # B: the eigenbasis needs w, so n >= 3 and a != +-1
    def code(n, basis, a="2/1"):
        return run(["reduce", "--n", str(n), "--a=" + EX(a), "--b", EX("1/1"),
                    "--basis", basis])[0]
    assert [code(n, "std") for n in (0, 1, 2)] == [EXIT_ERROR, EXIT_OK, EXIT_OK]
    assert [code(n, "B") for n in (0, 1, 2, 3)] == [EXIT_ERROR] * 3 + [EXIT_OK]
    assert code(4, "B", "1/1") == code(4, "B", "-1/1") == EXIT_ERROR
    code_b0, _, err = run(["reduce", "--n", "1", "--a", EX("2/1"),
                           "--b", EX("0/1")])
    assert code_b0 == EXIT_ERROR and "b must be nonzero" in err


def test_gen_and_reduce_refuse_family1_parameters_alike():
    # one check of a family-1 (a, b), one message, for the full and the
    # reduced representation
    for a, b, message in ((EX("2/1"), EX("0/1"), "b must be nonzero"),
                          ("2.0+0.0i", "0.0+0.0i", "b must be nonzero"),
                          (EX("2/1"), "1.0+0.0i",
                           "a and b must share a backend")):
        params = ["--n", "4", "--a", a, "--b", b]
        outcomes = [run(["gen", "--family", "1", "--k", "1"] + params),
                    run(["verify", "--family", "1"] + params),
                    run(["reduce"] + params)]
        assert outcomes == [(EXIT_ERROR, "", "error: %s\n" % message)] * 3, b


def test_tiny_float_b_is_accepted_by_decide_and_sweep():
    # b = -1e-150 i has a nonzero squared modulus, so it divides
    tiny = "0.0-1e-150i"
    code, out, _ = run(["decide", "--n", "5", "--a", "2.0+0.0i", "--b", tiny])
    assert code == EXIT_OK and json.loads(out)["reason"] == "generic"
    code, out, _ = run(["sweep", "--n-min", "4", "--n-max", "5", "--b", tiny,
                        "--a-list", "2.0+0.0i"])
    assert code == EXIT_OK and len(out.splitlines()) == 3
    code, out, err = run(["sweep", "--n-min", "4", "--b", "0.0-1e-170i",
                          "--a-list", "2.0+0.0i"])
    assert code == EXIT_ERROR and out == "" and "b must be nonzero" in err


def test_a_eq_1_decides_when_powers_of_b_underflow():
    # at a = 1 every s_1 entry (a-1)^j/(-b)^(j-1) has the numerator 0; from
    # j = 17 on |b^(j-1)|^2 underflows, and such an entry is 0, not a
    # division by a zero scalar.  a = -1 still divides by powers of b.
    args = ["decide", "--n", "19", "--b", "1e-10+0.0i"]
    code, out, _ = run(args + ["--a=1.0+0.0i"])
    assert code == EXIT_REDUCIBLE and json.loads(out)["reason"] == "a=1"
    code, out, err = run(args + ["--a=-1.0+0.0i"])
    assert code == EXIT_ERROR and out == ""
    assert "division by float zero scalar" in err


def test_reduce_basis_b_does_not_need_w():
    # w_1 divides by (1-a)^(n-1) = -1e-10, which the float zero test calls 0;
    # no S_j divides by it, so the S matrices are emitted
    code, out, _ = run(["reduce", "--n", "6", "--a", "1.01+0.0i",
                        "--b", "1.0+0.0i", "--basis", "B"])
    assert code == EXIT_OK and len(json.loads(out)["generators"]) == 5


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


def test_sweep_exact_point_beyond_float_range():
    # |P| overflows a float at a = 10^200: the row reads Irreducible/generic
    code, out, _ = run(["sweep", "--n-min", "5", "--n-max", "8",
                        "--b", EX("1/1"), "--a-list", EX("%d/1" % 10 ** 200)])
    assert code == EXIT_OK
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 4
    assert all(",Irreducible,generic," in line for line in rows)
    # the overflowing Horner sum used to print nan for n = 5..8
    assert all(line.rsplit(",", 1)[1] == "inf" for line in rows)


def test_decide_exact_a_beyond_float_range_prints_null():
    # |P| overflows a float: it prints null, not the non-JSON Infinity
    code, out, _ = run(["decide", "--n", "5", "--a", EX("%d/1" % 10 ** 400),
                        "--b", EX("1/1")])
    assert code == EXIT_OK
    assert json.loads(out)["diagnostics"] == {"abs_P": None}


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


def _help(parse, argv):
    """The exit code and stdout of parse(argv) for a --help argv."""
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, out.getvalue()


def test_cached_parser_is_reused_safely(monkeypatch):
    # the parser is built once per process; no call may leave a mark on it
    monkeypatch.delenv("TWINREP_EPS", raising=False)
    bad = ["decide", "--n", "four", "--a", EX("2/1"), "--b", EX("1/1")]
    good = ["decide", "--n", "5", "--a", EX("2/1"), "--b", EX("1/1")]

    def error_then_decide():
        err = io.StringIO()
        with redirect_stderr(err), pytest.raises(SystemExit) as exc:
            main(bad)
        return exc.value.code, err.getvalue(), run(good)

    build_parser.cache_clear()
    fresh = error_then_decide()
    assert fresh[0] == 2 and "invalid int value" in fresh[1]
    run(["sweep", "--n-min", "4", "--b", "1.0+0.0i", "--re-steps", "2"])
    assert error_then_decide() == fresh
    assert build_parser() is build_parser()
    # --help reads COLUMNS when it prints, not when the parser was built
    monkeypatch.setenv("COLUMNS", "200")
    build_parser.cache_clear()
    build_parser()
    helps = {}
    for columns in ("60", "120"):
        monkeypatch.setenv("COLUMNS", columns)
        for argv in (["--help"], ["sweep", "--help"]):
            helps[columns, argv[0]] = _help(main, argv)
            assert helps[columns, argv[0]] == _help(
                build_parser.__wrapped__().parse_args, argv)
    assert helps["60", "sweep"] != helps["120", "sweep"]
