"""Write the golden CLI outputs that `tests/test_golden.py` replays.

Each case runs one `twinrep` command in process through `cli.main` and is
stored as `<name>.json`: the argv, the TWINREP_EPS value (null = unset), the
exit code, stdout and stderr.  A deliberate change to CLI output reruns this
script and names the changed files in CHANGES.md:

    PYTHONPATH=src python tests/golden/generate.py

argparse usage errors are left out, since their wording differs between
Python versions.
"""

import io
import json
import math
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))

EX = lambda v: "%s+0/1*i" % v  # exact real literal
F1 = ["--family", "1"]


def float_root(n, k):
    """The criterion root i tan(pi k/n), as a float literal."""
    return "0.0+%ri" % math.tan(math.pi * k / n)


# (name, argv); every case runs with TWINREP_EPS unset
DEFAULT_CASES = [
    ("gen_f1_exact_k2", ["gen", *F1, "--n", "4", "--a", EX("2/3"),
                         "--b", EX("1/1"), "--k", "2"]),
    ("gen_f2_exact_all", ["gen", "--family", "2", "--n", "4", "--sign", "-1",
                          "--c", EX("3/2"), "--all"]),
    ("gen_f3_float_all", ["gen", "--family", "3", "--n", "5", "--all",
                          "--backend", "float"]),
    ("gen_missing_k", ["gen", *F1, "--n", "4", "--a", EX("2/1"),
                       "--b", EX("1/1")]),
    ("verify_f2_exact", ["verify", "--family", "2", "--n", "5", "--sign", "-1",
                         "--c", EX("3/2")]),
    ("verify_f1_float", ["verify", *F1, "--n", "5", "--a", "0.5-0.25i",
                         "--b", "2.0+0.5i"]),
    ("reduce_std_exact", ["reduce", "--n", "5", "--a", "2/1+1/1*i",
                          "--b", EX("1/2")]),
    ("reduce_b_float", ["reduce", "--n", "5", "--a", "0.5-0.25i",
                        "--b", "2.0+0.5i", "--basis", "B"]),
    ("delta_both_exact", ["delta", "--n", "6", "--a", "3/2+1/2*i",
                          "--b", EX("2/1")]),
    ("delta_both_float", ["delta", "--n", "6", "--a", "0.5-0.25i",
                          "--b", "2.0+0.5i"]),
    ("delta_direct_exact_a0", ["delta", "--n", "5", "--a", EX("0/1"),
                               "--b", EX("3/1"), "--mode", "direct"]),
    ("decide_exact_generic", ["decide", "--n", "4", "--a", EX("2/1"),
                              "--b", EX("1/1")]),
    ("decide_exact_a1", ["decide", "--n", "5", "--a", EX("1/1"),
                         "--b", EX("2/1"), "--emit-witness"]),
    ("decide_exact_am1", ["decide", "--n", "6", "--a=" + EX("-1/1"),
                          "--b", EX("3/2"), "--emit-witness"]),
    ("decide_exact_a0", ["decide", "--n", "5", "--a", EX("0/1"),
                         "--b", EX("3/1")]),
    ("decide_exact_i_n8", ["decide", "--n", "8", "--a", "0/1+1/1*i",
                           "--b", EX("1/1"), "--emit-witness"]),
    ("decide_exact_t3", ["decide", "--n", "3", "--a", EX("2/1"),
                         "--b", EX("1/1")]),
    ("decide_exact_huge_a", ["decide", "--n", "5",
                             "--a", EX("%d/1" % 10 ** 200), "--b", EX("1/1")]),
    ("decide_float_t3_special", ["decide", "--n", "3",
                                 "--a", "0.0+%ri" % math.sqrt(3.0),
                                 "--b", "1.0+0.0i", "--emit-witness"]),
    ("decide_float_root_n6", ["decide", "--n", "6", "--a", float_root(6, 2),
                              "--b", "1.0+0.0i", "--emit-witness"]),
    ("decide_float_root_n11", ["decide", "--n", "11", "--a", float_root(11, 5),
                               "--b", "1.0+0.0i", "--emit-witness"]),
    ("decide_float_generic", ["decide", "--n", "7", "--a", "0.3+0.4i",
                              "--b", "1.0-2.0i"]),
    ("decide_float_near_one", ["decide", "--n", "4", "--a", "1.000001+0.0i",
                               "--b", "1.0+0.0i"]),
    # the reduced images divide by (-b)^5 = -1e-10, within eps of zero
    ("decide_float_am1_small_b", ["decide", "--n", "7", "--a=-1.0+0.0i",
                                  "--b", "0.01+0.0i"]),
    ("decide_coerced_float", ["decide", "--n", "5", "--a", EX("2/1"),
                              "--b", EX("1/1"), "--backend", "float"]),
    ("decide_b_zero", ["decide", "--n", "4", "--a", EX("2/1"),
                       "--b", EX("0/1")]),
    ("decide_non_finite", ["decide", "--n", "5", "--a", "1e999+0i",
                           "--b", "1.0+0.0i"]),
    ("roots_json_n6", ["roots", "--n", "6"]),
    ("roots_csv_n13", ["roots", "--n", "13", "--csv"]),
    ("oracle_reduced_exact_am1", ["oracle", *F1, "--n", "4", "--a=" + EX("-1/1"),
                                  "--b", EX("2/1"), "--reduced"]),
    ("oracle_reduced_exact_generic", ["oracle", *F1, "--n", "4",
                                      "--a", EX("2/1"), "--b", EX("1/1"),
                                      "--reduced"]),
    # float a = -1 at n = 7: the float closure gives 21, not the 36 that a
    # closure mod p of the images' binary values gives
    ("oracle_reduced_float_am1_n7", ["oracle", "--reduced", *F1, "--n", "7",
                                     "--a=-1.0+0.0i", "--b",
                                     "1.3333333333333333+0.6666666666666666i"]),
    ("oracle_full_f1_float", ["oracle", *F1, "--n", "5", "--a", "0.5-0.25i",
                              "--b", "2.0+0.5i"]),
    ("oracle_f2_reduced_error", ["oracle", "--family", "2", "--n", "4",
                                 "--c", EX("3/2"), "--reduced"]),
    ("sweep_exact_list", ["sweep", "--n-min", "4", "--n-max", "5",
                          "--b", EX("1/1"),
                          "--a-list", "%s,%s" % (EX("2/1"), EX("1/1"))]),
    ("sweep_float_grid", ["sweep", "--n-min", "3", "--n-max", "6",
                          "--b", "1.0+0.0i", "--re-min", "-1.5", "--re-max",
                          "1.5", "--re-steps", "4", "--im-min", "-1.0",
                          "--im-max", "1.0", "--im-steps", "3"]),
    ("sweep_with_oracle", ["sweep", "--n-min", "4", "--n-max", "5",
                           "--b", EX("2/1"), "--a-list",
                           "%s,%s,0/1+1/1*i" % (EX("2/1"), EX("-1/1")),
                           "--with-oracle"]),
    ("sweep_over_cap", ["sweep", "--n-min", "4", "--b", EX("1/1"),
                        "--re-steps", "10", "--im-steps", "10",
                        "--max-points", "5"]),
    # a bad grid exits 2 before the CSV header is written
    ("sweep_n_min_2", ["sweep", "--n-min", "2", "--b", "1.0+0.0i",
                       "--a-list", "2.0+0.0i"]),
    ("sweep_b_zero", ["sweep", "--n-min", "4", "--b", "0.0+0.0i",
                      "--a-list", "2.0+0.0i"]),
    ("sweep_negative_steps", ["sweep", "--n-min", "4", "--b", "1.0+0.0i",
                              "--re-steps", "-3"]),
    ("sweep_n_max_below_min", ["sweep", "--n-min", "5", "--n-max", "4",
                               "--b", "1.0+0.0i", "--a-list", "2.0+0.0i"]),
    ("sweep_empty_a_list", ["sweep", "--n-min", "4", "--b", "1.0+0.0i",
                            "--a-list", ","]),
    ("sweep_exact_a_beyond_float", ["sweep", "--n-min", "5", "--b", EX("1/1"),
                                    "--a-list", "%s,%s" % (
                                        EX("2/1"), EX("%d/1" % 10 ** 400))]),
]

# the float cases again under a loose tolerance, plus the invalid ones
EPS_CASES = [(name, "1e-6") for name in (
    "verify_f1_float", "delta_both_float", "decide_float_t3_special",
    "decide_float_root_n6", "decide_float_generic", "decide_float_near_one",
    "decide_coerced_float", "oracle_full_f1_float", "sweep_float_grid")]
EPS_CASES += [("decide_float_generic", "inf"),
              ("decide_float_generic", "not-a-number")]


def run_case(argv, eps):
    """Exit code, stdout and stderr of `twinrep argv` under TWINREP_EPS=eps
    (None: unset)."""
    from twinrep.cli import main
    saved = os.environ.pop("TWINREP_EPS", None)
    if eps is not None:
        os.environ["TWINREP_EPS"] = eps
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        os.environ.pop("TWINREP_EPS", None)
        if saved is not None:
            os.environ["TWINREP_EPS"] = saved
    return code, out.getvalue(), err.getvalue()


def all_cases():
    """(file stem, argv, eps) for every golden case."""
    argv_of = dict(DEFAULT_CASES)
    cases = [(name, argv, None) for name, argv in DEFAULT_CASES]
    for name, eps in EPS_CASES:
        tag = {"1e-6": "eps1e-6", "inf": "eps_inf"}.get(eps, "eps_invalid")
        cases.append(("%s__%s" % (name, tag), argv_of[name], eps))
    return cases


def main():
    for stem, argv, eps in all_cases():
        code, out, err = run_case(argv, eps)
        record = {"argv": argv, "eps": eps, "exit": code,
                  "stdout": out, "stderr": err}
        with open(os.path.join(HERE, stem + ".json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("%-45s exit %d" % (stem, code), file=sys.stderr)


if __name__ == "__main__":
    main()
