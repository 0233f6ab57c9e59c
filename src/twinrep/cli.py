"""Command-line entry point.

Subcommands: gen, verify, reduce, delta, decide, roots, oracle, sweep.
JSON goes to stdout, diagnostics to stderr.  Exit codes: 0 irreducible /
success, 10 reducible, 2 error.  Every call installs the float tolerance
from TWINREP_EPS, or the default when it is unset.  A stdout closed early
(`twinrep sweep ... | head`) ends the call quietly with exit code 2.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .scalars import (DEFAULT_EPS, ScalarError, Scalar, scalar_parse,
                      set_default_eps)
from .reps import (ParameterError, RepSpec, build_all_generators,
                   build_generator, verify_relations)
from .reduction import build_S, reduced_generators
from .chains import delta as delta_closed, delta_direct
from .irreducibility import (cleared_poly, decide, roots_of_P,
                             root_residual)
from .oracle import algebra_closure, common_eigenlines

EXIT_OK = 0
EXIT_REDUCIBLE = 10
EXIT_ERROR = 2


def _scalar_arg(text, backend=None):
    s = scalar_parse(text)
    if backend == "float":
        return s.to_float()
    if backend == "exact" and not s.exact:
        raise ScalarError("%r is not an exact scalar literal" % text)
    return s


def _spec_from_args(args, backend=None):
    kwargs = {"family": args.family, "n": args.n}
    if args.family == 1:
        if args.a is None or args.b is None:
            raise ScalarError("family 1 needs --a and --b")
        kwargs["a"] = _scalar_arg(args.a, backend)
        kwargs["b"] = _scalar_arg(args.b, backend)
    else:
        if args.family == 2:
            if args.c is not None:
                kwargs["c"] = _scalar_arg(args.c, backend)
            kwargs["sign"] = args.sign
        if backend == "float":
            kwargs["exact"] = False
    return RepSpec(**kwargs)


def _emit(obj):
    """One line of JSON (RFC 8259): a non-finite float raises ValueError."""
    sys.stdout.write(json.dumps(obj, allow_nan=False) + "\n")


def _add_family_flags(p, family_required=True):
    p.add_argument("--family", type=int, required=family_required, choices=(1, 2, 3))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--c")
    p.add_argument("--sign", type=int, default=1, choices=(1, -1))
    p.add_argument("--backend", choices=("exact", "float"))


def _cmd_gen(args):
    spec = _spec_from_args(args, args.backend)
    if args.all:
        out = {"n": spec.n, "family": spec.family,
               "generators": [{"index": g.index, "matrix": g.matrix.to_json()}
                              for g in build_all_generators(spec)]}
    else:
        if args.k is None:
            raise ScalarError("gen needs --k or --all")
        g = build_generator(spec, args.k)
        out = {"index": g.index, "matrix": g.matrix.to_json()}
    _emit(out)
    return EXIT_OK


def _cmd_verify(args):
    spec = _spec_from_args(args, args.backend)
    failures = verify_relations(build_all_generators(spec))
    _emit({"ok": not failures, "failures": failures})
    if failures:
        print("relation check failed: %s" % "; ".join(failures), file=sys.stderr)
        return EXIT_ERROR
    print("all relations hold", file=sys.stderr)
    return EXIT_OK


def _cmd_reduce(args):
    a = _scalar_arg(args.a, args.backend)
    b = _scalar_arg(args.b, args.backend)
    if args.basis == "B":
        # S_1 at least, so that build_S rejects n < 3 as it rejects a = +-1
        mats = [build_S(args.n, a, b, j) for j in range(1, max(args.n, 2))]
    else:
        mats = [g.matrix for g in reduced_generators(args.n, a, b)]
    gens = [{"index": j, "matrix": m.to_json()} for j, m in enumerate(mats, 1)]
    _emit({"n": args.n, "basis": args.basis, "generators": gens})
    return EXIT_OK


def _cmd_delta(args):
    a = _scalar_arg(args.a, args.backend)
    b = _scalar_arg(args.b, args.backend)
    out = {"n": args.n}
    if args.mode in ("closed", "both"):
        closed = delta_closed(args.n, a, b)
        out["closed"] = closed.to_json()
    if args.mode in ("direct", "both"):
        direct = delta_direct(args.n, a, b)
        out["direct"] = direct.to_json()
    if args.mode == "both":
        out["equal"] = bool(closed.eq(direct))
    _emit(out)
    return EXIT_OK


def _cmd_decide(args):
    a = _scalar_arg(args.a, args.backend)
    b = _scalar_arg(args.b, args.backend)
    verdict = decide(args.n, a, b)
    diag = dict(verdict.diagnostics)
    if not math.isfinite(diag.get("abs_P", 0.0)):
        diag["abs_P"] = None  # an exact |P| beyond float range
    out = {"status": verdict.status, "reason": verdict.reason,
           "diagnostics": diag}
    if args.emit_witness and verdict.witness is not None:
        out["witness"] = [v.to_json() for v in verdict.witness.basis]
    _emit(out)
    return EXIT_REDUCIBLE if verdict.reducible else EXIT_OK


def _cmd_roots(args):
    roots = roots_of_P(args.n)
    if args.csv:
        sys.stdout.write("n,re,im,residual\n")
        for r in roots:
            sys.stdout.write("%d,%r,%r,%.3e\n"
                             % (args.n, r.re, r.im, root_residual(args.n, r)))
    else:
        _emit({"n": args.n,
               "roots": [{"re": r.re, "im": r.im,
                          "residual": root_residual(args.n, r)}
                         for r in roots]})
    return EXIT_OK


def _cmd_oracle(args):
    if args.reduced:
        if args.family != 1:
            raise ScalarError("--reduced applies to family 1 only")
        a = _scalar_arg(args.a, args.backend)
        b = _scalar_arg(args.b, args.backend)
        images = reduced_generators(args.n, a, b)
        d = args.n - 1
    else:
        spec = _spec_from_args(args, args.backend)
        images = build_all_generators(spec)
        d = args.n
    result = algebra_closure(images)
    lines = common_eigenlines(images)
    irr = result.dim == d * d
    _emit({"algebra_dim": result.dim, "full_dim": d * d, "irreducible": irr,
           "eigenlines": [l.basis[0].to_json() for l in lines]})
    return EXIT_OK if irr else EXIT_REDUCIBLE


def _steps(lo, hi, k):
    """k evenly spaced values from lo to hi; lo alone when k is 1."""
    return [lo] if k == 1 else [lo + (hi - lo) * i / (k - 1) for i in range(k)]


def _grid_points(args, n_count):
    """The sweep's a values, once the grid is known to be nonempty and to
    hold at most --max-points points over its n_count values of n."""
    if args.a_list is not None:
        points = [scalar_parse(t) for t in args.a_list.split(",") if t.strip()]
        if not points:
            raise ParameterError("--a-list names no point")
        size = len(points)
    else:
        for flag, steps in (("--re-steps", args.re_steps),
                            ("--im-steps", args.im_steps)):
            if steps < 1:
                raise ParameterError("%s must be at least 1, got %d"
                                     % (flag, steps))
        size = args.re_steps * args.im_steps
    if n_count * size > args.max_points:
        raise ScalarError("grid of %d points exceeds cap %d"
                          % (n_count * size, args.max_points))
    if args.a_list is None:
        points = [Scalar.from_float(re, im)
                  for re in _steps(args.re_min, args.re_max, args.re_steps)
                  for im in _steps(args.im_min, args.im_max, args.im_steps)]
    return points


def _cmd_sweep(args):
    """Every argument is checked before the CSV header is written, so a bad
    grid exits 2 with nothing on stdout."""
    n_max = args.n_max if args.n_max is not None else args.n_min
    if args.n_min < 3:
        raise ParameterError("--n-min must be at least 3, got %d" % args.n_min)
    if n_max < args.n_min:
        raise ParameterError("--n-max %d is below --n-min %d"
                             % (n_max, args.n_min))
    b = _scalar_arg(args.b, args.backend)
    # each a as its row prints it (an exact a beyond float range fails
    # here), and the (a, b) pair decide sees: both on one backend
    points = []
    for a in _grid_points(args, n_max - args.n_min + 1):
        a_n = a if a.exact == b.exact else a.to_float()
        points.append((a.to_complex(), a_n,
                       b if a_n.exact == b.exact else b.to_float()))
    if not all(b_n.invertible() for _, _, b_n in points):
        raise ParameterError("b must be nonzero")
    header = "n,re_a,im_a,status,reason,abs_phat"
    if args.with_oracle:
        header += ",algebra_dim"
    sys.stdout.write(header + "\n")
    for n in range(args.n_min, n_max + 1):
        poly = cleared_poly(n) if n >= 4 else None
        for z, a_n, b_n in points:
            verdict = decide(n, a_n, b_n)
            phat = ""
            if poly is not None:
                # z is finite: a nan is inf * 0 after the Horner sum overflowed
                p = abs(poly.eval_complex(z))
                phat = "%.6e" % (math.inf if math.isnan(p) else p)
            row = "%d,%r,%r,%s,%s,%s" % (n, z.real, z.imag,
                                         verdict.status, verdict.reason, phat)
            if args.with_oracle:
                images = reduced_generators(n, a_n, b_n)
                row += ",%d" % algebra_closure(images).dim
            sys.stdout.write(row + "\n")
    return EXIT_OK


@functools.lru_cache(maxsize=None)
def build_parser():
    """The `twinrep` parser, built on the first call and shared after it:
    parsing does not change it, and --help reads COLUMNS when it prints."""
    parser = argparse.ArgumentParser(
        prog="twinrep",
        description="Build, reduce and decide irreducibility of the "
                    "homogeneous 2-local twin-group representations.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit generator images as JSON")
    _add_family_flags(p)
    p.add_argument("--k", type=int)
    p.add_argument("--all", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="check the twin-group relations")
    _add_family_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="emit the reduced representation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--basis", choices=("std", "B"), default="std")
    p.add_argument("--backend", choices=("exact", "float"))
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("delta", help="evaluate the Delta determinant")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--mode", choices=("closed", "direct", "both"), default="both")
    p.add_argument("--backend", choices=("exact", "float"))
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("decide", help="irreducibility verdict for the reduced rep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--backend", choices=("exact", "float"))
    p.add_argument("--emit-witness", action="store_true")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("roots", help="roots of the cleared criterion polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("oracle", help="Burnside dimension and eigenlines")
    _add_family_flags(p)
    p.add_argument("--reduced", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", help="CSV sweep over (n, a) grids")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int)
    p.add_argument("--b", required=True)
    p.add_argument("--backend", choices=("exact", "float"))
    p.add_argument("--a-list", help="comma-separated scalar literals")
    p.add_argument("--re-min", type=float, default=0.0)
    p.add_argument("--re-max", type=float, default=0.0)
    p.add_argument("--re-steps", type=int, default=1)
    p.add_argument("--im-min", type=float, default=0.0)
    p.add_argument("--im-max", type=float, default=0.0)
    p.add_argument("--im-steps", type=int, default=1)
    p.add_argument("--with-oracle", action="store_true")
    p.add_argument("--max-points", type=int, default=10 ** 6)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None):
    try:
        set_default_eps(float(os.environ.get("TWINREP_EPS", DEFAULT_EPS)))
    except ValueError as exc:
        print("invalid TWINREP_EPS: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe must fail here, not at exit
        return code
    except BrokenPipeError:
        # send what is still buffered to devnull, so the exit-time flush
        # does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (ValueError, ZeroDivisionError, ArithmeticError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
