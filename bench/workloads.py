"""The three benchmark workloads: seeded input decks, the call each op makes,
and the independent check of each op's output.

A deck is a fixed mix of op classes; the seed only picks the parameter
values inside each class and the order.  A run replays its deck in whole
rounds, so every run sees the same mix and its percentiles land on the same
classes.

An op's outcome is one of
  ok        - output matches the independent expectation,
  error     - the program raised or exited non-zero,
  nonfinite - the root finder returned a NaN or infinite root,
  wrong     - a verdict, witness dimension, CSV field, oracle dimension or
              root residual disagrees with the expectation.
Every outcome other than ok counts as a failed op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import reference as ref

OK, ERROR, NONFINITE, WRONG = "ok", "error", "nonfinite", "wrong"


class Deck:
    """Ops in a seeded order, with a digest of the generated numbers behind
    them (not of their twinrep form, so it does not depend on how the
    package prints scalars)."""

    def __init__(self, rng, pairs):
        """`pairs` is a list of (op, primitives) in generation order."""
        rng.shuffle(pairs)
        self.ops = [op for op, _ in pairs]
        self.digest = hashlib.sha256(json.dumps(
            [prim for _, prim in pairs], default=str).encode()).hexdigest()


def _rng(seed, workload):
    return random.Random("%s:%d" % (workload, seed))


def _off_lattice_fraction(rng):
    """p/q with q in 3..7 and |p/q| <= 2, never an integer."""
    while True:
        q = rng.randint(3, 7)
        p = rng.randint(-2 * q, 2 * q)
        if p % q:
            return Fraction(p, q)


def _small_nonzero_gaussian(rng):
    """b = p/q + (r/s) i with a nonzero real part in [1/3, 4]."""
    re = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
    im = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return re, im


def _exact_text(re, im):
    sign = "-" if im < 0 else "+"
    return "%d/%d%s%d/%d*i" % (re.numerator, re.denominator, sign,
                               abs(im.numerator), im.denominator)


def _float_text(re, im):
    return "%r%s%ri" % (re, "-" if im < 0 else "+", abs(im))


def _generic_float_point(rng, n_values):
    while True:
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if ref.is_clear_generic_float(n_values, z):
            return z


def _expected_generic(n, exact, re, im):
    """(status, reason, witness dim) for a point off +-1 and 0."""
    if exact and ref.is_exact_root(n, re, im):
        return ("Reducible", "root-of-P", n - 2)
    return ("Irreducible", "generic", None)


def _verdict_tuple(verdict):
    dim = verdict.witness.dim if verdict.witness is not None else None
    return (verdict.status, verdict.reason, dim)


class Sweep:
    """`twinrep sweep` calls of 25 points each, in process, stdout captured.

    The deck gives each n in 4..60 two float-grid calls and three exact
    --a-list calls.  The 2:3 split keeps the median inside the exact calls' range
    instead of on the gap between the cheap float calls and the dearer exact
    ones."""

    name = "sweep"
    N_RANGE = range(4, 61)
    FLOAT_PER_N = 2
    EXACT_PER_N = 3
    POINTS = 25

    def __init__(self, seed, tw):
        self.seed = seed
        self.cli = tw.cli

    def deck(self):
        rng = _rng(self.seed, self.name)
        ops = []
        for n in self.N_RANGE:
            for _ in range(self.FLOAT_PER_N):
                ops.append(self._float_op(rng, n))
            for _ in range(self.EXACT_PER_N):
                ops.append(self._exact_op(rng, n))
        return Deck(rng, [(op, op[1]) for op in ops])

    def _float_op(self, rng, n):
        b = complex(rng.uniform(0.5, 2.0) * rng.choice((1, -1)),
                    rng.uniform(-1.0, 1.0))
        while True:
            re_lo, re_hi = rng.uniform(-2.2, -0.3), rng.uniform(0.3, 2.2)
            im_lo, im_hi = rng.uniform(-2.2, -0.3), rng.uniform(0.3, 2.2)
            points = [complex(re_lo + (re_hi - re_lo) * i / 4,
                              im_lo + (im_hi - im_lo) * j / 4)
                      for i in range(5) for j in range(5)]
            if all(ref.is_clear_generic_float((n,), z) for z in points):
                break
        argv = ["sweep", "--n-min", str(n), "--b=" + _float_text(b.real, b.imag),
                "--re-min=%r" % re_lo, "--re-max=%r" % re_hi, "--re-steps", "5",
                "--im-min=%r" % im_lo, "--im-max=%r" % im_hi, "--im-steps", "5"]
        return (n, argv, False, points)

    def _exact_op(self, rng, n):
        b = _small_nonzero_gaussian(rng)
        points = [(_off_lattice_fraction(rng), _off_lattice_fraction(rng))
                  for _ in range(self.POINTS)]
        argv = ["sweep", "--n-min", str(n), "--b=" + _exact_text(*b),
                "--a-list=" + ",".join(_exact_text(re, im) for re, im in points)]
        return (n, argv, True, points)

    def run(self, op):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = self.cli.main(list(op[1]))
        return code, out.getvalue()

    def check(self, op, output):
        n, _argv, exact, points = op
        code, text = output
        if code != 0:
            return ERROR, []
        lines = text.splitlines()
        if len(lines) != len(points) + 1 or \
                lines[0] != "n,re_a,im_a,status,reason,abs_phat":
            return WRONG, []
        coeffs = ref.cleared_coeffs(n)
        for line, point in zip(lines[1:], points):
            if not self._row_ok(n, exact, point, line.split(","), coeffs):
                return WRONG, []
        return OK, []

    @staticmethod
    def _row_ok(n, exact, point, fields, coeffs):
        if len(fields) != 6 or fields[0] != str(n):
            return False
        z = complex(float(point[0]), float(point[1])) if exact else point
        try:
            re, im, phat = float(fields[1]), float(fields[2]), float(fields[5])
        except ValueError:
            return False
        if abs(re - z.real) > 1e-12 * max(1.0, abs(z.real)) or \
                abs(im - z.imag) > 1e-12 * max(1.0, abs(z.imag)):
            return False
        if exact:
            status, reason, _ = _expected_generic(n, True, *point)
        else:
            status, reason = "Irreducible", "generic"
        if (fields[3], fields[4]) != (status, reason):
            return False
        p = abs(ref.horner(coeffs, z))
        return abs(phat - p) <= 1e-6 * p + 1e-12 * ref.abs_scale(coeffs, z)


class Locus:
    """Enumeration of the reducible locus.

    The deck: roots_of_P(n) for every n in 4..40; decide(n, root, b=1.0) at
    every root returned for n <= 12 (queued right after that roots call);
    decide at a = +-1, exact and float, for one seeded n from each quarter of
    4..40; exact decide at a = +-i for n in 4, 8, 12, where +-i are roots.
    The n <= 12 cap on witness-bearing root decides keeps a round near ten
    seconds: an exact witness check at n = 12 already takes most of a second."""

    name = "locus"
    ROOT_N = range(4, 41)
    DECIDE_AT_ROOTS_MAX_N = 12
    PM1_STRATA = ((4, 12), (13, 21), (22, 30), (31, 40))
    PM_I_N = (4, 8, 12)

    def __init__(self, seed, tw):
        self.seed = seed
        self.irr = tw.irreducibility
        self.Scalar = tw.scalars.Scalar

    def deck(self):
        rng = _rng(self.seed, self.name)
        S = self.Scalar
        pairs = [(("roots", n), ["roots", n]) for n in self.ROOT_N]
        for lo, hi in self.PM1_STRATA:
            n = rng.randint(lo, hi)
            for sign in (1, -1):
                pairs.append((("decide", n, S.from_rational(sign), S.from_rational(1)),
                              ["exact", n, sign, 0]))
                pairs.append((("decide", n, S.from_float(float(sign)), S.from_float(1.0)),
                              ["float", n, sign, 0]))
        for n in self.PM_I_N:
            for sign in (1, -1):
                pairs.append((("decide", n, S.from_rational(0, sign), S.from_rational(1)),
                              ["exact", n, 0, sign]))
        return Deck(rng, pairs)

    def run(self, op):
        if op[0] == "roots":
            return self.irr.roots_of_P(op[1])
        _kind, n, a, b = op
        return _verdict_tuple(self.irr.decide(n, a, b))

    def check(self, op, output):
        if op[0] == "roots":
            return self._check_roots(op[1], output)
        _kind, n, a, _b = op
        if a.re == 1 and a.im == 0:
            want = ("Reducible", "a=1", 1)
        elif a.re == -1 and a.im == 0:
            want = ("Reducible", "a=-1", 1)
        elif a.exact:
            want = _expected_generic(n, True, a.re, a.im)
        else:  # a float root handed over by roots_of_P
            want = ("Reducible", "root-of-P", n - 2)
        return (OK if output == want else WRONG), []

    def _check_roots(self, n, roots):
        zs = [complex(r.re, r.im) for r in roots]
        if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs):
            return NONFINITE, []
        coeffs = ref.cleared_coeffs(n)
        if len(zs) != ref.expected_root_count(n) or \
                any(z == 0 or not ref.backward_error(coeffs, z) <= ref.ROOT_BACKWARD_TOL
                    for z in zs):
            return WRONG, []
        follow = []
        if n <= self.DECIDE_AT_ROOTS_MAX_N:
            one = self.Scalar.from_float(1.0)
            follow = [("decide", n, r, one) for r in roots]
        return OK, follow


class Crosscheck:
    """decide, then the Burnside closure and the common eigenlines of the
    reduced generators, at d = n - 1 in 3..6, exact and float.

    The deck holds GENERIC[(d, exact)] generic points and both a = +1 and
    a = -1 for every (d, backend): 150 ops, 16 of them at +-1.  An op's cost
    grows steeply with d (about 10 ms for float d = 3, 1.3 s for exact
    d = 6), so the counts fall with d.  That keeps a round near ten
    seconds, puts the 90th percentile inside the 0.1-0.25 s cluster of exact
    d = 4 and float d = 5 ops with the seven dearer d = 5, 6 ops above it,
    and puts the median inside the 25-60 ms run of exact d = 3 and float
    d = 4 ops, never on a gap between size classes."""

    name = "crosscheck"
    GENERIC = {(3, False): 44, (3, True): 36, (4, False): 35, (4, True): 8,
               (5, False): 6, (5, True): 2, (6, False): 2, (6, True): 1}

    def __init__(self, seed, tw):
        self.seed = seed
        self.irr = tw.irreducibility
        self.red = tw.reduction
        self.orc = tw.oracle
        self.Scalar = tw.scalars.Scalar

    def deck(self):
        rng = _rng(self.seed, self.name)
        S = self.Scalar
        pairs = []
        for (d, exact), generic in self.GENERIC.items():
            n = d + 1
            for i in range(generic + 2):
                b = _small_nonzero_gaussian(rng)
                if i >= generic:
                    a = (Fraction(1 if i == generic else -1), Fraction(0))
                elif exact:
                    a = (_off_lattice_fraction(rng), _off_lattice_fraction(rng))
                else:
                    z = _generic_float_point(rng, (n,))
                    a = (z.real, z.imag)
                if exact:
                    sa, sb = S.from_rational(*a), S.from_rational(*b)
                else:
                    sa = S.from_float(float(a[0]), float(a[1]))
                    sb = S.from_float(float(b[0]), float(b[1]))
                pairs.append(((n, sa, sb), [n, exact, a, b]))
        return Deck(rng, pairs)

    def run(self, op):
        n, a, b = op
        verdict = self.irr.decide(n, a, b)
        images = self.red.reduced_generators(n, a, b)
        closure = self.orc.algebra_closure(images)
        lines = self.orc.common_eigenlines(images)
        return _verdict_tuple(verdict), closure.dim, len(lines)

    def check(self, op, output):
        n, a, _b = op
        verdict, dim, lines = output
        d = n - 1
        if a.im == 0 and a.re in (1, -1):
            want = ("Reducible", "a=1" if a.re == 1 else "a=-1", 1)
        else:
            want = _expected_generic(n, a.exact, a.re, a.im)
        irreducible = verdict[0] == "Irreducible"
        ok = (verdict == want
              # Burnside: irreducible iff the generated algebra is all of d x d
              and (dim == d * d) == irreducible
              # an invariant line of involutions is a common eigenline
              and (lines == 0 if irreducible else verdict[2] != 1 or lines >= 1))
        return (OK if ok else WRONG), []


WORKLOADS = {w.name: w for w in (Sweep, Locus, Crosscheck)}
