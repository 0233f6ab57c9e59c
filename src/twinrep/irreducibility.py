"""The decision procedure: cleared criterion polynomial, its roots, verdicts.

The criterion for n >= 4 is a rational function

    P(t) = 4(1+t^2) + (1-t)^4/(2t) (1 - ((1-t)/(1+t))^(n-4))

with poles at t = 0 and t = -1.  Multiplying by 2t(1+t)^(n-4) clears the
denominators and yields an integer polynomial with a spurious root at t = 0
(a = 0 is irreducible via the Delta = -bn/2 branch).  Since
8t(1+t^2) + (1-t)^4 = (1+t)^4, the cleared polynomial is
(1+t)^n - (1-t)^n = (1+t)^n (1 - u^n) with u = (1-t)/(1+t), so its nonzero
roots are +-i tan(pi k/n) for 1 <= k < n/2.  The reduced representation is
irreducible iff a is not +-1 and not a root of P; n = 3 has its own
criterion a not in {+-1, +-i sqrt(3)}.

An exact a = p/q, with p a Gaussian integer and q a positive integer, is
decided on plain ints: P(a) = N/D with N = (q+p)^n - (q-p)^n, so a is a
root iff N = 0, and |P(a)| is reported from correctly rounded int/int
quotients.  By Niven's theorem (Irrational Numbers, 1956, Cor. 3.12)
tan(pi k/n) is rational only at 0 and +-1, so the only exact roots are +-i,
at 4 | n; the tests cross-check N = 0 against that.  A float a is decided
by |P(a)| <= eps, with P evaluated by `eval_P`, which runs on plain
(re, im) pairs and builds a `Scalar` only for its argument's checks and its
result: the same products and quotients as `Scalar` arithmetic, so |P| is
bit-identical to the `Scalar` form the tests keep as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .linalg import Matrix, Subspace
from .reduction import (ParameterError, _check_family1, _reduced_gen_rows,
                        eigvec_w)
from .chains import closed_chain_vector
from .scalars import (Scalar, _cdiv, _cmul, _cpow, default_eps,
                      require_finite)


@dataclass(frozen=True)
class ClearedPoly:
    """Integer-coefficient cleared criterion polynomial, coefficients
    ascending.  t = 0 is always a spurious root."""
    n: int
    coeffs: tuple
    spurious_roots: tuple = (0,)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def eval_complex(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc


def cleared_poly(n):
    """8t(1+t^2)(1+t)^(n-4) + (1-t)^4 [(1+t)^(n-4) - (1-t)^(n-4)].

    As 8t(1+t^2) + (1-t)^4 = (1+t)^4, this equals (1+t)^n - (1-t)^n, whose
    coefficients are 2 C(n, k) at odd k and 0 at even k.  Degree is n-1 for
    even n and n for odd n >= 5 (the top terms cancel only when n is even)."""
    if n < 4:
        raise ParameterError("cleared_poly needs n >= 4")
    coeffs = [2 * math.comb(n, k) if k % 2 else 0 for k in range(n + 1)]
    if n % 2 == 0:
        coeffs.pop()
    return ClearedPoly(n, tuple(coeffs))


def eval_P(n, a):
    """Evaluate the rational criterion directly; a must avoid the poles 0
    and -1.

    The body runs on (re, im) pairs of a's own numbers (Fractions or
    floats), each step formula for formula and in the order of the `Scalar`
    expression 4(1 + a a) + (1-a)^4/(2a) (1 - ((1-a)/(1+a))^(n-4)), so a
    float P is bit-identical to it and raises the same errors."""
    if n < 4:
        raise ParameterError("eval_P needs n >= 4")
    exact, ar, ai = a.exact, a.re, a.im
    if a.is_zero() or Scalar(ar + 1, ai, exact).is_zero():
        raise ParameterError("a = 0 and a = -1 are poles of the criterion")
    ur, ui = 1 - ar, 0 - ai
    sr, si = _cmul(ar, ai, ar, ai)
    lr, li = _cmul(4, 0, 1 + sr, 0 + si)
    fr, fi = _cdiv(*_cpow(ur, ui, 4), *_cmul(2, 0, ar, ai), exact)
    hr, hi = _cpow(*_cdiv(ur, ui, 1 + ar, 0 + ai, exact), n - 4)
    rr, ri = _cmul(fr, fi, 1 - hr, 0 - hi)
    return Scalar(lr + rr, li + ri, exact)


def _exact_P(n, a):
    """(|P(a)|, P(a) == 0) for an exact a off the poles 0 and -1, on plain
    Gaussian integers.

    With a = p/q, q the lcm of the two denominators, P(a) = N/D for
    N = (q+p)^n - (q-p)^n and D = 2 p q^3 (q+p)^(n-4).  The parts of P are
    Re(N conj D)/|D|^2 and Im(N conj D)/|D|^2, and an int/int true division
    is correctly rounded, as `Fraction.__float__` is: |P| is the float
    `eval_P(n, a).magnitude()` gives.  A part too large for a float makes
    |P| too large as well, so it reads inf."""
    re, im = a.re, a.im
    q = math.lcm(re.denominator, im.denominator)
    pr = re.numerator * (q // re.denominator)
    pi = im.numerator * (q // im.denominator)
    hr, hi = _cpow(q + pr, pi, n - 4)
    mr, mi = _cmul(hr, hi, *_cpow(q + pr, pi, 4))
    br, bi = _cpow(q - pr, -pi, n)
    nr, ni = mr - br, mi - bi
    if not (nr or ni):
        return 0.0, True
    c = 2 * q ** 3
    dr, di = _cmul(c * pr, c * pi, hr, hi)
    d2 = dr * dr + di * di
    try:
        return math.hypot((nr * dr + ni * di) / d2,
                          (ni * dr - nr * di) / d2), False
    except OverflowError:
        return math.inf, False


def roots_of_P(n):
    """All nonzero roots of the cleared polynomial, as float scalars in
    ascending order of imaginary part.

    The cleared polynomial is (1+t)^n (1 - u^n) with u = (1-t)/(1+t), so its
    roots are t = -i tan(pi k/n) for the n-th roots of unity u = e^(2 pi i k/n):
    k = 0 is the spurious root 0 and u = -1 has no finite t.  The nonzero
    roots are therefore +-i tan(pi k/n) for 1 <= k < n/2, all simple.
    """
    if n < 4:
        raise ParameterError("roots_of_P needs n >= 4")
    ys = [math.tan(math.pi * k / n) for k in range(1, (n + 1) // 2)]
    return [Scalar.from_float(0.0, y) for y in sorted([-y for y in ys] + ys)]


def root_residual(n, a):
    """Backward error of a as a root of the cleared polynomial p,
    |p(a)| / sum |c_i||a|^i (Higham, *Accuracy and Stability of Numerical
    Algorithms*, ch. 5), or 0.0 when that sum is 0.  For |a| > 1 both sums
    are divided by |a|^degree, which keeps the ratio and avoids overflow."""
    coeffs = cleared_poly(n).coeffs
    z = a.to_complex()
    if abs(z) > 1:
        z, coeffs = 1 / z, coeffs[::-1]
    value, scale = 0j, 0.0
    for c in reversed(coeffs):
        value = value * z + c
        scale = scale * abs(z) + abs(c)
    return abs(value) / scale if scale else 0.0


# -- verdicts -----------------------------------------------------------------

IRREDUCIBLE = "Irreducible"
REDUCIBLE = "Reducible"


@dataclass(frozen=True)
class Verdict:
    status: str
    reason: str
    witness: Optional[Subspace] = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def reducible(self):
        return self.status == REDUCIBLE


def _vanishes(terms, zero, scale=None):
    """Whether the Scalars `terms` sum to zero: exactly on the exact backend,
    on floats within eps times `scale`, by default the sum of their moduli
    (Oettli and Prager's componentwise test); NaN and overflow fail."""
    total = sum(terms, zero)
    if zero.exact:
        return total.is_zero()
    if scale is None:
        scale = sum(t.magnitude() for t in terms)
    return total.magnitude() <= default_eps() * scale < math.inf


def witness_check(images, w, phi=None):
    """True iff every generator image g maps span(w) into itself, for the
    two witness shapes `decide` builds; each g is {row: {column: entry}}
    over the rows where it differs from the identity.

    A line <x> (phi None) needs g x = lam x at the largest entry x_p; entry
    i of g x - lam x is r . g x for r = e_i - (x_i/x_p) e_p, at most
    eps ||r||_2 ||g x||_2 on floats.  A hyperplane needs phi . x = 0 for its
    basis vectors x and phi g = phi, tested componentwise; vector j has its
    first nonzero entry in row j, so span(w) = ker phi (dimension
    ambient - 1), which phi g = phi maps into itself."""
    exact = w.basis[0].exact
    zero, one = Scalar.zero(exact), Scalar.one(exact)
    xs = [{i: x for i, x in enumerate(v.column_entries()) if x.re or x.im}
          for v in w.basis]
    if phi is None:
        x = xs[0]
        if w.dim != 1 or not x:
            return False
        p = next(iter(x)) if exact else max(x, key=lambda i: x[i].magnitude())
        for rows in images:
            gx = dict(x)
            for i, row in rows.items():
                gx[i] = sum((g * x[c] for c, g in row.items() if c in x), zero)
            # with row p unpatched lam = 1, and only the patched rows move
            lam = gx[p] / x[p] if p in rows else one
            norm = 0.0 if exact else math.hypot(
                *(y.magnitude() for y in gx.values()))
            for i in rows.keys() | (x.keys() if p in rows else {}):
                xi = x.get(i, zero)
                scale = None if exact else norm * math.hypot(
                    1.0, xi.magnitude() / x[p].magnitude())
                if not _vanishes([gx[i], -(lam * xi)], zero, scale):
                    return False
        return True
    phi = {i: f for i, f in enumerate(phi) if f.re or f.im}
    if (w.dim != w.ambient_dim - 1 or not phi
            or any(min(x, default=None) != j for j, x in enumerate(xs))
            or not all(_vanishes([f * x[i] for i, f in phi.items() if i in x],
                                 zero) for x in xs)):
        return False
    for rows in images:
        # entry c of phi g - phi: phi_i g_ic over the patched rows i, less
        # phi_c when row c is patched
        cols = {i: [-phi[i]] for i in rows if i in phi}
        for i in rows.keys() & phi.keys():
            for c, g in rows[i].items():
                cols.setdefault(c, []).append(phi[i] * g)
        if not all(_vanishes(terms, zero) for terms in cols.values()):
            return False
    return True


def _line(v):
    """<v>, for a v with an entry equal to 1."""
    return Subspace(v.rows, [v], _assume_independent=True)


# (1, -1) on each backend, keyed by `exact`: decide compares every a to both
_ONE_MINUS_ONE = {e: (Scalar.one(e), -Scalar.one(e)) for e in (True, False)}


def decide(n, a, b):
    """Verdict for the reduced family-1 representation of dimension n-1.

    Every Reducible verdict carries an explicit invariant-subspace witness in
    standard coordinates, re-verified by `witness_check`, with no
    elimination, before it is returned: a line at a = +-1 and at the n = 3
    special points, or at a root of P the hyperplane <w, v_1, ..., v_{n-3}>
    with its annihilator phi_j = (b/(1+a))^j.
    """
    if n < 3:
        raise ParameterError("decide needs n >= 3")
    require_finite(a)
    require_finite(b)
    _check_family1(a, b)
    exact = a.exact
    one, minus_one = _ONE_MINUS_ONE[exact]
    phi = None
    if a.eq(one):
        # the invariant line <e_1>: s_1 negates it and every block fixes it
        verdict = Verdict(REDUCIBLE, "a=1",
                          _line(Matrix.basis_vector(n - 1, 1, exact)))
    elif a.eq(minus_one):
        two = one + one
        entries = [(b / two).pow(n - 1 - k) for k in range(1, n)]
        verdict = Verdict(REDUCIBLE, "a=-1",
                          _line(Matrix.column(entries)))
    elif n == 3:
        # off a = +-1, only the float points a = +-i sqrt(3) are reducible,
        # with the invariant line <(2b/(a-1)^2, 1)^T>
        s3 = math.sqrt(3.0)
        if exact or not (a.eq(Scalar.from_float(0.0, s3))
                         or a.eq(Scalar.from_float(0.0, -s3))):
            verdict = Verdict(IRREDUCIBLE, "T3-criterion")
        else:
            v1 = Matrix.column([(one + one) * b / (a - one).pow(2), one])
            verdict = Verdict(REDUCIBLE, "T3-special", _line(v1))
    elif a.is_zero():
        # Delta = -bn/2 != 0: no proper invariant subspace through e_1
        verdict = Verdict(IRREDUCIBLE, "a=0", diagnostics={"delta_branch": "-bn/2"})
    else:
        if exact:
            abs_p, root = _exact_P(n, a)
        else:
            p = eval_P(n, a)
            abs_p, root = p.magnitude(), p.is_zero()
        diag = {"abs_P": abs_p}
        if root:
            # W = <w, v_1, ..., v_{n-3}> in standard coordinates (the chain
            # lives in basis B; transporting by P fixes the v_k and sends
            # e_1 to w).  The top n-2 rows are lower triangular with
            # diagonal w_1, -b, ..., -b.
            vecs = [eigvec_w(n, a, b)]
            vecs += [closed_chain_vector(n, a, b, k) for k in range(1, n - 2)]
            witness = Subspace(n - 1, vecs, _assume_independent=True)
            verdict = Verdict(REDUCIBLE, "root-of-P", witness, diag)
            # its annihilator phi_j = (b/(1+a))^j: phi g = phi holds for
            # s_2..s_{n-1} at every a, and for s_1 iff u^n = 1
            phi, r = [one], b / (one + a)
            for _ in range(n - 2):
                phi.append(phi[-1] * r)
        else:
            verdict = Verdict(IRREDUCIBLE, "generic", diagnostics=diag)
    if verdict.reducible:
        images = _reduced_gen_rows(n, a, b, range(1, n))
        if not witness_check(images, verdict.witness, phi):
            raise ArithmeticError(
                "internal error: witness failed the invariance check "
                "(n=%d, reason=%s)" % (n, verdict.reason))
    return verdict
