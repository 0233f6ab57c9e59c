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
by |P(a)| <= eps, with P evaluated by `eval_P`, which runs on `complex`
and builds a `Scalar` only for its argument's checks and its result: the
same products and quotients as `Scalar` arithmetic, so |P| is
bit-identical to the `Scalar` form the tests keep as the reference.  A
Reducible verdict's witness is built and checked in the same way, on
`complex` for float input and on (re, im) pairs of Fractions for exact
input (`scalars._to_plain`), and made of Scalars only once it has passed.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import NamedTuple, Optional

from .linalg import Matrix, Subspace
from .reduction import (_chain_entries, _chain_plain, _eigvec_w_plain,
                        _reduced_gen_plain)
from .reps import ParameterError, _check_family1
from .scalars import (Scalar, _ONE_PARTS, _UNIT_SCALARS, _cdiv, _cmul, _cpow,
                      _from_plain, _gaussian, _powers, _to_plain, _zdiv,
                      _zpow, _zpowers, default_eps)


class ClearedPoly(NamedTuple):
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

    The body runs on a's plain numbers (`scalars._to_plain`), each step
    formula for formula and in the order of the `Scalar` expression
    4(1 + a a) + (1-a)^4/(2a) (1 - ((1-a)/(1+a))^(n-4)), so a float P is
    bit-identical to it and raises the same errors."""
    if n < 4:
        raise ParameterError("eval_P needs n >= 4")
    exact, ar, ai = a.exact, a.re, a.im
    if a.is_zero() or Scalar(ar + 1, ai, exact).is_zero():
        raise ParameterError("a = 0 and a = -1 are poles of the criterion")
    if not exact:
        one, z = 1 + 0j, a.to_complex()
        u = one - z
        f = _zdiv(_zpow(u, 4), (2 + 0j) * z)
        p = (4 + 0j) * (one + z * z) + f * (one - _zpow(_zdiv(u, one + z),
                                                        n - 4))
        return Scalar(p.real, p.imag, False)
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
    (pr, pi), q = _gaussian(a.re, a.im)
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


class Verdict(NamedTuple):
    status: str
    reason: str
    witness: Optional[Subspace] = None
    # the default is shared by every verdict built without diagnostics, so
    # it is read-only
    diagnostics: dict = MappingProxyType({})

    @property
    def reducible(self):
        return self.status == REDUCIBLE


def _csum(terms):
    """The sum of the exact (re, im) pairs `terms`, from 0 as `Scalar` sums
    are."""
    tr, ti = 0, 0
    for r, i in terms:
        tr, ti = tr + r, ti + i
    return tr, ti


def witness_check(images, basis, exact, phi=None):
    """True iff every generator image g maps the span of `basis` into
    itself, for the two witness shapes `decide` builds.  Each g is
    {row: {column: entry}} over the rows where it differs from the
    identity, each basis vector is {row: entry} over the rows where it may
    be nonzero, and phi is a list of entries, one for every row; every
    entry is plain (`scalars._to_plain`): an (re, im) pair of Fractions
    when `exact`, a `complex` on floats.  The arithmetic is `Scalar`'s,
    formula for formula (`_cmul` or the complex product, `_cdiv`, sums from
    0), so the answer, and any error, is bit for bit that of the same check
    on `Scalar` entries, which the tests keep as the reference.

    A line <x> (phi None) needs g x = lam x at the largest entry x_p; entry
    i of g x - lam x is r . g x for r = e_i - (x_i/x_p) e_p, at most
    eps ||r||_2 ||g x||_2 on floats.  A hyperplane needs phi . x = 0 for its
    basis vectors x and phi g = phi, tested componentwise; vector j has its
    first nonzero entry in row j, so span(basis) = ker phi (dimension
    ambient - 1), which phi g = phi maps into itself."""
    nonzero = (lambda x: x[0] or x[1]) if exact else bool
    xs = [{i: x for i, x in v.items() if nonzero(x)} for v in basis]
    if phi is None:
        if len(xs) != 1 or not xs[0]:
            return False
        return (_exact_line_check if exact else _float_line_check)(images,
                                                                  xs[0])
    ambient = len(phi)
    phi = {i: f for i, f in enumerate(phi) if nonzero(f)}
    if (len(xs) != ambient - 1 or not phi
            or any(min(x, default=None) != j for j, x in enumerate(xs))):
        return False
    return (_exact_plane_check if exact else _float_plane_check)(images, xs,
                                                                phi)


def _exact_line_check(images, x):
    """`witness_check` of the line <x>, on exact pairs."""
    p = next(iter(x))
    for rows in images:
        gx = dict(x)
        for i, row in rows.items():
            gx[i] = _csum(_cmul(*g, *x[c]) for c, g in row.items() if c in x)
        # with row p unpatched lam = 1, and only the patched rows move
        lam = _cdiv(*gx[p], *x[p], True) if p in rows else (1, 0)
        for i in rows.keys() | (x.keys() if p in rows else {}):
            lr, li = _cmul(*lam, *x.get(i, (0, 0)))
            if _csum([gx[i], (-lr, -li)]) != (0, 0):
                return False
    return True


def _float_line_check(images, x):
    """`witness_check` of the line <x>, on `complex`."""
    hypot, eps = math.hypot, default_eps()
    mags = {i: hypot(z.real, z.imag) for i, z in x.items()}
    p = max(mags, key=mags.__getitem__)
    for rows in images:
        gx = dict(x)
        for i, row in rows.items():
            gx[i] = sum([g * x[c] for c, g in row.items() if c in x])
        lam = _zdiv(gx[p], x[p]) if p in rows else 1 + 0j
        norm = hypot(*[hypot(y.real, y.imag) for y in gx.values()])
        for i in rows.keys() | (x.keys() if p in rows else {}):
            # |gx_i - lam x_i|; the sum from 0 differs only in signed zeros
            t = gx[i] - lam * x.get(i, 0j)
            scale = norm * hypot(1.0, mags.get(i, 0.0) / mags[p])
            if not hypot(t.real, t.imag) <= eps * scale < math.inf:
                return False
    return True


def _exact_plane_check(images, xs, phi):
    """`witness_check` of the hyperplane ker phi, on exact pairs."""
    # phi . x, its terms in row order, as x runs
    if any(_csum([_cmul(*phi[i], *y) for i, y in x.items() if i in phi])
           != (0, 0) for x in xs):
        return False
    for rows in images:
        # entry c of phi g - phi: phi_i g_ic over the patched rows i, less
        # phi_c when row c is patched
        cols = {i: [(-phi[i][0], -phi[i][1])] for i in rows if i in phi}
        for i in rows.keys() & phi.keys():
            for c, g in rows[i].items():
                cols.setdefault(c, []).append(_cmul(*phi[i], *g))
        if any(_csum(terms) != (0, 0) for terms in cols.values()):
            return False
    return True


def _float_plane_check(images, xs, phi):
    """`witness_check` of the hyperplane ker phi, on `complex`: each sum
    of terms, phi . x as x runs and then each entry of phi g - phi as g
    runs, must vanish within eps times the sum of the terms' moduli
    (Oettli and Prager's componentwise test); NaN and overflow fail.  `sum`
    starts from 0, as `Scalar` sums do, and moduli are `math.hypot`'s,
    which `abs` of a complex can miss by an ulp."""
    sums = [[phi[i] * y for i, y in x.items() if i in phi] for x in xs]
    for rows in images:
        cols = {i: [-phi[i]] for i in rows if i in phi}
        for i in rows.keys() & phi.keys():
            f = phi[i]
            for c, g in rows[i].items():
                cols.setdefault(c, []).append(f * g)
        sums += cols.values()
    hypot, eps = math.hypot, default_eps()
    for terms in sums:
        t = sum(terms)
        if not (hypot(t.real, t.imag)
                <= eps * sum([hypot(z.real, z.imag) for z in terms])
                < math.inf):
            return False
    return True


def _annihilator_plain(n, a, b):
    """phi_j = (b/(1+a))^j for j = 0..n-2, plain, each the `Scalar` product
    of the one before it and b/(1+a)."""
    if a.exact:
        return _powers(*_cdiv(b.re, b.im, 1 + a.re, 0 + a.im, True), n - 2,
                       _ONE_PARTS[True])
    r = _zdiv(b.to_complex(), (1 + 0j) + a.to_complex())
    phi = [1 + 0j]
    for _ in range(n - 2):
        phi.append(phi[-1] * r)
    return phi


def decide(n, a, b):
    """Verdict for the reduced family-1 representation of dimension n-1.

    Every Reducible verdict carries an explicit invariant-subspace witness in
    standard coordinates, re-verified by `witness_check`, with no
    elimination, before it is returned: a line at a = +-1 and at the n = 3
    special points, or at a root of P the hyperplane <w, v_1, ..., v_{n-3}>
    with its annihilator phi_j = (b/(1+a))^j.  The witness, phi and the
    generator rows are built and checked on plain numbers
    (`scalars._to_plain`: Fraction pairs when exact, `complex` on floats),
    with the steps of the `Scalar` expressions, so they are bit-identical
    to them; only the returned witness is made of Scalars.
    """
    if n < 3:
        raise ParameterError("decide needs n >= 3")
    _check_family1(a, b)
    exact = a.exact
    one, zero, minus_one = _UNIT_SCALARS[exact]
    # the entries of the line, or of w, and at a root of P the chain
    first, chain, phi, diag = None, None, None, {}
    if a.eq(one):
        # the invariant line <e_1>: s_1 negates it and every block fixes it
        reason = "a=1"
        first = [_to_plain(one)] + [_to_plain(zero)] * (n - 2)
    elif a.eq(minus_one):
        reason = "a=-1"
        # (b/2)^(n-1-k) for k = 1..n-1: exact, one running product; float,
        # `Scalar.pow`'s bits
        if exact:
            first = _powers(*_cdiv(b.re, b.im, 2, 0, True), n - 2,
                            _ONE_PARTS[True])[::-1]
        else:
            first = _zpowers(_zdiv(b.to_complex(), 2 + 0j), n - 2)[::-1]
    elif n == 3:
        # off a = +-1, only the float points a = +-i sqrt(3) are reducible,
        # with the invariant line <(2b/(a-1)^2, 1)^T>
        s3 = math.sqrt(3.0)
        reason = "T3-criterion"
        if not exact and (a.eq(Scalar.from_float(0.0, s3))
                          or a.eq(Scalar.from_float(0.0, -s3))):
            reason = "T3-special"
            first = [_zdiv((2 + 0j) * b.to_complex(),
                           _zpow(a.to_complex() - (1 + 0j), 2)), 1 + 0j]
    elif a.is_zero():
        # Delta = -bn/2 != 0: no proper invariant subspace through e_1
        reason, diag = "a=0", {"delta_branch": "-bn/2"}
    else:
        if exact:
            abs_p, root = _exact_P(n, a)
        else:
            p = eval_P(n, a)
            abs_p, root = p.magnitude(), p.is_zero()
        diag = {"abs_P": abs_p}
        reason = "generic"
        if root:
            # W = <w, v_1, ..., v_{n-3}> in standard coordinates (the chain
            # lives in basis B; transporting by P fixes the v_k and sends
            # e_1 to w).  The top n-2 rows are lower triangular with
            # diagonal w_1, -b, ..., -b.
            reason = "root-of-P"
            first = _eigvec_w_plain(n, a, b)
            chain = _chain_plain(a, b)
            # its annihilator: phi g = phi holds for s_2..s_{n-1} at every
            # a, and for s_1 iff u^n = 1
            phi = _annihilator_plain(n, a, b)
    if first is None:
        return Verdict(IRREDUCIBLE, reason, diagnostics=diag)
    basis = [dict(enumerate(first))]
    if chain is not None:
        # v_k is 0 but for -b in row k and 1 + a in row k + 1 (0-based)
        _, lo, hi = chain
        basis += [{k: lo, k + 1: hi} for k in range(1, n - 2)]
    images = _reduced_gen_plain(n, a, b, range(1, n))
    if not witness_check(images, basis, exact, phi):
        raise ArithmeticError(
            "internal error: witness failed the invariance check "
            "(n=%d, reason=%s)" % (n, reason))
    vecs = [Matrix._trusted_column([_from_plain(x, exact) for x in first])]
    if chain is not None:
        # the chain vectors share their three distinct entries
        chain = [_from_plain(x, exact) for x in chain]
        vecs += [Matrix._trusted_column(_chain_entries(n, k, *chain))
                 for k in range(1, n - 2)]
    return Verdict(REDUCIBLE, reason,
                   Subspace(n - 1, vecs, _assume_independent=True), diag)
