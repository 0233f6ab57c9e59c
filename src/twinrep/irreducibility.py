"""The decision procedure: cleared criterion polynomial, root finding, verdicts.

The criterion for n >= 4 is a rational function

    P(t) = 4(1+t^2) + (1-t)^4/(2t) (1 - ((1-t)/(1+t))^(n-4))

with poles at t = 0 and t = -1.  Multiplying by 2t(1+t)^(n-4) clears the
denominators and yields an integer polynomial with a spurious root at t = 0
(a = 0 is irreducible via the Delta = -bn/2 branch).  The reduced
representation is irreducible iff a is not +-1 and not a root of P; n = 3 has
its own criterion a not in {+-1, +-i sqrt(3)}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Optional

from .linalg import Matrix, Subspace
from .reduction import (ParameterError, _check_family1, eigvec_w,
                        reduced_generators)
from .chains import closed_chain_vector
from .scalars import Scalar, _tol, require_finite


# -- integer polynomial helpers (coefficients ascending) ----------------------

def _padd(p, q):
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return out


def _psub(p, q):
    return _padd(p, [-c for c in q])


def _pmul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _ppow(p, k):
    out = [1]
    for _ in range(k):
        out = _pmul(out, p)
    return out


def _ptrim(p):
    while len(p) > 1 and p[-1] == 0:
        p = p[:-1]
    return p


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

    def eval_exact(self, a):
        acc = Scalar.zero(a.exact)
        mk = Scalar.from_rational if a.exact else Scalar.from_float
        for c in reversed(self.coeffs):
            acc = acc * a + mk(c)
        return acc

    def eval_complex(self, z):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def deriv_complex(self, z):
        acc = 0j
        for i in reversed(range(1, len(self.coeffs))):
            acc = acc * z + i * self.coeffs[i]
        return acc


def cleared_poly(n):
    """8t(1+t^2)(1+t)^(n-4) + (1-t)^4 [(1+t)^(n-4) - (1-t)^(n-4)].

    Degree is n-1 for even n and n for odd n >= 5 (the bracket's leading
    terms cancel only when n-4 is even)."""
    if n < 4:
        raise ParameterError("cleared_poly needs n >= 4")
    up = _ppow([1, 1], n - 4)
    down = _ppow([1, -1], n - 4)
    term1 = _pmul(_pmul([0, 8], [1, 0, 1]), up)
    term2 = _pmul(_ppow([1, -1], 4), _psub(up, down))
    return ClearedPoly(n, tuple(_ptrim(_padd(term1, term2))))


def eval_P(n, a):
    """Evaluate the rational criterion directly; a must avoid the poles 0
    and -1."""
    if n < 4:
        raise ParameterError("eval_P needs n >= 4")
    exact = a.exact
    one = Scalar.one(exact)
    two = one + one
    four = two + two
    if a.is_zero() or (a + one).is_zero():
        raise ParameterError("a = 0 and a = -1 are poles of the criterion")
    u = one - a
    return four * (one + a * a) + \
        u.pow(4) / (two * a) * (one - (u / (one + a)).pow(n - 4))


class RootFindingError(ArithmeticError):
    pass


def roots_of_P(n, tol=None):
    """All nonzero complex roots of the cleared polynomial, as float scalars.

    Durand-Kerner from perturbed roots of unity on the Cauchy bound circle,
    then Newton polish; the zero root (spurious, a = 0 is irreducible) is
    deflated before iteration.  Deterministic for fixed n.
    """
    poly = cleared_poly(n)
    coeffs = list(poly.coeffs)
    mult0 = 0
    while coeffs[0] == 0:
        coeffs.pop(0)
        mult0 += 1
    deg = len(coeffs) - 1
    if deg == 0:
        return []
    lead = coeffs[-1]
    monic = [c / lead for c in coeffs]
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    z = [radius * cmath.exp(2j * math.pi * k / deg + 0.4j) for k in range(deg)]

    def peval(x):
        acc = 0j
        for c in reversed(monic):
            acc = acc * x + c
        return acc

    target = 1e-13
    for _ in range(500):
        worst = 0.0
        for k in range(deg):
            num = peval(z[k])
            worst = max(worst, abs(num))
            den = 1.0 + 0j
            for j in range(deg):
                if j != k:
                    den *= z[k] - z[j]
            if den != 0:
                z[k] = z[k] - num / den
        if worst <= target:
            break

    # Newton polish on the full cleared polynomial
    for k in range(deg):
        x = z[k]
        for _ in range(50):
            fx = poly.eval_complex(x)
            dfx = poly.deriv_complex(x)
            if dfx == 0:
                break
            step = fx / dfx
            x -= step
            if abs(step) <= 1e-16 * max(1.0, abs(x)):
                break
        z[k] = x

    scale = max(abs(c) for c in poly.coeffs)
    eps = max(_tol(tol).eps, 1e-13)
    bad = max(abs(poly.eval_complex(x)) / scale for x in z)
    if bad > eps:
        raise RootFindingError(
            "root finding did not converge for n=%d (worst residual %.3g)"
            % (n, bad))
    z.sort(key=lambda x: (round(x.real, 10), round(x.imag, 10)))
    return [Scalar.from_complex(x) for x in z]


def root_residual(n, a):
    """|cleared poly at a| / max coefficient, for diagnostics."""
    poly = cleared_poly(n)
    scale = max(abs(c) for c in poly.coeffs)
    return abs(poly.eval_complex(a.to_complex())) / scale


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


def witness_check(images, w, tol=None):
    """True iff every generator image maps every witness basis vector back
    into the witness span."""
    for img in images:
        m = img.matrix if hasattr(img, "matrix") else img
        if m.cols != w.ambient_dim:
            raise ParameterError("witness/image dimension mismatch")
        for x in w.basis:
            if not w.contains(m @ x, tol):
                return False
    return True


def _t3_special_points():
    s3 = math.sqrt(3.0)
    return [Scalar.from_float(0.0, s3), Scalar.from_float(0.0, -s3)]


def _decide_t3(a, b, tol):
    exact = a.exact
    one = Scalar.one(exact)
    if a.eq(one, tol):
        # the eigenbasis {v_1, v_2} degenerates at a = 1; the invariant line
        # there is <e_1> (the s_1 image fixes it and the block fixes e_1)
        witness = Subspace(2, [Matrix.basis_vector(2, 1, exact)])
        return Verdict(REDUCIBLE, "a=1", witness)
    reason = None
    if a.eq(-one, tol):
        reason = "a=-1"
    elif not exact:
        if any(a.eq(s, tol) for s in _t3_special_points()):
            reason = "T3-special"
    if reason is None:
        return Verdict(IRREDUCIBLE, "T3-criterion")
    # <v_1> with v_1 = (2b/(a-1)^2, 1)^T is invariant at a = -1, +-i sqrt(3)
    two = one + one
    v1 = Matrix.column([two * b / (a - one).pow(2), one])
    return Verdict(REDUCIBLE, reason, Subspace(2, [v1]))


def decide(n, a, b, tol=None):
    """Verdict for the reduced family-1 representation of dimension n-1.

    Every Reducible verdict carries an explicit invariant-subspace witness in
    standard coordinates, re-verified against the generator images before it
    is returned.
    """
    if n < 3:
        raise ParameterError("decide needs n >= 3")
    require_finite(a)
    require_finite(b)
    _check_family1(a, b)
    exact = a.exact
    one = Scalar.one(exact)
    if n == 3:
        verdict = _decide_t3(a, b, tol)
    elif a.eq(one, tol):
        verdict = Verdict(REDUCIBLE, "a=1",
                          Subspace(n - 1, [Matrix.basis_vector(n - 1, 1, exact)]))
    elif a.eq(-one, tol):
        two = one + one
        entries = [(b / two).pow(n - 1 - k) for k in range(1, n)]
        verdict = Verdict(REDUCIBLE, "a=-1",
                          Subspace(n - 1, [Matrix.column(entries)]))
    elif a.is_zero(tol):
        # Delta = -bn/2 != 0: no proper invariant subspace through e_1
        verdict = Verdict(IRREDUCIBLE, "a=0", diagnostics={"delta_branch": "-bn/2"})
    else:
        p = eval_P(n, a)
        diag = {"abs_P": p.magnitude()}
        if p.is_zero(tol):
            # W = <w, v_1, ..., v_{n-3}> in standard coordinates (the chain
            # lives in basis B; transporting by P fixes the v_k and sends
            # e_1 to w)
            vecs = [eigvec_w(n, a, b)]
            vecs += [closed_chain_vector(n, a, b, k) for k in range(1, n - 2)]
            witness = Subspace.span(n - 1, vecs, tol)
            verdict = Verdict(REDUCIBLE, "root-of-P", witness, diag)
        else:
            verdict = Verdict(IRREDUCIBLE, "generic", diagnostics=diag)
    if verdict.reducible:
        images = reduced_generators(n, a, b)
        if not witness_check(images, verdict.witness, tol):
            raise ArithmeticError(
                "internal error: witness failed the invariance check "
                "(n=%d, reason=%s)" % (n, verdict.reason))
    return verdict
