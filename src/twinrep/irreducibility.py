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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .linalg import Matrix, Subspace
from .reduction import (ParameterError, _check_family1, eigvec_w,
                        reduced_generators)
from .chains import closed_chain_vector
from .scalars import Scalar, require_finite


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


def witness_check(images, w):
    """True iff every generator image maps every witness basis vector back
    into the witness span."""
    for img in images:
        m = img.matrix if hasattr(img, "matrix") else img
        if m.cols != w.ambient_dim:
            raise ParameterError("witness/image dimension mismatch")
        for x in w.basis:
            if not w.contains(m @ x):
                return False
    return True


def _t3_special_points():
    s3 = math.sqrt(3.0)
    return [Scalar.from_float(0.0, s3), Scalar.from_float(0.0, -s3)]


def _decide_t3(a, b):
    exact = a.exact
    one = Scalar.one(exact)
    if a.eq(one):
        # the eigenbasis {v_1, v_2} degenerates at a = 1; the invariant line
        # there is <e_1> (the s_1 image fixes it and the block fixes e_1)
        witness = Subspace(2, [Matrix.basis_vector(2, 1, exact)])
        return Verdict(REDUCIBLE, "a=1", witness)
    reason = None
    if a.eq(-one):
        reason = "a=-1"
    elif not exact:
        if any(a.eq(s) for s in _t3_special_points()):
            reason = "T3-special"
    if reason is None:
        return Verdict(IRREDUCIBLE, "T3-criterion")
    # <v_1> with v_1 = (2b/(a-1)^2, 1)^T is invariant at a = -1, +-i sqrt(3)
    two = one + one
    v1 = Matrix.column([two * b / (a - one).pow(2), one])
    return Verdict(REDUCIBLE, reason, Subspace(2, [v1]))


def decide(n, a, b):
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
        verdict = _decide_t3(a, b)
    elif a.eq(one):
        verdict = Verdict(REDUCIBLE, "a=1",
                          Subspace(n - 1, [Matrix.basis_vector(n - 1, 1, exact)]))
    elif a.eq(-one):
        two = one + one
        entries = [(b / two).pow(n - 1 - k) for k in range(1, n)]
        verdict = Verdict(REDUCIBLE, "a=-1",
                          Subspace(n - 1, [Matrix.column(entries)]))
    elif a.is_zero():
        # Delta = -bn/2 != 0: no proper invariant subspace through e_1
        verdict = Verdict(IRREDUCIBLE, "a=0", diagnostics={"delta_branch": "-bn/2"})
    else:
        p = eval_P(n, a)
        diag = {"abs_P": p.magnitude()}
        if p.is_zero():
            # W = <w, v_1, ..., v_{n-3}> in standard coordinates (the chain
            # lives in basis B; transporting by P fixes the v_k and sends
            # e_1 to w)
            vecs = [eigvec_w(n, a, b)]
            vecs += [closed_chain_vector(n, a, b, k) for k in range(1, n - 2)]
            witness = Subspace.span(n - 1, vecs)
            verdict = Verdict(REDUCIBLE, "root-of-P", witness, diag)
        else:
            verdict = Verdict(IRREDUCIBLE, "generic", diagnostics=diag)
    if verdict.reducible:
        images = reduced_generators(n, a, b)
        if not witness_check(images, verdict.witness):
            raise ArithmeticError(
                "internal error: witness failed the invariance check "
                "(n=%d, reason=%s)" % (n, verdict.reason))
    return verdict
