"""Generator images of the three classified families and relation checks.

Every family sends generator s_k to I_{k-1} (+) M (+) I_{n-k-1} for one shared
2x2 block M satisfying M^2 = I: the identity with rows k and k+1 patched, as
`linalg.Matrix.identity` builds it.  Family 1 has M = [[a, b], [(1-a^2)/b, -a]]
with b != 0, family 2 has M = [[s, 0], [c, -s]] with s = +-1, family 3 has
M = -I.  `_check_family1` is the one check of a family-1 (a, b), for
`RepSpec` and for `reduction`, `chains` and `irreducibility`, and
`_family1_c` the one formula for the block's (1-a^2)/b.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional

from .linalg import Matrix
from .scalars import (_UNIT_SCALARS, Scalar, _cdiv, _cmul, _gaussian, _norm2,
                      require_finite)


class ParameterError(ValueError):
    pass


class RepSpecError(ParameterError):
    """Parameters that name no classified representation."""


def _check_family1(a, b, not_pm1=False):
    """Reject a non-finite a or b, mixed backends and a b that cannot divide
    (`Scalar.invertible`), the family-1 conditions (RepSpecError), and
    a = +-1 when `not_pm1` is set (ParameterError)."""
    require_finite(a)
    require_finite(b)
    if a.exact != b.exact:
        raise RepSpecError("a and b must share a backend")
    if not b.invertible():
        raise RepSpecError("b must be nonzero")
    if not_pm1:
        one, _, minus_one = _UNIT_SCALARS[a.exact]
        if a.eq(one):
            raise ParameterError("a = 1 is not allowed here")
        if a.eq(minus_one):
            raise ParameterError("a = -1 is not allowed here")


def _family1_c(a, b):
    """The entry (1-a^2)/b of the family-1 block as an (re, im) pair of a's
    and b's own numbers: floats by the steps of Scalar arithmetic, exact
    parts from a = A/q and b = B/r (`_gaussian`) as the Gaussian integer
    (q^2 - A^2) r conj(B) over q^2 |B|^2."""
    if not a.exact:
        sr, si = _cmul(a.re, a.im, a.re, a.im)
        return _cdiv(1.0 - sr, 0.0 - si, b.re, b.im, False)
    (ar, ai), q = _gaussian(a.re, a.im)
    (br, bi), r = _gaussian(b.re, b.im)
    sr, si = _cmul(ar, ai, ar, ai)
    nr, ni = _cmul(q * q - sr, -si, r * br, -r * bi)
    den = q * q * _norm2(br, bi)
    return Fraction(nr, den), Fraction(ni, den)


class _RepSpecFields(NamedTuple):
    family: int
    n: int
    a: Optional[Scalar] = None
    b: Optional[Scalar] = None
    c: Optional[Scalar] = None
    sign: int = 1
    exact: bool = True


class RepSpec(_RepSpecFields):
    """Identifies one classified representation.

    family 1 takes (a, b) with b nonzero; family 2 takes (c, sign); family 3
    has no parameters.  `exact` picks the backend when no scalar parameter
    fixes it (families 2 with default c, and 3).
    """
    __slots__ = ()

    def __new__(cls, family, n, a=None, b=None, c=None, sign=1, exact=True):
        if family not in (1, 2, 3):
            raise RepSpecError("family must be 1, 2 or 3")
        if n < 2:
            raise RepSpecError("n must be at least 2")
        if family == 1:
            if a is None or b is None:
                raise RepSpecError("family 1 requires parameters a and b")
            _check_family1(a, b)
            exact = a.exact
        elif family == 2:
            if sign not in (1, -1):
                raise RepSpecError("sign must be +1 or -1")
            if c is not None:
                exact = c.exact
            else:
                c = Scalar.zero(exact)
        return super().__new__(cls, family, n, a, b, c, sign, exact)


class GeneratorImage(NamedTuple):
    index: int
    matrix: Matrix


def build_block(spec):
    """The shared 2x2 block M of the family; always satisfies M^2 = I."""
    exact = spec.exact
    one, zero = Scalar.one(exact), Scalar.zero(exact)
    if spec.family == 1:
        a, b = spec.a, spec.b
        return Matrix([[a, b], [Scalar(*_family1_c(a, b), exact), -a]])
    if spec.family == 2:
        s = one if spec.sign == 1 else -one
        return Matrix([[s, zero], [spec.c, -s]])
    return Matrix([[-one, zero], [zero, -one]])


def build_generator(spec, k):
    """Image of s_k: I_{k-1} (+) M (+) I_{n-k-1}."""
    if not 1 <= k <= spec.n - 1:
        raise RepSpecError("generator index %d out of range for n=%d" % (k, spec.n))
    m = build_block(spec).data
    rows = {k - 1 + r: {k - 1: m[r][0], k: m[r][1]} for r in (0, 1)}
    return GeneratorImage(k, Matrix.identity(spec.n, spec.exact, rows))


def build_all_generators(spec):
    return [build_generator(spec, k) for k in range(1, spec.n)]


def verify_relations(images):
    """Check the twin-group relations on a list of generator images.

    Returns a list of human-readable failure strings; an empty list means the
    images define a valid T_n representation.
    """
    failures = []
    if not images:
        return failures
    d = images[0].matrix.rows
    for img in images:
        if img.matrix.rows != d or img.matrix.cols != d:
            failures.append("s%d has mismatched dimension" % img.index)
            return failures
    ident = Matrix.identity(d, images[0].matrix.exact)
    for img in images:
        if not (img.matrix @ img.matrix).eq(ident):
            failures.append("s%d^2 != I" % img.index)
    for x in images:
        for y in images:
            if y.index - x.index > 1:
                ab = x.matrix @ y.matrix
                ba = y.matrix @ x.matrix
                if not ab.eq(ba):
                    failures.append("s%d s%d != s%d s%d"
                                    % (x.index, y.index, y.index, x.index))
    return failures
