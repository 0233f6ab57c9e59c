"""Complex scalars with two backends: exact Gaussian rationals and floats.

Exact scalars store real and imaginary parts as `fractions.Fraction`, so field
arithmetic is bit-exact at arbitrary precision.  Float scalars store a pair of
doubles and compare under one process-wide tolerance eps (relative in `eq`,
absolute in `is_zero`): 1e-9 by default, replaced only by `set_default_eps`
(the CLI's TWINREP_EPS).  Matrices built from these scalars must never mix
backends; every operation here raises `BackendMismatchError` on a mixed pair.

Each pair formula is written once, on plain (re, im) pairs of Fractions or
floats: `_cmul`, `_cdiv` (with `_norm2`, its divisor test, which
`Scalar.invertible` shares), `_pow` (repeated squaring by `_cmul` on either
backend), `_gaussian` (exact parts as a Gaussian integer over one
denominator) and `_close`, the float equality, which `Scalar.eq` and
`linalg`'s complex number system share.  `Scalar`'s product, quotient and
power wrap them, and the package's hot paths call them directly, so both
give the same values bit for bit.  Float hot paths run on `complex`
instead (`_to_plain`): CPython's complex product, sum and negation are the
pair formulas, `_zdiv` divides by `_cdiv`, and `_zpow` and `_zpowers` keep
`_cpow`'s products.  A `Scalar` is false only when it is 0,
as a `complex` is.  `Scalar.one` and `Scalar.zero` return one shared
instance per backend, from the one table of shared units.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction


DEFAULT_EPS = 1e-9
_eps = DEFAULT_EPS  # the one float tolerance; set only by set_default_eps


class ScalarError(ValueError):
    pass


class BackendMismatchError(ScalarError):
    pass


def set_default_eps(eps):
    """Install the process-wide float tolerance (the CLI's TWINREP_EPS).
    A rejected value leaves the previous one in force."""
    global _eps
    if not 0 < eps < math.inf:
        raise ScalarError("tolerance eps must be positive and finite, got %r"
                          % (eps,))
    _eps = float(eps)


def default_eps():
    """The float tolerance in force now; read it at call time, since a
    `from .scalars import _eps` would copy the binding."""
    return _eps


class Scalar:
    """A complex number on one of the two backends.

    Immutable.  `re`/`im` are Fractions when `exact` is True, floats otherwise.
    """

    __slots__ = ("re", "im", "exact")

    def __init__(self, re, im, exact):
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def from_rational(cls, re, im=0):
        return cls(Fraction(re), Fraction(im), True)

    @classmethod
    def from_float(cls, re, im=0.0):
        return cls(float(re), float(im), False)

    @staticmethod
    def zero(exact=True):
        return _UNIT_SCALARS[exact][1]

    @staticmethod
    def one(exact=True):
        return _UNIT_SCALARS[exact][0]

    # -- backend helpers ----------------------------------------------

    @property
    def backend(self):
        return "exact" if self.exact else "float"

    def _check(self, other):
        if not isinstance(other, Scalar):
            raise TypeError("expected Scalar, got %r" % (other,))
        if self.exact != other.exact:
            raise BackendMismatchError(
                "cannot combine %s and %s scalars" % (self.backend, other.backend))

    def to_float(self):
        if not self.exact:
            return self
        return Scalar(float(self.re), float(self.im), False)

    def to_complex(self):
        return complex(self.re, self.im)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Scalar(self.re + other.re, self.im + other.im, self.exact)

    def __sub__(self, other):
        self._check(other)
        return Scalar(self.re - other.re, self.im - other.im, self.exact)

    def __neg__(self):
        return Scalar(-self.re, -self.im, self.exact)

    def __mul__(self, other):
        self._check(other)
        return Scalar(*_cmul(self.re, self.im, other.re, other.im), self.exact)

    def __truediv__(self, other):
        self._check(other)
        return Scalar(*_cdiv(self.re, self.im, other.re, other.im, self.exact),
                      self.exact)

    def inv(self):
        return Scalar.one(self.exact) / self

    def pow(self, k):
        """Integer power; negative exponents invert (nonzero base required)."""
        if k < 0:
            return self.inv().pow(-k)
        return Scalar(*_pow(self.re, self.im, k, self.exact), self.exact)

    # -- predicates ---------------------------------------------------

    def magnitude(self):
        return math.hypot(float(self.re), float(self.im))

    def __bool__(self):
        """False only for 0: a part is nonzero, as for `complex`."""
        return bool(self.re or self.im)

    def invertible(self):
        """Whether `_cdiv` accepts self as a divisor: nonzero, and for a
        float, with a squared modulus that does not underflow to 0."""
        return bool(self) if self.exact else bool(_norm2(self.re, self.im))

    def is_zero(self):
        if self.exact:
            return self.re == 0 and self.im == 0
        return self.magnitude() <= _eps

    def eq(self, other):
        self._check(other)
        if self.exact:
            return self.re == other.re and self.im == other.im
        return _close(self.re, self.im, other.re, other.im)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.eq(other)

    def __hash__(self):
        if not self.exact:
            raise TypeError("float-backend scalars are not hashable")
        return hash((self.re, self.im))

    # -- text and JSON ------------------------------------------------

    def __repr__(self):
        return "Scalar(%s)" % scalar_format(self)

    def to_json(self):
        if self.exact:
            return {"re": [str(self.re.numerator), str(self.re.denominator)],
                    "im": [str(self.im.numerator), str(self.im.denominator)]}
        return {"re": self.re, "im": self.im}


_EXACT_RE = re.compile(
    r"^\s*([+-]?\d+)/(\d+)\s*([+-])\s*(\d+)/(\d+)\*i\s*$")
_DEC = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_FLOAT_RE = re.compile(r"^\s*([+-]?%s)\s*([+-]%s)i\s*$" % (_DEC, _DEC))


def scalar_parse(text):
    """Parse "p/q+r/s*i" (exact) or "x+yi" (float).

    Exact inputs stay exact; round-trips through scalar_format.
    """
    m = _EXACT_RE.match(text)
    if m:
        p, q, sign, r, s = m.groups()
        if int(q) == 0 or int(s) == 0:
            raise ScalarError("zero denominator in %r" % text)
        im = Fraction(int(r), int(s))
        if sign == "-":
            im = -im
        return Scalar.from_rational(Fraction(int(p), int(q)), im)
    m = _FLOAT_RE.match(text)
    if m:
        return require_finite(
            Scalar.from_float(float(m.group(1)), float(m.group(2))))
    raise ScalarError("malformed scalar text %r" % text)


def require_finite(x):
    """Return x, or raise ScalarError if a float part is infinite or NaN."""
    if not (x.exact or (math.isfinite(x.re) and math.isfinite(x.im))):
        raise ScalarError("non-finite scalar %s" % scalar_format(x))
    return x


def _close(xr, xi, yr, yi):
    """The one float equality: |x - y| <= eps max(1, |x|, |y|) < inf, eps
    read now; the finite bound keeps inf from passing as equal to 5."""
    return (math.hypot(xr - yr, xi - yi)
            <= _eps * max(1.0, math.hypot(xr, xi), math.hypot(yr, yi))
            < math.inf)


def _norm2(re, im):
    """The squared modulus: a divisor is zero exactly when this is 0, so a
    float as small as 1e-150 still divides, and one whose square
    underflows does not."""
    return re * re + im * im


def _cdiv(ar, ai, br, bi, exact):
    """(ar + ai i)/(br + bi i): the one division formula, with a
    ZeroDivisionError for a zero divisor and a ScalarError for a
    non-finite float quotient."""
    n = _norm2(br, bi)
    if not n:
        raise ZeroDivisionError("division by %s zero scalar"
                                % ("exact" if exact else "float"))
    qr, qi = (ar * br + ai * bi) / n, (ai * br - ar * bi) / n
    if not (exact or (math.isfinite(qr) and math.isfinite(qi))):
        require_finite(Scalar(qr, qi, exact))
    return qr, qi


def _cmul(ar, ai, br, bi):
    """(ar + ai i)(br + bi i): the one product formula."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cpow(xr, xi, k):
    """(xr + xi i)^k for k >= 0 by repeated squaring from (1, 0), with
    `_cmul` for every product.  Int constants keep ints and Fractions
    exact, and a float op converts them exactly."""
    out_r, out_i = 1, 0
    while True:
        if k & 1:
            out_r, out_i = _cmul(out_r, out_i, xr, xi)
        k >>= 1
        if not k:
            return out_r, out_i
        xr, xi = _cmul(xr, xi, xr, xi)


def _pow(xr, xi, k, exact):
    """(xr + xi i)^k for k >= 0, the one power formula: `_cpow`, with the
    parts of `Scalar.one` at k = 0."""
    return _cpow(xr, xi, k) if k else _ONE_PARTS[exact]


def _zdiv(x, y):
    """x / y for float `complex` x and y by `_cdiv`, with its errors:
    `complex.__truediv__` uses another formula."""
    return complex(*_cdiv(x.real, x.imag, y.real, y.imag, False))


def _zpow(z, k):
    """z^k for a float `complex` z and k >= 0: `_cpow`'s products in its
    order, from 1 + 0j, so the bits are `_pow`'s."""
    out = 1 + 0j
    while True:
        if k & 1:
            out = out * z
        k >>= 1
        if not k:
            return out
        z = z * z


def _zpowers(z, k):
    """[z^0, ..., z^k] for a float `complex` z, each with `_zpow`'s bits
    from one product: z^j is z^(j - 2^h) times the square z^(2^h), h the
    top bit of j, which is the last product `_zpow` forms."""
    out, top, square = [1 + 0j], 1, z
    for j in range(1, k + 1):
        if j == 2 * top:
            top, square = j, square * square
        out.append(out[j - top] * square)
    return out


def _to_plain(x):
    """A Scalar as a plain number: an (re, im) pair of Fractions when
    exact, a `complex` on floats, whose product, sum and negation are
    `_cmul`'s, the pair sum and the pair negation, bit for bit."""
    return (x.re, x.im) if x.exact else complex(x.re, x.im)


def _from_plain(x, exact):
    """The Scalar of a plain number (`_to_plain`)."""
    return Scalar(*x, True) if exact else Scalar(x.real, x.imag, False)


def _gaussian(re, im):
    """Exact parts as ((xr, xi), q): q the lcm of their denominators, and
    xr + xi i the Gaussian integer q (re + im i)."""
    q = math.lcm(re.denominator, im.denominator)
    return (re.numerator * (q // re.denominator),
            im.numerator * (q // im.denominator)), q


def _powers(xr, xi, k, first):
    """[f, f x, ..., f x^k] for the pairs f = `first` and x, by a running
    `_cmul` product: on exact pairs the values `_pow` gives."""
    out = [first]
    for _ in range(k):
        out.append(_cmul(*out[-1], xr, xi))
    return out


# the parts of Scalar.zero(exact) and Scalar.one(exact), keyed by `exact`
_ZERO_PARTS = {True: (Fraction(0), Fraction(0)), False: (0.0, 0.0)}
_ONE_PARTS = {True: (Fraction(1), Fraction(0)), False: (1.0, 0.0)}
# 1, 0 and -1 as Scalars, keyed by `exact`: one shared instance of each per
# backend (a Scalar is immutable), for `Scalar.one` and `Scalar.zero` and
# the a = +-1 tests, which would otherwise build -1 on every call
_UNIT_SCALARS = {e: (Scalar(*_ONE_PARTS[e], e), Scalar(*_ZERO_PARTS[e], e),
                     -Scalar(*_ONE_PARTS[e], e)) for e in (True, False)}


def scalar_format(x):
    if x.exact:
        sign = "-" if x.im < 0 else "+"
        im = -x.im if x.im < 0 else x.im
        return "%d/%d%s%d/%d*i" % (x.re.numerator, x.re.denominator,
                                   sign, im.numerator, im.denominator)
    sign = "-" if math.copysign(1.0, x.im) < 0 else "+"
    return "%r%s%ri" % (x.re, sign, abs(x.im))


# Short constructors for the README's examples and the tests.

def ex(re, im=0):
    """Exact scalar from ints/Fractions."""
    return Scalar.from_rational(re, im)


def fl(re, im=0.0):
    """Float scalar."""
    return Scalar.from_float(re, im)
