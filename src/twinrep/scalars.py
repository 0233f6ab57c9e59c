"""Complex scalars with two backends: exact Gaussian rationals and floats.

Exact scalars store real and imaginary parts as `fractions.Fraction`, so field
arithmetic is bit-exact at arbitrary precision.  Float scalars store a pair of
doubles and compare under one process-wide tolerance eps (relative in `eq`,
absolute in `is_zero`): 1e-9 by default, replaced only by `set_default_eps`
(the CLI's TWINREP_EPS).  Matrices built from these scalars must never mix
backends; every operation here raises `BackendMismatchError` on a mixed pair.
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

    @classmethod
    def from_complex(cls, z):
        return cls(float(z.real), float(z.imag), False)

    @classmethod
    def zero(cls, exact=True):
        return cls.from_rational(0) if exact else cls.from_float(0.0)

    @classmethod
    def one(cls, exact=True):
        return cls.from_rational(1) if exact else cls.from_float(1.0)

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
        return Scalar(self.re * other.re - self.im * other.im,
                      self.re * other.im + self.im * other.re,
                      self.exact)

    def __truediv__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by %s zero scalar" % other.backend)
        n = other.re * other.re + other.im * other.im
        return Scalar((self.re * other.re + self.im * other.im) / n,
                      (self.im * other.re - self.re * other.im) / n,
                      self.exact)

    def inv(self):
        return Scalar.one(self.exact) / self

    def pow(self, k):
        """Integer power; negative exponents invert (nonzero base required)."""
        if k < 0:
            return self.inv().pow(-k)
        out = Scalar.one(self.exact)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    __pow__ = pow

    # -- predicates ---------------------------------------------------

    def magnitude(self):
        return math.hypot(float(self.re), float(self.im))

    def is_zero(self):
        if self.exact:
            return self.re == 0 and self.im == 0
        return self.magnitude() <= _eps

    def eq(self, other):
        self._check(other)
        if self.exact:
            return self.re == other.re and self.im == other.im
        d = math.hypot(self.re - other.re, self.im - other.im)
        return d <= _eps * max(1.0, self.magnitude(), other.magnitude())

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

    @classmethod
    def from_json(cls, obj):
        re_, im_ = obj["re"], obj["im"]
        if isinstance(re_, list):
            return cls.from_rational(Fraction(int(re_[0]), int(re_[1])),
                                     Fraction(int(im_[0]), int(im_[1])))
        return cls.from_float(re_, im_)


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


def scalar_format(x):
    if x.exact:
        sign = "-" if x.im < 0 else "+"
        im = -x.im if x.im < 0 else x.im
        return "%d/%d%s%d/%d*i" % (x.re.numerator, x.re.denominator,
                                   sign, im.numerator, im.denominator)
    sign = "-" if math.copysign(1.0, x.im) < 0 else "+"
    return "%r%s%ri" % (x.re, sign, abs(x.im))


# Convenience constructors used throughout the package and tests.

def ex(re, im=0):
    """Exact scalar from ints/Fractions."""
    return Scalar.from_rational(re, im)


def fl(re, im=0.0):
    """Float scalar."""
    return Scalar.from_float(re, im)
