"""Independent reference mathematics for checking twinrep's outputs.

Nothing here imports twinrep.  The cleared criterion polynomial

    p(t) = 8t(1+t^2)(1+t)^m + (1-t)^4 [(1+t)^m - (1-t)^m],   m = n - 4,

is rebuilt from binomial coefficients, evaluated exactly on Gaussian
rationals held as (Fraction, Fraction) pairs straight from the closed form,
and evaluated in native complex floats for backward-error tests.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

# A returned root z passes when |p(z)| <= ROOT_BACKWARD_TOL * sum |c_i||z|^i.
# Newton-polished roots reach ~1e-16 here; Horner's own rounding is about
# degree * 2^-53, so 1e-12 leaves four decades of slack.
ROOT_BACKWARD_TOL = 1e-12

# Float points the benchmark generates keep |P(a)| above this, far from the
# package's default zero test |P(a)| <= 1e-9, so their expected verdict is
# unambiguous.
GENERIC_MIN_ABS_P = 1e-6

# Float points the benchmark generates keep this far from 0, +-1 and +-i.
EXCEPTIONAL_MARGIN = 0.05
EXCEPTIONAL_POINTS = (0j, 1 + 0j, -1 + 0j, 1j, -1j)


@functools.lru_cache(maxsize=None)
def cleared_coeffs(n):
    """Integer coefficients of p, ascending, trailing zeros trimmed."""
    m = n - 4
    c = [0] * (n + 1)
    for k in range(m + 1):
        c[k + 1] += 8 * math.comb(m, k)
        c[k + 3] += 8 * math.comb(m, k)
    # (1+t)^m - (1-t)^m keeps twice the odd binomial terms
    for i, q in enumerate((1, -4, 6, -4, 1)):
        for k in range(1, m + 1, 2):
            c[i + k] += q * 2 * math.comb(m, k)
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return tuple(c)


def expected_root_count(n):
    """Degree of p minus the multiplicity of its (spurious) zero root."""
    c = cleared_coeffs(n)
    zeros = next(i for i, x in enumerate(c) if x != 0)
    return len(c) - 1 - zeros


def horner(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def abs_scale(coeffs, z):
    """sum |c_i||z|^i, the scale of Horner's rounding error at z."""
    acc = 0.0
    r = abs(z)
    for c in reversed(coeffs):
        acc = acc * r + abs(c)
    return acc


def backward_error(coeffs, z):
    """|p(z)| / sum |c_i||z|^i, in complex floats; NaN for non-finite z."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return math.nan
    scale = abs_scale(coeffs, z)
    return abs(horner(coeffs, z)) / scale if scale else 0.0


# -- exact Gaussian rationals as (re, im) Fraction pairs -----------------------

def _gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _gsub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def _gpow(x, k):
    out = (Fraction(1), Fraction(0))
    while k:
        if k & 1:
            out = _gmul(out, x)
        x = _gmul(x, x)
        k >>= 1
    return out


def is_exact_root(n, re, im):
    """True iff the Gaussian rational re + i*im is a root of p.

    A float backward error far above Horner's rounding bound (about
    degree * 2^-53) proves p(a) != 0; otherwise p(a) is evaluated exactly
    from the closed form."""
    z = complex(float(re), float(im))
    if backward_error(cleared_coeffs(n), z) > 1e-8:
        return False
    a = (Fraction(re), Fraction(im))
    one = (Fraction(1), Fraction(0))
    up = _gadd(one, a)
    down = _gsub(one, a)
    m = n - 4
    term1 = _gmul(_gmul((Fraction(8), Fraction(0)), a),
                  _gmul(_gadd(one, _gmul(a, a)), _gpow(up, m)))
    term2 = _gmul(_gpow(down, 4), _gsub(_gpow(up, m), _gpow(down, m)))
    total = _gadd(term1, term2)
    return total[0] == 0 and total[1] == 0


def rational_P(n, z):
    """The uncleared criterion P(z) = 4(1+z^2) + (1-z)^4/(2z) (1 - ((1-z)/(1+z))^(n-4))
    in complex floats; z must avoid 0 and -1."""
    u = 1 - z
    return 4 * (1 + z * z) + u ** 4 / (2 * z) * (1 - (u / (1 + z)) ** (n - 4))


def is_clear_generic_float(n_values, z):
    """True when z is far from the exceptional points and |P(z)| stays above
    GENERIC_MIN_ABS_P for every n given, so a float verdict must be generic."""
    if any(abs(z - e) < EXCEPTIONAL_MARGIN for e in EXCEPTIONAL_POINTS):
        return False
    for n in n_values:
        try:
            p = rational_P(n, z)
        except (ZeroDivisionError, OverflowError):
            return False
        if not (abs(p) > GENERIC_MIN_ABS_P and math.isfinite(abs(p))):
            return False
    return True
