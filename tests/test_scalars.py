import math
from fractions import Fraction

import pytest

from twinrep import linalg
from twinrep.irreducibility import decide
from twinrep.linalg import Matrix, mat_rank
from twinrep.oracle import algebra_closure
from twinrep.scalars import (DEFAULT_EPS, BackendMismatchError, Scalar,
                             ScalarError, _cdiv, _cmul, _pow, _zdiv, _zpow,
                             _zpowers, default_eps, ex, fl, scalar_format,
                             scalar_parse, set_default_eps)
from conftest import rand_exact, rng_for
from helpers import scalar_from_json


def test_field_axioms_exact():
    rng = rng_for(101)
    for _ in range(50):
        x = rand_exact(rng)
        y = rand_exact(rng)
        z = rand_exact(rng)
        assert ((x + y) + z).eq(x + (y + z))
        assert (x * (y + z)).eq(x * y + x * z)
        assert ((x * y) * z).eq(x * (y * z))
        if not x.is_zero():
            assert (x * x.inv()).eq(Scalar.one())


def test_parse_format_round_trip_exact():
    s = scalar_parse("1/2+0/1*i")
    assert s.exact
    assert s.re == Fraction(1, 2) and s.im == 0
    assert scalar_parse(scalar_format(s)).eq(s)
    t = scalar_parse("-3/4-7/2*i")
    assert t.re == Fraction(-3, 4) and t.im == Fraction(-7, 2)
    assert scalar_parse(scalar_format(t)).eq(t)


def test_parse_format_round_trip_float():
    s = scalar_parse("0+1.7320508075688772i")
    assert not s.exact
    assert s.im == pytest.approx(math.sqrt(3.0))
    again = scalar_parse(scalar_format(s))
    assert again.re == s.re and again.im == s.im
    t = scalar_parse("-1.5e-3+2.0i")
    assert t.re == -1.5e-3 and t.im == 2.0


def test_parse_rejects_malformed():
    for bad in ("2", "1/2", "1/0+0/1*i", "1.0", "i", "1/2+1/2i", ""):
        with pytest.raises(ScalarError):
            scalar_parse(bad)


def test_parse_rejects_non_finite():
    for bad in ("1e999+0i", "0.0-1e999i", "-1e400+1e400i"):
        with pytest.raises(ScalarError, match="non-finite"):
            scalar_parse(bad)


def test_backend_mismatch_raises():
    with pytest.raises(BackendMismatchError):
        ex(1) + fl(1.0)
    with pytest.raises(BackendMismatchError):
        ex(1) * fl(1.0)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ex(1) / ex(0)
    # float: an exact 0.0 is an error, never a NaN, and so is a divisor whose
    # squared modulus underflows to 0.0
    for zero in (fl(0.0), fl(0.0, -0.0), fl(1e-170, 1e-170)):
        with pytest.raises(ZeroDivisionError):
            fl(1.0) / zero
    # a quotient that overflows is refused rather than returned as inf
    with pytest.raises(ScalarError, match="non-finite"):
        fl(1e300) / fl(1e-10)


def test_float_division_by_small_divisor():
    # a divisor within eps of zero is still a number: (-b)^5 at b = 0.01
    q = fl(1.0) / fl(1e-10)
    assert (q.re, q.im) == (1e10, 0.0)
    q = fl(2.0, 1.0) / fl(0.0, 1e-10)
    assert abs(q.re - 1e10) <= 1e-6 * 1e10 and abs(q.im + 2e10) <= 1e-6 * 2e10


def test_pow_including_negative():
    x = ex(Fraction(2, 3), 1)
    assert x.pow(0).eq(Scalar.one())
    assert x.pow(3).eq(x * x * x)
    assert (x.pow(-2) * x.pow(2)).eq(Scalar.one())


def test_float_eq_is_relative():
    big = fl(1e12)
    assert big.eq(fl(1e12 + 1.0))  # 1 part in 1e12 << 1e-9 relative
    assert not fl(1.0).eq(fl(1.0 + 1e-6))
    set_default_eps(1e-5)
    assert fl(1.0).eq(fl(1.0 + 1e-6))


def test_float_eq_refuses_an_infinite_difference():
    # the bound eps max(1, |x|, |y|) is inf too, and inf <= inf held
    inf = math.inf
    for x, y in ((inf, 5.0), (5.0, inf), (-inf, 1e300), (complex(1, inf), 1),
                 (inf, inf)):
        x, y = complex(x), complex(y)
        assert not fl(x.real, x.imag).eq(fl(y.real, y.imag)), (x, y)
        assert not fl(x.real, x.imag) == fl(y.real, y.imag)
        assert not linalg._Complex().eq(x, y), (x, y)
    assert fl(1e300).eq(fl(1e300 * (1 + 1e-12)))


def test_is_zero_and_tolerance():
    assert ex(0, 0).is_zero()
    assert not ex(0, Fraction(1, 10 ** 9)).is_zero()  # exact is exact
    assert fl(1e-12).is_zero()
    assert not fl(1e-6).is_zero()
    set_default_eps(1e-3)
    assert fl(1e-6).is_zero()


@pytest.mark.parametrize("eps", [0.0, -1e-9, math.nan, math.inf])
def test_tolerance_rejects_non_positive_or_infinite(eps):
    # an infinite eps made every float is_zero true
    set_default_eps(1e-3)
    with pytest.raises(ScalarError, match="eps"):
        set_default_eps(eps)
    assert default_eps() == 1e-3
    assert fl(1e-6).is_zero()


def test_set_default_eps():
    # one process-wide eps reaches every float gate: scalar comparison,
    # elimination pivots, the Burnside closure's dependence test, and
    # decide's a = 0 branch together with eval_P's pole test
    near_singular = Matrix([[fl(1.0), fl(0.0)], [fl(0.0), fl(1e-6)]])
    # I and diag(1, 1 + 1e-6) are independent by a relative 1e-6
    nearly_scalar = Matrix([[fl(1.0), fl(0.0)], [fl(0.0), fl(1.0 + 1e-6)]])
    set_default_eps(1e-3)
    assert fl(1.0).eq(fl(1.0 + 1e-5))
    assert mat_rank(near_singular) == 1
    assert algebra_closure([nearly_scalar]).dim == 1
    set_default_eps(DEFAULT_EPS)
    assert not fl(1.0).eq(fl(1.0 + 1e-5))
    assert mat_rank(near_singular) == 2
    assert algebra_closure([nearly_scalar]).dim == 2
    assert decide(5, fl(1e-10), fl(1.0)).reason == "a=0"
    set_default_eps(1e-12)
    assert decide(5, fl(1e-10), fl(1.0)).reason == "generic"


def test_json_round_trip():
    x = ex(Fraction(-7, 3), Fraction(1, 2))
    assert scalar_from_json(x.to_json()).eq(x)
    y = fl(0.25, -3.5)
    z = scalar_from_json(y.to_json())
    assert z.re == y.re and z.im == y.im and not z.exact


def test_immutability():
    x = ex(1)
    with pytest.raises(AttributeError):
        x.re = Fraction(2)


def test_exact_hash_float_not():
    assert hash(ex(1, 2)) == hash(ex(1, 2))
    with pytest.raises(TypeError):
        hash(fl(1.0))


def _random_part(rng):
    """A finite float part: a signed zero, a subnormal, a magnitude near
    1e+-300 or a moderate one, either sign."""
    sign = rng.choice((1.0, -1.0))
    kind = rng.random()
    if kind < 0.1:
        return sign * 0.0
    if kind < 0.2:
        return sign * 5e-324 * rng.randint(1, 2 ** 52)
    if kind < 0.35:
        return sign * 10 ** rng.uniform(290, 308)
    if kind < 0.5:
        return sign * 10 ** rng.uniform(-308, -290)
    return sign * 10 ** rng.uniform(-20, 20)


def test_complex_arithmetic_is_the_pair_formulas():
    # the float kernels (and linalg's complex number system) run on complex,
    # and count on CPython forming its product, sum, difference and
    # negation with the pair formulas; quotients and powers go through
    # _cdiv's formula and _cpow's products.  Moduli are math.hypot's, which
    # abs of a complex can miss by an ulp, so the kernels do not use abs.
    hexed = lambda z: (float(z[0]).hex(), float(z[1]).hex())
    parts = lambda z: (z.real, z.imag)
    rng = rng_for(2626)
    for _ in range(20000):
        ar, ai, br, bi = (_random_part(rng) for _ in range(4))
        x, y = complex(ar, ai), complex(br, bi)
        assert hexed(parts(x * y)) == hexed(_cmul(ar, ai, br, bi))
        assert hexed(parts(x - y)) == hexed((ar - br, ai - bi))
        assert hexed(parts(-x)) == hexed((-ar, -ai))
        terms = [complex(_random_part(rng), _random_part(rng))
                 for _ in range(rng.randint(0, 4))]
        tr, ti = 0, 0
        for t in terms:
            tr, ti = tr + t.real, ti + t.imag
        assert hexed(parts(sum(terms))) == hexed((tr, ti))
        try:
            want = hexed(_cdiv(ar, ai, br, bi, False))
        except (ValueError, ArithmeticError) as exc:
            want = type(exc)
        try:
            got = hexed(parts(_zdiv(x, y)))
        except (ValueError, ArithmeticError) as exc:
            got = type(exc)
        assert got == want
    for _ in range(500):
        z = complex(rng.choice((1.0, -1.0)) * 10 ** rng.uniform(-6, 6),
                    rng.choice((0.0, -0.0, rng.uniform(-3, 3))))
        powers = _zpowers(z, 70)
        for k in range(71):
            want = hexed(_pow(z.real, z.imag, k, False))
            assert hexed(parts(powers[k])) == want, (z, k)
            assert hexed(parts(_zpow(z, k))) == want, (z, k)
