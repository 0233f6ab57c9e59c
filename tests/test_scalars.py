import math
from fractions import Fraction

import pytest

from twinrep.irreducibility import decide
from twinrep.linalg import Matrix, mat_rank
from twinrep.oracle import algebra_closure
from twinrep.scalars import (DEFAULT_EPS, BackendMismatchError, Scalar,
                             ScalarError, default_eps, ex, fl, scalar_format,
                             scalar_parse, set_default_eps)
from conftest import rand_exact, rng_for


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
    # float: anything within eps of zero is an error, never a NaN
    with pytest.raises(ZeroDivisionError):
        fl(1.0) / fl(1e-12)


def test_pow_including_negative():
    x = ex(Fraction(2, 3), 1)
    assert x.pow(0).eq(Scalar.one())
    assert x.pow(3).eq(x * x * x)
    assert (x.pow(-2) * x.pow(2)).eq(Scalar.one())
    assert (x ** 2).eq(x * x)


def test_float_eq_is_relative():
    big = fl(1e12)
    assert big.eq(fl(1e12 + 1.0))  # 1 part in 1e12 << 1e-9 relative
    assert not fl(1.0).eq(fl(1.0 + 1e-6))
    set_default_eps(1e-5)
    assert fl(1.0).eq(fl(1.0 + 1e-6))


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
    assert Scalar.from_json(x.to_json()).eq(x)
    y = fl(0.25, -3.5)
    z = Scalar.from_json(y.to_json())
    assert z.re == y.re and z.im == y.im and not z.exact


def test_immutability():
    x = ex(1)
    with pytest.raises(AttributeError):
        x.re = Fraction(2)


def test_exact_hash_float_not():
    assert hash(ex(1, 2)) == hash(ex(1, 2))
    with pytest.raises(TypeError):
        hash(fl(1.0))
