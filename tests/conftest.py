"""Shared random-draw helpers for the test suite.

All randomness is seeded per test, so failures reproduce exactly, and every
test starts and ends under the default float tolerance.
"""

import random
from fractions import Fraction

import pytest

from twinrep.scalars import DEFAULT_EPS, Scalar, set_default_eps


@pytest.fixture(autouse=True)
def _restore_default_eps():
    yield
    set_default_eps(DEFAULT_EPS)


def rand_fraction(rng, lo=-5, hi=5, max_den=4):
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_exact(rng, nonzero=False, gaussian=True):
    """Random exact Gaussian-rational scalar with small numerators."""
    while True:
        im = rand_fraction(rng) if gaussian else Fraction(0)
        s = Scalar.from_rational(rand_fraction(rng), im)
        if not (nonzero and s.is_zero()):
            return s


def rand_family1_params(rng, avoid=(), gaussian=True):
    """Draw (a, b) for the first family: b nonzero, a avoiding the listed
    rational values (compared exactly)."""
    b = rand_exact(rng, nonzero=True, gaussian=gaussian)
    while True:
        a = rand_exact(rng, gaussian=gaussian)
        if all(not a.eq(Scalar.from_rational(v)) for v in avoid):
            return a, b


def rng_for(seed):
    return random.Random(seed)
