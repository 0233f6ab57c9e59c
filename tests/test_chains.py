from fractions import Fraction
import math

import pytest

from twinrep.chains import (closed_chain_vector, chain_vectors, delta,
                            delta_direct, delta_matrix)
from twinrep.linalg import mat_det
from twinrep.reduction import ParameterError, build_S
from twinrep.scalars import ScalarError, ex, fl
from conftest import (rand_exact, rand_family1_params,
                      rand_float_family1_params, rng_for)
from helpers import (closure_check, delta_intermediate, det_closed_form,
                     lemma_matrix, reference_delta, s2v1_closed)


def test_chain_recurrence_matches_closed_form():
    rng = rng_for(501)
    for n in range(4, 9):
        a, b = rand_family1_params(rng, avoid=(1, -1))
        bundle = chain_vectors(n, a, b)
        assert len(bundle.v_chain) == n - 3
        for k, v in enumerate(bundle.v_chain, 1):
            assert v.eq(closed_chain_vector(n, a, b, k)), (n, k)
        assert bundle.W.dim == n - 2


def test_closure_check_passes_and_detects_tampering():
    a, b = ex(2), ex(3)
    bundle = chain_vectors(6, a, b)
    assert closure_check(bundle) == []
    broken = bundle._replace(
        v_chain=(bundle.v_chain[0].scale(ex(2)),) + bundle.v_chain[1:])
    assert closure_check(broken)


def test_chain_index_bounds():
    with pytest.raises(ParameterError):
        closed_chain_vector(5, ex(2), ex(1), 0)
    with pytest.raises(ParameterError):
        closed_chain_vector(5, ex(2), ex(1), 3)
    with pytest.raises(ParameterError):
        chain_vectors(3, ex(2), ex(1))


def test_lemma_det_closed_form_vs_cofactor():
    rng = rng_for(502)
    for n in range(2, 9):
        xs = [rand_exact(rng) for _ in range(n)]
        y1 = rand_exact(rng)
        y2 = rand_exact(rng)
        assert det_closed_form(xs, y1, y2).eq(mat_det(lemma_matrix(xs, y1, y2)))


def test_lemma_frozen_example():
    xs = [ex(1), ex(2), ex(3), ex(4)]
    got = det_closed_form(xs, ex(5), ex(7))
    assert got.eq(ex(-93))
    assert mat_det(lemma_matrix(xs, ex(5), ex(7))).eq(ex(-93))


def test_lemma_x1_never_appears():
    xs1 = [ex(0), ex(2), ex(3)]
    xs2 = [ex(99), ex(2), ex(3)]
    assert det_closed_form(xs1, ex(5), ex(7)).eq(det_closed_form(xs2, ex(5), ex(7)))


def test_s2v1_closed_matches_product():
    rng = rng_for(503)
    for n in range(4, 9):
        a, b = rand_family1_params(rng, avoid=(1, -1))
        v1 = closed_chain_vector(n, a, b, 1)
        assert (build_S(n, a, b, 2) @ v1).eq(s2v1_closed(n, a, b)), n


def test_delta_closed_vs_direct():
    rng = rng_for(504)
    for n in range(4, 9):
        for _ in range(5):
            a, b = rand_family1_params(rng, avoid=(0, 1, -1))
            assert delta(n, a, b).eq(delta_direct(n, a, b)), n


def test_delta_intermediate_agrees():
    rng = rng_for(505)
    for n in range(4, 9):
        a, b = rand_family1_params(rng, avoid=(0, 1, -1))
        assert delta(n, a, b).eq(delta_intermediate(n, a, b)), n


def _delta_outcome(fn, n, a, b):
    """fn(n, a, b) as its parts (float parts by `float.hex`, so every bit
    and signed zero counts), or its error."""
    try:
        x = fn(n, a, b)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return (x.re, x.im) if x.exact else (x.re.hex(), x.im.hex())


def test_delta_matches_scalar_bracket_bit_for_bit():
    # delta takes its bracket from eval_P; the Scalar bracket it replaced
    # gives the same values and the same errors, on both backends
    rng = rng_for(5050)
    cases = []
    for _ in range(1000):
        gaussian = rng.random() < 0.8
        cases.append((rng.randint(4, 16),)
                     + rand_family1_params(rng, gaussian=gaussian))
    for _ in range(1000):
        a, b = rand_float_family1_params(rng)
        if rng.random() < 0.1:
            a = fl(rng.choice((0.0, -0.0)), rng.choice((0.0, -0.0)))
        cases.append((rng.randint(4, 40), a, b))
    # a = +-1, the a = 0 branch within eps, overflow, n below 4, inf
    cases += [(5, ex(1), ex(2)), (5, fl(-1.0), fl(1.0)),
              (6, fl(1e-12, -1e-13), fl(2.0)), (40, fl(1e150), fl(1.0)),
              (3, ex(2), ex(1)), (5, fl(math.inf), fl(1.0))]
    raised = set()
    for n, a, b in cases:
        got = _delta_outcome(delta, n, a, b)
        assert got == _delta_outcome(reference_delta, n, a, b), (n, a, b)
        raised.add(got[0] if isinstance(got[0], type) else None)
    assert {None, ParameterError, ScalarError} <= raised


def test_delta_a_zero_branch():
    for n in range(4, 9):
        b = ex(Fraction(3, 2))
        want = ex(Fraction(-3, 2) * n / 2)
        assert delta(n, ex(0), b).eq(want)
        assert delta_direct(n, ex(0), b).eq(want)


def test_delta_frozen_example():
    assert delta(4, ex(2), ex(1)).eq(ex(-10))
    assert delta_direct(4, ex(2), ex(1)).eq(ex(-10))


def test_delta_matrix_shape():
    m = delta_matrix(6, ex(2), ex(1))
    assert m.rows == 5 and m.cols == 5
    # column 2 is e_1
    col = m.column_entries(1)
    assert col[0].eq(ex(1)) and all(x.is_zero() for x in col[1:])
