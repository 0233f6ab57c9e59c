import pytest

from twinrep.linalg import Matrix, mat_inverse
from twinrep.reduction import (ParameterError, basis_b_bundle, build_P,
                               build_Q, build_S, build_reduced_gen,
                               eigvec_w, invariant_vector,
                               reduced_generators, reduction_bundle)
from twinrep.reps import RepSpec, build_all_generators
from twinrep.scalars import Scalar, ex, fl
from conftest import rand_family1_params, rng_for
from helpers import conjugated_full_gen


def test_invariant_vector_fixed_by_all_generators():
    rng = rng_for(401)
    for n in range(3, 8):
        a, b = rand_family1_params(rng)
        v = invariant_vector(n, a, b)
        for g in build_all_generators(RepSpec(1, n, a, b)):
            assert (g.matrix @ v).eq(v)


def test_invariant_vector_frozen_example():
    # n=4, a=2, b=1: ratio (1-a)/b = -1, components alternate
    v = invariant_vector(4, ex(2), ex(1))
    assert [str(x.re) for x in v.column_entries()] == ["1", "-1", "1", "-1"]


def test_build_Q_inverse():
    rng = rng_for(402)
    for n in (3, 5, 7):
        a, b = rand_family1_params(rng)
        q, qinv = build_Q(n, a, b)
        assert (q @ qinv).is_identity()
        assert mat_inverse(q).eq(qinv)


def test_conjugated_s1_first_row_and_column():
    # Q^-1 xi(s_1) Q has first column e_1 and first row (1, b, 0, ..., 0):
    # deleting them is what defines the reduced representation
    rng = rng_for(403)
    for n in (4, 6):
        a, b = rand_family1_params(rng)
        m = conjugated_full_gen(n, a, b, 1)
        col = m.column_entries(0)
        assert col[0].eq(Scalar.one()) and all(x.is_zero() for x in col[1:])
        row = m.data[0]
        assert row[0].eq(Scalar.one()) and row[1].eq(b)
        assert all(x.is_zero() for x in row[2:])


def test_reduced_gen_matches_deleted_conjugation():
    rng = rng_for(404)
    for n in range(3, 8):
        a, b = rand_family1_params(rng)
        for k in range(1, n):
            full = conjugated_full_gen(n, a, b, k)
            assert full.delete_row_col(0, 0).eq(build_reduced_gen(n, a, b, k))


def test_reduced_gens_are_involutions():
    rng = rng_for(405)
    for n in (4, 6):
        a, b = rand_family1_params(rng)
        for g in reduced_generators(n, a, b):
            assert (g.matrix @ g.matrix).is_identity()


def test_eigvec_w_is_minus_one_eigenvector():
    rng = rng_for(406)
    for n in range(3, 8):
        a, b = rand_family1_params(rng, avoid=(1, -1))
        w = eigvec_w(n, a, b)
        g1 = build_reduced_gen(n, a, b, 1)
        assert (g1 @ w).eq(-w)


def test_eigvec_w_frozen_example():
    w = eigvec_w(5, ex(2), ex(1))
    assert [str(x.re) for x in w.column_entries()] == ["2", "1", "-1", "1"]


def test_build_P_inverse():
    rng = rng_for(407)
    for n in (3, 5, 7):
        a, b = rand_family1_params(rng, avoid=(1, -1))
        p, pinv = build_P(n, a, b)
        assert (p @ pinv).is_identity()
        assert mat_inverse(p).eq(pinv)


def test_S_matches_conjugation_bit_exact():
    rng = rng_for(408)
    for n in range(3, 8):
        a, b = rand_family1_params(rng, avoid=(1, -1))
        p, pinv = build_P(n, a, b)
        for j in range(1, n):
            got = pinv @ build_reduced_gen(n, a, b, j) @ p
            want = build_S(n, a, b, j)
            assert got.eq(want), (n, j)
            # bit-exact, not just eq
            assert all(x.re == y.re and x.im == y.im
                       for r1, r2 in zip(got.data, want.data)
                       for x, y in zip(r1, r2))


def test_S_are_involutions():
    a, b = ex(3), ex(2)
    for n in (4, 6):
        for j in range(1, n):
            s = build_S(n, a, b, j)
            assert (s @ s).is_identity()


def test_S1_is_reflection():
    s1 = build_S(5, ex(2), ex(1), 1)
    expect = Matrix.identity(4).data
    assert s1.data[0][0].eq(ex(-1))
    assert all(s1.data[i][j].eq(expect[i][j])
               for i in range(4) for j in range(4) if (i, j) != (0, 0))


def test_parameter_errors():
    with pytest.raises(ParameterError):
        invariant_vector(4, ex(1), ex(0))  # b = 0
    with pytest.raises(ParameterError):
        eigvec_w(4, ex(1), ex(1))  # a = 1 forbidden
    with pytest.raises(ParameterError):
        eigvec_w(2, ex(2), ex(1))  # needs n >= 3
    with pytest.raises(ParameterError):
        build_reduced_gen(4, ex(2), ex(1), 4)  # index out of range
    with pytest.raises(ParameterError):
        invariant_vector(4, ex(2), fl(1.0))  # mixed backends


def test_bundles():
    rb = reduction_bundle(4, ex(2), ex(1))
    assert rb.Q.rows == 4 and len(rb.reduced_gens) == 3
    assert (rb.Q @ rb.Qinv).is_identity()
    bb = basis_b_bundle(5, ex(2), ex(1))
    assert len(bb.S) == 4 and (bb.P @ bb.Pinv).is_identity()


def test_float_backend_reduction():
    a, b = fl(0.5), fl(2.0)
    p, pinv = build_P(5, a, b)
    for j in range(1, 5):
        got = pinv @ build_reduced_gen(5, a, b, j) @ p
        assert got.eq(build_S(5, a, b, j))
