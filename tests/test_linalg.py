import pytest

from twinrep.linalg import (DimensionError, Matrix, SingularMatrixError,
                            Subspace, kernel, mat_det, mat_inverse, mat_rank)
from twinrep.scalars import BackendMismatchError, Scalar, ex, fl
from conftest import rand_exact, rng_for
from helpers import rank_with_gap


def rand_matrix(rng, rows, cols):
    return Matrix([[rand_exact(rng) for _ in range(cols)] for _ in range(rows)])


def cofactor_det(m):
    """Independent determinant oracle: recursive expansion along row 0."""
    n = m.rows
    if n == 1:
        return m.data[0][0]
    acc = Scalar.zero(m.exact)
    for j in range(n):
        x = m.data[0][j]
        if x.re == 0 and x.im == 0:
            continue
        minor = Matrix([[m.data[i][k] for k in range(n) if k != j]
                        for i in range(1, n)])
        term = x * cofactor_det(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_det_matches_cofactor_expansion():
    rng = rng_for(201)
    for n in range(1, 6):
        for _ in range(10):
            m = rand_matrix(rng, n, n)
            assert mat_det(m).eq(cofactor_det(m))


def test_det_identity_and_swap_sign():
    assert mat_det(Matrix.identity(4)).eq(ex(1))
    m = Matrix([[ex(0), ex(1)], [ex(1), ex(0)]])
    assert mat_det(m).eq(ex(-1))


def test_inverse_round_trip():
    rng = rng_for(202)
    for n in range(1, 6):
        m = rand_matrix(rng, n, n)
        while mat_det(m).is_zero():
            m = rand_matrix(rng, n, n)
        assert (m @ mat_inverse(m)).is_identity()
        assert (mat_inverse(m) @ m).is_identity()


def test_inverse_singular_raises():
    m = Matrix([[ex(1), ex(2)], [ex(2), ex(4)]])
    with pytest.raises(SingularMatrixError) as info:
        mat_inverse(m)
    assert info.value.pivot_col == 1


def test_rank_plus_kernel_dim():
    rng = rng_for(203)
    for _ in range(20):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        ker = kernel(m)
        assert mat_rank(m) + ker.dim == cols
        for v in ker.basis:
            prod = m @ v
            assert all(x.is_zero() for x in prod.column_entries())


def test_rank_with_gap_float():
    m = Matrix([[fl(1.0), fl(0.0)], [fl(0.0), fl(1e-15)]])
    r, gap = rank_with_gap(m)
    assert r == 1
    assert gap > 1e3


def test_matmul_shapes_and_backends():
    a = Matrix.zeros(2, 3)
    b = Matrix.zeros(3, 4)
    assert (a @ b).rows == 2 and (a @ b).cols == 4
    with pytest.raises(DimensionError):
        _ = b @ a @ b
    with pytest.raises(BackendMismatchError):
        _ = Matrix.identity(2, True) @ Matrix.identity(2, False)


def test_matmul_against_direct_sum():
    rng = rng_for(204)
    a = rand_matrix(rng, 3, 4)
    b = rand_matrix(rng, 4, 2)
    prod = a @ b
    for i in range(3):
        for j in range(2):
            acc = Scalar.zero()
            for k in range(4):
                acc = acc + a.data[i][k] * b.data[k][j]
            assert prod.data[i][j].eq(acc)


def test_transpose_delete_block_diag():
    m = Matrix([[ex(1), ex(2)], [ex(3), ex(4)]])
    assert m.transpose().data[0][1].eq(ex(3))
    d = Matrix.block_diag(m, Matrix.identity(1))
    assert d.rows == 3 and d.data[2][2].eq(ex(1)) and d.data[0][2].is_zero()
    assert d.delete_row_col(2, 2).eq(m)


def test_basis_vector_and_columns():
    e2 = Matrix.basis_vector(3, 2)
    assert [str(x.re) for x in e2.column_entries()] == ["0", "1", "0"]
    m = Matrix.from_columns([e2, Matrix.basis_vector(3, 1)])
    assert m.cols == 2 and m.data[0][1].eq(ex(1))


def test_subspace_span_prunes_dependent():
    v1 = Matrix.column([ex(1), ex(0)])
    v2 = Matrix.column([ex(2), ex(0)])
    v3 = Matrix.column([ex(0), ex(1)])
    w = Subspace.span(2, [v1, v2, v3])
    assert w.dim == 2
    assert w.basis[0] is v1 and w.basis[1] is v3  # first-come, in order
    assert Subspace.span(2, []).dim == 0
    with pytest.raises(ValueError):
        Subspace(2, [v1, v2])


def test_subspace_contains():
    e1 = Matrix.basis_vector(3, 1)
    e2 = Matrix.basis_vector(3, 2)
    e3 = Matrix.basis_vector(3, 3)
    plane12 = Subspace(3, [e1, e2])
    assert plane12.contains(e1 + e2.scale(ex(5)))
    assert not plane12.contains(e3)
    zero = Subspace(3, [])
    assert zero.contains(Matrix.column([ex(0)] * 3))


def test_matrix_json_round_trip_bit_exact():
    rng = rng_for(205)
    m = rand_matrix(rng, 3, 3)
    again = Matrix.from_json(m.to_json())
    assert again.eq(m)
    assert all(x.re == y.re and x.im == y.im
               for r1, r2 in zip(m.data, again.data)
               for x, y in zip(r1, r2))


def test_float_rank_uses_tolerance():
    m = Matrix([[fl(1.0), fl(1.0)], [fl(1.0), fl(1.0 + 1e-12)]])
    assert mat_rank(m) == 1
