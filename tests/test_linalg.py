import json

import pytest

from twinrep.linalg import (DimensionError, Matrix, Subspace, kernel, mat_det,
                            mat_rank)
from twinrep.scalars import BackendMismatchError, Scalar, ex, fl
from conftest import rand_exact, rng_for
from helpers import (SingularMatrixError, delete_row_col, is_identity,
                     mat_inverse, matrix_from_json, reference_det,
                     reference_kernel, reference_matmul, reference_rank, zeros)


def rand_matrix(rng, rows, cols):
    return Matrix([[rand_exact(rng) for _ in range(cols)] for _ in range(rows)])


def to_float(m):
    return Matrix([[x.to_float() for x in row] for row in m.data])


def reference_cases(rng, count=12):
    """Matrices to hold against the `Scalar` references: random, sparse and
    rank-deficient exact ones, their float copies, float ones with signed
    zeros, and float matrices whose pivots sit on either side of the float
    threshold eps * max(1, scale)."""
    cases = []
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        inner = rng.randint(1, max(1, min(rows, cols) - 1))
        cases += [m, Matrix([[x if rng.random() < 0.4 else ex(0) for x in row]
                             for row in m.data]),
                  reference_matmul(rand_matrix(rng, rows, inner),
                                   rand_matrix(rng, inner, cols))]
    cases += [to_float(m) for m in cases]
    # signed zeros, which only the same steps in the same order reproduce;
    # the three fixed ones change bits if a float row whose entry in the
    # pivot column is 0 is skipped
    parts = (0.0, -0.0, 1.0, -1.0, 2.0, -0.5)
    for _ in range(count * 3):
        rows, cols = rng.randint(2, 3), rng.randint(2, 3)
        cases.append(Matrix([[fl(rng.choice(parts), rng.choice(parts))
                              for _ in range(cols)] for _ in range(rows)]))
    for rows in ([[(2.0, 0.0), (-0.5, -0.5), (1.0, -0.5)],
                  [(0.0, 0.0), (-1.0, -0.0), (2.0, 0.0)]],
                 [[(0.0, -0.0), (-0.0, 0.0), (-0.0, -1.0)],
                  [(-1.0, -1.0), (-1.0, 1.0), (2.0, 0.0)]],
                 [[(-0.0, 2.0), (2.0, 1.0), (-0.0, -0.5)],
                  [(0.0, -0.0), (-0.5, 0.0), (-0.0, -1.0)]]):
        cases.append(Matrix([[fl(*z) for z in row] for row in rows]))
    for scale in (1.0, 8.0):
        for delta in (0.5e-9, 1e-9, 1.0000001e-9, 2e-9, 1e-7):
            d = delta * scale
            cases.append(Matrix([
                [fl(scale), fl(2.0), fl(-1.5, 0.5)],
                [fl(scale + d), fl(2.0), fl(-1.5 - d, 0.5)],
                [fl(0.0, d), fl(d), fl(0.0)]]))
    return cases


def bits(x):
    """The JSON text of a Scalar or Matrix: float parts by repr, so equal
    text means equal bits, signed zeros included."""
    return json.dumps(x.to_json())


def basis_json(space):
    return [bits(v) for v in space.basis]


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
            assert bits(mat_det(m)) == bits(reference_det(m))
            f = to_float(m)
            assert bits(mat_det(f)) == bits(reference_det(f))
    for m in reference_cases(rng):
        if m.rows == m.cols:
            assert bits(mat_det(m)) == bits(reference_det(m))


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
        assert is_identity(m @ mat_inverse(m))
        assert is_identity(mat_inverse(m) @ m)


def test_inverse_singular_raises():
    m = Matrix([[ex(1), ex(2)], [ex(2), ex(4)]])
    with pytest.raises(SingularMatrixError) as info:
        mat_inverse(m)
    assert info.value.pivot_col == 1


def test_rank_plus_kernel_dim():
    # exact and float: rank and kernel bit-identical to the references
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
    deficient = 0
    for m in reference_cases(rng):
        ker = kernel(m)
        assert mat_rank(m) == reference_rank(m) == m.cols - ker.dim
        assert basis_json(ker) == basis_json(reference_kernel(m))
        deficient += mat_rank(m) < min(m.rows, m.cols)
    assert deficient >= 20


def test_rank_with_gap_float():
    m = Matrix([[fl(1.0), fl(0.0)], [fl(0.0), fl(1e-15)]])
    assert mat_rank(m) == reference_rank(m) == 1


def test_matmul_shapes_and_backends():
    a = zeros(2, 3)
    b = zeros(3, 4)
    assert (a @ b).rows == 2 and (a @ b).cols == 4
    with pytest.raises(DimensionError):
        _ = b @ a @ b
    with pytest.raises(BackendMismatchError):
        _ = Matrix.identity(2, True) @ Matrix.identity(2, False)


def test_public_constructor_checks_what_trusted_skips():
    # the checked constructor still rejects mixed backends and ragged rows;
    # `_trusted` takes rows the caller built and equals the checked build
    with pytest.raises(BackendMismatchError):
        Matrix([[ex(1), fl(0.0)], [ex(0), ex(1)]])
    with pytest.raises(BackendMismatchError):
        Matrix([[ex(1), ex(0)], [ex(0), fl(1.0)]])
    with pytest.raises(DimensionError):
        Matrix([[ex(1), ex(0)], [ex(0)]])
    for conv in (ex, fl):
        rows = [[conv(1), conv(2), conv(3)], [conv(0), conv(-1), conv(5)]]
        m = Matrix._trusted([list(r) for r in rows])
        want = Matrix(rows)
        assert (m.rows, m.cols, m.exact) == (want.rows, want.cols, want.exact)
        assert m.to_json() == want.to_json()


def test_identity_checks_its_patches_and_owns_its_rows():
    # only the patch entries are checked against the backend; every other
    # entry is the backend's own 0 or 1, in row lists of each matrix's own
    for exact, conv, other in ((True, ex, fl), (False, fl, ex)):
        with pytest.raises(BackendMismatchError):
            Matrix.identity(3, exact, {1: {0: conv(2), 2: other(1)}})
        m = Matrix.identity(3, exact, {1: {0: conv(2), 1: conv(-1)}})
        want = Matrix([[conv(1), conv(0), conv(0)],
                       [conv(2), conv(-1), conv(0)],
                       [conv(0), conv(0), conv(1)]])
        assert m.exact == exact and m.to_json() == want.to_json()
        first, second = Matrix.identity(3, exact), Matrix.identity(3, exact)
        first.data[0][1] = conv(7)
        assert second.data[0][1].is_zero() and m.data[0][1].is_zero()
    with pytest.raises(DimensionError):
        Matrix.identity(0)


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
    # exact, float, sparse and rank-deficient: bit-identical to the
    # reference loop
    cases = reference_cases(rng)
    for x in cases:
        for y in cases:
            if x.cols == y.rows and x.exact == y.exact:
                assert bits(x @ y) == bits(reference_matmul(x, y))


def test_block_diag_and_delete_row_col():
    # m (+) I_1, as the identity with its first two rows patched
    m = Matrix([[ex(1), ex(2)], [ex(3), ex(4)]])
    d = Matrix.identity(3, True, {0: {0: ex(1), 1: ex(2)},
                                  1: {0: ex(3), 1: ex(4)}})
    assert d.rows == 3 and d.data[2][2].eq(ex(1)) and d.data[0][2].is_zero()
    assert delete_row_col(d, 2, 2).eq(m)


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
    again = matrix_from_json(m.to_json())
    assert again.eq(m)
    assert all(x.re == y.re and x.im == y.im
               for r1, r2 in zip(m.data, again.data)
               for x, y in zip(r1, r2))


def test_float_rank_uses_tolerance():
    m = Matrix([[fl(1.0), fl(1.0)], [fl(1.0), fl(1.0 + 1e-12)]])
    assert mat_rank(m) == reference_rank(m) == 1
