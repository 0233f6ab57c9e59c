"""Reduction of the first family to dimension n-1, and the eigenbasis form.

The n-dimensional family-1 representation fixes the line spanned by
v = sum_k ((1-a)/b)^(k-1) e_k.  Conjugating by Q = I + (v - e_1) e_1^T and
deleting the first row and column yields the reduced (n-1)-dimensional
representation.  A second change of basis by P = I + (w - e_1) e_1^T, where w
is the -1 eigenvector of the reduced image of s_1, produces the S_j matrices
whose closed forms drive the irreducibility analysis.  Both Q and P are
rank-one updates of the identity, so their inverses are the mirrored rank-one
updates (Sherman-Morrison).
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix
from .reps import GeneratorImage, RepSpec, build_block
from .scalars import Scalar


class ParameterError(ValueError):
    pass


def _check_family1(a, b, forbid=()):
    if a.exact != b.exact:
        raise ParameterError("a and b must share a backend")
    if b.is_zero():
        raise ParameterError("b must be nonzero")
    one = Scalar.one(a.exact)
    if 1 in forbid and a.eq(one):
        raise ParameterError("a = 1 is not allowed here")
    if -1 in forbid and a.eq(-one):
        raise ParameterError("a = -1 is not allowed here")


def invariant_vector(n, a, b):
    """The fixed vector of the full family-1 representation: component k is
    ((1-a)/b)^(k-1)."""
    _check_family1(a, b)
    one = Scalar.one(a.exact)
    r = (one - a) / b
    entries = [one]
    for _ in range(n - 1):
        entries.append(entries[-1] * r)
    return Matrix.column(entries)


def build_Q(n, a, b):
    """Change of basis Q = (v, e_2, ..., e_n) = I + (v - e_1)e_1^T and its
    Sherman-Morrison inverse I - (v - e_1)e_1^T."""
    v = invariant_vector(n, a, b)
    q = [list(row) for row in Matrix.identity(n, a.exact).data]
    qinv = [list(row) for row in Matrix.identity(n, a.exact).data]
    for i in range(1, n):
        q[i][0] = v.data[i][0]
        qinv[i][0] = -v.data[i][0]
    return Matrix(q), Matrix(qinv)


def build_reduced_gen(n, a, b, k):
    """Closed-form (n-1)x(n-1) image of s_k in the reduced representation.

    Equals the submatrix of Q^-1 xi_1(s_k) Q with the first row and column
    deleted: for k = 1 the identity with first column
    (-1, (a-1)^2/(-b), ..., (a-1)^(n-1)/(-b)^(n-2)), for k >= 2 the block
    I_{k-2} (+) M (+) I_{n-k-1}.
    """
    _check_family1(a, b)
    if not 1 <= k <= n - 1:
        raise ParameterError("generator index %d out of range for n=%d" % (k, n))
    exact = a.exact
    if k >= 2:
        m = build_block(RepSpec(1, n, a, b))
        left = Matrix.identity(k - 2, exact) if k > 2 else None
        right = Matrix.identity(n - k - 1, exact) if k < n - 1 else None
        return Matrix.block_diag(left, m, right)
    one = Scalar.one(exact)
    data = [list(row) for row in Matrix.identity(n - 1, exact).data]
    data[0][0] = -one
    for j in range(2, n):  # row j of the paper's display, 0-based row j-1
        data[j - 1][0] = (a - one).pow(j) / (-b).pow(j - 1)
    return Matrix(data)


def reduced_generators(n, a, b):
    """All n-1 reduced generator images, as GeneratorImage records."""
    return [GeneratorImage(k, build_reduced_gen(n, a, b, k))
            for k in range(1, n)]


def eigvec_w(n, a, b):
    """The -1 eigenvector of the reduced s_1 image (n >= 3, a not in {1,-1}):
    w_1 = 2 b^(n-2) / (1-a)^(n-1), w_j = (b/(1-a))^(n-j-1) for j >= 2."""
    _check_family1(a, b, forbid=(1, -1))
    if n < 3:
        raise ParameterError("eigvec_w needs n >= 3")
    one = Scalar.one(a.exact)
    two = one + one
    u = one - a
    entries = [two * b.pow(n - 2) / u.pow(n - 1)]
    for j in range(2, n):
        entries.append((b / u).pow(n - j - 1))
    return Matrix.column(entries)


def build_P(n, a, b):
    """Transition matrix P = (w, e_2, ..., e_{n-1}) = I + (w - e_1)e_1^T and
    its inverse I - (1/w_1)(w - e_1)e_1^T."""
    w = eigvec_w(n, a, b)
    exact = a.exact
    w1inv = w.data[0][0].inv()
    p = [list(row) for row in Matrix.identity(n - 1, exact).data]
    pinv = [list(row) for row in Matrix.identity(n - 1, exact).data]
    p[0][0] = w.data[0][0]
    pinv[0][0] = w1inv
    for i in range(1, n - 1):
        p[i][0] = w.data[i][0]
        pinv[i][0] = -w.data[i][0] * w1inv
    return Matrix(p), Matrix(pinv)


def build_S(n, a, b, j):
    """Closed-form image of s_j relative to the eigenbasis {w, e_2, ..., e_{n-1}}.

    S_1 is diag(-1, 1, ..., 1); S_j for j >= 3 coincides with the reduced
    image I_{j-2} (+) M (+) I_{n-j-1}; S_2 is the only dense one, built here
    entry by entry from its closed form.  Each equals P^-1 times the reduced
    image of s_j times P (asserted in the test suite, bit-exactly in exact
    mode).
    """
    _check_family1(a, b, forbid=(1, -1))
    if not 1 <= j <= n - 1:
        raise ParameterError("generator index %d out of range for n=%d" % (j, n))
    exact = a.exact
    if j == 1:
        one = Scalar.one(exact)
        data = [list(row) for row in Matrix.identity(n - 1, exact).data]
        data[0][0] = -one
        return Matrix(data)
    if j >= 3:
        return build_reduced_gen(n, a, b, j)
    one = Scalar.one(exact)
    two = one + one
    u = one - a  # 1 - a
    p = one + a  # 1 + a
    data = [list(row) for row in Matrix.identity(n - 1, exact).data]
    data[0][0] = (a * a + one) / two
    data[0][1] = u.pow(n - 1) / (two * b.pow(n - 3))
    three = two + one
    data[1][0] = (three + a * a) * p * b.pow(n - 3) / (two * u.pow(n - 2))
    data[1][1] = -(one + a * a) / two
    for row in range(3, n):  # rows j >= 3 of the display, 0-based row-1
        data[row - 1][0] = p * b.pow(n - row - 1) / (two * u.pow(n - row - 2))
        data[row - 1][1] = -u.pow(row) / (two * b.pow(row - 2))
    return Matrix(data)


@dataclass(frozen=True)
class ReductionBundle:
    n: int
    a: Scalar
    b: Scalar
    v: Matrix
    Q: Matrix
    Qinv: Matrix
    reduced_gens: tuple


@dataclass(frozen=True)
class BasisBBundle:
    n: int
    a: Scalar
    b: Scalar
    w: Matrix
    P: Matrix
    Pinv: Matrix
    S: tuple  # S_1 ... S_{n-1}


def reduction_bundle(n, a, b):
    q, qinv = build_Q(n, a, b)
    return ReductionBundle(n, a, b, invariant_vector(n, a, b), q, qinv,
                           tuple(reduced_generators(n, a, b)))


def basis_b_bundle(n, a, b):
    p, pinv = build_P(n, a, b)
    return BasisBBundle(n, a, b, eigvec_w(n, a, b), p, pinv,
                        tuple(build_S(n, a, b, j) for j in range(1, n)))

