"""Chain vectors, the bidiagonal-bordered determinant, and the Delta criterion.

Any invariant subspace of the reduced representation containing e_1 is forced
to contain the chain v_k = -b e_{k+1} + (1+a) e_{k+2}, k = 1..n-3.  Whether
the candidate subspace W = <e_1, v_1, ..., v_{n-3}> closes up under the S_2
action is decided by the determinant Delta = det(S_2 v_1 | e_1 | v_1 | ... |
v_{n-3}), which has a closed form via the bordered bidiagonal determinant
implemented in det_closed_form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, Subspace, mat_det
from .reduction import ParameterError, _check_family1, build_S
from .scalars import Scalar


def closed_chain_vector(n, a, b, k):
    """v_k = -b e_{k+1} + (1+a) e_{k+2} in C^(n-1)."""
    if not 1 <= k <= n - 3:
        raise ParameterError("chain index %d out of range for n=%d" % (k, n))
    one = Scalar.one(a.exact)
    return (Matrix.basis_vector(n - 1, k + 1, a.exact).scale(-b)
            + Matrix.basis_vector(n - 1, k + 2, a.exact).scale(one + a))


@dataclass(frozen=True)
class ChainBundle:
    n: int
    a: Scalar
    b: Scalar
    f: Matrix
    v_chain: tuple
    W: Subspace


def chain_vectors(n, a, b):
    """Build the chain constructively, by the recurrence the invariance
    argument actually performs:

        f       = S_2 e_1 - (a^2+1)/2 e_1
        v_1     = (1-a)^(n-3) / (b^(n-4) (1+a)^2) * (S_3 f - f)
        v_{k+1} = b / ((1-a)(1+a)) * (S_{k+3} v_k - v_k)

    In exact mode the result reproduces the closed form bit-exactly.
    """
    _check_family1(a, b, not_pm1=True)
    if n < 4:
        raise ParameterError("chain_vectors needs n >= 4")
    exact = a.exact
    one = Scalar.one(exact)
    two = one + one
    s2 = build_S(n, a, b, 2)
    e1 = Matrix.basis_vector(n - 1, 1, exact)
    f = s2 @ e1 - e1.scale((a * a + one) / two)
    s3 = build_S(n, a, b, 3)
    scale1 = (one - a).pow(n - 3) / (b.pow(n - 4) * (one + a).pow(2))
    chain = [((s3 @ f) - f).scale(scale1)]
    step = b / ((one - a) * (one + a))
    for k in range(1, n - 3):
        sk3 = build_S(n, a, b, k + 3)
        chain.append(((sk3 @ chain[-1]) - chain[-1]).scale(step))
    w = Subspace.span(n - 1, [e1] + chain)
    return ChainBundle(n, a, b, f, tuple(chain), w)


def closure_check(bundle):
    """Verify every identity that keeps W = <e_1, v_1..v_{n-3}> stable under
    S_1, S_2 (on v_j, j >= 2) and S_k, k >= 3.  Returns failure strings."""
    n, a, b = bundle.n, bundle.a, bundle.b
    exact = a.exact
    one = Scalar.one(exact)
    failures = []
    v = {k + 1: vec for k, vec in enumerate(bundle.v_chain)}
    e1 = Matrix.basis_vector(n - 1, 1, exact)
    s = {j: build_S(n, a, b, j) for j in range(1, n)}

    def check(name, got, want):
        if not got.eq(want):
            failures.append(name)

    check("S1 e1 != -e1", s[1] @ e1, -e1)
    for j, vj in v.items():
        check("S1 v%d != v%d" % (j, j), s[1] @ vj, vj)
    for j in range(2, n - 2):
        check("S2 v%d != v%d" % (j, j), s[2] @ v[j], v[j])
    for k in range(3, n):
        for j, vj in v.items():
            if j == k - 2:
                check("S%d v%d != -v%d" % (k, j, j), s[k] @ vj, -vj)
            elif j == k - 1:
                want = v[k - 2].scale(b) + vj
                check("S%d v%d != b v%d + v%d" % (k, j, k - 2, j), s[k] @ vj, want)
            elif j == k - 3:
                want = vj + v[k - 2].scale((one - a * a) / b)
                check("S%d v%d != v%d + (1-a^2)/b v%d" % (k, j, j, k - 2),
                      s[k] @ vj, want)
            else:
                check("S%d v%d != v%d" % (k, j, j), s[k] @ vj, vj)
    return failures


def lemma_matrix(xs, y1, y2):
    """The bordered lower-bidiagonal matrix: first column xs, second column
    e_1, and column j >= 3 carrying y1 in row j-1 and y2 in row j."""
    n = len(xs)
    if n < 2:
        raise ParameterError("lemma matrix needs n >= 2")
    exact = xs[0].exact
    zero = Scalar.zero(exact)
    one = Scalar.one(exact)
    data = [[zero] * n for _ in range(n)]
    for i, x in enumerate(xs):
        data[i][0] = x
    data[0][1] = one
    for j in range(2, n):  # 0-based column j: y1 in row j-1, y2 in row j
        data[j - 1][j] = y1
        data[j][j] = y2
    return Matrix(data)


def det_closed_form(xs, y1, y2):
    """det of lemma_matrix(xs, y1, y2) as the alternating sum
    sum_{k=2}^{n} (-1)^(k+1) x_k y1^(k-2) y2^(n-k); x_1 never appears."""
    n = len(xs)
    if n < 2:
        raise ParameterError("needs at least 2 entries")
    exact = xs[0].exact
    acc = Scalar.zero(exact)
    for k in range(2, n + 1):
        term = xs[k - 1] * y1.pow(k - 2) * y2.pow(n - k)
        acc = acc + term if k % 2 == 1 else acc - term
    return acc


def delta_matrix(n, a, b):
    """(S_2 v_1 | e_1 | v_1 | ... | v_{n-3}) assembled column by column."""
    exact = a.exact
    s2 = build_S(n, a, b, 2)
    v1 = closed_chain_vector(n, a, b, 1)
    cols = [s2 @ v1, Matrix.basis_vector(n - 1, 1, exact)]
    cols += [closed_chain_vector(n, a, b, k) for k in range(1, n - 2)]
    return Matrix.from_columns(cols)


def delta_direct(n, a, b):
    return mat_det(delta_matrix(n, a, b))


def delta(n, a, b):
    """Closed form of Delta.

    a = 0 is its own branch (-b n / 2); otherwise
    -b/2 (1+a)^(n-4) [4(1+a^2) + (1-a)^4/(2a) (1 - ((1-a)/(1+a))^(n-4))].
    """
    _check_family1(a, b, not_pm1=True)
    if n < 4:
        raise ParameterError("delta needs n >= 4")
    exact = a.exact
    one = Scalar.one(exact)
    two = one + one
    if a.is_zero():
        n_s = Scalar.from_rational(n) if exact else Scalar.from_float(n)
        return -b * n_s / two
    four = two + two
    u = one - a
    p = one + a
    bracket = four * (one + a * a) + \
        u.pow(4) / (two * a) * (one - (u / p).pow(n - 4))
    return -b / two * p.pow(n - 4) * bracket

