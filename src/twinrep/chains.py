"""Chain vectors and the Delta criterion.

Any invariant subspace of the reduced representation containing e_1 is forced
to contain the chain v_k = -b e_{k+1} + (1+a) e_{k+2}, k = 1..n-3.  Whether
the candidate subspace W = <e_1, v_1, ..., v_{n-3}> closes up under the S_2
action is decided by the determinant Delta = det(S_2 v_1 | e_1 | v_1 | ... |
v_{n-3}).  Expanding it as a bordered lower-bidiagonal determinant gives the
closed form in `delta`: -b/2 (1+a)^(n-4) times the bracket P(a) that
`irreducibility.eval_P` writes once.  `delta_direct` is the determinant itself.
"""

from __future__ import annotations

from typing import NamedTuple

from .irreducibility import eval_P
from .linalg import Matrix, Subspace, mat_det
from .reduction import _chain_entries, _chain_plain, build_S
from .reps import ParameterError, _check_family1
from .scalars import Scalar, _from_plain


def closed_chain_vector(n, a, b, k):
    """v_k = -b e_{k+1} + (1+a) e_{k+2} in C^(n-1)."""
    if not 1 <= k <= n - 3:
        raise ParameterError("chain index %d out of range for n=%d" % (k, n))
    entries = [_from_plain(x, a.exact) for x in _chain_plain(a, b)]
    return Matrix._trusted_column(_chain_entries(n, k, *entries))


class ChainBundle(NamedTuple):
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

    a = 0 is its own branch (-b n / 2); otherwise -b/2 (1+a)^(n-4) P(a), P
    the criterion that `irreducibility.eval_P` evaluates.
    """
    _check_family1(a, b, not_pm1=True)
    if n < 4:
        raise ParameterError("delta needs n >= 4")
    one = Scalar.one(a.exact)
    two = one + one
    if a.is_zero():
        n_s = Scalar.from_rational(n) if a.exact else Scalar.from_float(n)
        return -b * n_s / two
    return -b / two * (one + a).pow(n - 4) * eval_P(n, a)

