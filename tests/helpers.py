"""Test-only forms and checks: intermediate steps of the paper's derivations
and thin wrappers over package internals, kept here because nothing in the
package calls them.
"""

from twinrep.linalg import Matrix, _eliminate
from twinrep.oracle import _unwrap, algebra_dimension
from twinrep.reduction import build_Q
from twinrep.reps import RepSpec, build_generator
from twinrep.scalars import Scalar


def s2v1_closed(n, a, b):
    """Closed form of S_2 v_1, the one chain image that can leave W
    (n >= 4, a != +-1)."""
    one = Scalar.one(a.exact)
    two = one + one
    u = one - a
    entries = [-u.pow(n - 1) / (two * b.pow(n - 4)),
               (one + a * a) * b / two,
               u.pow(3) / two + a + one]
    for j in range(4, n):
        entries.append(u.pow(j) / (two * b.pow(j - 3)))
    return Matrix.column(entries)


def delta_intermediate(n, a, b):
    """The pre-geometric-sum form of Delta: -b/2 [4(1+a^2)(1+a)^(n-4)
    + sum_{k=4}^{n-1} (1-a)^k (1+a)^(n-1-k)]; empty sum at n = 4."""
    one = Scalar.one(a.exact)
    two = one + one
    four = two + two
    u = one - a
    p = one + a
    acc = four * (one + a * a) * p.pow(n - 4)
    for k in range(4, n):
        acc = acc + u.pow(k) * p.pow(n - 1 - k)
    return -b / two * acc


def conjugated_full_gen(n, a, b, k):
    """Q^-1 xi_1(s_k) Q, before deleting the first row and column."""
    q, qinv = build_Q(n, a, b)
    full = build_generator(RepSpec(1, n, a, b), k).matrix
    return qinv @ full @ q


def rank_with_gap(a):
    """Rank and float rank gap (smallest accepted over largest rejected
    pivot) of one elimination."""
    res = _eliminate(a)
    return res.rank, res.rank_gap


def is_irreducible_oracle(images):
    """Burnside: irreducible iff the generated algebra is all of d x d."""
    mats, d = _unwrap(images)
    return algebra_dimension(mats) == d * d
