"""Reduction of the first family to dimension n-1, and the eigenbasis form.

The n-dimensional family-1 representation fixes the line spanned by
v = sum_k ((1-a)/b)^(k-1) e_k.  Conjugating by Q = I + (v - e_1) e_1^T and
deleting the first row and column yields the reduced (n-1)-dimensional
representation.  A second change of basis by P = I + (w - e_1) e_1^T, where w
is the -1 eigenvector of the reduced image of s_1, produces the S_j matrices
whose closed forms drive the irreducibility analysis.  Both Q and P are
rank-one updates of the identity, so their inverses are the mirrored rank-one
updates (Sherman-Morrison).  `linalg.Matrix.identity` builds every matrix
here from the rows in which it differs from I.  The builders that `decide`
shares, the chain entries included, live here too: they return plain
numbers (`scalars._to_plain`), `complex` for float input and (re, im)
pairs of Fractions for exact input, which the public functions wrap in
Scalars.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .linalg import Matrix
from .reps import GeneratorImage, ParameterError, _check_family1, _family1_c
from .scalars import (Scalar, _ONE_PARTS, _PLAIN_UNITS, _ZERO_PARTS, _cdiv,
                      _cmul, _from_plain, _gaussian, _norm2, _pow, _powers,
                      _to_plain, _zdiv, _zpow, _zpowers)


def invariant_vector(n, a, b):
    """The fixed vector of the full family-1 representation: component k is
    ((1-a)/b)^(k-1), by one running product on (re, im) pairs."""
    _check_family1(a, b)
    exact = a.exact
    r = _cdiv(1 - a.re, 0 - a.im, b.re, b.im, exact)
    return Matrix._trusted([[Scalar(re, im, exact)] for re, im in
                            _powers(*r, n - 1, _ONE_PARTS[exact])])


def _first_column(col):
    """I + (col - e_1)e_1^T: the identity with first column `col`."""
    one = Scalar.one(col[0].exact)
    return Matrix.identity(len(col), one.exact,
                           {i: {i: one, 0: x} for i, x in enumerate(col)})


def build_Q(n, a, b):
    """Change of basis Q = (v, e_2, ..., e_n) = I + (v - e_1)e_1^T and its
    Sherman-Morrison inverse I - (v - e_1)e_1^T."""
    v = invariant_vector(n, a, b).column_entries()
    return _first_column(v), _first_column(v[:1] + [-x for x in v[1:]])


def build_reduced_gen(n, a, b, k):
    """Closed-form (n-1)x(n-1) image of s_k in the reduced representation.

    Equals the submatrix of Q^-1 xi_1(s_k) Q with the first row and column
    deleted: for k = 1 the identity with first column
    (-1, (a-1)^2/(-b), ..., (a-1)^(n-1)/(-b)^(n-2)), for k >= 2 the block
    I_{k-2} (+) M (+) I_{n-k-1}.
    """
    return Matrix.identity(n - 1, a.exact, _reduced_gen_rows(n, a, b, [k])[0])


def _reduced_gen_rows(n, a, b, ks):
    """For each k in ks, the rows in which `build_reduced_gen` differs from
    the identity, as {row: {column: entry}} (0-based, entries not listed
    are 0): rows k-2 and k-1 (the block) for k >= 2, every row for k = 1.
    The entries are those of `_reduced_gen_plain`, made Scalars."""
    _check_family1(a, b)
    exact = a.exact
    return [{i: {j: _from_plain(x, exact) for j, x in row.items()}
             for i, row in rows.items()}
            for rows in _reduced_gen_plain(n, a, b, ks)]


def _reduced_gen_plain(n, a, b, ks):
    """`_reduced_gen_rows` with plain entries (`scalars._to_plain`), a and
    b checked.  The block [[a, b], [(1-a^2)/b, -a]] is built once for all
    of ks, its (1-a^2)/b by `reps._family1_c`; s_1's column by
    `_s1_column`.  O(n) each k."""
    exact = a.exact
    one, _, minus_one = _PLAIN_UNITS[exact]
    out, p = [], None
    for k in ks:
        if not 1 <= k <= n - 1:
            raise ParameterError("generator index %d out of range for n=%d"
                                 % (k, n))
        if k == 1:
            # display row j + 1 is row j
            rows = {0: {0: minus_one}}
            for j, entry in enumerate(_s1_column(n, a, b), 1):
                rows[j] = {0: entry, j: one}
        else:
            if p is None:
                c = _family1_c(a, b)
                p, q, m = _to_plain(a), _to_plain(b), _to_plain(-a)
                c = c if exact else complex(*c)
            rows = {k - 2: {k - 2: p, k - 1: q}, k - 1: {k - 2: c, k - 1: m}}
        out.append(rows)
    return out


def _s1_column(n, a, b):
    """The entries (a-1)^j/(-b)^(j-1), j = 2..n-1, of s_1's first column,
    plain.  Float ones are `Scalar`'s (a-1).pow(j) / (-b).pow(j-1) bit for
    bit, the powers from `_zpowers`, where `_cdiv` takes the power of b.
    Over one whose squared modulus underflows, 0 stays 0 (every entry at
    a = 1), and other numerators are divided as with an unbounded exponent
    range.  The exact ones come from Gaussian integers: a-1 = U/q and
    -b = G/r (`_gaussian`) give entry j as U X^(j-1) / (q e^(j-1)), with
    X = U r conj(G) and e = q |G|^2, by one running product."""
    if not a.exact:
        nums = _zpowers(a.to_complex() - (1 + 0j), n - 1)
        dens = _zpowers(-b.to_complex(), n - 2)
        s1 = []
        for x, y in zip(nums[2:], dens[1:]):
            try:
                s1.append(_zdiv(x, y))
            except ZeroDivisionError:
                # x, y times 2^k, y's larger part in [2^-100, 2^-99): exact
                s = 2.0 ** (-99 - math.frexp(max(abs(y.real), abs(y.imag)))[1])
                s1.append(_zdiv(complex(x.real * s, x.imag * s),
                                complex(y.real * s, y.imag * s)) if x else 0j)
        return s1
    (ur, ui), q = _gaussian(a.re - 1, a.im)
    (gr, gi), r = _gaussian(-b.re, -b.im)
    x, e = _cmul(ur, ui, r * gr, -r * gi), q * _norm2(gr, gi)
    s1, den = [], q
    for sr, si in _powers(*x, n - 2, (ur, ui))[1:]:
        den *= e
        s1.append((Fraction(sr, den), Fraction(si, den)))
    return s1


def reduced_generators(n, a, b):
    """All n-1 reduced generator images, as GeneratorImage records (none at
    n = 1)."""
    _check_family1(a, b)
    if n < 1:
        raise ParameterError("reduced_generators needs n >= 1")
    rows = _reduced_gen_rows(n, a, b, range(1, n))
    return [GeneratorImage(k, Matrix.identity(n - 1, a.exact, r))
            for k, r in enumerate(rows, 1)]


def eigvec_w(n, a, b):
    """The -1 eigenvector of the reduced s_1 image (n >= 3, a not in {1,-1}):
    w_1 = 2 b^(n-2) / (1-a)^(n-1), w_j = (b/(1-a))^(n-j-1) for j >= 2."""
    _check_family1(a, b, not_pm1=True)
    if n < 3:
        raise ParameterError("eigvec_w needs n >= 3")
    exact = a.exact
    return Matrix._trusted([[_from_plain(x, exact)]
                            for x in _eigvec_w_plain(n, a, b)])


def _eigvec_w_plain(n, a, b):
    """The entries of `eigvec_w`, plain, formed as the `Scalar` expressions
    2 b^(n-2) / u^(n-1) and (b/u)^(n-j-1), u = 1 - a, are: bit for bit on
    floats, with the same errors.  Exact (b/u)^k are the same values, by
    one running product."""
    if not a.exact:
        u, z = (1 + 0j) - a.to_complex(), b.to_complex()
        w1 = _zdiv((2 + 0j) * _zpow(z, n - 2), _zpow(u, n - 1))
        return [w1] + _zpowers(_zdiv(z, u), n - 3)[::-1]
    ur, ui = 1 - a.re, 0 - a.im
    br, bi = b.re, b.im
    w1 = _cdiv(*_cmul(2, 0, *_pow(br, bi, n - 2, True)),
               *_pow(ur, ui, n - 1, True), True)
    qr, qi = _cdiv(br, bi, ur, ui, True)
    return [w1] + _powers(qr, qi, n - 3, _ONE_PARTS[True])[::-1]


def _chain_plain(a, b):
    """The three distinct entries of every chain vector, plain: -b x +
    (1+a) y at (x, y) = (0, 0), (1, 0) and (0, 1), on floats formed as that
    `Scalar` expression is, signed zeros as summed; exact, 0, -b and 1+a."""
    if a.exact:
        return _ZERO_PARTS[True], (-b.re, -b.im), (1 + a.re, a.im)
    m, p = -b.to_complex(), (1 + 0j) + a.to_complex()
    return m * 0j + p * 0j, m * (1 + 0j) + p * 0j, m * 0j + p * (1 + 0j)


def _chain_columns(n, ks, zero, lo, hi):
    """The columns v_k for k in ks, row by row, each row a list of its own:
    `zero` but for `lo` in row k and `hi` in row k + 1 (0-based)."""
    out, rng = [], range(n - 1)
    for k in ks:
        rows = [[zero] for _ in rng]
        rows[k], rows[k + 1] = [lo], [hi]
        out.append(Matrix._trusted(rows))
    return out


def build_P(n, a, b):
    """Transition matrix P = (w, e_2, ..., e_{n-1}) = I + (w - e_1)e_1^T and
    its inverse I - (1/w_1)(w - e_1)e_1^T."""
    w = eigvec_w(n, a, b).column_entries()
    c = w[0].inv()  # 1/w_1
    return _first_column(w), _first_column([c] + [-x * c for x in w[1:]])


def build_S(n, a, b, j):
    """Closed-form image of s_j relative to the eigenbasis {w, e_2, ..., e_{n-1}}.

    S_1 is diag(-1, 1, ..., 1); S_j for j >= 3 coincides with the reduced
    image I_{j-2} (+) M (+) I_{n-j-1}; S_2 is the only dense one, built here
    entry by entry from its closed form.  Each equals P^-1 times the reduced
    image of s_j times P (asserted in the test suite, bit-exactly in exact
    mode).
    """
    _check_family1(a, b, not_pm1=True)
    if n < 3:
        raise ParameterError("build_S needs n >= 3")
    if not 1 <= j <= n - 1:
        raise ParameterError("generator index %d out of range for n=%d" % (j, n))
    exact = a.exact
    one = Scalar.one(exact)
    if j == 1:
        return Matrix.identity(n - 1, exact, {0: {0: -one}})
    if j >= 3:
        return build_reduced_gen(n, a, b, j)
    two = one + one
    three = two + one
    u, p = one - a, one + a
    rows = {0: {0: (a * a + one) / two,
                1: u.pow(n - 1) / (two * b.pow(n - 3))},
            1: {0: (three + a * a) * p * b.pow(n - 3) / (two * u.pow(n - 2)),
                1: -(one + a * a) / two}}
    for row in range(3, n):  # rows j >= 3 of the display, 0-based row-1
        rows[row - 1] = {0: p * b.pow(n - row - 1) / (two * u.pow(n - row - 2)),
                         1: -u.pow(row) / (two * b.pow(row - 2)),
                         row - 1: one}
    return Matrix.identity(n - 1, exact, rows)
