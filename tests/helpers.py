"""Test-only forms and checks: intermediate steps of the paper's derivations
and thin wrappers over package internals, kept here because nothing in the
package calls them.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from twinrep import oracle
from twinrep.irreducibility import (IRREDUCIBLE, REDUCIBLE, Verdict, _exact_P,
                                    eval_P, witness_check)
from twinrep.linalg import DimensionError, Matrix, Subspace
from twinrep.oracle import _FloatSpan, _lifted, _unwrap, algebra_closure
from twinrep.reduction import (ParameterError, _check_family1, build_Q,
                               build_S)
from twinrep.reps import RepSpec, build_block, build_generator
from twinrep.scalars import (BackendMismatchError, Scalar, _to_plain,
                             default_eps, require_finite)


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


def reference_eval_P(n, a):
    """P(a) = 4(1+a^2) + (1-a)^4/(2a) (1 - ((1-a)/(1+a))^(n-4)) in `Scalar`
    arithmetic: the reference for `eval_P`, which runs the same steps on
    plain (re, im) pairs and must match it bit for bit, errors included."""
    if n < 4:
        raise ParameterError("eval_P needs n >= 4")
    exact = a.exact
    one = Scalar.one(exact)
    two = one + one
    four = two + two
    if a.is_zero() or (a + one).is_zero():
        raise ParameterError("a = 0 and a = -1 are poles of the criterion")
    u = one - a
    return four * (one + a * a) + \
        u.pow(4) / (two * a) * (one - (u / (one + a)).pow(n - 4))


def zeros(rows, cols, exact=True):
    return Matrix([[Scalar.zero(exact)] * cols for _ in range(rows)])


def is_identity(m):
    return m.rows == m.cols and m.eq(Matrix.identity(m.rows, m.exact))


def delete_row_col(m, i, j):
    """m without row i and column j (0-based)."""
    return Matrix([[x for c, x in enumerate(row) if c != j]
                   for r, row in enumerate(m.data) if r != i])


def eval_exact(poly, a):
    """The cleared polynomial `poly` (a ClearedPoly) at a, by Horner in a's
    own backend."""
    acc = Scalar.zero(a.exact)
    mk = Scalar.from_rational if a.exact else Scalar.from_float
    for c in reversed(poly.coeffs):
        acc = acc * a + mk(c)
    return acc


def conjugated_full_gen(n, a, b, k):
    """Q^-1 xi_1(s_k) Q, before deleting the first row and column."""
    q, qinv = build_Q(n, a, b)
    full = build_generator(RepSpec(1, n, a, b), k).matrix
    return qinv @ full @ q


def _matrices(images):
    """The images' matrices and their size, read without the oracle."""
    mats = [img.matrix if hasattr(img, "matrix") else img for img in images]
    return mats, mats[0].rows


def is_irreducible_oracle(images):
    """Burnside: irreducible iff the generated algebra is all of d x d."""
    _, d = _matrices(images)
    return algebra_closure(images).dim == d * d


def predicted_structure(n, verdict):
    """(algebra dimension, eigenline count) of the reduced images that the
    verdict of `decide` predicts, d = n - 1: (d^2, 0) when irreducible;
    (d^2 - d + 1, 0) at a root of P, where every image keeps the witness
    hyperplane W, whose stabiliser in M_d has that dimension; and
    (d(d + 1)/2, 1) at a = +-1, where c = (1 - a^2)/b = 0 makes every block
    triangular, so a complete flag is invariant and the algebra lies in its
    triangular algebra.  The dimensions are upper bounds; equality, and the
    eigenline counts, are observations on the tests' grid."""
    d = n - 1
    if not verdict.reducible:
        return d * d, 0
    if verdict.reason == "root-of-P":
        return d * d - d + 1, 0
    if verdict.reason in ("a=1", "a=-1"):
        return d * (d + 1) // 2, 1
    raise ValueError("no prediction for a %s verdict" % verdict.reason)


def reference_closure(images):
    """(dim, words) of the left-only Burnside closure of exact images, with
    dependence decided over Q(i) itself: forward-only elimination of the
    flattened products, entries as (re, im) Fraction pairs.  The reference
    for the modular closure in `algebra_closure`, which must accept the same
    candidates in the same order."""
    mats, d = _matrices(images)
    zero = (Fraction(0), Fraction(0))
    gens = [[[(k, (x.re, x.im)) for k, x in enumerate(row) if not x.is_zero()]
             for row in m.data] for m in mats]
    rows = []  # (pivot index, dense row with pivot 1, off-pivot entries)

    def left_mul(g, v):
        out = []
        for terms in g:
            acc = [zero] * d
            for k, (cr, ci) in terms:
                acc = [(sr + cr * xr - ci * xi, si + cr * xi + ci * xr)
                       for (sr, si), (xr, xi) in zip(acc, v[k * d:k * d + d])]
            out += acc
        return out

    def insert(v):
        for p, _, nonzero in rows:
            fr, fi = v[p]
            if fr or fi:
                v[p] = zero
                for j, yr, yi in nonzero:
                    xr, xi = v[j]
                    v[j] = (xr - (fr * yr - fi * yi), xi - (fr * yi + fi * yr))
        pivot = next((j for j, (xr, xi) in enumerate(v) if xr or xi), None)
        if pivot is None:
            return False
        pr, pi = v[pivot]
        n2 = pr * pr + pi * pi
        ir, ii = pr / n2, -pi / n2
        row = [(xr * ir - xi * ii, xr * ii + xi * ir) for xr, xi in v]
        rows.append((pivot, row, [(j, xr, xi) for j, (xr, xi) in enumerate(row)
                                  if (xr or xi) and j != pivot]))
        return True

    insert([(Fraction(int(i == j)), Fraction(0))
            for i in range(d) for j in range(d)])
    words = [()]
    i = 0
    while i < len(words) < d * d:
        for k, g in enumerate(gens):
            if insert(left_mul(g, rows[i][1])):
                words.append((k,) + words[i])
                if len(words) == d * d:
                    break
        i += 1
    return len(words), words


class DenseFloatSpan(_FloatSpan):
    """`oracle._FloatSpan` as it reduced a candidate against every entry of
    every stored row: the reference for its sparse insert.  Rows are kept
    as (pivot index, dense row, None)."""

    def insert(self, v):
        mag = max(map(abs, v))
        if mag == 0.0:
            return False
        for p, row, _ in self.rows:
            f = v[p]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        res, pivot = max(zip(map(abs, v), range(len(v))))
        rel = res / mag
        if rel <= self.eps:
            self.max_rej = max(self.max_rej, rel)
            return False
        self.min_acc = min(self.min_acc, rel)
        inv = 1.0 / v[pivot]
        row = [x * inv for x in v]
        row[pivot] = 1.0
        self.rows.append((pivot, row, None))
        return True


def dense_left_product(patch, v, d):
    """g @ v for the flattened d x d matrix v and g given by its lifted
    patch, every row summed from its terms, a row outside the patch as the
    unit term (row, 1): the formation `oracle._grow` replaced by
    recomputing only the patch rows."""
    gv = []
    for r in range(d):
        acc = None
        for col, c in patch.get(r, {r: 1}).items():
            seg = v[col * d:col * d + d]
            if c != 1:
                seg = [c * x for x in seg]
            acc = seg if acc is None else [s + x for s, x in zip(acc, seg)]
        gv += acc or [0] * d
    return gv


def dense_float_closure(images):
    """(dim, words, rank_gap) of `oracle.algebra_closure` on float images
    as it ran before it went sparse: the same skipped candidates, each
    candidate formed by `dense_left_product` and eliminated by
    `DenseFloatSpan`.  The relations are looked up in `oracle` at call
    time, so a test that hides one from `_grow` hides it here too."""
    _, patches, d = _unwrap(images)
    span = DenseFloatSpan()
    gens = _lifted(patches, Scalar.to_complex)
    involution = [oracle._squares_to_identity(g, span.eq, span.one,
                                              span.zero) for g in gens]
    moved = [oracle._moved(g) for g in gens]
    span.insert([1 if j % (d + 1) == 0 else 0 for j in range(d * d)])
    words = [()]
    i = 0
    while i < len(words) < d * d:
        word = words[i]
        for k, g in enumerate(gens):
            if word and (involution[k] if word[0] == k
                         else not (moved[word[0]] & moved[k])):
                continue
            if span.insert(dense_left_product(g, span.rows[i][1], d)):
                words.append((k,) + word)
                if len(words) == d * d:
                    break
        i += 1
    gap = span.min_acc / span.max_rej if span.max_rej else math.inf
    return len(words), words, gap


def is_prime(n):
    """Deterministic Miller-Rabin: the first twelve primes as bases decide
    every n < 3.18e23 (J. Sorenson and J. Webster, "Strong pseudoprimes to
    twelve prime bases", Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases or any(n % q == 0 for q in bases):
        return n in bases
    if n >= 318665857834031151167461:
        raise ValueError("is_prime is deterministic only below 3.18e23")
    s, t = 0, n - 1
    while t % 2 == 0:
        s, t = s + 1, t // 2
    for a in bases:
        x = pow(a, t, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def reference_eliminate(m):
    """Row echelon form of m on `Scalar`s, as `linalg` computed it before
    its loops moved to plain numbers: (rows, pivot columns, sign of the row
    permutation).  Exact: first nonzero pivot.  Float: partial pivoting,
    pivot accepted when its magnitude exceeds eps * max(1, matrix scale)."""
    a = [list(row) for row in m.data]
    nrows, ncols, exact = m.rows, m.cols, m.exact
    scale = max(x.magnitude() for row in m.data for x in row)
    thresh = None if exact else default_eps() * max(1.0, scale)
    pivot_cols = []
    sign = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        if exact:
            p = next((i for i in range(r, nrows) if not a[i][c].is_zero()), None)
        else:
            best_mag, p = max([(a[i][c].magnitude(), i) for i in range(r, nrows)])
            if best_mag <= thresh:
                p = None
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        inv = a[r][c].inv()
        for i in range(r + 1, nrows):
            if exact and a[i][c].is_zero():
                continue
            f = a[i][c] * inv
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
    return a, pivot_cols, sign


def reference_det(a):
    """The determinant read off `reference_eliminate`."""
    rows, pivot_cols, sign = reference_eliminate(a)
    if len(pivot_cols) < a.rows:
        return Scalar.zero(a.exact)
    det = Scalar.one(a.exact)
    for i in range(a.rows):
        det = det * rows[i][i]
    return -det if sign < 0 else det


def reference_rank(a):
    return len(reference_eliminate(a)[1])


def reference_rref(m):
    """Reduced row echelon form (pivots normalized and cleared upward) on
    `Scalar`s: (rows, pivot columns)."""
    a, pivot_cols, _ = reference_eliminate(m)
    for k in reversed(range(len(pivot_cols))):
        c = pivot_cols[k]
        inv = a[k][c].inv()
        a[k] = [x * inv for x in a[k]]
        for i in range(k):
            f = a[i][c]
            if f.re == 0 and f.im == 0:
                continue
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return a, pivot_cols


def reference_kernel(a):
    """Basis of {x : Ax = 0} from `reference_rref`, one vector per free
    column: the reference for `linalg.kernel`."""
    rref, pivot_cols = reference_rref(a)
    zero = Scalar.zero(a.exact)
    basis = []
    for f in (c for c in range(a.cols) if c not in pivot_cols):
        v = [zero] * a.cols
        v[f] = Scalar.one(a.exact)
        for r, c in enumerate(pivot_cols):
            v[c] = -rref[r][f]
        basis.append(Matrix.column(v))
    return Subspace(a.cols, basis, _assume_independent=True)


def reference_matmul(a, b):
    """a @ b on `Scalar`s, each entry summed from zero in column order over
    the terms where neither factor is 0: the reference for
    `Matrix.__matmul__`."""
    if a.cols != b.rows:
        raise DimensionError("product shape mismatch")
    zero = Scalar.zero(a.exact)
    out = []
    for row in a.data:
        terms = [(j, x) for j, x in enumerate(row)
                 if not (x.re == 0 and x.im == 0)]
        new = []
        for c in range(b.cols):
            acc = zero
            for j, x in terms:
                y = b.data[j][c]
                if not (y.re == 0 and y.im == 0):
                    acc = acc + x * y
            new.append(acc)
        out.append(new)
    return Matrix(out)


def word_matrix(images, word):
    """images[k1] @ ... @ images[km] for word (k1, ..., km); I for ()."""
    mats, d = _matrices(images)
    out = Matrix.identity(d, mats[0].exact)
    for k in reversed(word):
        out = mats[k] @ out
    return out


class SingularMatrixError(ValueError):
    def __init__(self, message, pivot_col=None):
        super().__init__(message)
        self.pivot_col = pivot_col


def mat_inverse(a):
    """Inverse read off the reduced echelon form of (A | I); raises
    SingularMatrixError naming the first column of A without a pivot.  The
    reference for the closed-form Sherman-Morrison inverses of Q and P."""
    if a.rows != a.cols:
        raise DimensionError("inverse of non-square matrix")
    n = a.rows
    aug = Matrix([row + idrow for row, idrow in
                  zip(a.data, Matrix.identity(n, a.exact).data)])
    rref, pivot_cols = reference_rref(aug)
    # pivot columns increase, so the first one out of place names the gap
    missing = next((c for c, p in enumerate(pivot_cols) if c != p), n)
    if missing < n:
        raise SingularMatrixError("singular matrix: no pivot in column %d"
                                  % missing, pivot_col=missing)
    return Matrix([row[n:] for row in rref])


def from_complex(z):
    """Float scalar from a Python complex."""
    return Scalar.from_float(z.real, z.imag)


def scalar_from_json(obj):
    """Inverse of `Scalar.to_json`."""
    re_, im_ = obj["re"], obj["im"]
    if isinstance(re_, list):
        return Scalar.from_rational(Fraction(int(re_[0]), int(re_[1])),
                                    Fraction(int(im_[0]), int(im_[1])))
    return Scalar.from_float(re_, im_)


def matrix_from_json(obj):
    """Inverse of `Matrix.to_json`; checks the shape and backend tags."""
    m = Matrix([[scalar_from_json(x) for x in row] for row in obj["data"]])
    if m.rows != obj["rows"] or m.cols != obj["cols"]:
        raise DimensionError("JSON rows/cols disagree with data")
    if m.backend != obj["backend"]:
        raise BackendMismatchError("JSON backend tag disagrees with data")
    return m


def annihilator(n, a, b):
    """phi_j = (b/(1+a))^j for j = 0..n-2, as `decide` builds it for its
    root-of-P witness: the row that cuts out <w, v_1, ..., v_{n-3}>."""
    one = Scalar.one(a.exact)
    phi, r = [one], b / (one + a)
    for _ in range(n - 2):
        phi.append(phi[-1] * r)
    return phi


def reference_witness_check(images, w):
    """True iff every generator image maps span(w) into itself, for any
    subspace w: the reference for `irreducibility.witness_check`, which
    checks only the two witness shapes `decide` builds.

    Works through the annihilator: the rows phi of kernel(B^T), for the basis
    matrix B, cut out span(w), so g maps span(w) into itself iff Phi g B = 0.
    Exact mode asks for exact zeros.  Float mode first scales each basis
    vector so its largest entry has modulus 1, then needs every entry
    r = phi . (g x) to pass |r| <= eps ||phi||_2 ||g x||_2, tested as
    `not (|r| <= bound < inf)` so NaN and overflow fail.  |r| / ||phi||_2 is
    the distance of g x from ker phi: the bound caps it at eps ||g x||_2.

    An image is a matrix, a GeneratorImage, or {row: {column: entry}} over
    the rows where it differs from the identity; a phi that reads none of
    them keeps phi . x."""
    # sparse {index: entry} vectors: a line's phi has at most 2 entries
    nonzeros = lambda pairs: {i: x for i, x in pairs if x.re or x.im}
    patches = []
    for img in images:
        if not isinstance(img, dict):
            m = getattr(img, "matrix", img)
            if (m.rows, m.cols) != (w.ambient_dim,) * 2:
                raise ParameterError("witness/image dimension mismatch")
            img = {i: dict(enumerate(row)) for i, row in enumerate(m.data)}
        patches.append({i: nonzeros(row.items()) for i, row in img.items()})
    if w.dim in (0, w.ambient_dim):
        return True
    exact = w.basis[0].exact
    b = Matrix.from_columns(w.basis if exact else [
        v.scale(Scalar.from_float(
            1.0 / max(x.magnitude() for x in v.column_entries()))) for v in w.basis])
    xs = [nonzeros(enumerate(b.column_entries(j))) for j in range(b.cols)]
    norm2 = lambda v: 0.0 if exact else math.hypot(
        *(x.magnitude() for x in v.values()))
    zero = Scalar.zero(exact)
    dot = lambda u, v: sum((x * v[i] for i, x in u.items() if i in v), zero)
    b_t = Matrix([b.column_entries(j) for j in range(b.cols)])
    phis = [nonzeros(enumerate(v.column_entries()))
            for v in reference_kernel(b_t).basis]
    tols = [default_eps() * norm2(phi) for phi in phis]
    unchanged = [[zero if exact else dot(phi, x) for x in xs] for phi in phis]
    for rows in filter(None, patches):
        reads = [any(i in rows for i in phi) for phi in phis]
        for j, x in enumerate(xs):
            gx = nonzeros((i, dot(rows[i], x) if i in rows else x.get(i, zero))
                          for i in range(w.ambient_dim))
            gx_norm = norm2(gx)
            for phi, tol, r0, read in zip(phis, tols, unchanged, reads):
                if exact and not read:
                    continue  # phi . (g x) = phi . x = 0
                r = dot(phi, gx) if read else r0[j]
                if not (r.is_zero() if exact else
                        r.magnitude() <= tol * gx_norm < math.inf):
                    return False
    return True


def _scalar_vanishes(terms, zero, scale=None):
    """Whether the Scalars `terms` sum to zero: exactly on the exact backend,
    on floats within eps times `scale`, by default the sum of their moduli
    (Oettli and Prager's componentwise test); NaN and overflow fail."""
    total = sum(terms, zero)
    if zero.exact:
        return total.is_zero()
    if scale is None:
        # in order from 0, as `Scalar` sums are: `sum` of floats compensates
        # its rounding from Python 3.12 on
        scale = 0.0
        for t in terms:
            scale += t.magnitude()
    return total.magnitude() <= default_eps() * scale < math.inf


def scalar_witness_check(images, w, phi=None):
    """`irreducibility.witness_check` on `Scalar` entries: the form it had
    before it moved onto (re, im) pairs, kept as the reference it must match
    bit for bit.  Each image g is {row: {column: entry}} over the rows where
    it differs from the identity, w a Subspace, phi a list of Scalars.

    A line <x> (phi None) needs g x = lam x at the largest entry x_p; entry
    i of g x - lam x is r . g x for r = e_i - (x_i/x_p) e_p, at most
    eps ||r||_2 ||g x||_2 on floats.  A hyperplane needs phi . x = 0 for its
    basis vectors x and phi g = phi, tested componentwise; vector j has its
    first nonzero entry in row j, so span(w) = ker phi (dimension
    ambient - 1), which phi g = phi maps into itself."""
    exact = w.basis[0].exact
    zero, one = Scalar.zero(exact), Scalar.one(exact)
    xs = [{i: x for i, x in enumerate(v.column_entries()) if x.re or x.im}
          for v in w.basis]
    if phi is None:
        x = xs[0]
        if w.dim != 1 or not x:
            return False
        p = next(iter(x)) if exact else max(x, key=lambda i: x[i].magnitude())
        for rows in images:
            gx = dict(x)
            for i, row in rows.items():
                gx[i] = sum((g * x[c] for c, g in row.items() if c in x), zero)
            # with row p unpatched lam = 1, and only the patched rows move
            lam = gx[p] / x[p] if p in rows else one
            norm = 0.0 if exact else math.hypot(
                *(y.magnitude() for y in gx.values()))
            for i in rows.keys() | (x.keys() if p in rows else {}):
                xi = x.get(i, zero)
                scale = None if exact else norm * math.hypot(
                    1.0, xi.magnitude() / x[p].magnitude())
                if not _scalar_vanishes([gx[i], -(lam * xi)], zero, scale):
                    return False
        return True
    phi = {i: f for i, f in enumerate(phi) if f.re or f.im}
    if (w.dim != w.ambient_dim - 1 or not phi
            or any(min(x, default=None) != j for j, x in enumerate(xs))
            or not all(_scalar_vanishes([f * x[i] for i, f in phi.items()
                                         if i in x], zero) for x in xs)):
        return False
    for rows in images:
        # entry c of phi g - phi: phi_i g_ic over the patched rows i, less
        # phi_c when row c is patched
        cols = {i: [-phi[i]] for i in rows if i in phi}
        for i in rows.keys() & phi.keys():
            for c, g in rows[i].items():
                cols.setdefault(c, []).append(phi[i] * g)
        if not all(_scalar_vanishes(terms, zero) for terms in cols.values()):
            return False
    return True


def plain_witness_check(images, w, phi=None):
    """`irreducibility.witness_check` on the inputs `scalar_witness_check`
    takes, each Scalar made plain (`scalars._to_plain`): an (re, im) pair
    when exact, a `complex` on floats."""
    return witness_check(
        [{i: {j: _to_plain(g) for j, g in row.items()}
          for i, row in rows.items()} for rows in images],
        [dict(enumerate(map(_to_plain, v.column_entries()))) for v in w.basis],
        w.basis[0].exact, None if phi is None else list(map(_to_plain, phi)))


def reference_s1_entry(x, y):
    """x / y by `Scalar` division, as an s_1 entry is formed: where the
    divisor is refused (a float whose squared modulus underflows), 0 if x
    is 0, and otherwise x and y with each part times the power of two 2^k
    that takes y's larger part into [2^-100, 2^-99), then divided."""
    if y.invertible():
        return x / y
    if not x:
        return Scalar.zero(x.exact)
    s = 2.0 ** (-99 - math.frexp(max(abs(y.re), abs(y.im)))[1])
    return (Scalar(x.re * s, x.im * s, False)
            / Scalar(y.re * s, y.im * s, False))


def reference_gen_rows(n, a, b):
    """The row patches of s_1..s_{n-1} that `reduction._reduced_gen_rows`
    gives, from `Scalar` arithmetic: the s_1 entries (a-1)^j/(-b)^(j-1) by
    `Scalar.pow` and `reference_s1_entry`, the block
    [[a, b], [(1-a^2)/b, -a]]."""
    _check_family1(a, b)
    one = Scalar.one(a.exact)
    s1 = {0: {0: -one}}
    for j in range(2, n):
        s1[j - 1] = {0: reference_s1_entry((a - one).pow(j), (-b).pow(j - 1)),
                     j - 1: one}
    m = [[a, b], [(one - a * a) / b, -a]]
    return [s1] + [{k - 2 + r: {k - 2: m[r][0], k - 1: m[r][1]}
                    for r in (0, 1)} for k in range(2, n)]


def reference_eigvec_w(n, a, b):
    """w_1 = 2 b^(n-2) / (1-a)^(n-1), w_j = (b/(1-a))^(n-j-1), by `Scalar`
    arithmetic: the reference for `reduction.eigvec_w`."""
    one = Scalar.one(a.exact)
    two = one + one
    u = one - a
    entries = [two * b.pow(n - 2) / u.pow(n - 1)]
    for j in range(2, n):
        entries.append((b / u).pow(n - j - 1))
    return Matrix.column(entries)


def reference_block_diag(*blocks):
    """The block-diagonal matrix of `blocks`, None entries skipped: the
    layout of the generator images and of the test fixtures before
    `Matrix.identity` took row patches."""
    blocks = [b for b in blocks if b is not None]
    n = sum(b.rows for b in blocks)
    m = sum(b.cols for b in blocks)
    out = [[Scalar.zero(blocks[0].exact)] * m for _ in range(n)]
    i = j = 0
    for b in blocks:
        for r in range(b.rows):
            for c in range(b.cols):
                out[i + r][j + c] = b.data[r][c]
        i += b.rows
        j += b.cols
    return Matrix(out)


def reference_generator(spec, k):
    """I_{k-1} (+) M (+) I_{n-k-1} by `reference_block_diag`: the reference
    for `reps.build_generator`."""
    left = Matrix.identity(k - 1, spec.exact) if k > 1 else None
    right = (Matrix.identity(spec.n - k - 1, spec.exact)
             if k < spec.n - 1 else None)
    return reference_block_diag(left, build_block(spec), right)


def reference_invariant_vector(n, a, b):
    """((1-a)/b)^(k-1), k = 1..n, by a running `Scalar` product: the
    reference for `reduction.invariant_vector`."""
    one = Scalar.one(a.exact)
    r = (one - a) / b
    entries = [one]
    for _ in range(n - 1):
        entries.append(entries[-1] * r)
    return Matrix.column(entries)


def _identity_rows(n, exact):
    return [list(row) for row in Matrix.identity(n, exact).data]


def reference_Q(n, a, b):
    """Q = I + (v - e_1)e_1^T and I - (v - e_1)e_1^T, each a copy of the
    identity with its first column written over: the reference for
    `reduction.build_Q`."""
    v = reference_invariant_vector(n, a, b)
    q, qinv = _identity_rows(n, a.exact), _identity_rows(n, a.exact)
    for i in range(1, n):
        q[i][0] = v.data[i][0]
        qinv[i][0] = -v.data[i][0]
    return Matrix(q), Matrix(qinv)


def reference_P(n, a, b):
    """P = I + (w - e_1)e_1^T and I - (1/w_1)(w - e_1)e_1^T, written over
    copies of the identity: the reference for `reduction.build_P`."""
    w = reference_eigvec_w(n, a, b)
    exact = a.exact
    w1inv = w.data[0][0].inv()
    p, pinv = _identity_rows(n - 1, exact), _identity_rows(n - 1, exact)
    p[0][0] = w.data[0][0]
    pinv[0][0] = w1inv
    for i in range(1, n - 1):
        p[i][0] = w.data[i][0]
        pinv[i][0] = -w.data[i][0] * w1inv
    return Matrix(p), Matrix(pinv)


def reference_S(n, a, b, j):
    """S_1 = diag(-1, 1, ..., 1) and the dense S_2, written entry by entry
    over a copy of the identity: the reference for `reduction.build_S` at
    j = 1, 2."""
    exact = a.exact
    one = Scalar.one(exact)
    data = _identity_rows(n - 1, exact)
    if j == 1:
        data[0][0] = -one
        return Matrix(data)
    two = one + one
    u = one - a
    p = one + a
    data[0][0] = (a * a + one) / two
    data[0][1] = u.pow(n - 1) / (two * b.pow(n - 3))
    three = two + one
    data[1][0] = (three + a * a) * p * b.pow(n - 3) / (two * u.pow(n - 2))
    data[1][1] = -(one + a * a) / two
    for row in range(3, n):
        data[row - 1][0] = p * b.pow(n - row - 1) / (two * u.pow(n - row - 2))
        data[row - 1][1] = -u.pow(row) / (two * b.pow(row - 2))
    return Matrix(data)


def reference_delta(n, a, b):
    """-b/2 (1+a)^(n-4) [4(1+a^2) + (1-a)^4/(2a) (1 - ((1-a)/(1+a))^(n-4))]
    with the bracket in `Scalar` arithmetic, and -bn/2 at a = 0: the
    reference for `chains.delta`, which takes the bracket from `eval_P`."""
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


def reference_chain_vector(n, a, b, k):
    """v_k = -b e_{k+1} + (1+a) e_{k+2} by `Scalar` arithmetic, signed zeros
    as summed: the reference for `chains.closed_chain_vector`."""
    one, zero = Scalar.one(a.exact), Scalar.zero(a.exact)
    entry = lambda x, y: -b * x + (one + a) * y
    entries = [entry(zero, zero)] * (n - 1)
    entries[k], entries[k + 1] = entry(one, zero), entry(zero, one)
    return Matrix.column(entries)


def reference_decide(n, a, b):
    """`irreducibility.decide` as it ran on `Scalar`s: the same branches,
    every witness, phi and row patch built by `Scalar` arithmetic and
    checked by `scalar_witness_check`.  decide, on (re, im) pairs, must give
    the same verdicts and witnesses bit for bit, and the same errors."""
    if n < 3:
        raise ParameterError("decide needs n >= 3")
    require_finite(a)
    require_finite(b)
    _check_family1(a, b)
    exact = a.exact
    one = Scalar.one(exact)
    phi, diag = None, {}
    if a.eq(one):
        reason, vecs = "a=1", [Matrix.basis_vector(n - 1, 1, exact)]
    elif a.eq(-one):
        two = one + one
        reason = "a=-1"
        vecs = [Matrix.column([(b / two).pow(n - 1 - k) for k in range(1, n)])]
    elif n == 3:
        s3 = math.sqrt(3.0)
        if exact or not (a.eq(Scalar.from_float(0.0, s3))
                         or a.eq(Scalar.from_float(0.0, -s3))):
            return Verdict(IRREDUCIBLE, "T3-criterion")
        reason = "T3-special"
        vecs = [Matrix.column([(one + one) * b / (a - one).pow(2), one])]
    elif a.is_zero():
        return Verdict(IRREDUCIBLE, "a=0", diagnostics={"delta_branch": "-bn/2"})
    else:
        if exact:
            abs_p, root = _exact_P(n, a)
        else:
            p = eval_P(n, a)
            abs_p, root = p.magnitude(), p.is_zero()
        diag = {"abs_P": abs_p}
        if not root:
            return Verdict(IRREDUCIBLE, "generic", diagnostics=diag)
        reason = "root-of-P"
        vecs = [reference_eigvec_w(n, a, b)]
        vecs += [reference_chain_vector(n, a, b, k) for k in range(1, n - 2)]
        phi = annihilator(n, a, b)
    w = Subspace(n - 1, vecs, _assume_independent=True)
    if not scalar_witness_check(reference_gen_rows(n, a, b), w, phi):
        raise ArithmeticError(
            "internal error: witness failed the invariance check "
            "(n=%d, reason=%s)" % (n, reason))
    return Verdict(REDUCIBLE, reason, w, diag)


def closure_check(bundle):
    """Verify every identity that keeps W = <e_1, v_1..v_{n-3}> of a
    `chains.ChainBundle` stable under S_1, S_2 (on v_j, j >= 2) and S_k,
    k >= 3.  Returns failure strings."""
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
    sum_{k=2}^{n} (-1)^(k+1) x_k y1^(k-2) y2^(n-k); x_1 never appears.  The
    bordered determinant lemma behind the closed form of Delta."""
    n = len(xs)
    if n < 2:
        raise ParameterError("needs at least 2 entries")
    exact = xs[0].exact
    acc = Scalar.zero(exact)
    for k in range(2, n + 1):
        term = xs[k - 1] * y1.pow(k - 2) * y2.pow(n - k)
        acc = acc + term if k % 2 == 1 else acc - term
    return acc


@dataclass(frozen=True)
class BlockClass:
    kind: str  # "family1" | "family2" | "family3" | "trivial" | "invalid"
    a: Optional[Scalar] = None
    b: Optional[Scalar] = None
    c: Optional[Scalar] = None
    sign: Optional[int] = None


def classify_block(m):
    """Classify a 2x2 block into its family, recovering parameters.

    b != 0 forces family 1 (d = -a by the involution equations); with b = 0
    the block is -I (family 3), I (trivial), or diag(+-1, -+1) with arbitrary
    lower-left entry (family 2).  Anything that is not an involution is
    invalid.
    """
    if m.rows != 2 or m.cols != 2:
        raise ValueError("classify_block wants a 2x2 matrix")
    exact = m.exact
    ident = Matrix.identity(2, exact)
    if not (m @ m).eq(ident):
        return BlockClass("invalid")
    a, b = m.data[0]
    c, d = m.data[1]
    one = Scalar.one(exact)
    if not b.is_zero():
        return BlockClass("family1", a=a, b=b)
    if m.eq(-ident):
        return BlockClass("family3")
    if m.eq(ident):
        return BlockClass("trivial")
    if (a + d).is_zero() and (a * a - one).is_zero():
        sign = 1 if a.eq(one) else -1
        return BlockClass("family2", c=c, sign=sign)
    return BlockClass("invalid")


def reference_common_eigenlines(images):
    """The `Scalar` sign tree that `oracle.common_eigenlines` must match,
    on `reference_matmul` and `reference_kernel`: starts from the whole
    space, basis matrix I; each generator g splits every candidate basis K
    into K @ kernel(g K - K) and K @ kernel(g K + K), empty parts dropped;
    the one-column candidates, scaled to a lead entry of 1, are the lines,
    in (+1, -1) sign order."""
    mats, d = _matrices(images)
    ident = Matrix.identity(d, mats[0].exact)
    for m in mats:
        if not reference_matmul(m, m).eq(ident):
            raise ValueError("common_eigenlines expects involutions")
    candidates = [ident]
    for g in mats:
        split = []
        for k in candidates:
            gk = reference_matmul(g, k)
            for part in (reference_kernel(gk - k), reference_kernel(gk + k)):
                if part.dim:
                    split.append(reference_matmul(
                        k, Matrix.from_columns(part.basis)))
        candidates = split
    return [Subspace(d, [Matrix.column(_reference_direction(k))],
                     _assume_independent=True)
            for k in candidates if k.cols == 1]


def reference_is_involution(m):
    """m @ m == I, every row of the product summed by `reference_matmul`
    and compared under `Scalar.eq`: no row is skipped."""
    return reference_matmul(m, m).eq(Matrix.identity(m.rows, m.exact))


def _reference_direction(v):
    """Entries of v scaled so that its lead entry is exactly 1: the first
    nonzero entry (exact) or the largest one (float)."""
    entries = v.column_entries()
    if v.exact:
        idx = next(i for i, x in enumerate(entries) if not x.is_zero())
    else:
        _, idx = max((x.magnitude(), i) for i, x in enumerate(entries))
    inv = entries[idx].inv()
    out = [x * inv for x in entries]
    out[idx] = Scalar.one(v.exact)
    return out

