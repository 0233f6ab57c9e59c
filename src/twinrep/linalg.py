"""Dense linear algebra over Scalar: products, inverse, determinant, rank, kernel.

Exact matrices are eliminated over the field of Gaussian rationals (first
nonzero pivot); float matrices use partial pivoting, with zero decisions made
against the one process-wide float tolerance, read at call time from
`scalars.default_eps`.  Float eliminations additionally record a "rank gap":
the ratio of the smallest accepted pivot to the largest rejected one, so
callers can assert that a rank decision was not borderline.
`_eliminate` is the only elimination loop: determinant, rank, kernel,
inverse, span pruning and membership each make one call to it.

Vectors are n-by-1 matrices; the column-vector convention is global.
"""

from __future__ import annotations

import math

from .scalars import BackendMismatchError, Scalar, default_eps


class DimensionError(ValueError):
    pass


class SingularMatrixError(ValueError):
    def __init__(self, message, pivot_col=None):
        super().__init__(message)
        self.pivot_col = pivot_col


class Matrix:
    """Dense row-major matrix over one scalar backend."""

    __slots__ = ("rows", "cols", "exact", "data")

    def __init__(self, data):
        if not data or not data[0]:
            raise DimensionError("matrix needs at least one row and column")
        rows = len(data)
        cols = len(data[0])
        exact = data[0][0].exact
        for r in data:
            if len(r) != cols:
                raise DimensionError("ragged rows")
            for x in r:
                if x.exact != exact:
                    raise BackendMismatchError("mixed scalar backends in matrix")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "exact", exact)
        object.__setattr__(self, "data", [list(r) for r in data])

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable; build a new one")

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, n, exact=True):
        one, zero = Scalar.one(exact), Scalar.zero(exact)
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows, cols, exact=True):
        z = Scalar.zero(exact)
        return cls([[z] * cols for _ in range(rows)])

    @classmethod
    def column(cls, entries):
        return cls([[x] for x in entries])

    @classmethod
    def from_columns(cls, columns):
        rows = columns[0].rows
        for c in columns:
            if c.cols != 1 or c.rows != rows:
                raise DimensionError("from_columns wants equal-length column vectors")
        return cls([[c.data[i][0] for c in columns] for i in range(rows)])

    @classmethod
    def block_diag(cls, *blocks):
        blocks = [b for b in blocks if b is not None]
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        exact = blocks[0].exact
        out = [[Scalar.zero(exact)] * m for _ in range(n)]
        i = j = 0
        for b in blocks:
            for r in range(b.rows):
                for c in range(b.cols):
                    out[i + r][j + c] = b.data[r][c]
            i += b.rows
            j += b.cols
        return cls(out)

    @classmethod
    def basis_vector(cls, n, k, exact=True):
        """e_k (1-based) in C^n."""
        entries = [Scalar.zero(exact)] * n
        entries[k - 1] = Scalar.one(exact)
        return cls.column(entries)

    # -- accessors ----------------------------------------------------

    @property
    def backend(self):
        return "exact" if self.exact else "float"

    def column_entries(self, j=0):
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self):
        return Matrix([[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def delete_row_col(self, i, j):
        data = [[x for c, x in enumerate(row) if c != j]
                for r, row in enumerate(self.data) if r != i]
        return Matrix(data)

    def to_float(self):
        if not self.exact:
            return self
        return Matrix([[x.to_float() for x in row] for row in self.data])

    def __repr__(self):
        return "Matrix(%dx%d %s)" % (self.rows, self.cols, self.backend)

    # -- arithmetic ---------------------------------------------------

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionError("shape mismatch %dx%d vs %dx%d"
                                 % (self.rows, self.cols, other.rows, other.cols))
        if self.exact != other.exact:
            raise BackendMismatchError("mixed matrix backends")

    def __add__(self, other):
        self._check_same_shape(other)
        return Matrix([[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        self._check_same_shape(other)
        return Matrix([[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.data])

    def scale(self, s):
        return Matrix([[s * a for a in r] for r in self.data])

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise DimensionError("product shape mismatch %dx%d @ %dx%d"
                                 % (self.rows, self.cols, other.rows, other.cols))
        if self.exact != other.exact:
            raise BackendMismatchError("mixed matrix backends in product")
        zero = Scalar.zero(self.exact)
        out = []
        bdata = other.data
        for row in self.data:
            # skip structural zeros; the generator images are mostly sparse
            terms = [(j, x) for j, x in enumerate(row)
                     if not (x.re == 0 and x.im == 0)]
            new = []
            for c in range(other.cols):
                acc = zero
                for j, x in terms:
                    y = bdata[j][c]
                    if y.re == 0 and y.im == 0:
                        continue
                    acc = acc + x * y
                new.append(acc)
            out.append(new)
        return Matrix(out)

    def eq(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(a.eq(b) for r1, r2 in zip(self.data, other.data)
                   for a, b in zip(r1, r2))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.eq(other)

    __hash__ = None

    def is_identity(self):
        return self.rows == self.cols and self.eq(
            Matrix.identity(self.rows, self.exact))

    def max_magnitude(self):
        return max(x.magnitude() for row in self.data for x in row)

    # -- JSON ---------------------------------------------------------

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols, "backend": self.backend,
                "data": [[x.to_json() for x in row] for row in self.data]}

    @classmethod
    def from_json(cls, obj):
        m = cls([[Scalar.from_json(x) for x in row] for row in obj["data"]])
        if m.rows != obj["rows"] or m.cols != obj["cols"]:
            raise DimensionError("JSON rows/cols disagree with data")
        if m.backend != obj["backend"]:
            raise BackendMismatchError("JSON backend tag disagrees with data")
        return m


class EliminationResult:
    """Echelon data shared by det/rank/kernel: pivots, sign, and float rank gap."""

    __slots__ = ("rows", "pivot_cols", "sign", "rank_gap")

    def __init__(self, rows, pivot_cols, sign, rank_gap):
        self.rows = rows
        self.pivot_cols = pivot_cols
        self.sign = sign
        self.rank_gap = rank_gap

    @property
    def rank(self):
        return len(self.pivot_cols)


def _eliminate(m):
    """Row echelon form.  Exact: first nonzero pivot.  Float: partial pivoting,
    pivot accepted when its magnitude exceeds eps * max(1, matrix scale)."""
    a = [list(row) for row in m.data]
    nrows, ncols = m.rows, m.cols
    pivot_cols = []
    sign = 1
    if m.exact:
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            p = next((i for i in range(r, nrows) if not a[i][c].is_zero()), None)
            if p is None:
                continue
            if p != r:
                a[r], a[p] = a[p], a[r]
                sign = -sign
            inv = a[r][c].inv()
            for i in range(r + 1, nrows):
                if a[i][c].is_zero():
                    continue
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivot_cols.append(c)
            r += 1
        return EliminationResult(a, pivot_cols, sign, math.inf)

    thresh = default_eps() * max(1.0, m.max_magnitude())
    min_acc, max_rej = math.inf, 0.0
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        mags = [(a[i][c].magnitude(), i) for i in range(r, nrows)]
        best_mag, p = max(mags)
        if best_mag <= thresh:
            max_rej = max(max_rej, best_mag)
            continue
        min_acc = min(min_acc, best_mag)
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        inv = a[r][c].inv()
        for i in range(r + 1, nrows):
            f = a[i][c] * inv
            a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivot_cols.append(c)
        r += 1
    if max_rej == 0.0:
        gap = math.inf
    elif min_acc == math.inf:
        gap = 0.0
    else:
        gap = min_acc / max_rej
    return EliminationResult(a, pivot_cols, sign, gap)


def mat_det(a):
    if a.rows != a.cols:
        raise DimensionError("determinant of non-square matrix")
    res = _eliminate(a)
    if res.rank < a.rows:
        return Scalar.zero(a.exact)
    det = Scalar.one(a.exact)
    for i in range(a.rows):
        det = det * res.rows[i][i]
    if res.sign < 0:
        det = -det
    return det


def mat_inverse(a):
    """Inverse read off the reduced echelon form of (A | I); raises
    SingularMatrixError naming the first column of A without a pivot."""
    if a.rows != a.cols:
        raise DimensionError("inverse of non-square matrix")
    n = a.rows
    aug = Matrix([row + idrow for row, idrow in
                  zip(a.data, Matrix.identity(n, a.exact).data)])
    rref, pivot_cols = _rref(aug)
    # pivot columns increase, so the first one out of place names the gap
    missing = next((c for c, p in enumerate(pivot_cols) if c != p), n)
    if missing < n:
        raise SingularMatrixError("singular matrix: no pivot in column %d"
                                  % missing, pivot_col=missing)
    return Matrix([row[n:] for row in rref])


def mat_rank(a):
    return _eliminate(a).rank


def _rref(m):
    """Reduced row echelon form (pivots normalized and cleared upward)."""
    res = _eliminate(m)
    a = res.rows
    for k in reversed(range(len(res.pivot_cols))):
        c = res.pivot_cols[k]
        inv = a[k][c].inv()
        a[k] = [x * inv for x in a[k]]
        for i in range(k):
            f = a[i][c]
            if f.re == 0 and f.im == 0:
                continue
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return a, res.pivot_cols


def kernel(a):
    """Basis of {x : Ax = 0}; rank + dim kernel = cols."""
    rref, pivot_cols = _rref(a)
    free = [c for c in range(a.cols) if c not in pivot_cols]
    zero = Scalar.zero(a.exact)
    one = Scalar.one(a.exact)
    basis = []
    for f in free:
        v = [zero] * a.cols
        v[f] = one
        for r, c in enumerate(pivot_cols):
            v[c] = -rref[r][f]
        basis.append(Matrix.column(v))
    return Subspace(a.cols, basis, _assume_independent=True)


class Subspace:
    """Span of a list of independent column vectors in C^ambient_dim."""

    def __init__(self, ambient_dim, basis, _assume_independent=False):
        basis = list(basis)
        for v in basis:
            if v.cols != 1 or v.rows != ambient_dim:
                raise DimensionError("basis vectors must be %d-by-1" % ambient_dim)
        if basis and not _assume_independent:
            if mat_rank(Matrix.from_columns(basis)) != len(basis):
                raise ValueError("basis vectors are linearly dependent")
        self.ambient_dim = ambient_dim
        self.basis = basis

    @classmethod
    def span(cls, ambient_dim, vectors):
        """Prune an arbitrary generating list down to an independent basis.

        Keeps each vector that is independent of the ones before it: the
        pivot columns of one elimination of the vectors side by side."""
        vectors = list(vectors)
        if vectors:
            pivots = _eliminate(Matrix.from_columns(vectors)).pivot_cols
            vectors = [vectors[c] for c in pivots]
        return cls(ambient_dim, vectors, _assume_independent=True)

    @property
    def dim(self):
        return len(self.basis)

    def matrix(self):
        if not self.basis:
            raise ValueError("zero subspace has no basis matrix")
        return Matrix.from_columns(self.basis)

    def contains(self, x):
        if x.cols != 1 or x.rows != self.ambient_dim:
            raise DimensionError("vector/subspace dimension mismatch")
        if not self.basis:
            return all(x.data[i][0].is_zero() for i in range(x.rows))
        stacked = Matrix.from_columns(self.basis + [x])
        return mat_rank(stacked) == self.dim
