"""Dense linear algebra over Scalar: products, determinant, rank, kernel.

`_Plain` holds the package's one product loop and one elimination loop,
written once over a number system.  A matrix of exact scalars is worked on
its own Gaussian-rational `Scalar`s (`_Gaussian`, first nonzero pivot); a
float one on `complex` (`_Complex`), with partial pivoting against eps
times the matrix's largest entry, eps the one process-wide float tolerance
read at call time from `scalars.default_eps`.  `complex` arithmetic is
`Scalar`'s formula for formula, so float results are bit-identical to the
same steps on `Scalar`s.  Determinant, rank, kernel, span pruning and
`Matrix @` each lift their input, make one call to the loops and wrap the
result; `oracle` runs the same loops, the product loop included, over F_p.

Vectors are n-by-1 matrices; the column-vector convention is global.
`Matrix.identity` with row patches is the one constructor of every matrix
that differs from I in a few rows: generator images, Q, P and the S_j.  It
checks the backend of the patch entries only and builds the other rows
itself, each matrix with row lists of its own.
"""

from __future__ import annotations

import math

from .scalars import (BackendMismatchError, Scalar, _cdiv, _close,
                      default_eps)


class DimensionError(ValueError):
    pass


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
    def identity(cls, n, exact=True, rows=None):
        """The n x n identity with the rows {row: {column: entry}} put in
        (0-based; a patched row is 0 but for its listed entries).  Only the
        patch entries are checked against the backend; every other entry
        is made here."""
        if n < 1:
            raise DimensionError("matrix needs at least one row and column")
        rows = rows or {}
        if any(x.exact != exact for patch in rows.values()
               for x in patch.values()):
            raise BackendMismatchError("mixed scalar backends in matrix")
        one, zero = Scalar.one(exact), Scalar.zero(exact)
        data = []
        for i in range(n):
            patch = rows.get(i)
            if patch is None:
                row = [zero] * n
                row[i] = one
            else:
                row = [patch.get(j, zero) for j in range(n)]
            data.append(row)
        return cls._trusted(data)

    @classmethod
    def column(cls, entries):
        return cls([[x] for x in entries])

    @classmethod
    def _trusted(cls, rows):
        """The matrix of `rows`, equal-length lists of Scalars of one backend
        that the caller built and hands over: no checks, no copy."""
        m = object.__new__(cls)
        for name, value in (("rows", len(rows)), ("cols", len(rows[0])),
                            ("exact", rows[0][0].exact), ("data", rows)):
            object.__setattr__(m, name, value)
        return m

    @classmethod
    def _trusted_column(cls, entries):
        """`_trusted` for the column of `entries`."""
        return cls._trusted([[x] for x in entries])

    @classmethod
    def from_columns(cls, columns):
        rows = columns[0].rows
        for c in columns:
            if c.cols != 1 or c.rows != rows:
                raise DimensionError("from_columns wants equal-length column vectors")
        return cls([[c.data[i][0] for c in columns] for i in range(rows)])

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
        num = _system(self)
        return num.matrix(num.matmul(num.lift(self), num.lift(other)))

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

    # -- JSON ---------------------------------------------------------

    def to_json(self):
        return {"rows": self.rows, "cols": self.cols, "backend": self.backend,
                "data": [[x.to_json() for x in row] for row in self.data]}


class _Plain:
    """Matrices as lists of rows of plain numbers: the one product and the
    one elimination loop of the package.  A subclass fixes the number
    system: `zero`, `one`, `lift` (a Matrix's entries as its numbers) and
    `scalar` (one number as a Scalar), and may replace the exact entry
    steps below: `threshold`, `pivot` (the first nonzero entry), `inv`,
    `mul` and `reduce`, which brings a computed row to normal form.  An
    exact system's row steps leave an entry alone where the term it would
    add is 0; a float one forms every term, so its signed zeros are those
    of the dense steps."""

    exact = True

    def matmul(self, a, b):
        """a @ b, each entry summed from zero in column order over the
        terms where neither factor is 0 (the images are mostly sparse)."""
        zero_row = [self.zero] * len(b[0])
        out = []
        for row in a:
            acc = zero_row
            for j, x in enumerate(row):
                if x:
                    acc = [s + x * y if y else s for s, y in zip(acc, b[j])]
            out.append(self.reduce(acc))
        return out

    def sub(self, a, b):
        return [self.reduce([x - y for x, y in zip(u, v)])
                for u, v in zip(a, b)]

    def add(self, a, b):
        return [self.reduce([x + y for x, y in zip(u, v)])
                for u, v in zip(a, b)]

    def matrix(self, rows):
        return Matrix._trusted([[self.scalar(x) for x in row] for row in rows])

    @staticmethod
    def threshold(a):
        return None

    @staticmethod
    def pivot(column, thresh):
        return next((i for i, x in enumerate(column) if x), None)

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def reduce(row):
        return row

    def _axpy(self, u, f, v):
        """u - f v; an exact system keeps u's entry where v is 0."""
        if self.exact:
            return self.reduce([x - f * y if y else x for x, y in zip(u, v)])
        return self.reduce([x - f * y for x, y in zip(u, v)])

    def _scaled(self, u, f):
        """u f; an exact system keeps u's zeros."""
        if self.exact:
            return self.reduce([x * f if x else x for x in u])
        return self.reduce([x * f for x in u])

    def echelon(self, a):
        """Row echelon form of a, in place, by the subclass's pivots; an
        exact row whose entry in the pivot column is 0 is left alone.
        Returns the pivot columns and the sign of the row permutation."""
        nrows, ncols = len(a), len(a[0])
        thresh = self.threshold(a)
        pivots, sign = [], 1
        for c in range(ncols):
            r = len(pivots)
            if r == nrows:
                break
            p = self.pivot([a[i][c] for i in range(r, nrows)], thresh)
            if p is None:
                continue
            if p:
                a[r], a[r + p] = a[r + p], a[r]
                sign = -sign
            inv = self.inv(a[r][c])
            for i in range(r + 1, nrows):
                if self.exact and not a[i][c]:
                    continue
                a[i] = self._axpy(a[i], self.mul(a[i][c], inv), a[r])
            pivots.append(c)
        return pivots, sign

    def kernel(self, a):
        """A basis of {x : a x = 0} as the columns of a matrix, or None when
        it is 0: `echelon`, back substitution to the reduced form, then one
        basis vector per free column, in normal form.  Consumes a."""
        ncols = len(a[0])
        pivots, _ = self.echelon(a)
        if len(pivots) == ncols:  # full column rank: the kernel is 0
            return None
        for k in reversed(range(len(pivots))):
            c = pivots[k]
            a[k] = self._scaled(a[k], self.inv(a[k][c]))
            for i in range(k):
                if a[i][c]:
                    a[i] = self._axpy(a[i], a[i][c], a[k])
        free = [c for c in range(ncols) if c not in pivots]
        basis = [[self.zero] * len(free) for _ in range(ncols)]
        for t, f in enumerate(free):
            basis[f][t] = self.one
            for k, c in enumerate(pivots):
                basis[c][t] = -a[k][f]
        return [self.reduce(row) for row in basis]


class _Gaussian(_Plain):
    """Gaussian rationals as exact `Scalar`s, which are false when zero,
    as `complex` is."""

    zero, one = Scalar.zero(), Scalar.one()

    @staticmethod
    def lift(m):
        return [list(row) for row in m.data]

    @staticmethod
    def scalar(x):
        return x

    @staticmethod
    def inv(x):
        return x.inv()


class _Complex(_Plain):
    """`complex` numbers for float matrices.  Their product, sum and
    negation are `Scalar`'s formulas, magnitudes are taken by `math.hypot`
    and inverses by `_cdiv`, so every result is bit-identical to the same
    steps on float `Scalar`s.  Pivoting is partial: the largest entry, the
    last of equals, accepted when its magnitude exceeds eps times the
    matrix's largest entry (at least 1)."""

    exact = False
    zero, one = 0j, 1 + 0j

    def __init__(self):
        self.eps = default_eps()

    @staticmethod
    def lift(m):
        return [[complex(x.re, x.im) for x in row] for row in m.data]

    @staticmethod
    def scalar(z):
        return Scalar(z.real, z.imag, False)

    @staticmethod
    def eq(x, y):
        """`Scalar.eq` on floats."""
        return _close(x.real, x.imag, y.real, y.imag)

    def threshold(self, a):
        return self.eps * max(1.0, max(math.hypot(z.real, z.imag)
                                       for row in a for z in row))

    @staticmethod
    def pivot(column, thresh):
        best, p = max([(math.hypot(z.real, z.imag), i)
                       for i, z in enumerate(column)])
        return None if best <= thresh else p

    @staticmethod
    def inv(z):
        return complex(*_cdiv(1.0, 0.0, z.real, z.imag, False))


def _system(m):
    """The number system that multiplies and eliminates m's entries."""
    return _Gaussian() if m.exact else _Complex()


def _pivots(m):
    num = _system(m)
    return num.echelon(num.lift(m))[0]


def mat_det(a):
    if a.rows != a.cols:
        raise DimensionError("determinant of non-square matrix")
    num = _system(a)
    rows = num.lift(a)
    pivots, sign = num.echelon(rows)
    if len(pivots) < a.rows:
        return Scalar.zero(a.exact)
    det = num.one
    for i, row in enumerate(rows):
        det = det * row[i]
    return num.scalar(-det if sign < 0 else det)


def mat_rank(a):
    return len(_pivots(a))


def kernel(a):
    """Basis of {x : Ax = 0}; rank + dim kernel = cols."""
    num = _system(a)
    basis = num.kernel(num.lift(a)) or [[]]
    return Subspace(a.cols, [num.matrix([[row[t]] for row in basis])
                             for t in range(len(basis[0]))],
                    _assume_independent=True)


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
            pivots = _pivots(Matrix.from_columns(vectors))
            vectors = [vectors[c] for c in pivots]
        return cls(ambient_dim, vectors, _assume_independent=True)

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, x):
        if x.cols != 1 or x.rows != self.ambient_dim:
            raise DimensionError("vector/subspace dimension mismatch")
        if not self.basis:
            return all(x.data[i][0].is_zero() for i in range(x.rows))
        stacked = Matrix.from_columns(self.basis + [x])
        return mat_rank(stacked) == self.dim
