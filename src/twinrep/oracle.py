"""Paper-independent irreducibility checks.

Two detectors validate every verdict the decision procedure produces:

* Burnside test: a set of d x d complex matrices acts irreducibly iff the
  unital algebra they generate has dimension d^2.  The closure is left-only:
  it starts from I and multiplies each newly accepted basis element on the
  left by every generator.  The accepted span V then contains I and
  satisfies gV <= V for every generator g, so it holds every word and is the
  whole algebra; the loop stops as soon as dim V = d^2.  The kernel works on
  plain numbers (`complex`, or `(Fraction, Fraction)` pairs) with
  forward-only elimination, and returns each accepted element as the word
  of generator indices that produced it, not as a matrix.  Float mode calls
  a candidate dependent when its residual is at most eps times the
  candidate's own largest entry.  Rank over the exact Gaussian-rational
  subfield equals rank over C, so exact-mode answers are valid verdicts
  over C.
* Common eigenline enumeration for involutions: every one-dimensional
  invariant subspace of a family of involutions is a common +-1 eigenvector.
  Each generator splits every candidate subspace, held as a basis matrix K,
  into its +1 and -1 parts K @ kernel(g K -+ K); the candidates left with one
  column are the eigenlines.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import DimensionError, Matrix, Subspace, kernel
from .scalars import Scalar, default_eps


def _unwrap(images):
    mats = [img.matrix if hasattr(img, "matrix") else img for img in images]
    if not mats:
        raise DimensionError("need at least one image")
    d = mats[0].rows
    for m in mats:
        if m.rows != d or m.cols != d:
            raise DimensionError("mixed image dimensions")
        if m.exact != mats[0].exact:
            raise DimensionError("mixed image backends")
    return mats, d


@dataclass
class ClosureResult:
    dim: int
    words: list  # generator-index tuples spanning the algebra; () is I
    rank_gap: float  # float mode: min accepted / max rejected relative residual


class _FloatSpan:
    """Forward-only row echelon over flattened complex matrices.

    A candidate is reduced against the stored rows in insertion order and
    accepted when its residual exceeds eps times its own magnitude; stored
    rows are scaled so their largest entry, the pivot, is 1, and are never
    rewritten."""

    zero = 0j

    def __init__(self):
        self.eps = default_eps()
        self.rows = []  # (pivot index, row)
        self.min_acc = math.inf
        self.max_rej = 0.0

    @staticmethod
    def lift(m):
        out = [[complex(x.re, x.im) for x in row] for row in m.data]
        if not all(cmath.isfinite(z) for row in out for z in row):
            raise ValueError("algebra closure needs finite matrix entries")
        return out

    @staticmethod
    def left_mul(g, v, d):
        """Flattened g @ V, with g given as its nonzero (column, entry)
        terms per row."""
        out = []
        for terms in g:
            acc = [0j] * d
            for k, c in terms:
                acc = [s + c * x for s, x in zip(acc, v[k * d:k * d + d])]
            out += acc
        return out

    def insert(self, v):
        mag = max(map(abs, v))
        if mag == 0.0:
            return False
        for p, row in self.rows:
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
        self.rows.append((pivot, row))
        return True

    @property
    def gap(self):
        if self.max_rej == 0.0:
            return math.inf
        return self.min_acc / self.max_rej


_ZERO, _ONE = Fraction(0), Fraction(1)


class _ExactSpan:
    """Forward-only row echelon over flattened Gaussian-rational matrices,
    entries as (re, im) Fraction pairs.  A candidate is dependent iff it
    reduces to exactly zero; stored rows have pivot 1 and are never
    rewritten."""

    zero = (_ZERO, _ZERO)
    gap = math.inf

    def __init__(self):
        self.rows = []  # (pivot index, dense row, off-pivot (index, re, im))

    @staticmethod
    def lift(m):
        return [[(x.re, x.im) for x in row] for row in m.data]

    @staticmethod
    def left_mul(g, v, d):
        # the generator images are mostly identity rows, and products by
        # zero or one are skipped because every Fraction op costs a gcd
        out = []
        for terms in g:
            acc = None
            for k, (cr, ci) in terms:
                seg = v[k * d:k * d + d]
                if ci:
                    seg = [(cr * xr - ci * xi, cr * xi + ci * xr)
                           if xr or xi else (xr, xi) for xr, xi in seg]
                elif cr != 1:
                    seg = [(cr * xr, cr * xi) for xr, xi in seg]
                acc = seg if acc is None else [
                    (sr + xr, si + xi) for (sr, si), (xr, xi) in zip(acc, seg)]
            out += acc or [(_ZERO, _ZERO)] * d
        return out

    def insert(self, v):
        v = list(v)
        for p, _, nonzero in self.rows:
            fr, fi = v[p]
            if fr or fi:
                v[p] = (_ZERO, _ZERO)
                for j, yr, yi in nonzero:
                    xr, xi = v[j]
                    if yi:
                        v[j] = (xr - (fr * yr - fi * yi),
                                xi - (fr * yi + fi * yr))
                    else:
                        v[j] = (xr - fr * yr, xi - fi * yr)
        pivot = next((j for j, (xr, xi) in enumerate(v) if xr or xi), None)
        if pivot is None:
            return False
        pr, pi = v[pivot]
        n2 = pr * pr + pi * pi
        ir, ii = pr / n2, -pi / n2
        row = [(xr * ir - xi * ii, xr * ii + xi * ir) if (xr or xi)
               else (_ZERO, _ZERO) for xr, xi in v]
        row[pivot] = (_ONE, _ZERO)
        # the pivot entry is left out: reducing a candidate zeroes it directly
        self.rows.append((pivot, row, [(j, xr, xi) for j, (xr, xi)
                                       in enumerate(row)
                                       if (xr or xi) and j != pivot]))
        return True


def algebra_closure(images):
    """Dimension and basis, as words, of the unital algebra the images generate.

    Left-only closure: the identity is the first basis element, and every
    accepted element v enqueues g @ v for each generator g, so at most
    1 + len(images) * d^2 candidates are tested.  The accepted span holds I
    and is mapped into itself by every generator, hence holds every word;
    the loop stops early once it reaches d^2.  Word () is I, and accepting
    images[k] @ v records (k,) + word(v).  Exact mode tests dependence
    exactly and reports an infinite rank_gap.  Float mode rejects a candidate
    whose residual after elimination is at most eps times the candidate's
    largest entry; rank_gap is the smallest accepted relative residual over
    the largest rejected one (inf when nothing is rejected)."""
    mats, d = _unwrap(images)
    full = d * d
    span = _ExactSpan() if mats[0].exact else _FloatSpan()
    gens = [[[(k, c) for k, c in enumerate(row) if c != span.zero]
             for row in span.lift(m)] for m in mats]
    ident = span.lift(Matrix.identity(d, mats[0].exact))
    span.insert([x for row in ident for x in row])
    words = [()]
    i = 0
    while i < len(words) < full:
        v = span.rows[i][1]
        for k, g in enumerate(gens):
            if span.insert(span.left_mul(g, v, d)):
                words.append((k,) + words[i])
                if len(words) == full:
                    break
        i += 1
    return ClosureResult(len(words), words, span.gap)


def _normalized_direction(v):
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


def common_eigenlines(images):
    """All lines fixed (up to sign) by every involution in the list.

    Starts from the whole space, basis matrix I.  Each generator g splits
    every candidate basis K into K @ kernel(g K - K) and K @ kernel(g K + K),
    its +1 and -1 eigenspaces inside span K; empty parts are dropped.  The
    candidates left with one column are returned, in (+1, -1) sign-pattern
    order.  Distinct sign patterns meet only in 0, so no line is returned
    twice.  Raises on a non-involution input."""
    mats, d = _unwrap(images)
    ident = Matrix.identity(d, mats[0].exact)
    for m in mats:
        if not (m @ m).eq(ident):
            raise ValueError("common_eigenlines expects involutions")
    candidates = [ident]
    for g in mats:
        split = []
        for k in candidates:
            gk = g @ k
            for part in (kernel(gk - k), kernel(gk + k)):
                if part.dim:
                    split.append(k @ part.matrix())
        candidates = split
    return [Subspace(d, [Matrix.column(_normalized_direction(k))],
                     _assume_independent=True)
            for k in candidates if k.cols == 1]
