"""Paper-independent irreducibility checks.

Two detectors validate every verdict the decision procedure produces:

* Burnside test: a set of d x d complex matrices acts irreducibly iff the
  unital algebra they generate has dimension d^2.  The closure is left-only:
  it starts from I and multiplies each newly accepted basis element on the
  left by every generator.  The accepted span V then contains I and
  satisfies gV <= V for every generator g, so it holds every word and is the
  whole algebra; the loop stops as soon as dim V = d^2.  The kernel works on
  plain numbers with forward-only elimination, and returns each accepted
  element as the word of generator indices that produced it, not as a
  matrix.  Float mode works on `complex` and calls a candidate dependent
  when its residual is at most eps times the candidate's own largest entry.
  Exact mode works on ints mod a prime p = 1 (mod 4), with i sent to a
  square root of -1 mod p, as the MeatAxe does (R. A. Parker 1984; D. F.
  Holt and S. Rees, J. Austral. Math. Soc. A 57, 1994).  Its dimension is
  never above the one over C, so d^2 certifies irreducibility.
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


# p = 1 (mod 4) with a square root of -1 mod p: the largest such prime
# below 2^61, then the next one down
_PRIMES = ((2305843009213693921, 583529827753931384),
           (2305843009213693693, 966685122347009555))


class _ModSpan:
    """Forward-only row echelon over F_p of flattened Gaussian-rational
    matrices, i sent to `root`.  A candidate is dependent iff it reduces to
    exactly 0 mod p; stored rows have pivot 1 and are never rewritten."""

    def __init__(self, p, root):
        self.p, self.root = p, root
        self.rows = []  # (pivot index, dense row, off-pivot (index, entry))

    def lift(self, m):
        p = self.p  # pow raises ValueError if p divides a denominator
        mod = lambda x: x.numerator * pow(x.denominator, -1, p)
        return [[(mod(x.re) + self.root * mod(x.im)) % p for x in row]
                for row in m.data]

    def insert(self, v):
        p = self.p
        for pivot, _, nonzero in self.rows:
            f = v[pivot] % p
            if f:
                # reduced mod p after the loop; `nonzero` skips the pivot
                v[pivot] = 0
                for j, y in nonzero:
                    v[j] -= f * y
        v = [x % p for x in v]
        if not any(v):
            return False
        pivot = next(j for j, x in enumerate(v) if x)
        inv = pow(v[pivot], -1, p)
        row = [x * inv % p for x in v]
        self.rows.append((pivot, row, [(j, y) for j, y in enumerate(row)
                                       if y and j != pivot]))
        return True


def _grow(span, lifted, d):
    """Words of the left-only closure of the lifted images, eliminated in
    span.  Each image is kept as its nonzero (column, entry) terms per row;
    they are mostly identity rows, so a unit entry is not multiplied out."""
    full = d * d
    gens = [[[(k, c) for k, c in enumerate(row) if c] for row in m]
            for m in lifted]
    span.insert([1 if j % (d + 1) == 0 else 0 for j in range(full)])
    words = [()]
    i = 0
    while i < len(words) < full:
        v = span.rows[i][1]
        for k, g in enumerate(gens):
            gv = []  # flattened g @ v
            for terms in g:
                acc = None
                for col, c in terms:
                    seg = v[col * d:col * d + d]
                    if c != 1:
                        seg = [c * x for x in seg]
                    acc = seg if acc is None else [
                        s + x for s, x in zip(acc, seg)]
                gv += acc or [0] * d
            if span.insert(gv):
                words.append((k,) + words[i])
                if len(words) == full:
                    break
        i += 1
    return words


def algebra_closure(images):
    """Dimension and basis, as words, of the unital algebra the images generate.

    Left-only closure: the identity is the first basis element, and every
    accepted element v enqueues g @ v for each generator g, so at most
    1 + len(images) * d^2 candidates are tested.  The accepted span holds I
    and is mapped into itself by every generator, hence holds every word;
    the loop stops early once it reaches d^2.  Word () is I, and accepting
    images[k] @ v records (k,) + word(v).

    Exact mode eliminates over F_p, i -> a square root of -1, with an
    infinite rank_gap.  Reduction mod p is a ring map on the Gaussian
    rationals whose denominators p does not divide, so words independent
    mod p have a minor that is nonzero mod p, hence nonzero: they are
    independent over Q(i) and over C, and d^2 certifies irreducibility.  A
    smaller result, or a denominator p divides, reruns the closure under a
    second prime; the larger result wins, the first prime's words on a tie.
    ValueError if both primes divide a denominator.

    Float mode rejects a candidate whose residual after elimination is at
    most eps times the candidate's largest entry; rank_gap is the smallest
    accepted relative residual over the largest rejected one (inf when
    nothing is rejected)."""
    mats, d = _unwrap(images)
    if not mats[0].exact:
        span = _FloatSpan()
        words = _grow(span, [span.lift(m) for m in mats], d)
        gap = span.min_acc / span.max_rej if span.max_rej else math.inf
        return ClosureResult(len(words), words, gap)
    best = []
    for prime in _PRIMES:
        span = _ModSpan(*prime)
        try:
            lifted = [span.lift(m) for m in mats]
        except ValueError:  # the prime divides a denominator
            continue
        words = _grow(span, lifted, d)
        if len(words) > len(best):
            best = words
        if len(best) == d * d:
            break
    if not best:
        raise ValueError("both oracle primes divide a denominator")
    return ClosureResult(len(best), best, math.inf)


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
