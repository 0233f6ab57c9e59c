"""Paper-independent irreducibility checks.

Two detectors validate every verdict the decision procedure produces.
Both read each image once, in `_unwrap`, as its patch {row: {column:
entry}} over the rows that are not e_row, and work on patches alone,
lifted entry by entry into a number system.  `_spans` alone picks the
system: `complex` for float images; for exact ones F_p, under each oracle
prime in turn, passing over a prime that divides a denominator.

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
  Holt and S. Rees, J. Austral. Math. Soc. A 57, 1994), p below 2^30 so
  that a residue is one CPython digit.  Its dimension is
  never above the one over C, so d^2 certifies irreducibility.  The
  closure does not form a product that a relation of its input already
  puts in the span: g_k^2 = I and (g_k - I)(g_j - I) = 0, the twin
  group's s_k^2 = 1 and far commutation, each checked on the input so that
  the oracle stays independent of the paper; `_grow` gives the proof.  g v
  recomputes only g's patch rows, and elimination runs over nonzero
  entries: a term left out is an exact 0, so dims, words and the float
  rank gap are those of a dense pass, bit for bit.
* Common eigenline enumeration for involutions: every one-dimensional
  invariant subspace of a family of involutions is a common +-1 eigenvector.
  Each generator splits every candidate subspace, held as a basis matrix K,
  into its +1 and -1 parts K @ kernel(g K -+ K); the candidates left with one
  column are the eigenlines.  This sign tree is written once over a number
  system, and its products and kernels are `linalg`'s one product and one
  elimination loop.  It runs in the first system `_spans` gives, where
  F_p is a filter: a sign pattern's subspace is the kernel of the stacked
  matrix [g - s I] over the generators g and their signs s, whose rank can
  only drop mod p, so a pattern empty mod p is empty over Q(i).  Each full
  pattern that survives mod p takes its exact subspace from one kernel of
  its stacked rows on the exact `Scalar` entries; at a generic point there
  are none.
  Each line is scaled by its number system's own pivot rule, the one the
  elimination uses: its first nonzero entry is made 1 when exact, its
  largest (the last of equals) when float.
  Whether exact input consists of involutions is tested on Gaussian
  integers, squaring only the patch rows.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .linalg import (DimensionError, Matrix, Subspace, _Complex, _Gaussian,
                     _Plain)
from .scalars import Scalar


def _unwrap(images):
    """(exact, patches, d) for d x d images of one backend, read once: each
    patch is {row: {column: entry}} over the rows that are not e_row, its
    nonzero entries in column order (`Matrix.identity`'s format).  A row is
    e_row when its one nonzero entry is a diagonal 1, by value; the shared
    `Scalar.zero()` is passed over by identity.  Only patch entries are
    checked finite: a unit row is, and NaN and inf land in a patch."""
    mats = [img.matrix if hasattr(img, "matrix") else img for img in images]
    if not mats:
        raise DimensionError("need at least one image")
    d, exact = mats[0].rows, mats[0].exact
    zero = Scalar.zero(exact)
    patches = []
    for m in mats:
        if m.rows != d or m.cols != d:
            raise DimensionError("mixed image dimensions")
        if m.exact != exact:
            raise DimensionError("mixed image backends")
        patch = {}
        for i, row in enumerate(m.data):
            terms = {j: x for j, x in enumerate(row) if x is not zero and x}
            if terms.keys() != {i} or terms[i].re != 1 or terms[i].im:
                patch[i] = terms
        if not (exact or all(math.isfinite(x.re) and math.isfinite(x.im)
                             for row in patch.values()
                             for x in row.values())):
            raise ValueError("the oracle needs finite matrix entries")
        patches.append(patch)
    return exact, patches, d


def _lifted(patches, lift):
    """The patches with each entry lifted by `lift` into a number system,
    an entry that lifts to 0 dropped; a row stays even if it empties."""
    return [{i: {j: c for j, x in row.items() if (c := lift(x))}
             for i, row in patch.items()} for patch in patches]


def _dense(num, patch, d):
    """The d x d rows, in num's numbers, of the image a lifted patch gives."""
    rows = [[num.zero] * d for _ in range(d)]
    for i, row in enumerate(rows):
        for j, c in patch.get(i, {i: num.one}).items():
            row[j] = c
    return rows


class ClosureResult(NamedTuple):
    dim: int
    words: list  # generator-index tuples spanning the algebra; () is I
    rank_gap: float  # float mode: min accepted / max rejected relative residual


class _Fp(_Plain):
    """Ints mod a prime p = 1 (mod 4), i sent to `root`, a square root of
    -1 mod p.  Pivots are first nonzero entries; `lift` takes one entry.

    Also the exact closure's span: a forward-only row echelon of flattened
    matrices, in which a candidate is dependent iff it reduces to exactly 0
    mod p; stored rows have pivot 1 and are never rewritten."""

    zero, one = 0, 1

    def __init__(self, p, root):
        self.p, self.root = p, root
        self._inverses = {1: 1}  # denominator -> its inverse mod p
        self.rows = []  # (pivot index, dense row, off-pivot (index, entry))

    def eq(self, x, y):
        return (x - y) % self.p == 0

    def lift(self, z):
        """The exact scalar x + y i as x + root y mod p; ValueError if p
        divides a denominator.  Inverses are kept per instance (prime)."""
        p, inv = self.p, self._inverses
        x, y = z.re, z.im
        dx, dy = x.denominator, y.denominator
        if dx not in inv or dy not in inv:
            inv[dx], inv[dy] = pow(dx, -1, p), pow(dy, -1, p)
        return (x.numerator * inv[dx]
                + self.root * y.numerator * inv[dy]) % p

    def inv(self, x):
        return pow(x, -1, self.p)

    def mul(self, x, y):
        return x * y % self.p

    def reduce(self, row):
        p = self.p
        return [x % p for x in row]

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


def _is_gaussian_involution(patch):
    """m @ m == I for the image m of an exact patch, tested as G @ G == D^2 I
    on the Gaussian integers G = D m, D the lcm of the denominators of the
    patch entries.  Row i of m @ m is e_i wherever row i of m is, so only
    the patch rows are squared; a row outside the patch is read as D e_j."""
    den = math.lcm(*(x.denominator for row in patch.values()
                     for z in row.values() for x in (z.re, z.im)))
    rows = {i: [(j, (z.re.numerator * (den // z.re.denominator),
                     z.im.numerator * (den // z.im.denominator)))
                for j, z in row.items()]
            for i, row in patch.items()}
    square = den * den
    for i, terms in rows.items():
        acc = {}
        for j, (cr, ci) in terms:
            for k, (yr, yi) in rows.get(j, ((j, (den, 0)),)):
                sr, si = acc.get(k, (0, 0))
                acc[k] = (sr + cr * yr - ci * yi, si + cr * yi + ci * yr)
        if (acc.pop(i, (0, 0)) != (square, 0)
                or any(x != (0, 0) for x in acc.values())):
            return False
    return True


class _FloatSpan(_Complex):
    """Forward-only row echelon over flattened complex matrices.

    A candidate is reduced against the stored rows in insertion order and
    accepted when its residual exceeds eps times its own magnitude; stored
    rows are scaled so their largest entry, the pivot, is 1, and are never
    rewritten.  A candidate is reduced in place over each stored row's
    off-pivot nonzero terms: a term left out is 0, which could only flip
    the sign of a zero, so rows, words and gap are those of a dense pass."""

    def __init__(self):
        super().__init__()
        self.rows = []  # (pivot index, dense row, off-pivot (index, entry))
        self.min_acc = math.inf
        self.max_rej = 0.0

    def insert(self, v):
        mag = max(map(abs, v))
        if mag == 0.0:
            return False
        for p, _, nonzero in self.rows:
            f = v[p]
            if f:
                v[p] = 0j
                for j, y in nonzero:
                    v[j] -= f * y
        res, pivot = max(zip(map(abs, v), range(len(v))))
        rel = res / mag
        if rel <= self.eps:
            self.max_rej = max(self.max_rej, rel)
            return False
        self.min_acc = min(self.min_acc, rel)
        inv = 1.0 / v[pivot]
        row = [x * inv for x in v]
        row[pivot] = 1.0
        self.rows.append((pivot, row, [(j, y) for j, y in enumerate(row)
                                       if y and j != pivot]))
        return True


# p = 1 (mod 4) with a square root of -1 mod p: the largest such prime
# below 2^30, then the next one down, so that a residue is one 30-bit
# CPython digit and a product of two residues is two
_PRIMES = ((1073741789, 933053945), (1073741741, 784215820))


def _spans(exact, patches):
    """The number systems the oracle computes in, each with the patches
    lifted into it: `complex` (as a `_FloatSpan`) for float patches; F_p
    for exact ones, under each oracle prime in order, built only when
    reached and passed over when the prime divides a denominator."""
    if not exact:
        yield _FloatSpan(), _lifted(patches, Scalar.to_complex)
        return
    for prime in _PRIMES:
        span = _Fp(*prime)
        try:
            lifted = _lifted(patches, span.lift)
        except ValueError:  # the prime divides a denominator
            continue
        yield span, lifted


def _grow(span, lifted, d):
    """Words of the left-only closure of the lifted patches, eliminated in
    span.  g v is a copy of v, whose rows outside g's patch are v's own,
    with the patch rows recomputed over v's nonzero rows, and a unit entry
    is not multiplied out.

    A candidate g_k v is not formed when a relation of the input proves it
    already lies in the span.  An accepted row v of word (j,) + word(u) is
    a nonzero multiple of g_j u less a combination of the rows before v,
    and every image has been applied to u and to each of those rows.
    Hence g_k v is in the span when j = k and g_k^2 = I, and when
    (g_k - I)(g_j - I) = 0, since then g_k g_j u = g_j u + g_k u - u.  Each
    relation is checked once, on the lifted patches in the span's own
    number system, so the closure assumes nothing from the paper: g_k^2 = I
    under span.eq, and the product structurally, as the rows and columns
    where g_j - I and g_k - I are nonzero not meeting (then g_j and g_k
    commute).  A skipped candidate is one the span would reject, so exact
    dims and words do not change."""
    full = d * d
    # per image, each patch row: its slice in g v, and its terms as
    # (column, entry), the entry None for a unit entry
    plans = [[(slice(r * d, r * d + d),
               [(j, None if c == 1 else c) for j, c in terms.items()])
              for r, terms in g.items()]
             for g in lifted]
    involution = [_squares_to_identity(g, span.eq, span.one, span.zero)
                  for g in lifted]
    moved = [_moved(g) for g in lifted]
    disjoint = [[not (s & t) for t in moved] for s in moved]
    span.insert([1 if j % (d + 1) == 0 else 0 for j in range(full)])
    zero = [0] * d
    words = [()]
    i = 0
    while i < len(words) < full:
        v = span.rows[i][1]
        word = words[i]
        segs = [v[r * d:r * d + d] for r in range(d)]  # the rows of v
        live = [any(seg) for seg in segs]
        for k, plan in enumerate(plans):
            if word and (involution[k] if word[0] == k else
                         disjoint[word[0]][k]):
                continue
            gv = v.copy()  # flattened g @ v
            for out, terms in plan:
                acc = None
                for j, c in terms:
                    if live[j]:
                        seg = segs[j]
                        if c is not None:
                            seg = [c * x for x in seg]
                        acc = seg if acc is None else [
                            s + x for s, x in zip(acc, seg)]
                gv[out] = acc or zero
            if span.insert(gv):
                words.append((k,) + word)
                if len(words) == full:
                    break
        i += 1
    return words


def _moved(patch):
    """The indices of the rows and columns where g - I is nonzero, for g
    given by its patch: the patch rows and the columns they use."""
    return set(patch).union(*patch.values())


def algebra_closure(images):
    """Dimension and basis, as words, of the unital algebra the images generate.

    Left-only closure: the identity is the first basis element, and every
    accepted element v enqueues g @ v for each generator g, so at most
    1 + len(images) * d^2 candidates are tested.  The accepted span holds I
    and is mapped into itself by every generator, hence holds every word;
    the loop stops early once it reaches d^2.  Word () is I, and accepting
    images[k] @ v records (k,) + word(v).  A candidate that a relation of
    the images puts in the span is not tested (`_grow` gives the relations
    and the proof), and exact dims and words are those of testing every
    candidate.

    Exact mode eliminates over F_p, i -> a square root of -1, with an
    infinite rank_gap.  Reduction mod p is a ring map on the Gaussian
    rationals whose denominators p does not divide, so words independent
    mod p have a minor that is nonzero mod p, hence nonzero: they are
    independent over Q(i) and over C, and d^2 certifies irreducibility.  A
    smaller result, or a denominator p divides, reruns the closure under the
    next prime of `_spans`; the larger result wins, the first prime's words
    on a tie.  ValueError if both primes divide a denominator.

    Float mode rejects a candidate whose residual after elimination is at
    most eps times the candidate's largest entry; rank_gap is the smallest
    accepted relative residual over the largest rejected one (inf when
    nothing is rejected), both over the candidates actually tested, so
    skipping can only raise it."""
    exact, patches, d = _unwrap(images)
    best, gap = [], math.inf
    for span, lifted in _spans(exact, patches):
        words = _grow(span, lifted, d)
        if len(words) > len(best):
            best = words
        if not exact and span.max_rej:
            gap = span.min_acc / span.max_rej
        if len(best) == d * d:
            break
    if not best:
        raise ValueError("both oracle primes divide a denominator")
    return ClosureResult(len(best), best, gap)


def _squares_to_identity(patch, eq, one, zero):
    """m @ m == I, entry by entry under eq, for the image m of a patch.
    Only the patch rows are squared, since row i of m @ m is e_i wherever
    row i of m is; a row outside the patch is read as e_j, and a unit entry
    is not multiplied out."""
    for i, terms in patch.items():
        acc = {}
        for j, c in terms.items():
            row = patch[j].items() if j in patch else ((j, one),)
            for k, y in row:
                t = y if c == one else c * y
                acc[k] = acc[k] + t if k in acc else t
        if not (eq(acc.pop(i, zero), one)
                and all(eq(x, zero) for x in acc.values())):
            return False
    return True


def _sign_tree(num, gens, d):
    """The nonzero leaves (signs, K) of the sign tree over the number
    system num: the columns of K span {x : g x = s x for each image g and
    its sign s}, and the leaves come in (+1, -1) sign order.  Each image
    splits every candidate basis K into K @ kernel(g K - K) and
    K @ kernel(g K + K), dropping the empty parts."""
    leaves = [((), _dense(num, {}, d))]
    for g in gens:
        split = []
        for signs, k in leaves:
            gk = num.matmul(g, k)
            for sign, combine in ((1, num.sub), (-1, num.add)):
                part = num.kernel(combine(gk, k))
                if part is not None:
                    split.append((signs + (sign,), num.matmul(k, part)))
        leaves = split
    return leaves


def common_eigenlines(images):
    """The common eigenlines of the involutions in the list: each sign
    pattern whose common eigenspace is one-dimensional gives its line.

    A pattern whose eigenspace has dimension 2 or more is not listed, nor
    are the lines inside it: for family 3 at n = 2 the one image is -I,
    which fixes every line, and none is returned.

    A sign tree starts from the whole space, basis matrix I.  Each generator
    g splits every candidate basis K into K @ kernel(g K - K) and
    K @ kernel(g K + K), its +1 and -1 eigenspaces inside span K; empty
    parts are dropped.  The candidates left with one column are returned,
    each scaled by the number system's `pivot`, `inv` and `mul` to a lead
    entry of 1, in (+1, -1) sign-pattern order.
    Distinct sign patterns meet only in 0, so no line is returned twice.
    Raises on a non-involution input, tested exactly on exact input.

    The tree runs in the first number system of `_spans`: `complex` for
    float input; for exact input F_p (i -> a square root of -1) under the
    first oracle prime that lifts the images, after which each sign pattern
    that survives mod p takes its leaf from one kernel of its stacked
    [g - s I] on the images' own Gaussian-rational `Scalar`s: for a generic
    point there are none.  ValueError if both primes divide a denominator,
    as in `algebra_closure`."""
    exact, patches, d = _unwrap(images)
    if exact and not all(_is_gaussian_involution(p) for p in patches):
        raise ValueError("common_eigenlines expects involutions")
    num, gens = next(_spans(exact, patches), (None, None))
    if num is None:
        raise ValueError("both oracle primes divide a denominator")
    if not (exact or all(_squares_to_identity(g, num.eq, num.one, num.zero)
                         for g in gens)):
        raise ValueError("common_eigenlines expects involutions")
    leaves = _sign_tree(num, [_dense(num, g, d) for g in gens], d)
    if exact:
        # a pattern's exact leaf: the kernel of [g - s I], stacked over the
        # images g and their signs s, on the exact entries
        num, mod_p = _Gaussian(), leaves
        leaves = []
        for signs, _ in mod_p:
            stacked = []
            for patch, s in zip(patches, signs):
                for i, row in enumerate(_dense(num, patch, d)):
                    row[i] = row[i] - num.one if s == 1 else row[i] + num.one
                    stacked.append(row)
            basis = num.kernel(stacked)
            if basis is not None:
                leaves.append((signs, basis))
    lines = []
    for _, k in leaves:
        if len(k[0]) == 1:
            column = [x for (x,) in k]
            lead = num.pivot(column, 0.0)
            inv = num.inv(column[lead])
            column = [num.mul(x, inv) for x in column]
            column[lead] = num.one
            lines.append(Subspace(d, [Matrix._trusted(
                [[num.scalar(x)] for x in column])], _assume_independent=True))
    return lines
