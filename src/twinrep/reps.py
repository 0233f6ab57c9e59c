"""Generator images of the three classified families, relation checks, and
block classification.

Every family sends generator s_k to I_{k-1} (+) M (+) I_{n-k-1} for one shared
2x2 block M satisfying M^2 = I.  Family 1 has M = [[a, b], [(1-a^2)/b, -a]]
with b != 0, family 2 has M = [[s, 0], [c, -s]] with s = +-1, family 3 has
M = -I.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .linalg import Matrix
from .scalars import Scalar


class RepSpecError(ValueError):
    pass


@dataclass(frozen=True)
class RepSpec:
    """Identifies one classified representation.

    family 1 takes (a, b) with b nonzero; family 2 takes (c, sign); family 3
    has no parameters.  `exact` picks the backend when no scalar parameter
    fixes it (families 2 with default c, and 3).
    """
    family: int
    n: int
    a: Optional[Scalar] = None
    b: Optional[Scalar] = None
    c: Optional[Scalar] = None
    sign: int = 1
    exact: bool = True

    def __post_init__(self):
        if self.family not in (1, 2, 3):
            raise RepSpecError("family must be 1, 2 or 3")
        if self.n < 2:
            raise RepSpecError("n must be at least 2")
        if self.family == 1:
            if self.a is None or self.b is None:
                raise RepSpecError("family 1 requires parameters a and b")
            if self.a.exact != self.b.exact:
                raise RepSpecError("a and b must share a backend")
            if self.b.is_zero():
                raise RepSpecError("family 1 requires b != 0")
            object.__setattr__(self, "exact", self.a.exact)
        elif self.family == 2:
            if self.sign not in (1, -1):
                raise RepSpecError("sign must be +1 or -1")
            if self.c is not None:
                object.__setattr__(self, "exact", self.c.exact)
            else:
                object.__setattr__(self, "c", Scalar.zero(self.exact))


@dataclass(frozen=True)
class GeneratorImage:
    index: int
    matrix: Matrix


def build_block(spec):
    """The shared 2x2 block M of the family; always satisfies M^2 = I."""
    exact = spec.exact
    one = Scalar.one(exact)
    zero = Scalar.zero(exact)
    if spec.family == 1:
        a, b = spec.a, spec.b
        return Matrix([[a, b], [(one - a * a) / b, -a]])
    if spec.family == 2:
        s = one if spec.sign == 1 else -one
        return Matrix([[s, zero], [spec.c, -s]])
    return Matrix([[-one, zero], [zero, -one]])


def build_generator(spec, k):
    """Image of s_k: I_{k-1} (+) M (+) I_{n-k-1}."""
    if not 1 <= k <= spec.n - 1:
        raise RepSpecError("generator index %d out of range for n=%d" % (k, spec.n))
    m = build_block(spec)
    left = Matrix.identity(k - 1, spec.exact) if k > 1 else None
    right = Matrix.identity(spec.n - k - 1, spec.exact) if k < spec.n - 1 else None
    return GeneratorImage(k, Matrix.block_diag(left, m, right))


def build_all_generators(spec):
    return [build_generator(spec, k) for k in range(1, spec.n)]


def verify_relations(images):
    """Check the twin-group relations on a list of generator images.

    Returns a list of human-readable failure strings; an empty list means the
    images define a valid T_n representation.
    """
    failures = []
    if not images:
        return failures
    d = images[0].matrix.rows
    for img in images:
        if img.matrix.rows != d or img.matrix.cols != d:
            failures.append("s%d has mismatched dimension" % img.index)
            return failures
    ident = Matrix.identity(d, images[0].matrix.exact)
    for img in images:
        if not (img.matrix @ img.matrix).eq(ident):
            failures.append("s%d^2 != I" % img.index)
    for x in images:
        for y in images:
            if y.index - x.index > 1:
                ab = x.matrix @ y.matrix
                ba = y.matrix @ x.matrix
                if not ab.eq(ba):
                    failures.append("s%d s%d != s%d s%d"
                                    % (x.index, y.index, y.index, x.index))
    return failures


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
