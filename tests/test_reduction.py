import cmath
import json
import math
from fractions import Fraction

import pytest

from twinrep.linalg import Matrix
from twinrep.reduction import (ParameterError, _reduced_gen_rows, build_P,
                               build_Q, build_S,
                               build_reduced_gen, eigvec_w, invariant_vector,
                               reduced_generators)
from twinrep.reps import RepSpec, build_all_generators
from twinrep.scalars import Scalar, ScalarError, ex, fl
from conftest import (rand_exact, rand_family1_params,
                      rand_float_family1_params, rng_for)
from helpers import (conjugated_full_gen, delete_row_col, is_identity,
                     mat_inverse, reference_P, reference_Q, reference_S,
                     reference_gen_rows, reference_invariant_vector)


def test_invariant_vector_fixed_by_all_generators():
    rng = rng_for(401)
    for n in range(3, 8):
        a, b = rand_family1_params(rng)
        v = invariant_vector(n, a, b)
        for g in build_all_generators(RepSpec(1, n, a, b)):
            assert (g.matrix @ v).eq(v)


def test_invariant_vector_frozen_example():
    # n=4, a=2, b=1: ratio (1-a)/b = -1, components alternate
    v = invariant_vector(4, ex(2), ex(1))
    assert [str(x.re) for x in v.column_entries()] == ["1", "-1", "1", "-1"]


def test_build_Q_inverse():
    rng = rng_for(402)
    for n in (3, 5, 7):
        a, b = rand_family1_params(rng)
        q, qinv = build_Q(n, a, b)
        assert is_identity(q @ qinv)
        assert mat_inverse(q).eq(qinv)


def test_conjugated_s1_first_row_and_column():
    # Q^-1 xi(s_1) Q has first column e_1 and first row (1, b, 0, ..., 0):
    # deleting them is what defines the reduced representation
    rng = rng_for(403)
    for n in (4, 6):
        a, b = rand_family1_params(rng)
        m = conjugated_full_gen(n, a, b, 1)
        col = m.column_entries(0)
        assert col[0].eq(Scalar.one()) and all(x.is_zero() for x in col[1:])
        row = m.data[0]
        assert row[0].eq(Scalar.one()) and row[1].eq(b)
        assert all(x.is_zero() for x in row[2:])


def test_reduced_gen_matches_deleted_conjugation():
    rng = rng_for(404)
    for n in range(3, 8):
        a, b = rand_family1_params(rng)
        for k in range(1, n):
            full = conjugated_full_gen(n, a, b, k)
            assert delete_row_col(full, 0, 0).eq(build_reduced_gen(n, a, b, k))


def test_family1_block_is_built_once(monkeypatch):
    # (1-a^2)/b has one formula, `reps._family1_c`, for the full and the
    # reduced images, and is formed once for all the reduced images
    from twinrep import irreducibility, reduction, reps
    calls = []
    c_pair = reps._family1_c
    for module in (reps, reduction):
        monkeypatch.setattr(module, "_family1_c",
                            lambda a, b: calls.append((a, b)) or c_pair(a, b))
    for a, b in ((ex(2, 1), ex(1, -2)), (fl(0.5, -0.25), fl(2.0, 0.5))):
        calls.clear()
        gens = reduced_generators(9, a, b)
        assert len(calls) == 1
        # the same entries as one generator at a time
        for k, g in enumerate(gens, 1):
            assert g.matrix.to_json() == build_reduced_gen(9, a, b, k).to_json()
        calls.clear()
        block = reps.build_block(RepSpec(1, 9, a, b))
        assert len(calls) == 1
        assert block.to_json()["data"] == [
            row[:2] for row in gens[1].matrix.to_json()["data"][:2]]
    calls.clear()
    assert irreducibility.decide(8, ex(0, 1), ex(1)).reason == "root-of-P"
    assert len(calls) == 1


def _s1_outcome(column, n, a, b):
    """The entries column(n, a, b) as their parts (float parts as their
    bits, signed zeros included), or as (error type, message)."""
    try:
        entries = column(n, a, b)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return [(x.re, x.im) if x.exact else (x.re.hex(), x.im.hex())
            for x in entries]


def _s1_column(n, a, b):
    rows = _reduced_gen_rows(n, a, b, [1])[0]
    return [rows[j - 1][0] for j in range(2, n)]


def _scalar_s1_column(n, a, b):
    """(a-1)^j/(-b)^(j-1) for j = 2..n-1 by `Scalar.pow` and `/`: the form
    `_reduced_gen_rows` replaced."""
    one = Scalar.one(a.exact)
    return [(a - one).pow(j) / (-b).pow(j - 1) for j in range(2, n)]


def test_reduced_s1_matches_scalar_pow_bit_for_bit():
    # the s_1 entries run on plain (re, im) pairs; the Scalar form must give
    # the same values, bit for bit on floats, and the same errors
    rng = rng_for(4343)

    def polar(lo, hi):
        return 10 ** rng.uniform(lo, hi) * cmath.exp(1j * rng.uniform(0, 7))

    cases = []
    for _ in range(300):
        a, b = polar(-3, 3), polar(-3, 3)
        cases.append((rng.randint(3, 41), fl(a.real, a.imag),
                      fl(b.real, b.imag)))
    for _ in range(200):
        # a near 1, real a and b with both signed zeros, and sizes at
        # which the powers overflow or underflow
        z = rng.choice((0.0, -0.0))
        a = rng.choice((1 + polar(-8, -1), complex(rng.uniform(-3, 3), z),
                        polar(60, 200)))
        b = rng.choice((complex(rng.uniform(-3, 3), -z), polar(-8, -5),
                        polar(-3, 3)))
        cases.append((rng.randint(3, 41), fl(a.real, a.imag),
                      fl(b.real, b.imag)))
    for _ in range(100):
        gaussian = rng.random() < 0.5
        a = rand_exact(rng, gaussian=gaussian)
        b = rand_exact(rng, nonzero=True, gaussian=gaussian)
        cases.append((rng.randint(3, 25), a, b))
    for n in (3, 4, 40):
        cases += [(n, ex(1), ex(2)), (n, ex(-1), ex(-1, 1)),
                  (n, fl(1.0), fl(-2.0, -0.0)), (n, fl(-1.0), fl(0.5))]
    outcomes = [_s1_outcome(_s1_column, n, a, b) for n, a, b in cases]
    for (n, a, b), got in zip(cases, outcomes):
        assert got == _s1_outcome(_scalar_s1_column, n, a, b), (n, a, b)
    # the overflowing and the underflowing powers are among them
    raised = {o[0] for o in outcomes if isinstance(o, tuple)}
    assert {ScalarError, ZeroDivisionError} <= raised


def test_reduced_rows_match_scalar_reference_bit_for_bit():
    # every row patch, the block's (1-a^2)/b included, is formed on pairs;
    # the Scalar expressions give the same entries and the same errors
    rng = rng_for(4444)
    cases = []
    for _ in range(150):
        a, b = (cmath.rect(10 ** rng.uniform(-3, 3), rng.uniform(0, 7))
                for _ in range(2))
        cases.append((rng.randint(3, 20), fl(a.real, a.imag),
                      fl(b.real, b.imag)))
    for _ in range(40):
        a, b = rand_family1_params(rng, gaussian=rng.random() < 0.5)
        cases.append((rng.randint(3, 12), a, b))
    # exact entries from Gaussian integers: n up to 40, a = +-1 and +-i,
    # denominators up to 2^70 + 1, and a purely imaginary b
    dens = (1, 2, 3, 12, 2 ** 31 - 1, 2 ** 70 + 1)

    def part():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 2 ** 40),
                        rng.choice(dens))

    for _ in range(40):
        a = rng.choice((ex(1), ex(-1), ex(0, 1), ex(0, -1), ex(part()),
                        ex(part(), part())))
        b = ex(0, part()) if rng.random() < 0.3 else ex(part(), part())
        cases.append((rng.randint(3, 40), a, b))
    # b counted as 0, powers of b that underflow, a^2 that overflows, and
    # signed zeros
    cases += [(5, fl(2.0), fl(1e-170)), (45, fl(2.0), fl(1e-8)),
              (45, fl(2.0), fl(0.0, 1e-8)), (5, fl(1e160), fl(1.0)),
              (4, fl(0.0, -0.0), fl(-0.0, 3.0))]

    def outcome(rows_of, n, a, b):
        try:
            rows = rows_of(n, a, b)
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)
        return [{i: {j: (x.re, x.im) if x.exact else (x.re.hex(), x.im.hex())
                     for j, x in row.items()} for i, row in r.items()}
                for r in rows]

    raised = set()
    for n, a, b in cases:
        got = outcome(lambda n, a, b: _reduced_gen_rows(n, a, b, range(1, n)),
                      n, a, b)
        assert got == outcome(reference_gen_rows, n, a, b), (n, a, b)
        raised.add(got[0] if isinstance(got, tuple) else None)
    assert {ScalarError, ZeroDivisionError} <= raised


@pytest.mark.parametrize("exact", [True, False])
def test_reduced_generators_equal_the_checked_build(exact):
    # built by `Matrix._trusted`: the same matrices as the checked
    # constructor gives on the reference row patches, bit for bit
    rng = rng_for(4545)
    for n in range(2, 13):
        a, b = rand_family1_params(rng, gaussian=n % 2 == 0)
        if not exact:
            a, b = a.to_float(), b.to_float()
        d = n - 1
        one, zero = Scalar.one(exact), Scalar.zero(exact)
        for g, rows in zip(reduced_generators(n, a, b),
                           reference_gen_rows(n, a, b), strict=True):
            want = Matrix([[rows[i].get(j, zero) if i in rows
                            else (one if i == j else zero)
                            for j in range(d)] for i in range(d)])
            got = g.matrix
            assert (got.rows, got.cols, got.exact) == (d, d, exact)
            assert got.to_json() == want.to_json(), (n, a, b, g.index)


def test_reduced_gens_are_involutions():
    rng = rng_for(405)
    for n in (4, 6):
        a, b = rand_family1_params(rng)
        for g in reduced_generators(n, a, b):
            assert is_identity(g.matrix @ g.matrix)


def test_eigvec_w_is_minus_one_eigenvector():
    rng = rng_for(406)
    for n in range(3, 8):
        a, b = rand_family1_params(rng, avoid=(1, -1))
        w = eigvec_w(n, a, b)
        g1 = build_reduced_gen(n, a, b, 1)
        assert (g1 @ w).eq(-w)


def test_eigvec_w_frozen_example():
    w = eigvec_w(5, ex(2), ex(1))
    assert [str(x.re) for x in w.column_entries()] == ["2", "1", "-1", "1"]


def test_build_P_inverse():
    rng = rng_for(407)
    for n in (3, 5, 7):
        a, b = rand_family1_params(rng, avoid=(1, -1))
        p, pinv = build_P(n, a, b)
        assert is_identity(p @ pinv)
        assert mat_inverse(p).eq(pinv)


def test_S_matches_conjugation_bit_exact():
    rng = rng_for(408)
    for n in range(3, 8):
        a, b = rand_family1_params(rng, avoid=(1, -1))
        p, pinv = build_P(n, a, b)
        for j in range(1, n):
            got = pinv @ build_reduced_gen(n, a, b, j) @ p
            want = build_S(n, a, b, j)
            assert got.eq(want), (n, j)
            # bit-exact, not just eq
            assert all(x.re == y.re and x.im == y.im
                       for r1, r2 in zip(got.data, want.data)
                       for x, y in zip(r1, r2))


def test_S_are_involutions():
    a, b = ex(3), ex(2)
    for n in (4, 6):
        for j in range(1, n):
            s = build_S(n, a, b, j)
            assert is_identity(s @ s)


def test_S1_is_reflection():
    s1 = build_S(5, ex(2), ex(1), 1)
    expect = Matrix.identity(4).data
    assert s1.data[0][0].eq(ex(-1))
    assert all(s1.data[i][j].eq(expect[i][j])
               for i in range(4) for j in range(4) if (i, j) != (0, 0))


def test_parameter_errors():
    with pytest.raises(ParameterError):
        invariant_vector(4, ex(1), ex(0))  # b = 0
    with pytest.raises(ParameterError):
        eigvec_w(4, ex(1), ex(1))  # a = 1 forbidden
    with pytest.raises(ParameterError):
        eigvec_w(2, ex(2), ex(1))  # needs n >= 3
    with pytest.raises(ParameterError):
        build_reduced_gen(4, ex(2), ex(1), 4)  # index out of range
    with pytest.raises(ParameterError):
        invariant_vector(4, ex(2), fl(1.0))  # mixed backends
    with pytest.raises(ParameterError):
        reduced_generators(0, ex(2), ex(1))  # needs n >= 1
    with pytest.raises(ParameterError):
        reduced_generators(1, ex(2), ex(0))  # b = 0, even with no generator
    with pytest.raises(ParameterError):
        build_S(2, ex(2), ex(1), 1)  # needs n >= 3, as w does


def test_family1_boundary_refuses_non_finite_parameters():
    # refused as non-finite, not read as a = 1 (inf once compared equal to
    # every finite float)
    for check in (invariant_vector, eigvec_w, reduced_generators):
        for a, b in ((fl(math.inf), fl(1.0)), (fl(2.0), fl(math.nan)),
                     (fl(math.inf), ex(1))):
            with pytest.raises(ScalarError, match="non-finite scalar"):
                check(4, a, b)


def _json_outcome(build, *args):
    """The matrices `build(*args)` returns as JSON text (float parts by
    repr, so every bit and signed zero counts), or its error."""
    try:
        out = build(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return json.dumps([m.to_json() for m in
                       (out if isinstance(out, tuple) else (out,))])


@pytest.mark.parametrize("exact", [True, False])
def test_builders_match_copy_and_mutate_references(exact):
    # v, Q and Q^-1 for n = 2..12, P, P^-1, S_1 and S_2 for n = 3..12 and
    # a not +-1: the one patched-identity constructor gives the matrices
    # the copied-identity builders gave, bit for bit, and the same errors
    rng = rng_for(4646 + exact)
    pm1 = (Scalar.one(exact), -Scalar.one(exact))
    for n in range(2, 13):
        for _ in range(6):
            a, b = (rand_family1_params(rng, avoid=(1, -1)) if exact
                    else rand_float_family1_params(rng))
            pairs = [(invariant_vector, reference_invariant_vector),
                     (build_Q, reference_Q)]
            if n >= 3 and not any(a.eq(x) for x in pm1):
                pairs += [(build_P, reference_P),
                          (lambda n, a, b: build_S(n, a, b, 1),
                           lambda n, a, b: reference_S(n, a, b, 1)),
                          (lambda n, a, b: build_S(n, a, b, 2),
                           lambda n, a, b: reference_S(n, a, b, 2))]
            for build, reference in pairs:
                got = _json_outcome(build, n, a, b)
                assert got == _json_outcome(reference, n, a, b), (n, a, b)
                assert isinstance(got, str), (n, a, b, got)


def test_float_backend_reduction():
    a, b = fl(0.5), fl(2.0)
    p, pinv = build_P(5, a, b)
    for j in range(1, 5):
        got = pinv @ build_reduced_gen(5, a, b, j) @ p
        assert got.eq(build_S(5, a, b, j))


def _family1_at_b_one(n, a, reduced):
    """The images at b = 1 written out: the block [[a, 1], [1 - a^2, -a]]
    on rows k-1, k (k-2, k-1 reduced), and the reduced s_1, the identity
    with first column (-1, ..., (-1)^(j-1) (a-1)^j, ...), j = 2..n-1."""
    one = Scalar.one(a.exact)
    block = [[a, one], [one - a * a, -a]]
    shift = 2 if reduced else 1
    images = []
    for k in range(1, n):
        if reduced and k == 1:
            rows = {0: {0: -one}}
            for j in range(2, n):
                rows[j - 1] = {0: (-one).pow(j - 1) * (a - one).pow(j),
                               j - 1: one}
        else:
            rows = {k - shift + r: {k - shift: block[r][0],
                                    k - shift + 1: block[r][1]}
                    for r in (0, 1)}
        images.append(Matrix.identity(n - shift + 1, a.exact, rows))
    return images


def test_b_is_a_gauge():
    # D xi(a, b) D^-1 = xi(a, 1) for D = diag(1, b, ..., b^(d-1)), image for
    # image and exactly: conjugating by diag(lam^i) multiplies entry (i, j)
    # by lam^(i-j), which cancels the b^(j-i) of every entry
    for a in (ex(Fraction(2, 3), Fraction(-5, 7)), ex(3, 1)):
        for b in (ex(Fraction(4, 3), Fraction(1, 2)),
                  ex(Fraction(1, 1000), -7)):
            power = {e: b.pow(e) for e in range(-11, 12)}
            for n in range(2, 13):
                for reduced in (True, False):
                    got = (reduced_generators(n, a, b) if reduced else
                           build_all_generators(RepSpec(1, n, a, b)))
                    want = _family1_at_b_one(n, a, reduced)
                    assert len(got) == len(want) == n - 1
                    for g, h in zip(got, want):
                        m = g.matrix
                        d = m.rows
                        gauged = Matrix([[m.data[i][j] * power[i - j]
                                          for j in range(d)]
                                         for i in range(d)])
                        assert gauged.to_json() == h.to_json(), \
                            (n, a, b, reduced, g.index)
