import cmath
import math
from fractions import Fraction

import pytest

from twinrep import linalg
from twinrep.irreducibility import (IRREDUCIBLE, REDUCIBLE, cleared_poly,
                                    _annihilator_plain, decide, eval_P,
                                    root_residual, roots_of_P)
from twinrep.chains import closed_chain_vector
from twinrep.linalg import Matrix, Subspace
from twinrep.reduction import (ParameterError, _chain_plain, _eigvec_w_plain,
                               _reduced_gen_rows, _s1_column, eigvec_w,
                               reduced_generators)
from twinrep.reps import (RepSpec, RepSpecError, build_all_generators,
                          verify_relations)
from twinrep.scalars import Scalar, ScalarError, ex, fl, set_default_eps
from conftest import rand_exact, rand_family1_params, rng_for
from helpers import (annihilator, eval_exact, from_complex, plain_witness_check,
                     reference_chain_vector, reference_decide,
                     reference_eigvec_w, reference_eval_P, reference_gen_rows,
                     reference_witness_check, scalar_witness_check)


def test_cleared_poly_frozen_small_cases():
    # n=4: 8t(1+t^2); n=5: 2t(t^4 + 10t^2 + 5)
    assert cleared_poly(4).coeffs == (0, 8, 0, 8)
    assert cleared_poly(5).coeffs == (0, 10, 0, 20, 0, 2)


def _unsimplified_cleared_coeffs(n):
    # 8t(1+t^2)(1+t)^m + (1-t)^4 [(1+t)^m - (1-t)^m] with m = n - 4, expanded
    # term by term, so that cleared_poly's (1+t)^n - (1-t)^n form is checked
    m = n - 4
    coeffs = [0] * (n + 1)
    for k in range(m + 1):
        coeffs[k + 1] += 8 * math.comb(m, k)
        coeffs[k + 3] += 8 * math.comb(m, k)
        odd_part = (1 - (-1) ** k) * math.comb(m, k)
        for i in range(5):
            coeffs[i + k] += (-1) ** i * math.comb(4, i) * odd_part
    while coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def test_cleared_poly_matches_unsimplified_construction():
    for n in range(4, 61):
        assert cleared_poly(n).coeffs == _unsimplified_cleared_coeffs(n), n


def test_cleared_poly_degree_parity():
    # even n: the bracket's top terms cancel, degree n-1; odd n: degree n
    for n in range(4, 12):
        deg = cleared_poly(n).degree
        assert deg == (n - 1 if n % 2 == 0 else n), n


def test_cleared_poly_zero_is_spurious_root():
    for n in range(4, 9):
        p = cleared_poly(n)
        assert p.coeffs[0] == 0
        assert p.spurious_roots == (0,)


def test_clearing_identity_random_exact():
    rng = rng_for(601)
    for n in range(4, 9):
        p = cleared_poly(n)
        for _ in range(10):
            a, _ = rand_family1_params(rng, avoid=(0, -1))
            one = Scalar.one()
            two = one + one
            factor = two * a * (one + a).pow(n - 4)
            assert eval_exact(p, a).eq(factor * eval_P(n, a)), n


def test_cleared_poly_nonzero_at_plus_minus_one():
    for n in range(4, 9):
        p = cleared_poly(n)
        assert not eval_exact(p, ex(1)).is_zero()
        assert not eval_exact(p, ex(-1)).is_zero()


def test_eval_P_frozen_value():
    assert eval_P(6, ex(Fraction(1, 2))).eq(ex(Fraction(91, 18)))


def test_eval_P_poles_raise():
    with pytest.raises(ParameterError):
        eval_P(5, ex(0))
    with pytest.raises(ParameterError):
        eval_P(5, ex(-1))
    with pytest.raises(ParameterError):
        eval_P(3, ex(2))


def _outcome(f, n, a):
    """f(n, a) as its parts (float parts as their bits, signed zeros and
    NaN included), or as (error type, message)."""
    try:
        p = f(n, a)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return (p.re, p.im, True) if p.exact else (p.re.hex(), p.im.hex(), False)


def test_eval_P_matches_scalar_reference_bit_for_bit():
    # eval_P runs on plain (re, im) pairs; the Scalar form it replaced must
    # give the same P, bit for bit in float mode, and the same errors
    rng = rng_for(4242)
    cases = []
    for _ in range(3000):
        r = 10 ** rng.uniform(-3, 3)
        t = rng.uniform(0, 2 * math.pi)
        cases.append((rng.randint(4, 70), fl(r * math.cos(t), r * math.sin(t))))
    for _ in range(600):
        # near +-1 powers of (1-a)/(1+a) underflow or overflow; on the real
        # axis signed zeros show
        d = 10 ** rng.uniform(-8, -1) * cmath.exp(1j * rng.uniform(0, 7))
        for z in (1 + d, -1 + d, complex(d.real * 1e3, rng.choice((0.0, -0.0)))):
            cases.append((rng.randint(4, 70), fl(z.real, z.imag)))
    for _ in range(300):
        cases.append((rng.randint(4, 70), rand_exact(rng)))
    for n in (4, 5, 33, 70):
        cases += [(n, a) for a in (ex(0), ex(-1), fl(0.0), fl(-1.0),
                                   fl(1e80), fl(-1e80, 1e80), fl(1e200),
                                   fl(1e-170))]
    for n, a in cases:
        assert _outcome(eval_P, n, a) == _outcome(reference_eval_P, n, a), \
            (n, a)
    assert _outcome(eval_P, 5, fl(1e80)) == (ScalarError,
                                             "non-finite scalar nan-nani")
    assert _outcome(eval_P, 5, fl(1e-170))[0] is ParameterError
    # under a tiny eps 1e-170 is no pole, and |2a|^2 underflows to 0
    set_default_eps(1e-300)
    for n in (4, 5, 70):
        for a in (fl(1e-170), fl(0.0, -1e-170), fl(1e-5, 1e-5)):
            assert _outcome(eval_P, n, a) == _outcome(reference_eval_P, n, a)
    assert _outcome(eval_P, 5, fl(1e-170)) == (
        ZeroDivisionError, "division by float zero scalar")


def test_roots_n4_are_plus_minus_i():
    roots = roots_of_P(4)
    assert len(roots) == 2
    vals = sorted((r.re, r.im) for r in roots)
    assert abs(vals[0][0]) < 1e-10 and abs(vals[0][1] + 1) < 1e-10
    assert abs(vals[1][0]) < 1e-10 and abs(vals[1][1] - 1) < 1e-10


def test_roots_residuals_and_determinism():
    for n in range(4, 121):
        roots = roots_of_P(n)
        assert roots  # nonempty for every n >= 4
        ims = [r.im for r in roots]
        assert ims == sorted(ims), n  # ascending imaginary part
        assert ims == [-y for y in reversed(ims)], n  # mirror pairs
        for r in roots:
            assert r.re == 0.0 and math.isfinite(r.im), (n, r)
            assert root_residual(n, r) <= 1e-12, (n, r)
            assert abs(r.to_complex()) > 1e-10  # zero was deflated
        again = roots_of_P(n)
        assert all(x.re == y.re and x.im == y.im for x, y in zip(roots, again))


def test_roots_count_matches_degree():
    for n in range(4, 121):
        p = cleared_poly(n)
        assert len(roots_of_P(n)) == p.degree - 1  # minus the zero root
    with pytest.raises(ParameterError):
        roots_of_P(3)


def test_root_residual_is_backward_error():
    # n=4: p(t) = 8t + 8t^3, so at t = 2 both |p| and sum |c_i||t|^i are 80
    assert root_residual(4, fl(2.0)) == 1.0
    assert root_residual(4, ex(0)) == 0.0
    # sum |c_i||t|^i overflows a double here unless it is scaled by |t|^-deg
    assert root_residual(400, roots_of_P(400)[-1]) <= 1e-12


def test_decide_a_one():
    for n in range(3, 7):
        v = decide(n, ex(1), ex(2))
        assert v.status == REDUCIBLE and v.reason == "a=1"
        assert v.witness.dim == 1
        assert v.witness.basis[0].eq(Matrix.basis_vector(n - 1, 1))


def test_decide_a_minus_one():
    for n in range(3, 7):
        v = decide(n, ex(-1), ex(2))
        assert v.status == REDUCIBLE and v.reason == "a=-1"
        assert v.witness.dim == 1
        assert reference_witness_check(reduced_generators(n, ex(-1), ex(2)),
                                       v.witness)


def test_decide_a_zero_irreducible():
    for n in range(4, 7):
        v = decide(n, ex(0), ex(3))
        assert v.status == IRREDUCIBLE and v.reason == "a=0"


def test_decide_generic_irreducible():
    rng = rng_for(602)
    for n in range(4, 7):
        a, b = rand_family1_params(rng, avoid=(0, 1, -1))
        v = decide(n, a, b)
        assert v.status == IRREDUCIBLE and v.reason == "generic"
        assert "abs_P" in v.diagnostics


def _root_cases():
    """(n, a, b) at roots of P: every float root for n = 4..32, the smallest,
    a middle and the largest root at n = 40, 48 and 60 (the suite's budget
    stops the full grid at 32), six roots at n = 31 with b = 2 - i, where the
    entries of w span ten orders of magnitude, and the exact roots +-i at
    4 | n <= 40."""
    cases = [(n, r, fl(1.0)) for n in range(4, 33) for r in roots_of_P(n)]
    for n in (40, 48, 60):
        roots = roots_of_P(n)
        cases += [(n, r, fl(1.0)) for r in (roots[0], roots[n // 4], roots[-1])]
    cases += [(31, r, fl(2.0, -1.0)) for r in roots_of_P(31)[12:18]]
    cases += [(n, ex(0, s), ex(1)) for n in range(4, 41, 4) for s in (1, -1)]
    return cases


def test_decide_at_root_gives_witness():
    for n, a, b in _root_cases():
        v = decide(n, a, b)
        assert v.status == REDUCIBLE and v.reason == "root-of-P", (n, a, b)
        assert v.witness.dim == n - 2
    # the general reference re-checks the witnesses at n = 15..20, where
    # (as at n = 11 and 13, which the row-patch test covers) the old
    # rank-per-image check rejected true witnesses
    for n in range(15, 21):
        for r in roots_of_P(n):
            rows = _reduced_gen_rows(n, r, fl(1.0), range(1, n))
            assert reference_witness_check(rows, decide(n, r, fl(1.0)).witness)


def test_decide_near_root_never_fails_its_witness():
    # just off a root, decide may answer root-of-P or generic, but the
    # eval_P zero gate and the witness check must agree: no raise
    for n in range(4, 13):
        for r in roots_of_P(n):
            for delta in (1e-9, 1e-11):
                for k in range(4):
                    a = r * from_complex(
                        1 + delta * cmath.exp(0.5j * math.pi * k + 0.3j))
                    v = decide(n, a, fl(1.0))
                    if v.reducible:
                        assert v.reason == "root-of-P" and v.witness.dim == n - 2


def test_decide_t3_special_points():
    s3 = math.sqrt(3.0)
    for im in (s3, -s3):
        v = decide(3, fl(0.0, im), fl(1.0))
        assert v.status == REDUCIBLE and v.reason == "T3-special"
        assert v.witness.dim == 1
    assert decide(3, fl(0.0, 1.0), fl(1.0)).status == IRREDUCIBLE
    assert decide(3, ex(0), ex(1)).status == IRREDUCIBLE


def test_decide_validates_input():
    with pytest.raises(ParameterError):
        decide(2, ex(2), ex(1))
    with pytest.raises(ParameterError):
        decide(4, ex(2), ex(0))


@pytest.mark.parametrize("a, b", [
    (fl(math.nan), fl(1.0)),  # used to come back Irreducible/generic
    (fl(math.inf), fl(1.0)),  # used to reach the a = 1 branch and fail its witness
    (fl(0.5, -math.inf), fl(1.0)),
    (fl(0.5), fl(1.0, math.nan)),
])
def test_decide_rejects_non_finite_input(a, b):
    with pytest.raises(ScalarError, match="non-finite"):
        decide(6, a, b)


def test_exact_decide_matches_eval_P_bit_for_bit():
    # exact decide evaluates P on Gaussian integers; its |P| must be the
    # float eval_P gives, and it must answer Reducible iff eval_P is 0
    rng = rng_for(7007)
    cases = [(n, ex(0, s)) for n in range(4, 61) for s in (1, -1)]
    cases += [(n, ex(0, 1 + Fraction(1, 10 ** 30))) for n in (4, 8, 17, 60)]
    cases += [(n, ex(Fraction(1, 10 ** 200))) for n in (4, 9, 60)]
    while len(cases) < 5000:
        a = ex(Fraction(rng.randint(-90, 90), rng.randint(1, 40)),
               Fraction(rng.randint(-90, 90), rng.randint(1, 40)))
        if not (a.is_zero() or a.eq(ex(1)) or a.eq(ex(-1))):
            cases.append((rng.randint(4, 60), a))
    for n, a in cases:
        v = decide(n, a, ex(1))
        p = eval_P(n, a)
        assert v.diagnostics["abs_P"].hex() == p.magnitude().hex(), (n, a)
        assert v.reducible == p.is_zero(), (n, a)


def test_exact_roots_are_plus_minus_i_by_niven():
    # Niven (Irrational Numbers, 1956, Cor. 3.12): tan(pi k/n) is rational
    # only at 0 and +-1, so the only Gaussian-rational roots i tan(pi k/n)
    # of P are +-i, at 4 | n.  The points are every a = (p_re + p_im i)/q of
    # height max(|p_re|, |p_im|, q) <= 12, in lowest terms.
    h = 12
    points = {(Fraction(pr, q), Fraction(pi, q)) for q in range(1, h + 1)
              for pr in range(-h, h + 1) for pi in range(-h, h + 1)}
    b = ex(1)
    for re, im in points:
        a = ex(re, im)
        plus_minus_i = re == 0 and abs(im) == 1
        for n in range(4, 41):
            root = decide(n, a, b).reason == "root-of-P"
            assert root == (plus_minus_i and n % 4 == 0), (n, a)


def test_exact_decide_survives_abs_P_beyond_float_range():
    # |P| beyond the float range reads inf, and the verdict stands
    for n, a in ((5, ex(10 ** 200)), (8, ex(10 ** 200)),
                 (5, ex(Fraction(1, 10 ** 400) - 1))):
        v = decide(n, a, ex(1))
        assert (v.status, v.reason) == (IRREDUCIBLE, "generic"), (n, a)
        assert v.diagnostics["abs_P"] == math.inf


def _hyperplane(n, a, b, a_w=None):
    """<w, v_1, ..., v_{n-3}> built at a, with w itself built at a_w."""
    vecs = [eigvec_w(n, a if a_w is None else a_w, b)]
    vecs += [closed_chain_vector(n, a, b, k) for k in range(1, n - 2)]
    return Subspace(n - 1, vecs, _assume_independent=True)


def test_witness_check_rejects_non_invariant():
    rows = _reduced_gen_rows(4, ex(2), ex(1), range(1, 4))
    assert not plain_witness_check(rows,
                                   Subspace(3, [Matrix.basis_vector(3, 2)]))
    # the hyperplane witness or its phi built at a(1 + delta) instead of at
    # the root a is off by about a relative delta, above eps = 1e-9, while
    # the true witness stays near 1e-16.  A bound in ||phi||_2 ||x||_2 in
    # place of sum |phi_j||x_j| accepts some delta = 1e-8 cases.
    b = fl(1.0)
    for n in (5, 11, 16, 24):
        for r in roots_of_P(n):
            rows = _reduced_gen_rows(n, r, b, range(1, n))
            assert plain_witness_check(rows, _hyperplane(n, r, b),
                                       annihilator(n, r, b)), (n, r)
            for delta in (1e-4, 1e-6, 1e-8):
                a = r * fl(1.0 + delta)
                for w, phi in ((_hyperplane(n, r, b, a), annihilator(n, r, b)),
                               (_hyperplane(n, a, b), annihilator(n, r, b)),
                               (_hyperplane(n, r, b), annihilator(n, a, b)),
                               (_hyperplane(n, a, b), annihilator(n, a, b))):
                    assert not plain_witness_check(rows, w, phi), (n, r, delta)
    # a basis that phi annihilates is independent only by its shape: a zero
    # on the diagonal or an entry above it fails, on both backends
    for a, b in ((ex(0, 1), ex(1)), (roots_of_P(8)[-1], fl(1.0))):
        rows = _reduced_gen_rows(8, a, b, range(1, 8))
        phi = annihilator(8, a, b)
        basis = _hyperplane(8, a, b).basis
        assert plain_witness_check(rows, Subspace(7, basis), phi)
        for k, v in ((1, basis[2]), (2, basis[1])):  # zero diagonal, above
            bad = basis[:k] + [v] + basis[k + 1:]
            w = Subspace(7, bad, _assume_independent=True)
            assert not plain_witness_check(rows, w, phi), (a, k)


def test_witness_check_row_patches_match_dense():
    # witness_check on decide's row patches answers as the general reference
    # on the dense images (on row patches past n = 12, to save time), for
    # every witness shape, at its own point (True) and at 2a (False)
    s3 = math.sqrt(3.0)
    cases = [(n, a, b) for n in range(3, 25) for a, b in (
        (ex(1), ex(2)), (ex(-1), ex(1, 1)), (fl(1.0), fl(1.0)),
        (fl(-1.0), fl(2.0, -1.0)))]
    cases += [(3, fl(0.0, y), b) for y in (s3, -s3)
              for b in (fl(1.0), fl(-2.0, 0.5))]
    cases += [(n, r, fl(1.0)) for n in range(4, 14) for r in roots_of_P(n)]
    cases += [(n, ex(0, s), ex(1)) for n in range(4, 41, 4) for s in (1, -1)]
    cases += [(8, ex(0, 1), ex(3))]
    for n, a, b in cases:
        v = decide(n, a, b)
        phi = annihilator(n, a, b) if v.reason == "root-of-P" else None
        for a2, want in ((a, True), (a + a, False)):
            rows = _reduced_gen_rows(n, a2, b, range(1, n))
            assert plain_witness_check(rows, v.witness, phi) is want, (n, a, a2)
            dense = reduced_generators(n, a2, b) if n <= 12 else rows
            assert reference_witness_check(dense, v.witness) is want, (n, a2)


def test_decide_runs_no_elimination(monkeypatch):
    # every verdict branch, with the one elimination loop and the one
    # product loop made to raise
    def eliminate(self, a):
        raise AssertionError("decide ran an elimination")

    def multiply(self, a, b):
        raise AssertionError("decide formed a matrix product")
    monkeypatch.setattr(linalg._Plain, "echelon", eliminate)
    monkeypatch.setattr(linalg._Plain, "matmul", multiply)
    s3 = math.sqrt(3.0)
    cases = [(5, ex(2), ex(1)), (5, fl(2.0), fl(1.0)), (5, ex(0), ex(1)),
             (3, ex(2), ex(1)), (3, fl(0.0, s3), fl(1.0)),
             (60, roots_of_P(60)[-1], fl(1.0)), (40, ex(0, 1), ex(1))]
    cases += [(n, a, b) for n in (3, 7) for a, b in (
        (ex(1), ex(2)), (ex(-1), ex(2)), (fl(1.0), fl(2.0)),
        (fl(-1.0), fl(2.0)))]
    reasons = {decide(n, a, b).reason for n, a, b in cases}
    assert reasons == {"generic", "a=0", "T3-criterion", "T3-special",
                       "root-of-P", "a=1", "a=-1"}
    with pytest.raises(AssertionError, match="elimination"):
        linalg.kernel(Matrix.identity(2))
    with pytest.raises(AssertionError, match="product"):
        Matrix.identity(2) @ Matrix.identity(2)
    assert not hasattr(Matrix, "transpose")


def test_tiny_float_b_is_not_refused_as_zero():
    # b is refused only when its squared modulus is exactly 0, the test
    # every division applies to a divisor; the absolute tolerance refused
    # any |b| <= eps
    a, b = fl(2.0), fl(0.0, -1e-150)
    assert len(reduced_generators(3, a, b)) == 2
    v = decide(5, a, b)
    assert v.reason == "generic" and not v.reducible
    assert verify_relations(build_all_generators(RepSpec(1, 4, a, b))) == []
    for zero in (fl(0.0, -1e-170), fl(0.0), ex(0)):  # b^2 is 0 or underflows
        with pytest.raises(ParameterError, match="b must be nonzero"):
            reduced_generators(3, zero if zero.exact else a, zero)
        with pytest.raises(RepSpecError):
            RepSpec(1, 4, ex(2) if zero.exact else a, zero)


def test_verdict_reducible_property():
    assert decide(4, ex(1), ex(1)).reducible
    assert not decide(4, ex(2), ex(1)).reducible


def _hexed(x):
    """A Scalar's parts, float parts as their bits (signed zeros included)."""
    return (x.re, x.im) if x.exact else (x.re.hex(), x.im.hex())


def _columns(vecs):
    """The entries of the column vectors, each as `_hexed`."""
    return [[_hexed(x) for x in v.column_entries()] for v in vecs]


def _decide_outcome(f, n, a, b):
    """f(n, a, b) as (status, reason, witness entries, diagnostics), or as
    (error type, message)."""
    try:
        v = f(n, a, b)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)
    return (v.status, v.reason, v.witness and _columns(v.witness.basis),
            repr(v.diagnostics))


def test_decide_matches_scalar_reference_bit_for_bit():
    # decide builds and checks its witnesses on (re, im) pairs; the Scalar
    # form it replaced must give the same verdicts and witness entries, bit
    # for bit, and the same errors: at every root for n <= 12 and three
    # roots at a few n beyond (the builders are compared at every root
    # below), at a = +-1, at +-i and at the n = 3 special points
    s3 = math.sqrt(3.0)
    cases = [(n, r, b) for n in range(4, 13) for r in roots_of_P(n)
             for b in (fl(1.0), fl(0.75, -0.5))]
    cases += [(n, r, b) for n in (16, 25, 40, 60)
              for r in roots_of_P(n)[::n // 6]
              for b in (fl(1.0), fl(0.75, -0.5))]
    cases += [(n, a, b) for n in range(3, 41) for s in (1, -1)
              for a, b in ((ex(s), ex(1)), (fl(float(s)), fl(2.0, -1.0)))]
    cases += [(n, ex(s), ex(2, -1)) for n in (3, 8, 21) for s in (1, -1)]
    cases += [(n, ex(0, s), ex(1)) for n in range(4, 41, 4) for s in (1, -1)]
    cases += [(8, ex(0, s), ex(Fraction(1, 3), -2)) for s in (1, -1)]
    cases += [(3, fl(0.0, y), b) for y in (s3, -s3)
              for b in (fl(1.0), fl(-2.0, 0.5), fl(1e200))]
    for n, a, b in cases:
        got = _decide_outcome(decide, n, a, b)
        assert got == _decide_outcome(reference_decide, n, a, b), (n, a, b)
    # b so large or small that entries overflow, underflow or divide by a
    # zero, at a = +-1 and at the largest root, also under a tiny eps
    raised = set()
    for eps in (1e-9, 1e-300):
        set_default_eps(eps)
        for n in (4, 9, 40):
            for a in (fl(1.0), fl(-1.0), roots_of_P(n)[-1]):
                for y in (1e-200, 1e-20, 1e20, 1e150, 1e300):
                    for b in (fl(y), fl(y, -y)):
                        got = _decide_outcome(decide, n, a, b)
                        assert got == _decide_outcome(reference_decide, n,
                                                      a, b), (eps, n, a, b)
                        raised.add(got[0])
    assert {ScalarError, ZeroDivisionError, ArithmeticError} <= raised


def test_root_witness_and_phi_match_scalar_builders_bit_for_bit():
    # every root for n = 4..60, with a real and a complex b: the complex
    # numbers decide builds w, the chain entries, phi and s_1's column from
    # are those the Scalar builders give, bit for bit (the grid above
    # compares whole verdicts); so are its lines at a = +-1.0 for n = 3..40
    hexed = lambda zs: [(z.real.hex(), z.imag.hex()) for z in zs]
    for b in (fl(1.0), fl(0.75, -0.5)):
        for n in range(4, 61):
            for r in roots_of_P(n):
                assert hexed(_eigvec_w_plain(n, r, b)) == _columns(
                    [reference_eigvec_w(n, r, b)])[0], (n, r)
                # v_1 holds the zero and the two entries of every v_k
                assert hexed(_chain_plain(r, b)) == _columns(
                    [reference_chain_vector(n, r, b, 1)])[0][:3], (n, r)
                assert hexed(_annihilator_plain(n, r, b)) == \
                    [_hexed(f) for f in annihilator(n, r, b)], (n, r)
                s1 = reference_gen_rows(n, r, b)[0]
                assert hexed(_s1_column(n, r, b)) == \
                    [_hexed(s1[j][0]) for j in range(1, n - 1)], (n, r)
        for n in range(3, 41):
            for a in (fl(1.0), fl(-1.0)):
                assert _columns(decide(n, a, b).witness.basis) == \
                    _columns(reference_decide(n, a, b).witness.basis), (n, a)


def test_exact_running_products_match_scalar_pow():
    # exact w entries, a = -1 line entries and s_1 entries come from running
    # products, not `Scalar.pow`: the same values, at +-i for 4 | n <= 40,
    # at generic exact points and at a = -1 for n = 3..40
    bs = (ex(1), ex(Fraction(1, 3), -2), ex(-2, Fraction(5, 7)))
    rng = rng_for(4646)
    points = [(n, ex(0, s), b) for n in range(4, 41, 4) for s in (1, -1)
              for b in bs]
    points += [(n, *rand_family1_params(rng, avoid=(1, -1)))
               for n in range(3, 41, 3)]
    for n, a, b in points:
        got, want = eigvec_w(n, a, b), reference_eigvec_w(n, a, b)
        assert got.to_json() == want.to_json(), (n, a, b)
    # the line of `reference_decide` at a = -1, (b/2)^(n-1-k) by Scalar.pow
    b = bs[1]
    half = b / ex(2)
    for n in range(3, 41):
        line = decide(n, ex(-1), b).witness.basis[0]
        assert line.column_entries() == [half.pow(n - 1 - k)
                                         for k in range(1, n)], n


def test_witness_check_matches_scalar_reference_on_mutations():
    # witnesses and phi mutated in one entry: the pair check answers as the
    # Scalar check it replaced, errors included
    rng = rng_for(1414)
    s3 = math.sqrt(3.0)
    cases = [(n, r, b) for n in (5, 8, 13) for r in roots_of_P(n)[::3]
             for b in (fl(1.0), fl(0.75, -0.5))]
    cases += [(8, ex(0, s), ex(1, 1)) for s in (1, -1)]
    cases += [(n, a, b) for n in (5, 9) for a, b in (
        (ex(1), ex(2)), (ex(-1), ex(2, -1)), (fl(1.0), fl(2.0)),
        (fl(-1.0), fl(2.0, -1.0)))]
    cases += [(3, fl(0.0, s3), fl(-2.0, 0.5))]

    def bumps(x):
        if x.exact:
            return [x + ex(Fraction(1, 1000)), x + ex(0, Fraction(1, 1000)),
                    Scalar.zero(True), x + x]
        return [x * fl(1.0 + 1e-4), x * fl(1.0 + 1e-12), Scalar.zero(False),
                x * fl(1e300), fl(math.copysign(0.0, x.re), -0.0)]

    def outcome(check, rows, w, phi):
        try:
            return check(rows, w, phi)
        except (ValueError, ArithmeticError) as exc:
            return type(exc), str(exc)

    seen = set()
    for n, a, b in cases:
        v = decide(n, a, b)
        rows = _reduced_gen_rows(n, a, b, range(1, n))
        phi = annihilator(n, a, b) if v.reason == "root-of-P" else None
        basis = [u.column_entries() for u in v.witness.basis]
        trials = []
        for _ in range(4):
            j = rng.randrange(len(basis))
            i = rng.randrange(n - 1)
            for x in bumps(basis[j][i]):
                bad = [list(u) for u in basis]
                bad[j][i] = x
                trials.append((bad, phi))
        if phi is not None:
            trials.append((basis[:-1], phi))  # one vector short
            for _ in range(3):
                i = rng.randrange(n - 1)
                for x in bumps(phi[i]):
                    trials.append((basis, phi[:i] + [x] + phi[i + 1:]))
        for entries, f in trials:
            w = Subspace(n - 1, [Matrix.column(u) for u in entries],
                         _assume_independent=True)
            got = outcome(plain_witness_check, rows, w, f)
            assert got == outcome(scalar_witness_check, rows, w, f), (n, a)
            seen.add(got if isinstance(got, bool) else got[0])
    assert {True, False, ScalarError} <= seen
    # a line whose largest entry lies in a patched row must also be fixed
    # by the rows g leaves alone: here g x = -x on row 0 only
    for one in (ex(1), fl(1.0)):
        rows = [{0: {0: -one}}]
        w = Subspace(3, [Matrix.column([one + one, one, one - one])])
        assert plain_witness_check(rows, w) is False
        assert scalar_witness_check(rows, w) is False


def test_decide_does_no_scalar_arithmetic(monkeypatch):
    # the verdict branches compare Scalars; the witness, phi and the rows
    # are built and checked on pairs, so a Reducible decide does no Scalar
    # arithmetic at all
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "pow"):
        def counted(self, *args, _f=getattr(Scalar, name), _name=name):
            calls.append(_name)
            return _f(self, *args)
        monkeypatch.setattr(Scalar, name, counted)
    s3 = math.sqrt(3.0)
    cases = [(60, roots_of_P(60)[-1], fl(1.0)), (40, ex(0, 1), ex(1)),
             (12, roots_of_P(12)[2], fl(0.75, -0.5)), (3, fl(0.0, s3), fl(1.0))]
    cases += [(n, a, b) for n in (3, 40) for a, b in (
        (ex(1), ex(2)), (ex(-1), ex(2, -1)), (fl(1.0), fl(2.0)),
        (fl(-1.0), fl(2.0, -1.0)))]
    for n, a, b in cases:
        assert decide(n, a, b).reducible, (n, a)
    assert not calls
    assert ex(1) + ex(1) == ex(2) and calls == ["__add__"]
