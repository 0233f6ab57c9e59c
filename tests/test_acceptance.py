"""Acceptance suite: fourteen end-to-end criteria, one printed verdict line each.

Each test prints "criterion <k> (<label>): PASS" or "... FAIL (<error>)" so the
suite output doubles as a checklist.  Tolerances are pinned in the asserts.
"""

import math
import time
from fractions import Fraction

from twinrep.chains import (chain_vectors, closed_chain_vector, delta,
                            delta_direct)
from twinrep.irreducibility import (IRREDUCIBLE, REDUCIBLE, cleared_poly,
                                    decide, eval_P, root_residual, roots_of_P)
from twinrep.linalg import Matrix, Subspace, mat_det
from twinrep.oracle import algebra_closure, common_eigenlines
from twinrep.reduction import (build_P, build_S, build_reduced_gen,
                               invariant_vector, reduced_generators)
from twinrep.reps import RepSpec, build_all_generators, verify_relations
from twinrep.scalars import Scalar, ex, fl
from conftest import rand_exact, rand_family1_params, rng_for
from helpers import (closure_check, conjugated_full_gen, delete_row_col,
                     det_closed_form, eval_exact, lemma_matrix,
                     predicted_structure, reference_witness_check)


def _report(number, label, body):
    try:
        body()
    except Exception as exc:
        print("criterion %d (%s): FAIL (%s)" % (number, label, exc))
        raise
    print("criterion %d (%s): PASS" % (number, label))


def _rand_spec(rng, family, n):
    if family == 1:
        a, b = rand_family1_params(rng)
        return RepSpec(1, n, a, b)
    if family == 2:
        return RepSpec(2, n, c=rand_exact(rng), sign=rng.choice((1, -1)))
    return RepSpec(3, n)


def test_criterion_01_relations():
    def body():
        start = time.perf_counter()
        rng = rng_for(1001)
        for family in (1, 2, 3):
            for n in range(2, 9):
                for _ in range(10):
                    spec = _rand_spec(rng, family, n)
                    failures = verify_relations(build_all_generators(spec))
                    assert failures == [], (family, n, failures)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, "took %.2fs" % elapsed
    _report(1, "relation suite", body)


def test_criterion_02_invariant_vector():
    def body():
        rng = rng_for(1002)
        for n in range(3, 9):
            a, b = rand_family1_params(rng)
            v = invariant_vector(n, a, b)
            for g in build_all_generators(RepSpec(1, n, a, b)):
                got = g.matrix @ v
                assert all(x.re == y.re and x.im == y.im
                           for x, y in zip(got.column_entries(),
                                           v.column_entries())), (n, g.index)
    _report(2, "invariant vector", body)


def test_criterion_03_reduction_consistency():
    def body():
        rng = rng_for(1003)
        for n in range(4, 9):
            a, b = rand_family1_params(rng, avoid=(1, -1))
            p, pinv = build_P(n, a, b)
            for k in range(1, n):
                deleted = delete_row_col(conjugated_full_gen(n, a, b, k), 0, 0)
                assert deleted.eq(build_reduced_gen(n, a, b, k)), (n, k)
                conj = pinv @ build_reduced_gen(n, a, b, k) @ p
                assert conj.eq(build_S(n, a, b, k)), (n, k)
    _report(3, "reduction consistency", body)


def test_criterion_04_char_poly_values():
    def body():
        rng = rng_for(1004)
        for n in range(4, 9):
            a, b = rand_family1_params(rng)
            g1 = build_reduced_gen(n, a, b, 1)
            ident = Matrix.identity(n - 1)
            for lam_val in (0, 2, -2):
                lam = ex(lam_val)
                char = mat_det(ident.scale(lam) - g1)
                want = (lam + ex(1)) * (lam - ex(1)).pow(n - 2)
                assert char.eq(want), (n, lam_val)
    _report(4, "characteristic polynomial", body)


def test_criterion_05_lemma_determinant():
    def body():
        rng = rng_for(1005)
        for n in range(3, 11):
            for _ in range(50):
                xs = [rand_exact(rng) for _ in range(n)]
                y1 = rand_exact(rng)
                y2 = rand_exact(rng)
                closed = det_closed_form(xs, y1, y2)
                direct = mat_det(lemma_matrix(xs, y1, y2))
                assert closed.re == direct.re and closed.im == direct.im, n
    _report(5, "bordered determinant lemma", body)


def test_criterion_06_delta():
    def body():
        rng = rng_for(1006)
        for n in range(4, 9):
            for _ in range(20):
                a, b = rand_family1_params(rng, avoid=(0, 1, -1))
                closed = delta(n, a, b)
                direct = delta_direct(n, a, b)
                assert closed.re == direct.re and closed.im == direct.im, n
            b = rand_exact(rng, nonzero=True)
            want = -b * ex(Fraction(n, 2))
            got = delta(n, ex(0), b)
            assert got.re == want.re and got.im == want.im, n
    _report(6, "Delta determinant", body)


def test_criterion_07_chain():
    def body():
        rng = rng_for(1007)
        for n in range(4, 9):
            a, b = rand_family1_params(rng, avoid=(1, -1))
            bundle = chain_vectors(n, a, b)
            for k, v in enumerate(bundle.v_chain, 1):
                want = closed_chain_vector(n, a, b, k)
                assert all(x.re == y.re and x.im == y.im
                           for x, y in zip(v.column_entries(),
                                           want.column_entries())), (n, k)
            assert closure_check(bundle) == [], n
    _report(7, "chain vectors", body)


def test_criterion_08_t3_criterion():
    def body():
        start = time.perf_counter()
        b = fl(2.0)
        s3 = math.sqrt(3.0)
        special = [fl(1.0), fl(-1.0), fl(0.0, s3), fl(0.0, -s3)]
        for a in special:
            gens = reduced_generators(3, a, b)
            res = algebra_closure(gens)
            assert res.dim < 4, a
            assert res.rank_gap >= 1e3, (a, res.rank_gap)
            assert decide(3, a, b).status == REDUCIBLE, a
        for j in range(20):
            base = special[j % 4]
            angle = 2.0 * math.pi * j / 20.0
            a = fl(base.re + 1e-3 * math.cos(angle),
                   base.im + 1e-3 * math.sin(angle))
            gens = reduced_generators(3, a, b)
            res = algebra_closure(gens)
            assert res.dim == 4, (j, res.dim)
            assert res.rank_gap >= 1e3, (j, res.rank_gap)
            assert decide(3, a, b).status == IRREDUCIBLE, j
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, "took %.2fs" % elapsed
    _report(8, "T3 criterion", body)


def _oracle_dim(n, a, b):
    """Algebra dimension of the reduced representation, computed in float for
    speed; the rank-gap assertion guarantees the decision was not borderline."""
    res = algebra_closure(reduced_generators(n, a.to_float(), b.to_float()))
    assert res.rank_gap >= 1e3, (n, a, res.rank_gap)
    return res.dim


def test_criterion_09_main_theorem_cross_validation():
    def body():
        start = time.perf_counter()
        rng = rng_for(1009)
        for n in (4, 5, 6, 7):
            d = n - 1
            b = fl(1.0)
            roots = [r for r in roots_of_P(n) if root_residual(n, r) <= 1e-10]
            assert roots, n
            for r in roots:
                verdict = decide(n, r, b)
                assert verdict.status == REDUCIBLE, (n, r)
                assert verdict.witness.dim == n - 2, (n, r)
                assert reference_witness_check(reduced_generators(n, r, b),
                                               verdict.witness), (n, r)
                assert _oracle_dim(n, r, b) < d * d, (n, r)
            # a = 1: witness <e_1>; a = -1: witness sum (b/2)^(n-1-k) e_k
            be = ex(2)
            v = decide(n, ex(1), be)
            assert v.status == REDUCIBLE and v.witness.dim == 1
            assert v.witness.basis[0].eq(Matrix.basis_vector(d, 1))
            assert _oracle_dim(n, ex(1), be) < d * d
            v = decide(n, ex(-1), be)
            assert v.status == REDUCIBLE and v.witness.dim == 1
            want = Matrix.column([(be / ex(2)).pow(n - 1 - k)
                                  for k in range(1, n)])
            assert Subspace(d, [want]).contains(v.witness.basis[0])
            assert _oracle_dim(n, ex(-1), be) < d * d
            # a = 0 and ten generic points: decision and oracle agree
            assert decide(n, ex(0), be).status == IRREDUCIBLE
            assert _oracle_dim(n, ex(0), be) == d * d
            for _ in range(10):
                a, bb = rand_family1_params(rng, avoid=(0, 1, -1))
                verdict = decide(n, a, bb)
                dim = _oracle_dim(n, a, bb)
                agrees = (dim == d * d) == (verdict.status == IRREDUCIBLE)
                assert agrees, (n, a, verdict.status, dim)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, "took %.2fs" % elapsed
    _report(9, "main theorem cross-validation", body)


def test_criterion_10_n4_roots():
    def body():
        roots = roots_of_P(4)
        assert len(roots) == 2
        got = sorted((r.to_complex() for r in roots),
                     key=lambda z: (z.real, z.imag))
        assert abs(got[0] - (-1j)) <= 1e-10 and abs(got[1] - 1j) <= 1e-10
        verdict = decide(4, fl(0.0, 1.0), fl(1.0))
        assert verdict.status == REDUCIBLE
    _report(10, "n=4 closed-form roots", body)


def test_criterion_11_clearing_identity():
    def body():
        rng = rng_for(1011)
        one = Scalar.one()
        two = one + one
        for n in range(4, 9):
            poly = cleared_poly(n)
            for _ in range(20):
                a, _ = rand_family1_params(rng, avoid=(0, -1))
                lhs = eval_exact(poly, a)
                rhs = two * a * (one + a).pow(n - 4) * eval_P(n, a)
                assert lhs.re == rhs.re and lhs.im == rhs.im, (n, a)
            assert not eval_exact(poly, ex(1)).is_zero(), n
            assert not eval_exact(poly, ex(-1)).is_zero(), n
    _report(11, "clearing identity", body)


def test_criterion_12_family23_witnesses():
    def body():
        rng = rng_for(1012)
        for n in range(3, 9):
            spec2 = RepSpec(2, n, c=rand_exact(rng), sign=rng.choice((1, -1)))
            images2 = build_all_generators(spec2)
            w = Subspace(n, [Matrix.basis_vector(n, n)])
            assert reference_witness_check(images2, w), n
            images3 = build_all_generators(RepSpec(3, n))
            for k in range(1, n + 1):
                wk = Subspace(n, [Matrix.basis_vector(n, k)])
                assert reference_witness_check(images3, wk), (n, k)
    _report(12, "second and third family witnesses", body)


def test_criterion_13_wide_oracle_cross_validation():
    # criterion 9 beyond n = 7: six generic draws per n plus a = +-1, each
    # float closure with rank gap >= 1e3; the algebra dimension and the
    # eigenline count are the ones the verdict predicts
    def body():
        rng = rng_for(1013)
        for n in (8, 9, 10):
            draws = [rand_family1_params(rng, avoid=(0, 1, -1))
                     for _ in range(6)]
            draws += [(ex(1), rand_exact(rng, nonzero=True)),
                      (ex(-1), rand_exact(rng, nonzero=True))]
            for a, b in draws:
                verdict = decide(n, a, b)
                images = reduced_generators(n, a.to_float(), b.to_float())
                res = algebra_closure(images)
                assert res.rank_gap >= 1e3, (n, a, res.rank_gap)
                got = res.dim, len(common_eigenlines(images))
                assert got == predicted_structure(n, verdict), (
                    n, a, b, verdict.reason, got)
    _report(13, "wide Burnside cross-validation", body)


def test_criterion_14_modular_oracle_cross_validation():
    # exact decide against the exact (mod-p) detectors past the float
    # closure's reach: a generic draw per n, a = +-1, and the exact roots
    # a = +-i at 4 | n, each with the algebra dimension and eigenline
    # count the verdict predicts
    def body():
        start = time.perf_counter()
        rng = rng_for(1014)
        for n in range(11, 17):
            draws = [rand_family1_params(rng, avoid=(0, 1, -1))]
            specials = [ex(1), ex(-1)] + ([ex(0, 1), ex(0, -1)]
                                          if n % 4 == 0 else [])
            draws += [(a, rand_exact(rng, nonzero=True)) for a in specials]
            for i, (a, b) in enumerate(draws):
                verdict = decide(n, a, b)
                images = reduced_generators(n, a, b)
                got = (algebra_closure(images).dim,
                       len(common_eigenlines(images)))
                assert got == predicted_structure(n, verdict), (
                    n, a, b, verdict.reason, got)
                # draw 0 is generic; every special point is reducible
                assert i == 0 or verdict.status == REDUCIBLE, (n, a, b)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, "took %.2fs" % elapsed
    _report(14, "modular Burnside cross-validation", body)
