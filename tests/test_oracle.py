import math
from fractions import Fraction

import pytest

from twinrep import linalg, oracle
from twinrep.irreducibility import decide
from twinrep.linalg import Matrix, mat_rank
from twinrep.oracle import algebra_closure, common_eigenlines
from twinrep.reduction import _reduced_gen_rows, reduced_generators
from twinrep.reps import RepSpec, build_all_generators, build_block
from twinrep.scalars import Scalar, ex, fl, set_default_eps
from conftest import rand_family1_params, rng_for
from helpers import (dense_float_closure, is_irreducible_oracle, is_prime,
                     reference_common_eigenlines, reference_closure,
                     predicted_structure, reference_is_involution,
                     reference_witness_check, word_matrix)

(P1, _), (P2, _) = oracle._PRIMES


def test_identity_alone_gives_dimension_one():
    assert algebra_closure([Matrix.identity(2)]).dim == 1


def test_generators_of_full_matrix_algebra():
    # the permutation and a projector generate all of 2x2
    swap = Matrix([[ex(0), ex(1)], [ex(1), ex(0)]])
    proj = Matrix([[ex(1), ex(0)], [ex(0), ex(0)]])
    assert algebra_closure([swap, proj]).dim == 4
    assert is_irreducible_oracle([swap, proj])


def test_diagonal_algebra_is_reducible():
    d1 = Matrix([[ex(1), ex(0)], [ex(0), ex(-1)]])
    assert algebra_closure([d1]).dim == 2
    assert not is_irreducible_oracle([d1])


def test_oracle_matches_decision_on_reduced_reps():
    rng = rng_for(701)
    for n in (3, 4, 5):
        a, b = rand_family1_params(rng, avoid=(0, 1, -1))
        gens = reduced_generators(n, a, b)
        d = n - 1
        assert algebra_closure(gens).dim == d * d, n  # generic: irreducible
    for n in (3, 4, 5):
        gens = reduced_generators(n, ex(-1), ex(2))
        d = n - 1
        assert algebra_closure(gens).dim < d * d, n  # a = -1: reducible


@pytest.mark.parametrize("n", range(4, 11))
def test_modular_closure_matches_fraction_reference(n, monkeypatch):
    # the same accepted words, in order, as elimination over Q(i) itself,
    # under either prime alone; fewer draws where the reference is slow
    rng = rng_for(700 + n)
    special = {8: (ex(0, 1), ex(-1)), 9: (ex(-1),), 10: (ex(1),)}.get(
        n, (ex(1), ex(-1), ex(0, 1), ex(0, -1)))
    draws = [rand_family1_params(rng, avoid=(0, 1, -1))
             for _ in range(2 if n < 8 else 1)]
    draws += [(a, rand_family1_params(rng)[1]) for a in special]
    primes = oracle._PRIMES
    for a, b in draws:
        gens = reduced_generators(n, a, b)
        want = reference_closure(gens)
        for prime in primes:
            monkeypatch.setattr(oracle, "_PRIMES", (prime,))
            res = algebra_closure(gens)
            assert (res.dim, res.words) == want, (n, a, b, prime)
            assert res.rank_gap == math.inf


def test_oracle_primes_and_roots():
    assert len(oracle._PRIMES) == 2 and P1 != P2
    for p, root in oracle._PRIMES:
        # below 2^30 a residue is one CPython digit
        assert is_prime(p) and p % 4 == 1 and p < 2 ** 30, p
        assert root * root % p == p - 1, p  # root = sqrt(-1) mod p


def _primes_used(monkeypatch):
    """Patch the modular span to record the prime of every closure run."""
    used = []

    class Recording(oracle._Fp):
        def __init__(self, p, root):
            used.append(p)
            super().__init__(p, root)

    monkeypatch.setattr(oracle, "_Fp", Recording)
    return used


def test_closure_stops_at_the_first_prime_when_full(monkeypatch):
    used = _primes_used(monkeypatch)
    assert algebra_closure(reduced_generators(4, ex(2), ex(1))).dim == 9
    assert used == [P1]


def test_reducible_closure_is_rerun_under_the_second_prime(monkeypatch):
    used = _primes_used(monkeypatch)
    gens = reduced_generators(5, ex(-1), ex(2))
    res = algebra_closure(gens)
    assert used == [P1, P2]
    assert (res.dim, res.words) == reference_closure(gens)


def test_denominator_divisible_by_the_first_prime_moves_to_the_second(
        monkeypatch):
    used = _primes_used(monkeypatch)
    gens = reduced_generators(4, ex(Fraction(1, P1)), ex(1))
    assert algebra_closure(gens).dim == 9
    assert used == [P1, P2]  # P1 failed to lift the images and ran nothing


def test_denominator_divisible_by_both_primes_raises():
    gens = reduced_generators(4, ex(Fraction(1, P1 * P2)), ex(1))
    with pytest.raises(ValueError, match="both"):
        algebra_closure(gens)


def test_larger_modular_dimension_wins():
    # diag(1, 1 + P1) is I mod P1 but not over Q, nor mod P2
    g = Matrix([[ex(1), ex(0)], [ex(0), ex(1 + P1)]])
    assert algebra_closure([g]).dim == 2


def test_tie_keeps_the_first_prime_words():
    # over Q both diagonal generators lie in span(I, g_0): dim 2 with words
    # (), (0,).  Mod P1 g_0 is I, so the words are (), (1,); mod P2 g_1 is
    # I and they are (), (0,).  Equal dimensions: P1's words are kept.
    g0 = Matrix([[ex(1), ex(0)], [ex(0), ex(1 + P1)]])
    g1 = Matrix([[ex(1), ex(0)], [ex(0), ex(1 + P2)]])
    assert reference_closure([g0, g1]) == (2, [(), (0,)])
    res = algebra_closure([g0, g1])
    assert (res.dim, res.words) == (2, [(), (1,)])


def _hiding(monkeypatch, name):
    """Hide one relation from `_grow`: no involution, or no two images
    with disjoint supports."""
    monkeypatch.setattr(oracle, name, {
        "_squares_to_identity": lambda *args: False,
        "_moved": lambda patch: {0}}[name])


def _closure_inserts(monkeypatch, images, skip=True):
    """(closure result, number of candidates tested) for the images; with
    skip=False both relations are hidden from `_grow`, so that every
    candidate is tested."""
    count = [0]
    with monkeypatch.context() as m:
        m.setattr(oracle, "_PRIMES", oracle._PRIMES[:1])
        for cls in (oracle._Fp, oracle._FloatSpan):
            def insert(self, v, _insert=cls.insert):
                count[0] += 1
                return _insert(self, v)
            m.setattr(cls, "insert", insert)
        if not skip:
            _hiding(m, "_squares_to_identity")
            _hiding(m, "_moved")
        res = algebra_closure(images)
    return res, count[0]


def _assert_skips(monkeypatch, images, fewer):
    res, tested = _closure_inserts(monkeypatch, images)
    every, all_tested = _closure_inserts(monkeypatch, images, skip=False)
    assert res.words == every.words
    # float: the gap over fewer rejected candidates can only grow
    assert res.rank_gap >= every.rank_gap
    assert (tested < all_tested) if fewer else (tested == all_tested)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("n", [4, 5, 7])
def test_closure_skips_candidates_the_relations_put_in_the_span(
        n, exact, monkeypatch):
    rng = rng_for(760 + n)
    points = [rand_family1_params(rng, avoid=(0, 1, -1)),
              (ex(-1), rand_family1_params(rng)[1])]
    for a, b in points:
        if not exact:
            a, b = a.to_float(), b.to_float()
        _assert_skips(monkeypatch, reduced_generators(n, a, b), fewer=True)


def _permutation(conv, perm):
    """The matrix sending e_j to e_perm[j], in conv's backend."""
    return Matrix([[conv(int(perm[c] == r)) for c in range(len(perm))]
                   for r in range(len(perm))])


def _diag(conv, *entries):
    return Matrix([[conv(x if r == c else 0) for c in range(len(entries))]
                   for r, x in enumerate(entries)])


@pytest.mark.parametrize("conv", [ex, fl])
def test_closure_skips_by_each_relation_alone(conv, monkeypatch):
    # the swaps of coordinates 0, 1 and of 2, 3: each rule alone removes
    # candidates
    images = [_permutation(conv, (1, 0, 2, 3)),
              _permutation(conv, (0, 1, 3, 2))]
    _, tested = _closure_inserts(monkeypatch, images)
    _, all_tested = _closure_inserts(monkeypatch, images, skip=False)
    for name in ("_squares_to_identity", "_moved"):
        with monkeypatch.context() as m:
            _hiding(m, name)
            _, alone = _closure_inserts(monkeypatch, images)
        assert tested < alone < all_tested, (name, tested, alone, all_tested)


@pytest.mark.parametrize("conv", [ex, fl])
def test_closure_tests_candidates_whose_relation_fails(conv, monkeypatch):
    # diag(1, 2) squares to diag(1, 4): g (g I) is tested, not skipped
    res, tested = _closure_inserts(monkeypatch, [_diag(conv, 1, 2)])
    assert res.words == [(), (0,)] and tested == 3
    # images whose supports meet: every candidate the involution rule
    # leaves is tested, for the swaps of 0, 1 and of 1, 2, and for the
    # reduced s_2 and s_3
    swaps = [_permutation(conv, (1, 0, 2)), _permutation(conv, (0, 2, 1))]
    blocks = [g.matrix for g in reduced_generators(5, conv(3), conv(2))][1:3]
    for images in (swaps, blocks):
        with monkeypatch.context() as m:
            _hiding(m, "_squares_to_identity")
            _assert_skips(monkeypatch, images, fewer=False)
    # commuting involutions that share coordinate 0: g_1 g_0 is new
    h0, h1 = _diag(conv, -1, -1, 1, 1), _diag(conv, -1, 1, -1, 1)
    assert (h0 @ h1).eq(h1 @ h0)
    assert algebra_closure([h0, h1]).words == [(), (0,), (1,), (1, 0)]


def _assert_matches_dense(images):
    # dims, words and the gap's bits: the sparse closure skips only exact
    # zeros
    res = algebra_closure(images)
    dim, words, gap = dense_float_closure(images)
    assert (res.dim, res.words, res.rank_gap.hex()) == (dim, words, gap.hex())
    return res


@pytest.mark.parametrize("d", range(3, 10))
def test_sparse_float_closure_matches_dense_reference(d, monkeypatch):
    rng = rng_for(790 + d)
    n = d + 1
    a, b = (x.to_float() for x in rand_family1_params(rng, avoid=(0, 1, -1)))
    points = [(n, a, b), (n, a, fl(0.01)), (n, fl(-1.0), b)]
    if d == 3:
        # the s_1 entries (a-1)^j/(-b)^(j-1) leave float range beyond
        # d = 3 at |b| = 1e150, and beyond d = 2 at 1e-150, which is
        # nonzero only under a tiny eps (set last)
        points += [(n, a, fl(1e150)), (3, a, fl(0.0, -1e-150))]
    for n, a, b in points:
        if b.magnitude() < 1e-100:
            set_default_eps(1e-300)
        images = reduced_generators(n, a, b)
        _assert_matches_dense(images)
        if d <= 5:
            # g v must recompute every row g moves, not the rows `_moved`
            # reports: with that relation hidden it reports row 0 alone
            with monkeypatch.context() as m:
                _hiding(m, "_moved")
                _assert_matches_dense(images)


@pytest.mark.parametrize("n, dim", [(7, 27), (16, 214)])
def test_sparse_float_closure_keeps_the_wrong_dims_it_had(n, dim):
    # the float closure is unreliable at these points (exact: d^2); the
    # sparse form must not change its answer, right or wrong
    b = fl(0.01) if n == 7 else fl(-0.5, 1 / 3)
    a = fl(2.0) if n == 7 else fl(2.5, -4.0)
    assert _assert_matches_dense(reduced_generators(n, a, b)).dim == dim


@pytest.mark.parametrize("exact", [True, False])
def test_closure_of_permutations_and_diagonals_matches_reference(
        exact, monkeypatch):
    conv = ex if exact else fl
    families = [[_permutation(conv, (1, 0, 2, 3)),
                 _permutation(conv, (0, 1, 3, 2))],
                [_permutation(conv, (1, 0, 2)), _permutation(conv, (0, 2, 1))],
                [_permutation(conv, (1, 2, 3, 0))],
                [_diag(conv, 1, 2)], [_diag(conv, -1, -1, 1, 1),
                                      _diag(conv, -1, 1, -1, 1)]]
    for images in families:
        for hide in (False, True):
            with monkeypatch.context() as m:
                if hide:
                    _hiding(m, "_moved")
                if exact:
                    res = algebra_closure(images)
                    assert (res.dim, res.words) == reference_closure(images)
                else:
                    _assert_matches_dense(images)


@pytest.mark.parametrize("n", [4, 5])
def test_modular_closure_recomputes_every_moved_row(n, monkeypatch):
    # with the disjointness relation hidden, `_moved` reports row 0 alone;
    # the words must still be those of elimination over Q(i)
    rng = rng_for(810 + n)
    gens = reduced_generators(n, *rand_family1_params(rng, avoid=(0, 1, -1)))
    _hiding(monkeypatch, "_moved")
    res = algebra_closure(gens)
    assert (res.dim, res.words) == reference_closure(gens)


def _per_entry_lift(x, p, root):
    """`_Fp.lift` as it inverted every denominator anew."""
    mod = lambda q: q.numerator * pow(q.denominator, -1, p)
    return (mod(x.re) + root * mod(x.im)) % p


def _random_exact(rng):
    dens = (1, 3, 7, 12, 2 ** 70 + 1)
    return ex(*(Fraction(rng.randint(-9, 9), rng.choice(dens))
                for _ in range(2)))


def test_fp_lift_matches_per_entry_inverses():
    rng = rng_for(820)
    entries = [_random_exact(rng) for _ in range(25)]
    for p, root in oracle._PRIMES:
        # one instance per prime, used twice: the second lift reads only
        # inverses this prime computed
        fp = oracle._Fp(p, root)
        want = [_per_entry_lift(x, p, root) for x in entries]
        for _ in range(2):
            assert [fp.lift(x) for x in entries] == want, p
    # p divides a denominator: ValueError, under that prime only
    bad = ex(Fraction(1, 3), Fraction(2, P1))
    (p1, root1), (p2, root2) = oracle._PRIMES
    with pytest.raises(ValueError):
        oracle._Fp(p1, root1).lift(bad)
    with pytest.raises(ValueError):
        _per_entry_lift(bad, p1, root1)
    assert oracle._Fp(p2, root2).lift(bad) == _per_entry_lift(bad, p2, root2)


def _patch(m):
    return oracle._unwrap([m])[1][0]


def _expected_patch(rows):
    """The rows {row: {column: entry}} with their zero entries dropped,
    less the rows that are then e_row, entries as their reprs (which tell
    -0.0 from 0.0), in column order."""
    out = {}
    for i, row in rows.items():
        row = {j: repr(x) for j, x in sorted(row.items()) if x.re or x.im}
        if list(row) != [i] or rows[i][i].re != 1 or rows[i][i].im:
            out[i] = row
    return out


def _patch_reprs(patch):
    return {i: {j: repr(x) for j, x in row.items()}
            for i, row in patch.items()}


def test_unwrap_patches_are_the_non_unit_rows():
    # the reduced images: their `_reduced_gen_rows` less zeros and unit
    # rows; at a = 1 the rows 1.. of s_1 are unit rows
    rng = rng_for(830)
    for n in (2, 3, 4, 7):
        for a in (ex(1), ex(-1), ex(0, 1), ex(0), _random_exact(rng)):
            b = ex(Fraction(3, 2), -1)
            for a, b in ((a, b), (a.to_float(), b.to_float())):
                rows = _reduced_gen_rows(n, a, b, range(1, n))
                exact, patches, d = oracle._unwrap(
                    reduced_generators(n, a, b))
                assert (exact, d) == (a.exact, n - 1)
                assert ([_patch_reprs(p) for p in patches]
                        == [_expected_patch(r) for r in rows]), (n, a)
                if n > 2 and a.eq(Scalar.one(a.exact)):
                    assert list(patches[0]) == [0]
    # the full families: the block's rows k-1 and k of generator k
    for conv in (ex, fl):
        specs = [RepSpec(1, 5, conv(2, 1), conv(-1, 3)),
                 RepSpec(1, 5, conv(1), conv(3)),
                 RepSpec(2, 5, c=conv(3, -2), sign=-1),
                 RepSpec(2, 5, c=conv(0), sign=1),
                 RepSpec(3, 5, exact=conv(0).exact)]
        for spec in specs:
            block = build_block(spec).data
            want = [_expected_patch({k - 1 + r: {k - 1 + c: x for c, x
                                                 in enumerate(block[r])}
                                     for r in range(2)})
                    for k in range(1, 5)]
            _, patches, _ = oracle._unwrap(build_all_generators(spec))
            assert [_patch_reprs(p) for p in patches] == want, spec
    # dense matrices: zeros of their own, signed zeros, a 1.0 - 0.0i
    # diagonal entry, a zero row and a permutation row
    for conv, zeros in ((ex, (Scalar.zero(), Scalar(Fraction(0),
                                                     Fraction(0), True))),
                        (fl, (Scalar.zero(False), Scalar(-0.0, 0.0, False),
                              Scalar(0.0, -0.0, False)))):
        one = Scalar(*((1.0, -0.0) if conv is fl else (Fraction(1),
                                                      Fraction(0))),
                     conv(0).exact)
        z = zeros[1]
        m = Matrix([[one, z, zeros[-1], z, z],
                    [z, z, z, z, conv(1)],
                    [zeros[0], z, z, z, z],
                    [conv(2), z, z, one, z],
                    [z, z, z, z, one]])
        rows = {i: dict(enumerate(row)) for i, row in enumerate(m.data)}
        patch = _patch(m)
        assert _patch_reprs(patch) == _expected_patch(rows)
        assert list(patch) == [1, 2, 3] and patch[2] == {}
        # a diagonal 1 + i or -1 alone is not a unit row
        for x in (conv(1, 1), conv(-1)):
            g = Matrix.identity(2, x.exact, {1: {1: x}})
            assert _patch_reprs(_patch(g)) == {1: {1: repr(x)}}
    # random exact entries with both kinds of zero: the patch, lifted
    # entry by entry and made dense again, is the per-entry lift of m
    def entry():
        if rng.random() < 0.3:
            # the shared zero, known by identity, or a zero of its own
            return rng.choice((Scalar.zero(),
                               Scalar(Fraction(0), Fraction(0), True)))
        return _random_exact(rng)

    m = Matrix([[entry() for _ in range(5)] for _ in range(5)])
    zeros = [z for row in m.data for z in row if not z]
    assert any(z is Scalar.zero() for z in zeros)
    assert any(z is not Scalar.zero() for z in zeros)
    for p, root in oracle._PRIMES:
        fp = oracle._Fp(p, root)
        (lifted,) = oracle._lifted([_patch(m)], fp.lift)
        assert oracle._dense(fp, lifted, 5) == [
            [_per_entry_lift(x, p, root) for x in row] for row in m.data]
    # an entry that lifts to 0 is dropped from its row, under that prime
    g = Matrix.identity(2, True, {0: {0: ex(1), 1: ex(P1)}})
    assert [oracle._lifted([_patch(g)], oracle._Fp(*prime).lift)
            for prime in oracle._PRIMES] == [[{0: {0: 1}}],
                                             [{0: {0: 1, 1: P1 % P2}}]]


def test_fp_kernel_basis_is_reduced():
    # kernel bases, a right factor of the sign tree, are reduced mod p, so
    # a product with I returns them unchanged
    p, root = oracle._PRIMES[0]
    fp = oracle._Fp(p, root)
    a = [[1, 2, 3], [2, 4, 6], [0, 1, p - 1]]
    k = fp.kernel([row[:] for row in a])
    assert all(0 <= x < p for row in k for x in row)
    assert fp.matmul(oracle._dense(fp, {}, 3), k) == k


def test_exact_involution_check_matches_scalar_reference():
    # the Gaussian-integer check against the Scalar form: on exact reduced
    # images drawn as the crosscheck bench draws them, and on perturbed
    # copies, conjugated ones (still involutions) and nudged ones (not)
    rng = rng_for(780)

    def off_lattice():
        while True:
            q = rng.randint(3, 7)
            p = rng.randint(-2 * q, 2 * q)
            if p % q:
                return Fraction(p, q)

    def small_b():
        re = Fraction(rng.randint(1, 12), 3)
        return ex(re, Fraction(rng.randint(-6, 6), rng.randint(1, 5)))

    images = []
    for d, count in ((3, 36), (4, 8), (5, 2), (6, 1)):
        draws = [ex(off_lattice(), off_lattice()) for _ in range(count)]
        for a in draws + [ex(1), ex(-1)]:
            images += [g.matrix for g in reduced_generators(d + 1, a,
                                                            small_b())]
    perturbed = []
    while len(perturbed) < 300:
        g = rng.choice(images)
        d = g.rows
        if rng.random() < 0.5:
            r, c = rng.sample(range(d), 2)
            x = ex(off_lattice(), off_lattice())
            p = Matrix.identity(d, True, {r: {r: ex(1), c: x}})
            q = Matrix.identity(d, True, {r: {r: ex(1), c: -x}})  # p^-1
            perturbed.append(p @ g @ q)
        else:
            data = [list(row) for row in g.data]
            r, c = rng.randrange(d), rng.randrange(d)
            data[r][c] = data[r][c] + ex(Fraction(1, rng.choice((7, P1))))
            perturbed.append(Matrix(data))
    verdicts = []
    for m in images + perturbed:
        verdicts.append(reference_is_involution(m))
        patch = _patch(m)
        assert oracle._is_gaussian_involution(patch) == verdicts[-1]
        # the closure's check, on the Scalar patch under Scalar.eq
        assert oracle._squares_to_identity(
            patch, Scalar.eq, Scalar.one(), Scalar.zero()) == verdicts[-1]
    assert all(verdicts[:len(images)])
    assert 100 <= sum(verdicts[len(images):]) <= 200


@pytest.mark.parametrize("conv", [ex, fl])
def test_involution_checks_square_every_moved_row(conv, monkeypatch):
    # rows 1..3 are unit rows, which both checks skip; row 0 reads the
    # unit row 3, so row 0 of g @ g is e_0 + 2 e_3 for the shear g, and
    # e_0 for the reflection h
    exact = conv(0).exact
    g = Matrix.identity(4, exact, {0: {0: conv(1), 3: conv(1)}})
    h = Matrix.identity(4, exact, {0: {0: conv(-1), 3: conv(1)}})
    assert not reference_is_involution(g) and reference_is_involution(h)
    with pytest.raises(ValueError, match="expects involutions"):
        common_eigenlines([g])
    assert len(common_eigenlines([h])) == 1  # its -1 eigenspace
    if exact:
        assert not oracle._is_gaussian_involution(_patch(g))
        assert oracle._is_gaussian_involution(_patch(h))
    # the closure tests g (g I): the involution rule does not fire for g
    res, tested = _closure_inserts(monkeypatch, [g])
    with monkeypatch.context() as m:
        _hiding(m, "_squares_to_identity")
        every, all_tested = _closure_inserts(monkeypatch, [g])
    assert res.words == every.words == [(), (0,)]
    assert tested == all_tested == 3
    _, tested = _closure_inserts(monkeypatch, [h])
    assert tested == 2  # h (h I) is skipped


def _fresh_images(n, a, b):
    return [g.matrix for g in reduced_generators(n, a, b)]


def _detector_output(name, images):
    if name == "closure":
        res = algebra_closure(images)
        return res.dim, res.words, res.rank_gap.hex()
    return _lines_json(common_eigenlines(images))


DETECTORS = ("closure", "eigenlines")


@pytest.mark.parametrize("exact", [True, False])
def test_lifted_images_give_the_results_of_fresh_ones(exact, monkeypatch):
    # the detectors, alone or together in either order, run twice on the
    # same images, under both primes or one, give what they give on fresh
    # images
    conv = (lambda x: x) if exact else (lambda x: x.to_float())
    points = [(5, ex(2, 1), ex(1, -2)), (5, ex(1), ex(2, 1)),
              (6, ex(-1), ex(Fraction(1, 2), 2)), (8, ex(0, 1), ex(1)),
              (4, ex(Fraction(1, P1)), ex(1))]
    orders = [(name,) for name in DETECTORS] + [DETECTORS, DETECTORS[::-1]]
    primes = oracle._PRIMES
    for cut in (primes, primes[:1], primes[1:]):
        monkeypatch.setattr(oracle, "_PRIMES", cut)
        for n, a, b in points:
            a, b = conv(a), conv(b)
            try:
                want = {name: _detector_output(name, _fresh_images(n, a, b))
                        for name in DETECTORS}
            except ValueError:  # P1 divides a denominator; P1 alone
                assert exact and cut == primes[:1]
                continue
            for order in orders:
                images = _fresh_images(n, a, b)
                for _ in range(2):
                    for name in order:
                        assert _detector_output(name, images) == want[name]


@pytest.mark.parametrize("conv", [ex, fl])
def test_detectors_read_the_entries_written_since_their_last_run(conv):
    # g1 starts as g0 = diag(1, -1), then has the swap written into its
    # rows: the pair generates all of M_2 and shares no eigenline, so each
    # detector must give what it gives on fresh matrices, not on the
    # entries it read before
    g0, g1 = _diag(conv, 1, -1), _diag(conv, 1, -1)
    assert algebra_closure([g0, g1]).dim == 2
    assert len(common_eigenlines([g0, g1])) == 2
    g1.data[0][:] = [conv(0), conv(1)]
    g1.data[1][:] = [conv(1), conv(0)]
    fresh = [_diag(conv, 1, -1), _permutation(conv, (1, 0))]
    for name in DETECTORS:
        assert (_detector_output(name, [g0, g1])
                == _detector_output(name, fresh))
    assert algebra_closure([g0, g1]).dim == 4
    assert common_eigenlines([g0, g1]) == []


def test_lifted_images_follow_an_eps_change():
    # a = 1 + 1e-8 is generic under eps = 1e-9 and a = 1 under 1e-6; the
    # images lifted under the first give the second's fresh results
    n, a, b = 5, fl(1 + 1e-8), fl(2.0, 0.5)
    images = _fresh_images(n, a, b)
    first = [_detector_output(name, images) for name in DETECTORS]
    set_default_eps(1e-6)
    second = [_detector_output(name, images) for name in DETECTORS]
    assert second == [_detector_output(name, _fresh_images(n, a, b))
                      for name in DETECTORS]
    assert (first[0][0], len(first[1])) == (16, 0)
    assert (second[0][0], len(second[1])) == (10, 1)


def test_closure_float_gap_is_exposed():
    gens = reduced_generators(4, fl(0.5), fl(2.0))
    res = algebra_closure(gens)
    assert res.dim == 9
    assert res.rank_gap > 1e3  # decision was not borderline


def test_closure_exact_and_float_agree():
    for a_val in (-1, 3):
        exact = algebra_closure(reduced_generators(4, ex(a_val), ex(2))).dim
        flt = algebra_closure(
            reduced_generators(4, fl(float(a_val)), fl(2.0))).dim
        assert exact == flt


def test_closure_basis_spans_algebra():
    gens = reduced_generators(3, ex(2), ex(1))
    res = algebra_closure(gens)
    assert len(res.words) == res.dim
    assert res.words[0] == ()  # the identity comes first
    basis = [word_matrix(gens, w) for w in res.words]
    assert mat_rank(Matrix([_flat(m) for m in basis])) == res.dim
    assert res.rank_gap == math.inf  # exact mode has no borderline pivots


@pytest.mark.parametrize("n, a, b", [
    # crosscheck seed 3, d = 4
    (5, fl(-0.8823242305566241, 0.010439830748547152), fl(2 / 3, -1.5)),
    (9, fl(-1.2391669488082835, -1.032227945339141),
     fl(0.5451238838371828, -0.07213107755343096)),
])
def test_float_closure_near_reducible_point(n, a, b):
    # both raised "algebra closure exceeded d^2" while the float zero test
    # was scaled by the generators rather than by each candidate
    res = algebra_closure(reduced_generators(n, a, b))
    d = n - 1
    assert res.dim == d * d
    assert res.rank_gap >= 1e3, res.rank_gap


def test_float_closure_rejects_non_finite_entries():
    bad = Matrix([[fl(1.0), fl(math.inf)], [fl(0.0), fl(1.0)]])
    for detector in (algebra_closure, common_eigenlines):
        with pytest.raises(ValueError, match="oracle needs finite matrix"):
            detector([bad])


def _flat(m):
    return [x for row in m.data for x in row]


@pytest.mark.parametrize("n, a, b, dim", [
    (3, ex(3, 1), ex(1, -2), 4), (3, ex(-1), ex(2), 3),
    (4, ex(3, 1), ex(1, -2), 9), (4, ex(-1), ex(2), 6),
    (5, ex(3, 1), ex(1, -2), 16), (5, ex(-1), ex(2), 10),
])
def test_closure_basis_is_two_sided_algebra(n, a, b, dim):
    gens = [g.matrix for g in reduced_generators(n, a, b)]
    res = algebra_closure(gens)
    assert res.dim == len(res.words) == dim
    # the words, multiplied out exactly, are the accepted basis
    basis = [word_matrix(gens, w) for w in res.words]
    assert mat_rank(Matrix([_flat(m) for m in basis])) == dim
    # I and every product with a generator, on either side, stay in the span
    extra = [Matrix.identity(n - 1)]
    for g in gens:
        for m in basis:
            extra += [g @ m, m @ g]
    stacked = Matrix([_flat(m) for m in basis + extra])
    assert mat_rank(stacked) == dim


def test_common_eigenlines_full_family1():
    # the full n-dimensional first-family representation always fixes the
    # line through the invariant vector
    from twinrep.reduction import invariant_vector
    a, b = ex(2), ex(3)
    mats = [g.matrix for g in build_all_generators(RepSpec(1, 4, a, b))]
    lines = common_eigenlines(mats)
    v = invariant_vector(4, a, b)
    assert any(l.contains(v) for l in lines)


def test_common_eigenlines_reduced_generic_has_none():
    mats = [g.matrix for g in reduced_generators(4, ex(2), ex(1))]
    assert common_eigenlines(mats) == []


def test_common_eigenlines_a_one_finds_e1():
    mats = [g.matrix for g in reduced_generators(4, ex(1), ex(2))]
    lines = common_eigenlines(mats)
    assert len(lines) == 1
    assert lines[0].contains(Matrix.basis_vector(3, 1))


def test_float_eigenline_lead_is_exactly_one():
    # the largest entry is the normalised lead; x * x.inv() left 5.6e-17i here
    a, b = fl(0.5, -0.25), fl(2.0, 0.5)
    mats = [g.matrix for g in build_all_generators(RepSpec(1, 5, a, b))]
    lines = common_eigenlines(mats)
    assert lines
    for line in lines:
        entries = line.basis[0].column_entries()
        lead = max(entries, key=lambda x: x.magnitude())
        assert (lead.re, lead.im) == (1.0, 0.0)


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_eigenlines_are_invariant_and_hold_the_witness(n, sign, exact):
    a, b = (ex(sign), ex(2, 1)) if exact else (fl(float(sign)), fl(2.0, 1.0))
    images = reduced_generators(n, a, b)
    lines = common_eigenlines(images)
    assert all(reference_witness_check(images, line) for line in lines)
    witness = decide(n, a, b).witness
    assert witness.dim == 1
    assert any(line.contains(witness.basis[0]) for line in lines)


def test_common_eigenlines_rejects_non_involution():
    shear = Matrix([[ex(1), ex(1)], [ex(0), ex(1)]])
    with pytest.raises(ValueError):
        common_eigenlines([shear])


def test_float_involution_check_refuses_an_overflowing_square():
    # g @ g is inf * I, which once compared equal to I
    g = Matrix([[fl(0.0), fl(1e200)], [fl(1e200), fl(0.0)]])
    with pytest.raises(ValueError, match="expects involutions"):
        common_eigenlines([g])


def test_involution_check_is_exact():
    # g squares to I mod both oracle primes, but not over Q
    g = Matrix([[ex(1), ex(0)], [ex(P1 * P2), ex(1)]])
    with pytest.raises(ValueError, match="expects involutions"):
        common_eigenlines([g])


def _lines_json(lines):
    return [line.basis[0].to_json() for line in lines]


def _assert_matches_reference(images):
    assert (_lines_json(common_eigenlines(images))
            == _lines_json(reference_common_eigenlines(images)))


@pytest.mark.parametrize("d", range(3, 13))
def test_eigenlines_match_scalar_reference_on_reduced_images(d):
    # to_json-equal: exact lines equal, float lines bit-identical; at every
    # +-1 and +-i point, where the exact lines come from stacked kernels,
    # and at generic points up to d = 10
    n = d + 1
    rng = rng_for(720 + d)
    points = [rand_family1_params(rng, avoid=(0, 1, -1))
              for _ in range(2 if d <= 10 else 0)]
    points += [(ex(s), rand_family1_params(rng)[1]) for s in (1, -1)]
    points += [(ex(0, s), rand_family1_params(rng)[1]) for s in (1, -1)]
    for a, b in points:
        for a, b in ((a, b), (a.to_float(), b.to_float())):
            _assert_matches_reference(reduced_generators(n, a, b))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_eigenlines_match_scalar_reference_on_full_families(n):
    for exact in (True, False):
        conv = (lambda x: x) if exact else (lambda x: x.to_float())
        specs = [RepSpec(1, n, conv(ex(2, 1)), conv(ex(-1, 3))),
                 RepSpec(1, n, conv(ex(-1)), conv(ex(1, 1))),
                 RepSpec(2, n, c=conv(ex(3, -2)), sign=-1),
                 RepSpec(2, n, sign=1, exact=exact),
                 RepSpec(3, n, exact=exact)]
        for spec in specs:
            _assert_matches_reference(build_all_generators(spec))


def _tree_runs(monkeypatch):
    """Patch the sign tree to record, per run, the prime it runs mod (None
    for the exact and float trees)."""
    runs = []
    tree = oracle._sign_tree

    def recording(num, gens, d):
        runs.append(getattr(num, "p", None))
        return tree(num, gens, d)

    monkeypatch.setattr(oracle, "_sign_tree", recording)
    return runs


@pytest.mark.parametrize("n", [4, 5])
def test_eigenlines_prune_under_the_second_prime(n, monkeypatch):
    # the tree runs mod P2 alone; the exact leaves are stacked kernels
    runs = _tree_runs(monkeypatch)
    for a in (ex(Fraction(1, P1)), ex(-1) + ex(Fraction(1, P1))):
        runs.clear()
        _assert_matches_reference(reduced_generators(n, a, ex(1)))
        assert runs == [P2]


@pytest.mark.parametrize("n", [4, 5])
def test_eigenlines_refuse_a_denominator_both_primes_divide(n, monkeypatch):
    # as the closure does, and before any sign tree runs
    runs = _tree_runs(monkeypatch)
    images = reduced_generators(n, ex(Fraction(1, P1 * P2)), ex(1))
    for detector in (algebra_closure, common_eigenlines):
        with pytest.raises(ValueError,
                           match="both oracle primes divide a denominator"):
            detector(images)
    assert runs == []


@pytest.mark.parametrize("d", range(3, 9))
def test_generic_eigenlines_run_no_scalar_elimination(d, monkeypatch):
    # the exact system's elimination, and so its kernel, never runs; the
    # float tree eliminates on `complex`
    def forbidden(self, a):
        raise AssertionError("exact elimination ran")

    monkeypatch.setattr(linalg._Gaussian, "echelon", forbidden)
    rng = rng_for(740 + d)
    a, b = rand_family1_params(rng, avoid=(0, 1, -1))
    for a, b in ((a, b), (a.to_float(), b.to_float())):
        assert common_eigenlines(reduced_generators(d + 1, a, b)) == []


@pytest.mark.parametrize("d", range(3, 9))
def test_generic_exact_eigenlines_form_no_product(d, monkeypatch):
    # mod p no sign pattern survives at a generic exact point, so the exact
    # tree forms no g K at all
    def forbidden(self, other):
        raise AssertionError("Matrix product formed")

    rng = rng_for(750 + d)
    a, b = rand_family1_params(rng, avoid=(0, 1, -1))
    assert not decide(d + 1, a, b).reducible
    images = reduced_generators(d + 1, a, b)
    monkeypatch.setattr(Matrix, "__matmul__", forbidden)
    assert common_eigenlines(images) == []


def test_algebra_dimension_and_eigenlines_follow_the_verdict():
    # exact a = +-1 at n = 3..16 and three b each, and a = +-i at the n
    # where it is a root of P: the dimension and the number of eigenlines
    # are the ones the verdict predicts, not only whether dim = d^2
    points = [(n, ex(s), b) for n in range(3, 17) for s in (1, -1)
              for b in (ex(1), ex(Fraction(3, 2)), ex(Fraction(1, 3), -2))]
    points += [(n, ex(0, s), ex(2, 1)) for n in (4, 8, 12, 16)
               for s in (1, -1)]
    for n, a, b in points:
        verdict = decide(n, a, b)
        assert verdict.reason == ("root-of-P" if a.im else
                                  "a=1" if a.re == 1 else "a=-1")
        images = reduced_generators(n, a, b)
        assert ((algebra_closure(images).dim, len(common_eigenlines(images)))
                == predicted_structure(n, verdict)), (n, a, b)


def test_common_eigenlines_dedups():
    # two diagonal involutions share the coordinate lines; each must appear
    # exactly once
    d1 = Matrix([[ex(1), ex(0)], [ex(0), ex(-1)]])
    d2 = Matrix([[ex(-1), ex(0)], [ex(0), ex(1)]])
    lines = common_eigenlines([d1, d2])
    assert len(lines) == 2


def test_eigenline_lead_entry_follows_the_pivot_rule():
    # the swap's lines (1, 1) and (1, -1), each scaled by the elimination's
    # pivot rule: the first nonzero entry exact, the largest float, the
    # last of equals
    for conv, want in ((ex, [[1, 1], [1, -1]]), (fl, [[1, 1], [-1, 1]])):
        swap = Matrix([[conv(0), conv(1)], [conv(1), conv(0)]])
        lines = common_eigenlines([swap])
        assert [[(x.re, x.im) for x in line.basis[0].column_entries()]
                for line in lines] == [[(x, 0) for x in w] for w in want]


def _small_family_images(n, conv):
    """The images at n, on the backend of conv: family 1 at a in
    {2, 1, -1, 0} and b in {1, 3}, full and reduced, family 2 at sign +-1
    and c in {0, 1}, and family 3."""
    out = [build_all_generators(RepSpec(2, n, c=conv(c), sign=sign))
           for sign in (1, -1) for c in (0, 1)]
    out.append(build_all_generators(RepSpec(3, n, exact=conv(0).exact)))
    for a in (2, 1, -1, 0):
        for b in (1, 3):
            out.append(build_all_generators(RepSpec(1, n, conv(a), conv(b))))
            out.append(reduced_generators(n, conv(a), conv(b)))
    return out


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exact_and_float_oracles_agree_on_small_families(n):
    # the same algebra dimension and number of eigenlines on both backends;
    # at n = 2 every reduced image is +-1 and family 3's is -I, so their
    # stacked [g - s I] is 0
    def answers(conv):
        return [(algebra_closure(images).dim, len(common_eigenlines(images)))
                for images in _small_family_images(n, conv)]
    assert answers(ex) == answers(fl)


def test_unwrap_accepts_generator_images():
    gens = reduced_generators(3, ex(2), ex(1))
    assert (algebra_closure(gens).dim
            == algebra_closure([g.matrix for g in gens]).dim)
