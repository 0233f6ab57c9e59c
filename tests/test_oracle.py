import math

import pytest

from twinrep.irreducibility import decide, witness_check
from twinrep.linalg import Matrix, mat_rank
from twinrep.oracle import algebra_closure, algebra_dimension, common_eigenlines
from twinrep.reduction import reduced_generators
from twinrep.reps import RepSpec, build_all_generators
from twinrep.scalars import ex, fl
from conftest import rand_family1_params, rng_for
from helpers import is_irreducible_oracle


def test_identity_alone_gives_dimension_one():
    assert algebra_dimension([Matrix.identity(2)]) == 1


def test_generators_of_full_matrix_algebra():
    # the permutation and a projector generate all of 2x2
    swap = Matrix([[ex(0), ex(1)], [ex(1), ex(0)]])
    proj = Matrix([[ex(1), ex(0)], [ex(0), ex(0)]])
    assert algebra_dimension([swap, proj]) == 4
    assert is_irreducible_oracle([swap, proj])


def test_diagonal_algebra_is_reducible():
    d1 = Matrix([[ex(1), ex(0)], [ex(0), ex(-1)]])
    assert algebra_dimension([d1]) == 2
    assert not is_irreducible_oracle([d1])


def test_oracle_matches_decision_on_reduced_reps():
    rng = rng_for(701)
    for n in (3, 4, 5):
        a, b = rand_family1_params(rng, avoid=(0, 1, -1))
        gens = reduced_generators(n, a, b)
        d = n - 1
        assert algebra_dimension(gens) == d * d, n  # generic: irreducible
    for n in (3, 4, 5):
        gens = reduced_generators(n, ex(-1), ex(2))
        d = n - 1
        assert algebra_dimension(gens) < d * d, n  # a = -1: reducible


def test_closure_float_gap_is_exposed():
    gens = reduced_generators(4, fl(0.5), fl(2.0))
    res = algebra_closure(gens)
    assert res.dim == 9
    assert res.rank_gap > 1e3  # decision was not borderline


def test_closure_exact_and_float_agree():
    for a_val in (-1, 3):
        exact = algebra_dimension(reduced_generators(4, ex(a_val), ex(2)))
        flt = algebra_dimension(reduced_generators(4, fl(float(a_val)), fl(2.0)))
        assert exact == flt


def test_closure_basis_spans_algebra():
    gens = reduced_generators(3, ex(2), ex(1))
    res = algebra_closure(gens)
    assert len(res.basis) == res.dim
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
    with pytest.raises(ValueError, match="finite"):
        algebra_closure([bad])


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
    assert res.dim == len(res.basis) == dim
    assert mat_rank(Matrix([_flat(m) for m in res.basis])) == dim
    # I and every product with a generator, on either side, stay in the span
    extra = [Matrix.identity(n - 1)]
    for g in gens:
        for m in res.basis:
            extra += [g @ m, m @ g]
    stacked = Matrix([_flat(m) for m in res.basis + extra])
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
    assert all(witness_check(images, line) for line in lines)
    witness = decide(n, a, b).witness
    assert witness.dim == 1
    assert any(line.contains(witness.basis[0]) for line in lines)


def test_common_eigenlines_rejects_non_involution():
    shear = Matrix([[ex(1), ex(1)], [ex(0), ex(1)]])
    with pytest.raises(ValueError):
        common_eigenlines([shear])


def test_common_eigenlines_dedups():
    # two diagonal involutions share the coordinate lines; each must appear
    # exactly once
    d1 = Matrix([[ex(1), ex(0)], [ex(0), ex(-1)]])
    d2 = Matrix([[ex(-1), ex(0)], [ex(0), ex(1)]])
    lines = common_eigenlines([d1, d2])
    assert len(lines) == 2


def test_unwrap_accepts_generator_images():
    gens = reduced_generators(3, ex(2), ex(1))
    assert algebra_dimension(gens) == algebra_dimension([g.matrix for g in gens])
