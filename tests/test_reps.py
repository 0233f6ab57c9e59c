import json
import math

import pytest

from twinrep.linalg import Matrix
from twinrep.reps import (GeneratorImage, RepSpec, RepSpecError, build_block,
                          build_all_generators, build_generator,
                          verify_relations)
from twinrep.scalars import ScalarError, ex, fl
from conftest import (rand_exact, rand_family1_params,
                      rand_float_family1_params, rng_for)
from helpers import classify_block, is_identity, reference_generator


def rand_spec(rng, family, n):
    if family == 1:
        a, b = rand_family1_params(rng)
        return RepSpec(1, n, a, b)
    if family == 2:
        return RepSpec(2, n, c=rand_exact(rng), sign=rng.choice((1, -1)))
    return RepSpec(3, n)


def test_blocks_are_involutions():
    rng = rng_for(301)
    for family in (1, 2, 3):
        for _ in range(10):
            m = build_block(rand_spec(rng, family, 4))
            assert is_identity(m @ m)


def test_generator_shape_and_block_placement():
    spec = RepSpec(1, 5, ex(2), ex(3))
    g = build_generator(spec, 2)
    assert g.index == 2 and g.matrix.rows == 5
    m = build_block(spec)
    assert g.matrix.data[1][1].eq(m.data[0][0])
    assert g.matrix.data[2][1].eq(m.data[1][0])
    assert g.matrix.data[0][0].eq(ex(1))
    assert g.matrix.data[4][4].eq(ex(1))


def test_generator_index_bounds():
    spec = RepSpec(3, 4)
    with pytest.raises(RepSpecError):
        build_generator(spec, 0)
    with pytest.raises(RepSpecError):
        build_generator(spec, 4)


def test_spec_validation():
    with pytest.raises(RepSpecError):
        RepSpec(1, 4, ex(1), ex(0))  # b = 0
    with pytest.raises(RepSpecError):
        RepSpec(1, 4, ex(1), None)
    with pytest.raises(RepSpecError):
        RepSpec(4, 4)
    with pytest.raises(RepSpecError):
        RepSpec(2, 4, sign=2)
    with pytest.raises(RepSpecError):
        RepSpec(1, 1, ex(1), ex(1))
    # mixed backends
    with pytest.raises(RepSpecError):
        RepSpec(1, 4, ex(1), fl(1.0))


def test_relations_hold_all_families():
    rng = rng_for(302)
    for family in (1, 2, 3):
        for n in (2, 4, 6):
            spec = rand_spec(rng, family, n)
            assert verify_relations(build_all_generators(spec)) == []


def test_relations_report_failures():
    # a non-involution first image and a pair of adjacent-style blocks placed
    # at distance 2 so they must commute but do not
    bad = Matrix([[ex(1), ex(1)], [ex(0), ex(1)]])
    # bad (+) I_2
    images = [GeneratorImage(1, Matrix.identity(4, True, {
        i: dict(enumerate(row)) for i, row in enumerate(bad.data)}))]
    failures = verify_relations(images)
    assert "s1^2 != I" in failures
    spec = RepSpec(1, 4, ex(2), ex(1))
    g1 = build_generator(spec, 1)
    g3 = build_generator(spec, 3)
    # mislabel g1's matrix as s3's partner at distance 2 with a twist
    twisted = GeneratorImage(3, Matrix([[row[j] for j in (0, 1, 3, 2)]
                                        for row in g3.matrix.data]))
    failures = verify_relations([g1, twisted])
    assert failures  # either the involution or the commutation breaks


def test_classify_block_round_trips():
    rng = rng_for(303)
    for _ in range(10):
        a, b = rand_family1_params(rng)
        cls = classify_block(build_block(RepSpec(1, 3, a, b)))
        assert cls.kind == "family1"
        assert cls.a.eq(a) and cls.b.eq(b)
    c = rand_exact(rng)
    cls = classify_block(build_block(RepSpec(2, 3, c=c, sign=-1)))
    assert cls.kind == "family2" and cls.sign == -1 and cls.c.eq(c)
    assert classify_block(build_block(RepSpec(3, 3))).kind == "family3"
    assert classify_block(Matrix.identity(2)).kind == "trivial"
    assert classify_block(Matrix([[ex(2), ex(0)], [ex(0), ex(1)]])).kind == "invalid"


def test_family1_with_b_zero_limit_is_family2():
    # the b -> 0 limit of family 1 degenerates into family 2 blocks
    m = Matrix([[ex(1), ex(0)], [ex(5), ex(-1)]])
    cls = classify_block(m)
    assert cls.kind == "family2" and cls.sign == 1 and cls.c.eq(ex(5))


def test_float_backend_family1():
    spec = RepSpec(1, 4, fl(0.5), fl(2.0))
    assert not spec.exact
    assert verify_relations(build_all_generators(spec)) == []


def _float_spec(rng, family, n):
    if family == 1:
        return RepSpec(1, n, *rand_float_family1_params(rng))
    if family == 2:
        return RepSpec(2, n, c=rand_exact(rng).to_float(),
                       sign=rng.choice((1, -1)))
    return RepSpec(3, n, exact=False)


@pytest.mark.parametrize("exact", [True, False])
def test_generators_match_block_diag_reference(exact):
    # s_k is the identity with rows k-1 and k patched: the same matrix as
    # I_{k-1} (+) M (+) I_{n-k-1}, entry for entry, bits and signed zeros
    rng = rng_for(3131 + exact)
    for n in range(2, 13):
        for family in (1, 2, 3):
            for _ in range(3):
                spec = (rand_spec if exact else _float_spec)(rng, family, n)
                for k in range(1, n):
                    got = build_generator(spec, k).matrix
                    assert got.exact == exact
                    assert (json.dumps(got.to_json()) == json.dumps(
                        reference_generator(spec, k).to_json())), (spec, k)


def test_family1_spec_refuses_non_finite_parameters():
    for a, b in ((fl(math.inf), fl(1.0)), (fl(2.0), fl(0.0, math.nan)),
                 (fl(math.nan), ex(1))):
        with pytest.raises(ScalarError, match="non-finite scalar"):
            RepSpec(1, 3, a, b)
