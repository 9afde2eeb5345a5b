"""equivalent_codes against the search over both GL factors it replaced.

The library solves for the left factors; helpers.brute_equivalence builds
one code image per isometry.  Both must return the same witness (the first
in permutation, mask, left, right order) and the same witness lists.
"""

import random

import pytest

from sumrank import LinearCode, Shape, equivalent_codes, isometry_count, random_isometry
from sumrank.errors import GroupTooLarge
from sumrank.isom import GROUP_CAP

from helpers import F2, F3, F4, brute_equivalence, random_code

# the field and shape of every equiv benchmark pair
BENCH_SHAPES = [
    (F2, (3, 1), (2, 1)),
    (F2, (2, 2, 1), (2, 1, 1)),
    (F2, (2, 2), (2, 1)),
    (F3, (2,), (2,)),
    (F4, (2, 1), (1, 1)),
    (F3, (2, 1), (1, 1)),
]


def _same_witness(first, second):
    fast = equivalent_codes(first, second)
    brute = brute_equivalence(first, second)
    assert (fast is None) == (brute is None)
    if fast is not None:
        assert fast.to_dict() == brute.to_dict()
        assert fast.apply_code(first) == second
    return fast


def _same_witness_lists(first, second):
    fast = equivalent_codes(first, second, all_witnesses=True)
    brute = brute_equivalence(first, second, all_witnesses=True)
    assert [w.to_dict() for w in fast] == [w.to_dict() for w in brute]
    return fast


@pytest.mark.parametrize("seed,ctx,m,n", [(101 + i,) + s for i, s in enumerate(BENCH_SHAPES)])
def test_benchmark_shapes_match_brute_force(seed, ctx, m, n):
    rng = random.Random(seed)
    shape = Shape(m, n)
    for k in (1, 2):
        code = random_code(rng, ctx, shape, k)
        image = random_isometry(ctx, shape, rng).apply_code(code)
        assert _same_witness(code, image) is not None
    _same_witness_lists(code, code)


def test_two_admissible_permutations():
    shape = Shape((1, 1), (1, 1))
    for ctx in (F2, F3):
        for rows in ([(1, 0)], [(0, 1)], [(1, 1)], [(1, 2)], [(1, 0), (0, 1)]):
            rows = [tuple(x % ctx.q for x in r) for r in rows]
            code = LinearCode(shape, ctx, rows)
            for target in ([(1, 0)], [(0, 1)], [(1, 1)]):
                _same_witness(code, LinearCode(shape, ctx, target))
            autos = _same_witness_lists(code, code)
            assert autos


def test_zero_code_and_full_space():
    for ctx, shape in [
        (F2, Shape((2, 1), (1, 1))),
        (F2, Shape((1, 1), (1, 1))),
        (F3, Shape((2,), (1,))),
        (F4, Shape((1, 1), (1, 1))),
    ]:
        for code in (LinearCode.zero(shape, ctx), LinearCode.full(shape, ctx)):
            assert _same_witness(code, code) is not None
            autos = _same_witness_lists(code, code)
            # every isometry fixes the zero code and the full space
            assert len(autos) == isometry_count(shape, ctx.q)


def test_non_equivalent_random_pairs():
    rng = random.Random(83)
    misses = 0
    for ctx, m, n in BENCH_SHAPES[:3] + [(F4, (2, 1), (1, 1))]:
        shape = Shape(m, n)
        for _ in range(2):
            first = random_code(rng, ctx, shape, 2)
            second = random_code(rng, ctx, shape, 2)
            if _same_witness(first, second) is None:
                misses += 1
            _same_witness_lists(first, second)
    assert misses > 0


def test_extension_field_witness_lists():
    rng = random.Random(89)
    shape = Shape((2, 1), (1, 1))
    code = random_code(rng, F4, shape, 2)
    image = random_isometry(F4, shape, rng).apply_code(code)
    autos = _same_witness_lists(code, image)
    assert autos and all(w.apply_code(code) == image for w in autos)


def test_left_group_is_never_enumerated():
    # 9,999,360 isometries fit under GROUP_CAP although GL(5, F_2) is too
    # large to list; only the right factors (GL(1, F_2)) are enumerated
    shape = Shape((5,), (1,))
    assert isometry_count(shape, 2) <= GROUP_CAP
    rng = random.Random(97)
    code = random_code(rng, F2, shape, 2)
    image = random_isometry(F2, shape, rng).apply_code(code)
    witness = equivalent_codes(code, image)
    assert witness is not None
    assert witness.apply_code(code) == image


def test_huge_groups_are_refused_before_counting():
    # the order of GL(4000, F_2) has millions of bits; the refusal is immediate
    shape = Shape((4000,), (1,))
    zero = LinearCode.zero(shape, F2)
    with pytest.raises(GroupTooLarge):
        equivalent_codes(zero, zero)
    many = Shape((1,) * 40, (1,) * 40)
    zero = LinearCode.zero(many, F2)
    with pytest.raises(GroupTooLarge):
        equivalent_codes(zero, zero)
