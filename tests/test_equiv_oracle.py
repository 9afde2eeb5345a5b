"""equivalent_codes against the search over both GL factors it replaced.

The library solves for the left factors; helpers.brute_equivalence builds
one code image per isometry.  Both must return the same witness (the first
in permutation, mask, left, right order) and the same witness lists.  The
left system itself, solved on packed columns, must give the nullspace that
helpers.left_equations gives on list rows.
"""

import random
from collections import Counter
from math import prod

import pytest

from sumrank import (
    FieldContext,
    LinearCode,
    Shape,
    admissible_permutations,
    equivalent_codes,
    gl_group,
    gl_order,
    isometry_count,
    random_isometry,
)
from sumrank.errors import GroupTooLarge
from sumrank.isom import GROUP_CAP, _blocks, _left_solver, _transpose_masks
from sumrank.matfq import nullspace_rows

from helpers import F2, F3, F4, F8, F9, brute_equivalence, left_equations, random_code

F5 = FieldContext(5, 1)
F7 = FieldContext(7, 1)

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


def test_list_row_field_matches_brute_force():
    # F_5 has no packed form, so its left systems are solved on list rows
    rng = random.Random(127)
    misses = 0
    for m, n in (((1, 1), (1, 1)), ((2,), (1,))):
        shape = Shape(m, n)
        for k in (1, 2):
            code = random_code(rng, F5, shape, k)
            image = random_isometry(F5, shape, rng).apply_code(code)
            assert _same_witness(code, image) is not None
            other = random_code(rng, F5, shape, code.dim)
            misses += _same_witness(code, other) is None
        _same_witness_lists(code, code)
    # (1, 0) and (1, 1) differ in sum-rank weight, so nothing maps one onto the other
    shape = Shape((1, 1), (1, 1))
    first, second = LinearCode(shape, F5, [(1, 0)]), LinearCode(shape, F5, [(1, 1)])
    assert _same_witness(first, second) is None
    assert misses > 0


# shapes with two equal blocks (two permutations), square blocks (masks)
# and a block of one row
_SYSTEM_SHAPES = [((2, 1), (2, 1)), ((2, 2), (2, 1)), ((1, 1), (1, 1)), ((3,), (2,)), ((2, 1), (1, 1))]


@pytest.mark.parametrize(
    "ctx", [F2, F3, F4, F8, F5, F9], ids=["q2", "q3", "q4", "q8", "q5", "q9"]
)
def test_packed_left_system_matches_list_rows(ctx):
    rng = random.Random(131 + ctx.q)
    partial = 0
    for trial in range(24):
        m, n = _SYSTEM_SHAPES[trial % len(_SYSTEM_SHAPES)]
        shape = Shape(m, n)
        # every dimension, the zero code and the full space included
        first = random_code(rng, ctx, shape, rng.randint(0, shape.ambient_dim))
        if trial % 2:
            second = random_isometry(ctx, shape, rng).apply_code(first)
        else:
            second = random_code(rng, ctx, shape, first.dim)
        blocks = [shape.lines(j, "col") for j in range(shape.ell)]
        basis = [_blocks(row, blocks) for row in first.rows]
        checks = [_blocks(row, blocks) for row in second.dual().rows]
        pools = [gl_group(ctx, d) for d in n]
        solve = _left_solver(ctx, basis, checks, m, pools)
        sigmas = list(admissible_permutations(shape))
        unknowns = sum(d * d for d in m)
        for _ in range(3):
            sigma = rng.choice(sigmas)
            mask = tuple(m[j] == n[j] and rng.random() < 0.5 for j in range(shape.ell))
            # a repeated factor reuses the columns built for it
            idx = tuple(rng.randrange(min(len(pool), 3)) for pool in pools)
            images = [
                [tuple(zip(*x[sigma[j]])) if mask[j] else x[sigma[j]] for j in range(shape.ell)]
                for x in basis
            ]
            right = [pool[i] for pool, i in zip(pools, idx)]
            want = nullspace_rows(left_equations(ctx, m, checks, images, right), unknowns, ctx)
            assert list(solve(sigma, mask, idx)) == want
            partial += 0 < len(want) < unknowns
    assert partial


# the fields whose right tuples fall into the largest scalar classes, each
# class solved once, on shapes whose brute force stays near a second: on
# (2,1)x(1,1) it walks every left tuple (25 s over F_7, 90 s over F_8), and
# a line of (2,)x(1,) over F_8 or F_9 has thousands of witnesses to list
_CLASS_CASES = [(ctx, (1, 1), (1, 1), True) for ctx in (F5, F7, F8, F9)] + [
    (ctx, (2,), (1,), ctx.q < 8) for ctx in (F5, F7, F8, F9)
] + [(F5, (2, 1), (1, 1), True)]
_CLASS_IDS = [
    f"q{c.q}-{','.join(map(str, m))}x{','.join(map(str, n))}" for c, m, n, _ in _CLASS_CASES
]


@pytest.mark.parametrize("ctx,m,n,lists", _CLASS_CASES, ids=_CLASS_IDS)
def test_scalar_classes_keep_every_witness(ctx, m, n, lists):
    rng = random.Random(149 + ctx.q)
    shape = Shape(m, n)
    code = random_code(rng, ctx, shape, 1)
    image = random_isometry(ctx, shape, rng).apply_code(code)
    assert _same_witness(code, image) is not None
    if lists:
        assert _same_witness_lists(code, image)
    if shape.ell > 1:  # weight 1 against weight ell: no isometry maps one onto the other
        unit = LinearCode(shape, ctx, [(1,) + (0,) * (shape.ambient_dim - 1)])
        ones = LinearCode(shape, ctx, [(1,) * shape.ambient_dim])
        assert _same_witness_lists(unit, ones) == []
        assert equivalent_codes(unit, ones) is None


def test_square_block_over_f4_keeps_the_first_witness():
    # brute force lists the witnesses of an F_4 (2,)x(2,) pair in 1.7-3.9 s,
    # so only first witnesses, which it finds early, are compared
    rng = random.Random(151)
    shape = Shape((2,), (2,))
    for k in (1, 2, 3):
        code = random_code(rng, F4, shape, k)
        image = random_isometry(F4, shape, rng).apply_code(code)
        assert _same_witness(code, image) is not None


@pytest.mark.parametrize(
    "ctx", [F2, F3, F4, F5, F8, F9], ids=["q2", "q3", "q4", "q5", "q8", "q9"]
)
def test_one_left_system_per_scalar_class(ctx, monkeypatch):
    # (M, c N) solves exactly when (M, N) does, so each (sigma, mask) walked
    # solves one right tuple of every scalar class: prod |GL(n_j, q)| / (q - 1)
    import sumrank.isom as isom

    calls = Counter()
    real = isom._left_solver

    def counting(*args):
        solve = real(*args)
        return lambda sigma, mask, idx: calls.update([(sigma, mask)]) or solve(sigma, mask, idx)

    monkeypatch.setattr(isom, "_left_solver", counting)
    rng = random.Random(157 + ctx.q)
    shapes = [((1, 1), (1, 1)), ((2, 1), (1, 1))] + [((2,), (2,))] * (ctx.q <= 5)
    for m, n in shapes:
        shape = Shape(m, n)
        walks = {(s, k) for s in admissible_permutations(shape) for k in _transpose_masks(shape)}
        code = random_code(rng, ctx, shape, 1)
        image = random_isometry(ctx, shape, rng).apply_code(code)
        # every walk of the witness list, and the walks up to the first witness
        for second, every in ((code, True), (image, False)):
            calls.clear()
            assert equivalent_codes(code, second, all_witnesses=every)
            assert calls and set(calls) <= walks
            assert set(calls.values()) == {prod(gl_order(d, ctx.q) for d in n) // (ctx.q - 1)}
