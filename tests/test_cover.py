"""Line covers, the 0/1 coefficient search, and coset rank escapes."""

import random

import pytest

from sumrank import (
    LinearCode,
    MatrixFq,
    Shape,
    coset_rank_lower,
    coset_witness_exact,
    covering_number,
    leading_position,
    meshulam_search,
)
from sumrank.errors import (
    AInV,
    ContextMismatch,
    DimensionMismatch,
    DimensionTooSmall,
    RankOutOfRange,
    ShapeMismatch,
    ZeroMatrix,
)

from helpers import (
    F2,
    F3,
    F4,
    brute_best_01_rank,
    brute_min_cover,
    random_code,
    random_matrix,
    random_nonzero_matrix,
)


def test_leading_position_examples():
    assert leading_position(MatrixFq(F2, [[0, 0], [0, 1]])) == (2, 2)
    assert leading_position(MatrixFq(F3, [[0, 2, 0], [1, 0, 0]])) == (1, 2)
    with pytest.raises(ZeroMatrix):
        leading_position(MatrixFq.zero(F2, 2, 2))


def test_covering_number_hand_example():
    # leading positions (1,1), (1,2), (2,1): two independent pivots
    mats = [
        MatrixFq(F2, [[1, 0], [0, 0]]),
        MatrixFq(F2, [[0, 1], [1, 0]]),
        MatrixFq(F2, [[0, 0], [1, 1]]),
    ]
    res = covering_number(mats)
    assert res.rho == 2
    rows = [p[0] for p in res.pivots]
    cols = [p[1] for p in res.pivots]
    assert len(set(rows)) == len(rows) and len(set(cols)) == len(cols)
    for pos, w in zip(res.pivots, res.witnesses):
        assert leading_position(mats[w]) == pos


def test_covering_number_matches_brute_cover():
    rng = random.Random(7)
    for ctx in (F2, F3):
        for _ in range(60):
            m = rng.randint(1, 5)
            n = rng.randint(1, 5)
            count = rng.randint(1, 6)
            mats = [random_nonzero_matrix(rng, ctx, m, n) for _ in range(count)]
            res = covering_number(mats)
            points = [leading_position(mat) for mat in mats]
            assert res.rho == brute_min_cover(points)
            # matched positions form an independent subset of the pattern
            assert set(res.pivots) <= set(points)
            assert len({p[0] for p in res.pivots}) == res.rho
            assert len({p[1] for p in res.pivots}) == res.rho


def test_collection_guards():
    good = MatrixFq(F2, [[1, 0], [0, 0]])
    with pytest.raises(DimensionMismatch):
        covering_number([])
    with pytest.raises(ZeroMatrix):
        covering_number([good, MatrixFq.zero(F2, 2, 2)])
    with pytest.raises(ShapeMismatch):
        covering_number([good, MatrixFq(F2, [[1, 0, 0], [0, 0, 0]])])
    with pytest.raises(ContextMismatch):
        covering_number([good, MatrixFq(F3, [[1, 0], [0, 0]])])
    with pytest.raises(ContextMismatch):
        meshulam_search(MatrixFq.zero(F3, 2, 2), [good])
    with pytest.raises(ShapeMismatch):
        meshulam_search(MatrixFq.zero(F2, 3, 2), [good])


def test_meshulam_search_battery():
    rng = random.Random(23)
    for ctx in (F2, F3, F4):
        for _ in range(40):
            m = rng.randint(1, 4)
            n = rng.randint(1, 4)
            count = rng.randint(1, 5)
            mats = [random_nonzero_matrix(rng, ctx, m, n) for _ in range(count)]
            a = random_matrix(rng, ctx, m, n)
            res = meshulam_search(a, mats)
            assert set(res.coeffs) <= {0, 1}
            assert len(res.coeffs) == count
            total = a
            for x, mat in zip(res.coeffs, mats):
                if x:
                    total = total + mat
            assert total.rank() == res.achieved_rank
            assert res.achieved_rank >= res.rho
            assert res.rho == covering_number(mats).rho
            # the search result can never beat the exhaustive optimum
            assert res.achieved_rank <= brute_best_01_rank(a, mats)


def test_meshulam_from_zero_offset():
    mats = [
        MatrixFq(F2, [[1, 0, 0], [0, 0, 0], [0, 0, 0]]),
        MatrixFq(F2, [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        MatrixFq(F2, [[0, 0, 0], [0, 1, 0], [0, 0, 0]]),
        MatrixFq(F2, [[0, 0, 0], [0, 0, 0], [0, 0, 1]]),
    ]
    res = meshulam_search(MatrixFq.zero(F2, 3, 3), mats)
    assert res.rho == 3
    assert res.achieved_rank >= 3


def _single_block_code(rng, ctx, m, n, dim):
    shape = Shape((m,), (n,))
    while True:
        code = random_code(rng, ctx, shape, dim + 1)
        if code.dim >= dim:
            rows = code.rows[:dim]
            return LinearCode(shape, ctx, rows)


def test_coset_rank_lower_battery():
    rng = random.Random(37)
    for ctx in (F2, F3):
        for _ in range(30):
            m = rng.randint(2, 3)
            n = rng.randint(1, m)
            t = rng.randrange(n)
            dim = rng.randint(m * t + 1, m * n)
            v = _single_block_code(rng, ctx, m, n, dim)
            a = random_matrix(rng, ctx, m, n)
            wit = coset_rank_lower(a, v, t)
            assert v.contains_flat(tuple(x for row in wit.matrix.rows for x in row))
            assert (a + wit.matrix).rank() == wit.achieved_rank
            assert wit.achieved_rank >= t + 1
            assert wit.method == "meshulam"


def test_coset_rank_lower_guards():
    shape = Shape((2,), (2,))
    v = LinearCode.full(shape, F2)
    a = MatrixFq.zero(F2, 2, 2)
    with pytest.raises(RankOutOfRange):
        coset_rank_lower(a, v, 2)
    with pytest.raises(RankOutOfRange):
        coset_rank_lower(a, v, -1)
    small = LinearCode(shape, F2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    with pytest.raises(DimensionTooSmall):
        coset_rank_lower(a, small, 1)
    wide = Shape((1,), (2,), strict=False)
    with pytest.raises(ShapeMismatch):
        coset_rank_lower(
            MatrixFq.zero(F2, 1, 2), LinearCode.full(wide, F2), 0
        )
    two_blocks = LinearCode.full(Shape((1, 1), (1, 1)), F2)
    with pytest.raises(ShapeMismatch):
        coset_rank_lower(MatrixFq.zero(F2, 1, 1), two_blocks, 0)


def _exact_dim_instance(rng, ctx, m, n, t):
    """A code of dim m*t plus a matrix outside it.

    Escapes are only guaranteed for odd q, t >= 2, or rank(a) > t; keep
    the sampling inside that region (F_2 with t = 1 can have none, see
    test_coset_no_witness_over_f2).
    """
    shape = Shape((m,), (n,))
    v = _single_block_code(rng, ctx, m, n, m * t)
    while True:
        a = random_matrix(rng, ctx, m, n)
        if v.contains_flat(tuple(x for row in a.rows for x in row)):
            continue
        if ctx.q == 2 and t == 1 and a.rank() < 2:
            continue
        return a, v


def test_coset_witness_exact_battery():
    rng = random.Random(53)
    for ctx in (F2, F3):
        for _ in range(30):
            m = rng.randint(2, 3)
            n = rng.randint(2, m)
            t = rng.randint(1, n - 1)
            a, v = _exact_dim_instance(rng, ctx, m, n, t)
            wit = coset_witness_exact(a, v, t)
            assert v.contains_flat(tuple(x for row in wit.matrix.rows for x in row))
            assert (a + wit.matrix).rank() == wit.achieved_rank
            assert wit.achieved_rank >= t + 1
            assert wit.method in {"meshulam", "exhaustive", "random"}


def test_coset_no_witness_over_f2():
    """The one corner where no escape exists: q = 2, t = 1.

    Every element of a + v below has determinant x^2 + x = 0, so the
    exhaustive stage correctly comes back empty-handed.
    """
    shape = Shape((2,), (2,))
    v = LinearCode(shape, F2, [(1, 0, 0, 1), (0, 1, 0, 0)])
    a = MatrixFq(F2, [[0, 0], [0, 1]])
    assert not v.contains_flat((0, 0, 0, 1))
    ranks = set()
    for flat in v.iter_flat(include_zero=True):
        b = MatrixFq(F2, [flat[:2], flat[2:]])
        ranks.add((a + b).rank())
    assert ranks == {1}
    from sumrank.errors import SearchExhausted

    with pytest.raises(SearchExhausted):
        coset_witness_exact(a, v, 1)


def test_coset_witness_exact_trivial_rank():
    shape = Shape((2,), (2,))
    v = LinearCode.zero(shape, F2)
    a = MatrixFq(F2, [[1, 0], [0, 1]])
    wit = coset_witness_exact(a, v, 0)
    assert wit.method == "trivial"
    assert wit.matrix.is_zero()
    assert wit.achieved_rank == 2


def test_coset_witness_exact_guards():
    shape = Shape((2,), (2,))
    v = LinearCode(shape, F2, [(1, 0, 0, 0), (0, 1, 0, 0)])  # dim 2 = m*1
    inside = MatrixFq(F2, [[1, 1], [0, 0]])
    with pytest.raises(AInV):
        coset_witness_exact(inside, v, 1)
    outside = MatrixFq(F2, [[0, 0], [1, 0]])
    with pytest.raises(DimensionMismatch):
        coset_witness_exact(outside, LinearCode.full(shape, F2), 1)
    with pytest.raises(RankOutOfRange):
        coset_witness_exact(outside, v, 2)


def test_coset_witness_small_cap_falls_back_to_random():
    # cap below q**dim skips exhaustion; random stage must still land
    rng = random.Random(61)
    found_random = False
    for _ in range(40):
        a, v = _exact_dim_instance(rng, F2, 3, 2, 1)
        wit = coset_witness_exact(a, v, 1, cap=1, seed=5)
        assert wit.achieved_rank >= 2
        assert v.contains_flat(tuple(x for row in wit.matrix.rows for x in row))
        found_random = found_random or wit.method == "random"
    assert found_random


@pytest.mark.parametrize("search,dim", [(coset_witness_exact, 3), (coset_rank_lower, 4)])
def test_coset_searches_check_a_against_v(search, dim):
    units = [tuple(int(i == j) for j in range(6)) for i in range(dim)]
    v = LinearCode(Shape((3,), (2,)), F2, units)
    with pytest.raises(ShapeMismatch):
        search(MatrixFq(F2, [[1, 0], [0, 1]]), v, 1)
    with pytest.raises(ContextMismatch):
        search(MatrixFq(F3, [[1, 0], [0, 2], [1, 1]]), v, 1)
