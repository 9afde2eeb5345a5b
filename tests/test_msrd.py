"""Maximum sum-rank distance: decompositions, bounds, criteria, profiles."""

import random
from itertools import product as iter_product

import pytest

from sumrank import (
    LinearCode,
    Shape,
    admissible_ranks,
    anticode_dim_extremes,
    dim_decomposition,
    distance_decomposition,
    msrd_check,
    msrd_weight_profile,
    r_msrd_check,
    r_mu,
    singleton_distance_bound,
)
from sumrank.errors import (
    DimNotAdmissible,
    EnumerationTooLarge,
    RankOutOfRange,
    ShapeMismatch,
    TrivialCode,
)
from sumrank.msrd import d_max_for_dim

from helpers import F2, F3, random_code

SHAPES = [
    Shape((2, 2), (1, 1)),
    Shape((2,), (2,)),
    Shape((3, 2), (1, 2)),
    Shape((3, 2), (2, 2)),
    Shape((2, 2, 1), (2, 1, 1)),
]


def test_dim_decomposition_inverts():
    for shape in SHAPES:
        for dim in range(1, shape.ambient_dim + 1):
            j, delta, s = dim_decomposition(shape, dim)
            # T_j: the dimension of the product of blocks j..ell-1
            mass = sum(m * n for m, n in zip(shape.m[j:], shape.n[j:]))
            assert dim == mass - delta * shape.m[j] - s
            assert 0 <= s < shape.m[j]
            assert 0 <= delta <= shape.n[j] - 1
    with pytest.raises(DimNotAdmissible):
        dim_decomposition(SHAPES[0], 0)
    with pytest.raises(DimNotAdmissible):
        dim_decomposition(SHAPES[0], 5)


def test_distance_decomposition_inverts():
    for shape in SHAPES:
        for d in range(1, shape.ncols + 1):
            j, delta = distance_decomposition(shape, d)
            assert d == sum(shape.n[:j]) + delta + 1
            assert 0 <= delta < shape.n[j]
    with pytest.raises(DimNotAdmissible):
        distance_decomposition(SHAPES[0], 0)


def test_r_mu_prefix_fill():
    shape = Shape((3, 2), (1, 2))
    assert r_mu(shape, 0) == 0
    assert r_mu(shape, 1) == 3
    assert r_mu(shape, 2) == 5
    assert r_mu(shape, 3) == 7
    for mu in (-1, 4):
        with pytest.raises(DimNotAdmissible):
            r_mu(shape, mu)


def test_anticode_dim_extremes():
    shape = Shape((3, 2), (2, 2))
    assert anticode_dim_extremes(shape, 0) == (0, 0)
    assert anticode_dim_extremes(shape, 1) == (2, 3)
    assert anticode_dim_extremes(shape, 4) == (10, 10)
    with pytest.raises(DimNotAdmissible):
        anticode_dim_extremes(shape, 5)


def _brute_max_anticode_dim(shape, mu):
    best = 0
    for u in iter_product(*(range(n + 1) for n in shape.n)):
        if sum(u) == mu:
            best = max(best, sum(m * x for m, x in zip(shape.m, u)))
    return best


def test_singleton_bound_matches_brute_force():
    for shape in SHAPES:
        ambient = shape.ambient_dim
        for dim in range(1, ambient + 1):
            best = 0
            for d in range(1, shape.ncols + 1):
                if _brute_max_anticode_dim(shape, d - 1) <= ambient - dim:
                    best = max(best, d)
            assert singleton_distance_bound(shape, dim) == best
    # the suffix formula alone is not sharp here; the scan is
    assert singleton_distance_bound(Shape((2, 2), (1, 1)), 2) == 2


def test_dimension_extremes_refuse_non_strict_shapes():
    with pytest.raises(ShapeMismatch):
        anticode_dim_extremes(Shape((1, 2), (1, 1), strict=False), 1)


def test_anticode_bound_refuses_non_strict_shapes():
    # the greedy column fill reads 1 here, though u = (0, 1) reaches 3
    loose = Shape((1, 3), (1, 1), strict=False)
    with pytest.raises(ShapeMismatch):
        r_mu(loose, 1)


def test_singleton_bound_refuses_dimensions_below_one():
    for dim in (0, -3):
        with pytest.raises(DimNotAdmissible):
            singleton_distance_bound(Shape((3, 2), (2, 2)), dim)


def _strict_shapes(blocks, size):
    """Every strict shape with at most `blocks` blocks and m_i, n_i <= size."""
    for ell in range(1, blocks + 1):
        for m in iter_product(range(size, 0, -1), repeat=ell):
            if list(m) == sorted(m, reverse=True):
                for n in iter_product(*(range(1, x + 1) for x in m)):
                    yield Shape(m, n)


def test_closed_forms_match_brute_force_on_small_shapes():
    for shape in _strict_shapes(3, 3):
        ambient, ncols = shape.ambient_dim, shape.ncols
        brute = [_brute_max_anticode_dim(shape, mu) for mu in range(ncols + 1)]
        for mu in range(ncols + 1):
            lightest = min(
                sum(m * x for m, x in zip(shape.m, u))
                for u in iter_product(*(range(n + 1) for n in shape.n))
                if sum(u) == mu
            )
            assert r_mu(shape, mu) == brute[mu]
            assert anticode_dim_extremes(shape, mu) == (lightest, brute[mu])
        for dim in range(1, ambient + 1):
            h = max(x for x in range(ncols + 1) if brute[x] <= ambient - dim)
            s = ambient - dim - brute[h]
            assert singleton_distance_bound(shape, dim) == h + 1
            j, delta, rest = dim_decomposition(shape, dim)
            assert (sum(shape.n[:j]) + delta, rest) == (h, s)
            assert 0 <= delta < shape.n[j] and 0 <= rest < shape.m[j]
            if s:
                for closed_form in (d_max_for_dim, admissible_ranks, msrd_weight_profile):
                    with pytest.raises(DimNotAdmissible):
                        closed_form(shape, dim)
                continue
            assert d_max_for_dim(shape, dim) == h + 1
            weights = tuple(
                min(x for x in range(1, ncols + 1) if brute[x] >= ambient - dim + r)
                for r in range(1, dim + 1)
            )
            assert msrd_weight_profile(shape, dim) == weights
            starts = {r: w for r, w in enumerate(weights, 1) if r == 1 or weights[r - 2] != w}
            assert admissible_ranks(shape, dim) == starts


def test_admissible_ranks_structure():
    shape = Shape((2, 2), (1, 1))
    assert admissible_ranks(shape, 2) == {1: 2}
    assert admissible_ranks(shape, 4) == {1: 1, 3: 2}
    wide = Shape((3, 2), (1, 2))
    # dim 4 = T_1: block 1 onward, dmax = 2
    assert admissible_ranks(wide, 4) == {1: 2, 3: 3}
    with pytest.raises(DimNotAdmissible):
        admissible_ranks(shape, 3)


def test_msrd_weight_profile_closed_form():
    assert msrd_weight_profile(Shape((2, 2), (1, 1)), 4) == (1, 1, 2, 2)
    assert msrd_weight_profile(Shape((2, 2), (1, 1)), 2) == (2, 2)
    assert msrd_weight_profile(Shape((2,), (2,)), 2) == (2, 2)
    big = Shape((4, 4, 2), (4, 2, 2))
    assert msrd_weight_profile(big, 4) == (7, 7, 8, 8)


def test_full_space_is_msrd():
    shape = Shape((2, 2), (1, 1))
    report = msrd_check(LinearCode.full(shape, F2))
    assert report.is_msrd
    assert report.distance == 1
    assert report.c0 and report.c1 and report.c2 and report.column_window
    assert report.dual_distance is None and report.c3 is None
    data = report.to_dict()
    assert data["criteria"]["c0"] is True
    assert data["remainder"] == 0


def test_three_generator_code_meets_second_criterion():
    shape = Shape((2, 1), (2, 1))
    code = LinearCode(
        shape,
        F2,
        [
            (1, 0, 0, 0, 1),
            (0, 0, 0, 1, 1),
            (0, 1, 1, 0, 1),
        ],
    )
    report = msrd_check(code)
    assert report.dim == 3
    assert report.distance == 2
    assert report.is_msrd
    assert report.c2
    assert report.block == 0 and report.delta == 1 and report.remainder == 0
    assert not report.equal_rows
    assert report.c3 == (report.distance + report.dual_distance == shape.ncols + 2)


def test_five_block_code_is_msrd_but_fails_c2():
    shape = Shape((3, 2, 1, 1, 1), (3, 2, 1, 1, 1))
    code = LinearCode(
        shape,
        F2,
        [
            (1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 1, 1, 0),
            (0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 1, 1, 0, 1, 1),
        ],
    )
    report = msrd_check(code)
    assert report.dim == 2
    assert report.distance == 7
    assert report.is_msrd
    assert not report.c2
    assert report.dual_distance == 1
    assert report.c3 is False


def test_self_dual_msrd_pair_without_c3():
    # with unequal rows a code and its dual can both be extremal while the
    # distances stay one short of ncols + 2; this self-dual code is the
    # smallest such pair and must not trip the internal c3 assertions
    shape = Shape((2, 1, 1), (1, 1, 1))
    code = LinearCode(shape, F2, [(1, 0, 0, 1), (0, 1, 1, 0)])
    assert code.dual().subspace() == code.subspace()
    report = msrd_check(code)
    assert report.dim == 2
    assert report.distance == 2
    assert report.is_msrd
    assert report.dual_distance == 2
    assert report.distance + report.dual_distance == shape.ncols + 1
    assert report.c3 is False
    dual_report = msrd_check(code.dual())
    assert dual_report.is_msrd
    assert dual_report.c3 is False


def test_msrd_check_guards():
    shape = Shape((2,), (2,))
    with pytest.raises(TrivialCode):
        msrd_check(LinearCode.zero(shape, F2))
    loose = Shape((1, 2), (1, 2), strict=False)
    code = LinearCode(loose, F2, [(1, 0, 0, 0, 0)])
    with pytest.raises(ShapeMismatch):
        msrd_check(code)
    # a dual of more than the default cap of entries is refused before any
    # sweep: here 1002 * 1001 of them, just above it
    wide = LinearCode(Shape((1001, 1), (1, 1)), F2, [(0,) * 1001 + (1,)])
    with pytest.raises(EnumerationTooLarge, match="dual basis of 1003002 entries exceeds cap"):
        msrd_check(wide)


def test_msrd_check_random_battery():
    # every report re-asserts the criteria equivalences internally, so a
    # clean pass over random codes is itself the check
    rng = random.Random(83)
    for ctx in (F2, F3):
        for _ in range(15):
            m = sorted(
                (rng.randint(1, 2) for _ in range(rng.randint(1, 2))), reverse=True
            )
            shape = Shape(tuple(m), tuple(rng.randint(1, x) for x in m))
            code = random_code(rng, ctx, shape, rng.randint(1, shape.ambient_dim))
            if code.dim == 0:
                continue
            report = msrd_check(code)
            assert report.distance <= report.distance_bound


def test_rank_indexed_msrd():
    shape = Shape((2,), (2,))
    companion = LinearCode(shape, F2, [(1, 0, 0, 1), (0, 1, 1, 1)])
    assert msrd_check(companion).is_msrd
    assert r_msrd_check(companion, 1)
    split = LinearCode(shape, F2, [(1, 0, 0, 0), (0, 0, 0, 1)])
    assert not msrd_check(split).is_msrd
    assert not r_msrd_check(split, 1)
    with pytest.raises(RankOutOfRange):
        r_msrd_check(companion, 2)
    with pytest.raises(RankOutOfRange):  # True == 1 would pass as the rank
        r_msrd_check(companion, True)
    full = LinearCode.full(Shape((2, 2), (1, 1)), F2)
    assert r_msrd_check(full, 1)
    assert r_msrd_check(full, 3)
    with pytest.raises(TrivialCode):
        r_msrd_check(LinearCode.zero(shape, F2), 1)
