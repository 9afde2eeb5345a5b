"""Meet: dim(C ∩ A) by parity checks, against the materialized intersection."""

import random
from itertools import combinations

import pytest

from sumrank import (
    LinearCode,
    Shape,
    Subspace,
    enumerate_anticodes,
    leakage_dim,
    product_descriptors,
    support_product,
)
from sumrank.anticode import AnticodeDescriptor, BlockSupport, Meet
from sumrank.errors import ContextMismatch, ShapeMismatch
from sumrank.msrd import _column_window_descriptor
from sumrank.wiretap import _tap_supports

from helpers import F2, F3, F4, F8, F9, random_code, random_matrix


def _oracle(code, desc):
    return code.intersect(desc.materialize()).dim


def _codes(seed, ctx, shape):
    """The zero code, the full space and seeded random codes of several dims."""
    rng = random.Random(seed)
    n = shape.ambient_dim
    yield LinearCode.zero(shape, ctx)
    yield LinearCode.full(shape, ctx)
    for k in (1, n // 2, n - 1):
        yield random_code(rng, ctx, shape, k)


FAMILIES = [
    # square blocks: row supports next to col supports
    ("product", F2, Shape((3, 2), (3, 2))),
    ("product", F3, Shape((2, 2), (2, 2))),
    ("product", F4, Shape((2, 2), (2, 2))),
    ("product", F8, Shape((2, 1), (2, 1))),
    # F_9 has no packed form: its row kernel is _ListRows
    ("product", F9, Shape((2, 1), (2, 1))),
    # binary Hamming tails on three trailing 1x1 blocks
    ("all", F2, Shape((2, 1, 1, 1), (2, 1, 1, 1))),
    ("all", F2, Shape((1, 1, 1), (1, 1, 1))),
    # support spaces on a non-strict shape
    ("support", F3, Shape((2, 3), (3, 2), strict=False)),
    ("support", F4, Shape((1, 2), (2, 2), strict=False)),
]


def _family(variant, ctx, shape, mu):
    return enumerate_anticodes(ctx, shape, mu, variant)


@pytest.mark.parametrize("variant,ctx,shape", FAMILIES)
def test_meet_matches_materialized_intersection(variant, ctx, shape):
    tails = 0
    for code in _codes(shape.ambient_dim * ctx.q, ctx, shape):
        meet = Meet(code)
        for mu in range(shape.ncols + 1):
            for desc in _family(variant, ctx, shape, mu):
                tails += desc.tail is not None
                assert meet.dim(desc) == _oracle(code, desc), (code, mu, desc.to_dict())
    assert (tails > 0) == (variant == "all")


@pytest.mark.parametrize(
    "ctx,shape",
    [(F4, Shape((2, 2), (2, 2))), (F3, Shape((3, 2), (2, 2))), (F2, Shape((3, 2, 1), (3, 1, 1)))],
)
def test_meet_on_column_windows(ctx, shape):
    columns = range(1, shape.ncols + 1)
    for code in _codes(7, ctx, shape):
        meet = Meet(code)
        for size in range(shape.ncols + 1):
            for cols in combinations(columns, size):
                desc = _column_window_descriptor(shape, ctx, frozenset(cols))
                assert meet.dim(desc) == _oracle(code, desc)


@pytest.mark.parametrize(
    "ctx,shape",
    [
        (F2, Shape((3, 2), (3, 2))),
        (F3, Shape((2, 3), (3, 2), strict=False)),
        (F4, Shape((2, 1), (2, 1))),
    ],
)
def test_meet_on_leakage_tap_supports(ctx, shape):
    rng = random.Random(23)
    for code in _codes(29, ctx, shape):
        dual = code.dual()
        meet = Meet(dual)
        for _ in range(12):
            taps = tuple(
                None
                if rng.random() < 0.25
                else random_matrix(rng, ctx, nn, rng.randint(1, nn + 1))
                for nn in shape.n
            )
            desc = support_product(shape, ctx, _tap_supports(code, taps))
            expected = _oracle(dual, desc)
            assert meet.dim(desc) == expected
            assert leakage_dim(code, taps) == expected


def test_meet_past_one_machine_word():
    # dim 66 over F_2: each packed column of G spans two 64-bit words
    rng = random.Random(71)
    shape = Shape((6, 6), (6, 6))
    code = random_code(rng, F2, shape, 66)
    assert code.dim >= 65
    meet = Meet(code)
    for _ in range(8):
        blocks = []
        for nn in shape.n:
            rows = [[rng.randrange(2) for _ in range(nn)] for _ in range(rng.randint(0, nn))]
            blocks.append(BlockSupport(rng.choice(("col", "row")), Subspace(F2, nn, rows)))
        desc = AnticodeDescriptor(shape, F2, tuple(blocks))
        assert meet.dim(desc) == _oracle(code, desc), desc.to_dict()


def test_meet_rejects_a_foreign_descriptor():
    shape = Shape((2, 2), (2, 2))
    meet = Meet(LinearCode.full(shape, F2))
    other_shape = next(product_descriptors(F2, Shape((2, 1), (2, 1)), 1))
    other_field = next(product_descriptors(F3, shape, 1))
    with pytest.raises(ShapeMismatch):
        meet.dim(other_shape)
    with pytest.raises(ContextMismatch):
        meet.dim(other_field)
