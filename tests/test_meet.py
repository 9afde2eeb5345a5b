"""Meet: dim(C ∩ A) by parity checks, against the materialized intersection."""

import random
from itertools import combinations

import pytest

from sumrank import (
    ANTICODE_CAP,
    LinearCode,
    Shape,
    Subspace,
    enumerate_anticodes,
    leakage_dim,
    product_descriptors,
    support_product,
)
from sumrank.anticode import (
    AnticodeDescriptor,
    BlockSupport,
    Meet,
    _check_bases,
    _has_rows,
    _tail_checks,
)
from sumrank.errors import ContextMismatch, ShapeMismatch
from sumrank.matfq import _row_kernel
from sumrank.msrd import _column_window_descriptor
from sumrank.wiretap import _tap_supports

from helpers import (
    F2,
    F3,
    F4,
    F8,
    F9,
    list_meet,
    list_rref,
    pool_reference,
    random_code,
    random_matrix,
)


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


# ------------------------------------------------- pools from check images

POOL_SHAPES = [
    (F2, Shape((3, 2), (3, 2))),
    (F3, Shape((2, 2), (2, 2))),
    (F4, Shape((2, 2), (2, 1))),
    (F8, Shape((2, 1), (2, 1))),
    (F9, Shape((2, 1), (2, 1))),
    # binary tails on three trailing 1x1 blocks
    (F2, Shape((2, 1, 1, 1), (2, 1, 1, 1))),
    # square and non-square blocks on a non-strict shape
    (F3, Shape((2, 3), (3, 2), strict=False)),
]
POOL_IDS = [f"q{c.q}-{s.m}x{s.n}" for c, s in POOL_SHAPES]


def _span(code, pairs):
    """(rank, RREF of the unpacked rows) of an echelon from Meet's row kernel."""
    kernel = _row_kernel(code.ctx, code.dim)
    rows = [kernel.unpack(row, 0, code.dim) for _, row in pairs]
    return len(pairs), list_rref(rows, code.dim, code.ctx)


def _pool_bases(ctx, shape):
    """(block, weight, kind, check bases) of every pool a sweep builds."""
    for i, (mm, nn) in enumerate(zip(shape.m, shape.n)):
        for u in range(nn + 1):
            yield i, u, "col", _check_bases(ctx, nn, nn - u, ANTICODE_CAP)
            if _has_rows(shape, i, u):
                yield i, u, "row", _check_bases(ctx, mm, mm - u, ANTICODE_CAP)
    k = shape.scalar_suffix_start()
    for r in range(shape.ell - k + 1) if k < shape.ell else ():
        yield k, r, "tail", _tail_checks(ctx, shape.ell - k, r)


@pytest.mark.parametrize("ctx,shape", POOL_SHAPES, ids=POOL_IDS)
def test_pools_span_what_the_line_by_line_build_spans(ctx, shape):
    # a pool's columns come from cached check images, grouped by check row:
    # each entry must have the rank and span of one combine per (line, check
    # row) and one echelon per basis (helpers.pool_reference)
    tails = 0
    for code in _codes(ctx.q * 13, ctx, shape):
        meet = Meet(code)
        for i, u, kind, bases in _pool_bases(ctx, shape):
            got = meet._pool(i, u, (kind,), ANTICODE_CAP)
            want = pool_reference(code, i, kind, bases)
            assert len(got) == len(want) == len(bases)
            for (pairs, rows), (ref, _) in zip(got, want):
                assert rows == [row for _, row in pairs]
                assert _span(code, pairs) == _span(code, ref), (code.dim, i, u, kind)
            tails += kind == "tail" and len(bases) > 0
            if kind == "row":  # the merged pool: col members, then row members
                both = meet._pool(i, u, ("col", "row"), ANTICODE_CAP)
                assert both == meet._pool(i, u, ("col",), ANTICODE_CAP) + got
    assert (tails > 0) == (ctx.q == 2 and shape.ell == 4)


@pytest.mark.parametrize(
    "variant,ctx,shape",
    [
        ("product", F4, Shape((2, 2), (2, 2))),
        ("product", F3, Shape((3, 2), (2, 2))),
        ("all", F2, Shape((3, 2, 1), (3, 1, 1))),
        ("support", F3, Shape((2, 3), (3, 2), strict=False)),
    ],
)
def test_dim_reads_the_images_a_sweep_filled(variant, ctx, shape):
    # once a sweep has filled a Meet's check images, dim reads them for column
    # windows and tap supports, and must still give list_meet's answer
    rng = random.Random(41)
    columns = range(1, shape.ncols + 1)
    for code in _codes(43, ctx, shape):
        meet = Meet(code)
        for mu in range(shape.ncols + 1):
            list(meet.sweep(mu, variant))
        assert bool(meet._images) == bool(code.dim)
        descs = [
            _column_window_descriptor(shape, ctx, frozenset(cols))
            for size in range(shape.ncols + 1)
            for cols in combinations(columns, size)
        ]
        for _ in range(8):
            taps = tuple(
                None if rng.random() < 0.25 else random_matrix(rng, ctx, nn, rng.randint(1, nn))
                for nn in shape.n
            )
            descs.append(support_product(shape, ctx, _tap_supports(code, taps)))
        for desc in descs:
            assert meet.dim(desc) == list_meet(code, desc), desc.to_dict()


def _records(members, floor):
    """What a sweep with this floor yields, read from the unfloored walk:
    each member whose meet beats the floor so far, which it then raises."""
    if floor is None:
        return members
    out = []
    for t, weights in members:
        if t > floor:
            out.append((t, weights))
            floor = t
    return out


@pytest.mark.parametrize("variant,ctx,shape", FAMILIES)
def test_one_meet_sweeps_as_fresh_ones_do(variant, ctx, shape):
    # one Meet swept in support, then product, then all (whichever the shape
    # admits), at floors None, -1, 0 and 1 and every size: each sweep's yields
    # must be a fresh Meet's, which are the records of the unfloored walk, so
    # neither the merged pools' kinds key nor the echelons stopped at
    # dim C - floor change a yield
    variants = ("support", "product", "all") if shape.strict else ("support",)
    for code in _codes(shape.ambient_dim + ctx.q, ctx, shape):
        meet = Meet(code)
        for v in variants:
            for mu in range(shape.ncols + 1):
                every = list(Meet(code).sweep(mu, v))
                sizes = {sum(m * u for m, u in zip(shape.m, w)) for _, w in every}
                for size in (None, *sorted(sizes)):
                    walk = every if size is None else list(Meet(code).sweep(mu, v, size=size))
                    for floor in (None, -1, 0, 1):
                        got = list(meet.sweep(mu, v, floor=floor, size=size))
                        assert got == list(Meet(code).sweep(mu, v, floor=floor, size=size))
                        assert got == _records(walk, floor), (code.dim, v, mu, size, floor)
