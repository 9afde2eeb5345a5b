"""Optimal anticodes: classification, enumeration, duality, staircases."""

import random
import time
from itertools import product as iter_product

import pytest

from sumrank import (
    AnticodeDescriptor,
    BlockSupport,
    LinearCode,
    Shape,
    Subspace,
    anticode_dual,
    enumerate_anticodes,
    enumerate_subspaces,
    gaussian_binomial,
    gen_weight,
    is_optimal_anticode,
    max_srk_generates,
    product_descriptors,
    r_mu,
    staircase_profile,
    support_product,
    weight_profile,
)
from sumrank.errors import (
    AmbientMismatch,
    ClassificationNotApplicable,
    DimNotAdmissible,
    EnumerationTooLarge,
    IllegalTranspose,
    ShapeMismatch,
    TrivialCode,
    UnknownChoice,
)

from sumrank.anticode import Meet, _optimal_tail, _optimal_tails, _tail_counts

from helpers import F2, F3, F4, brute_optimal_tails, max_hamming_weight


SECT_SHAPE = Shape((3, 2), (1, 2))


def _code_one():
    # 0 x F_2^{2x2}
    rows = []
    for k in range(4):
        flat = [0] * SECT_SHAPE.ambient_dim
        flat[3 + k] = 1
        rows.append(tuple(flat))
    return LinearCode(SECT_SHAPE, F2, rows)


def _code_two():
    # ((a, b, 0), [[c, d], [0, 0]])
    return LinearCode(
        SECT_SHAPE,
        F2,
        [
            (1, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0),
        ],
    )


def test_descriptor_dim_and_weight():
    shape = Shape((2, 2), (2, 1))
    full = Subspace.full(F2, 2)
    line = Subspace.from_vectors(F2, 1, [(1,)])
    desc = AnticodeDescriptor(
        shape, F2, (BlockSupport("col", full), BlockSupport("col", line))
    )
    assert desc.dim() == 2 * 2 + 2 * 1
    assert desc.max_weight() == 3
    code = desc.materialize()
    assert code.dim == desc.dim()
    assert code.max_srk() == desc.max_weight()


def _units(n, d):
    """The first d unit vectors of F_q^n."""
    return [tuple(int(j == i) for j in range(n)) for i in range(d)]


def test_max_weight_is_the_largest_sum_rank():
    # every nonzero member of the "all" family, binary tails included
    shape = Shape((2, 1, 1, 1), (2, 1, 1, 1))
    tails = 0
    for mu in range(1, shape.ncols + 1):
        for desc in enumerate_anticodes(F2, shape, mu, "all"):
            tails += desc.tail is not None
            assert desc.max_weight() == desc.materialize().max_srk() == mu
    assert tails
    # non-strict shapes: a support of dimension d on fewer than d lines
    for m, n, dims in (((1,), (3,), (3,)), ((1, 3), (2, 2), (2, 1))):
        shape = Shape(m, n, strict=False)
        for ds in iter_product(*(range(d + 1) for d in dims)):
            if any(ds):
                spaces = [Subspace(F2, nn, _units(nn, d)) for nn, d in zip(n, ds)]
                desc = support_product(shape, F2, spaces)
                assert desc.max_weight() == desc.materialize().max_srk(), ds


def test_max_weight_reads_the_tail_classification():
    # the even-weight code of length 39 has 2^38 words; none is walked
    shape = Shape((1,) * 39, (1,) * 39)
    rows = [tuple(int(j in (i, 38)) for j in range(39)) for i in range(38)]
    start = time.perf_counter()
    ok, desc = is_optimal_anticode(LinearCode(shape, F2, rows))
    assert ok and desc.max_weight() == 38
    assert time.perf_counter() - start < 1.0
    # the even-weight code of length 4 holds 1111: dim 3, weight 4
    bad = Subspace(F2, 4, [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)])
    desc = AnticodeDescriptor(Shape((1,) * 4, (1,) * 4), F2, (), bad)
    with pytest.raises(ClassificationNotApplicable, match="tail is not an optimal anticode"):
        desc.max_weight()


def test_descriptor_guards():
    shape = Shape((2, 2), (2, 1))
    with pytest.raises(ValueError):
        BlockSupport("diag", Subspace.full(F2, 2))
    with pytest.raises(IllegalTranspose):
        AnticodeDescriptor(
            shape,
            F2,
            (
                BlockSupport("col", Subspace.full(F2, 2)),
                BlockSupport("row", Subspace.full(F2, 2)),
            ),
        )
    with pytest.raises(ShapeMismatch):
        AnticodeDescriptor(shape, F2, (BlockSupport("col", Subspace.full(F2, 2)),))
    # tails sit on trailing 1x1 blocks only
    with pytest.raises(ShapeMismatch):
        AnticodeDescriptor(shape, F2, (), Subspace.full(F2, 2))
    # more block supports than blocks used to raise a bare IndexError
    col = {"kind": "col", "L": [[1]]}
    with pytest.raises(ShapeMismatch):
        AnticodeDescriptor.from_dict({"blocks": [col, col, col]}, Shape((1, 1), (1, 1)), F2)


_COL2 = BlockSupport("col", Subspace.full(F2, 2))
_COL1 = BlockSupport("col", Subspace.full(F2, 1))


@pytest.mark.parametrize(
    "build,error,message",
    [
        (
            lambda: AnticodeDescriptor(
                Shape((2, 1, 1), (2, 1, 1)), F2, (_COL2,), Subspace.full(F2, 1)
            ),
            ShapeMismatch,
            "tail ambient must cover the remaining blocks",
        ),
        (
            lambda: AnticodeDescriptor(Shape((2, 1), (2, 1)), F2, (_COL2,), Subspace.full(F3, 1)),
            AmbientMismatch,
            "tail over a different field context",
        ),
        (
            lambda: AnticodeDescriptor(Shape((2,), (2,)), F3, (_COL2,)),
            AmbientMismatch,
            "block support over a different field context",
        ),
        (
            lambda: AnticodeDescriptor(Shape((2, 1), (2, 1)), F2, (_COL1, _COL1)),
            AmbientMismatch,
            "block 0: col support ambient must be 2",
        ),
        (
            lambda: AnticodeDescriptor(
                Shape((2, 1), (2, 1)), F2, (BlockSupport("row", Subspace.full(F2, 1)), _COL1)
            ),
            AmbientMismatch,
            "block 0: row support ambient must be 2",
        ),
        (
            lambda: is_optimal_anticode(LinearCode(Shape((1, 2), (2, 1), strict=False), F2, [])),
            ShapeMismatch,
            "optimal anticodes live in strict shapes",
        ),
    ],
    ids=["tail-ambient", "tail-field", "block-field", "col-ambient", "row-ambient", "nonstrict"],
)
def test_constructors_refuse_what_they_cannot_hold(build, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        build()


def test_classification_of_known_codes():
    ok, desc = is_optimal_anticode(_code_one())
    assert ok
    assert desc.blocks[0].space.dim == 0
    assert desc.blocks[1].kind == "col"
    assert desc.blocks[1].space.dim == 2
    assert desc.materialize() == _code_one()
    ok2, desc2 = is_optimal_anticode(_code_two())
    assert not ok2 and desc2 is None


def test_zero_and_full_are_optimal():
    shape = Shape((2, 1), (2, 1))
    ok, desc = is_optimal_anticode(LinearCode.zero(shape, F3))
    assert ok and desc.dim() == 0
    ok, desc = is_optimal_anticode(LinearCode.full(shape, F3))
    assert ok and desc.dim() == shape.ambient_dim
    # a diagonal line is far from optimal
    single = LinearCode(Shape((2,), (2,)), F2, [(1, 0, 0, 1)])
    ok, desc = is_optimal_anticode(single)
    assert not ok and desc is None


def _all_optimal_tails(ctx, t):
    """Every optimal tail of F_q^t, by dimension."""
    return [w for r in range(t + 1) for w in _optimal_tails(ctx, t, r)]


def test_optimal_hamming_subspace_counts():
    for ctx, t, total in ((F2, 3, 9), (F2, 2, 4), (F3, 2, 4), (F2, 7, 913)):
        assert sum(_tail_counts(ctx.q, t)) == len(_all_optimal_tails(ctx, t)) == total
    for sub in _all_optimal_tails(F2, 3):
        if sub.dim:
            assert max(sum(v) for v in sub.vectors()) == sub.dim


def test_optimal_tails_match_the_word_walk():
    # the same list, order included, as the filter of every subspace
    for ctx, top in ((F2, 7), (F3, 4), (F4, 4)):
        for t in range(top + 1):
            assert _all_optimal_tails(ctx, t) == brute_optimal_tails(ctx, t), (ctx.q, t)


def test_optimal_tail_decides_every_subspace():
    # the zero space included: it has no rows, and its columns are empty
    for ctx, top in ((F2, 7), (F3, 4)):
        for t in range(top + 1):
            for u in range(t + 1):
                for sub in enumerate_subspaces(ctx, t, u):
                    assert _optimal_tail(sub) == (max_hamming_weight(sub) == u), sub.basis


def test_tail_counts_match_the_generated_tails():
    for ctx in (F2, F3):
        for t in range(10):
            built = [sum(1 for _ in _optimal_tails(ctx, t, r)) for r in range(t + 1)]
            assert _tail_counts(ctx.q, t) == built, (ctx.q, t)


def _expected_product_count(ctx, shape, mu):
    def block_count(i, u):
        total = gaussian_binomial(shape.n[i], u, ctx.q)
        if shape.m[i] == shape.n[i] and 0 < u < shape.n[i]:
            total += gaussian_binomial(shape.m[i], u, ctx.q)
        return total

    def comps(bounds, total):
        if not bounds:
            if total == 0:
                yield ()
            return
        for u in range(min(bounds[0], total) + 1):
            for rest in comps(bounds[1:], total - u):
                yield (u,) + rest

    out = 0
    for comp in comps(shape.n, mu):
        size = 1
        for i, u in enumerate(comp):
            size *= block_count(i, u)
        out += size
    return out


def test_product_descriptor_counts_match_gaussian_binomials():
    cases = [
        (F2, Shape((2, 1), (1, 1))),
        (F2, Shape((2, 2), (2, 1))),
        (F3, Shape((2,), (2,))),
        (F2, Shape((3, 2), (1, 2))),
    ]
    for ctx, shape in cases:
        for mu in range(shape.ncols + 1):
            descs = list(product_descriptors(ctx, shape, mu))
            assert len(descs) == _expected_product_count(ctx, shape, mu)
            mats = {d.materialize() for d in descs}
            assert len(mats) == len(descs)
            for d in descs:
                assert d.max_weight() == mu
                assert d.materialize().dim == d.dim()


def _reference_descriptors(ctx, shape, mu, allow_row, tails=False):
    """The family in its pinned order, with inline pools per composition:
    compositions lex ascending, then the product of the per-block options
    (col supports, then row supports, each in enumerate_subspaces order);
    binary tails follow the products, tail by tail."""

    def options(i, u):
        out = [BlockSupport("col", s) for s in enumerate_subspaces(ctx, shape.n[i], u)]
        if allow_row and shape.m[i] == shape.n[i] and 0 < u < shape.n[i]:
            out += [BlockSupport("row", s) for s in enumerate_subspaces(ctx, shape.m[i], u)]
        return out

    def products(bounds, total, tail=None):
        comps = [
            c for c in iter_product(*(range(b + 1) for b in bounds)) if sum(c) == total
        ]
        for comp in comps:
            pools = [options(i, u) for i, u in enumerate(comp)]
            for combo in iter_product(*pools):
                yield AnticodeDescriptor(shape, ctx, tuple(combo), tail)

    yield from products(shape.n, mu)
    if not tails:
        return
    k = shape.scalar_suffix_start()
    for w in brute_optimal_tails(ctx, shape.ell - k):
        if w.dim <= mu and any(sum(map(bool, r)) > 1 for r in w.basis):
            yield from products(shape.n[:k], mu - w.dim, w)


def test_family_order_is_pinned():
    cases = [
        (F2, Shape((2, 2), (2, 1)), "product"),
        (F3, Shape((2, 2), (2, 2)), "product"),
        (F2, Shape((3, 2), (3, 2)), "support"),
        (F2, Shape((2, 1, 1, 1), (2, 1, 1, 1)), "all"),
        (F2, Shape((1, 1, 1, 1), (1, 1, 1, 1)), "all"),
    ]
    for ctx, shape, variant in cases:
        for mu in range(shape.ncols + 1):
            got = list(enumerate_anticodes(ctx, shape, mu, variant))
            want = _reference_descriptors(
                ctx, shape, mu, variant != "support", variant == "all"
            )
            assert got == list(want), (shape, mu)


def test_enumerate_all_adds_binary_tails():
    shape = Shape((1, 1, 1), (1, 1, 1))
    prod = list(enumerate_anticodes(F2, shape, 2, variant="product"))
    everything = list(enumerate_anticodes(F2, shape, 2, variant="all"))
    assert len(prod) == 3
    assert len(everything) == 4
    extra = [d for d in everything if d.tail is not None]
    assert len(extra) == 1
    even_weight = extra[0].materialize()
    assert even_weight.dim == 2
    assert even_weight.max_srk() == 2
    # at full weight the cube tail duplicates the product, so nothing new
    assert len(list(enumerate_anticodes(F2, shape, 3, variant="all"))) == len(
        list(enumerate_anticodes(F2, shape, 3, variant="product"))
    )


def test_a_shape_of_1500_blocks_has_no_depth_limit():
    # the family tree, the sweep and the flat walk are loops with no depth
    # limit; a recursion per block raised RecursionError at about 1,000 blocks
    shape = Shape((1,) * 1500, (1,) * 1500)
    code = LinearCode(shape, F2, [(1,) + (0,) * 1499])
    for variant in ("product", "all", "support"):
        assert weight_profile(code, variant).weights == (1,)
    members = list(enumerate_anticodes(F2, shape, 1))
    assert len(members) == 1500
    assert members[-1].blocks[0].space.dim == 1


def test_enumerate_rejects_nonstrict_and_bad_variant():
    loose = Shape((1, 2), (1, 2), strict=False)
    with pytest.raises(ShapeMismatch):
        list(enumerate_anticodes(F2, loose, 1))
    with pytest.raises(ValueError):
        list(enumerate_anticodes(F2, Shape((1,), (1,)), 1, variant="weird"))
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_anticodes(F2, Shape((2, 2), (2, 2)), 2, cap=3))


def test_every_door_checks_the_family_one_way():
    # "support" on any shape, "product" and "all" on strict shapes only
    loose = Shape((1, 2), (1, 2), strict=False)
    code = LinearCode(loose, F2, [(1, 0, 0, 0, 0)])
    doors = [
        lambda v: list(enumerate_anticodes(F2, loose, 1, v)),
        lambda v: list(Meet(code).sweep(1, v)),
        lambda v: gen_weight(code, 1, v),
        lambda v: weight_profile(code, v),
        lambda v: weight_profile(LinearCode(loose, F2, []), v),  # the zero code sweeps nothing
    ]
    for door in doors:
        for variant in ("product", "all"):
            with pytest.raises(ShapeMismatch, match=f"^variant '{variant}' needs a strict shape$"):
                door(variant)
        with pytest.raises(UnknownChoice, match="^unknown variant 'weird'$"):
            door("weird")
        door("support")
    with pytest.raises(ShapeMismatch, match="^variant 'product' needs a strict shape$"):
        list(product_descriptors(F2, loose, 1))
    # a col support of dimension one: the whole first block, or a line of the second
    assert len(list(enumerate_anticodes(F2, loose, 1, "support"))) == 4


def test_weights_must_be_ints():
    # 2.0 == 2 and True == 1: either would read another weight's family
    shape = Shape((2, 2), (2, 1))
    code = LinearCode(shape, F2, [(1, 0, 0, 1, 1, 0)])
    list(Meet(code).sweep(1, "product"))  # a warm table: the refusal comes before any lookup
    for mu in (1.5, 2.0, True):
        with pytest.raises(DimNotAdmissible):
            list(enumerate_anticodes(F2, shape, mu))
        with pytest.raises(DimNotAdmissible):
            list(enumerate_anticodes(F2, shape, mu, "support"))
        with pytest.raises(DimNotAdmissible):
            list(Meet(code).sweep(mu, "product"))


def test_classification_round_trip():
    for ctx, shape in [(F2, Shape((2, 1, 1), (1, 1, 1))), (F3, Shape((2, 1), (2, 1)))]:
        for mu in range(shape.ncols + 1):
            for desc in enumerate_anticodes(ctx, shape, mu, variant="all"):
                code = desc.materialize()
                ok, again = is_optimal_anticode(code)
                assert ok, (mu, desc)
                assert again.materialize() == code


def test_anticode_dual_matches_code_dual():
    cases = [
        (F3, Shape((2,), (2,)), "all"),
        (F2, Shape((2, 1), (2, 1)), "all"),
        (F2, Shape((2, 1, 1), (1, 1, 1)), "product"),
    ]
    for ctx, shape, variant in cases:
        for mu in range(shape.ncols + 1):
            for desc in enumerate_anticodes(ctx, shape, mu, variant=variant):
                dual_desc = anticode_dual(desc)
                assert dual_desc.materialize() == desc.materialize().dual()


def test_anticode_duality_binary_guard():
    # three trailing 1x1 blocks over F_2: the even-weight tail dualizes to
    # a repetition code, which is not an anticode, so the map refuses
    shape = Shape((1, 1, 1), (1, 1, 1))
    tailed = [
        d for d in enumerate_anticodes(F2, shape, 2, variant="all") if d.tail is not None
    ]
    with pytest.raises(ClassificationNotApplicable):
        anticode_dual(tailed[0])
    even_weight = tailed[0].materialize()
    repetition = even_weight.dual()
    assert repetition.dim == 1
    assert repetition.max_srk() == 3
    ok, _ = is_optimal_anticode(repetition)
    assert not ok
    # a non-optimal tail is rejected even on two trailing blocks
    two = Shape((1, 1), (1, 1))
    bad = AnticodeDescriptor(
        two, F2, (), Subspace.from_vectors(F2, 2, [(1, 1)])
    )
    with pytest.raises(ClassificationNotApplicable):
        anticode_dual(bad)


def test_anticode_dual_of_products_on_many_binary_blocks():
    for shape in (Shape((1, 1, 1), (1, 1, 1)), Shape((1,) * 5, (1,) * 5)):
        for mu in range(shape.ncols + 1):
            for desc in product_descriptors(F2, shape, mu):
                assert anticode_dual(desc).materialize() == desc.materialize().dual()
    # an even-weight tail still has no anticode dual
    tailed = [
        d for d in enumerate_anticodes(F2, Shape((1,) * 5, (1,) * 5), 2, "all") if d.tail
    ]
    assert tailed
    for desc in tailed:
        with pytest.raises(ClassificationNotApplicable, match="does not factor"):
            anticode_dual(desc)


def test_descriptors_that_carry_a_tail():
    # the classification returns a tail for every F_2 code with trailing 1x1
    # blocks; a tail of unit rows dualizes block by block, any other refuses
    for shape, counts in [
        (Shape((2, 1, 1, 1), (2, 1, 1, 1)), (71, 63, 8)),
        (Shape((1,) * 5, (1,) * 5), (72, 31, 41)),
    ]:
        tailed = unit = refused = 0
        for mu in range(shape.ncols + 1):
            for member in enumerate_anticodes(F2, shape, mu, "all"):
                ok, desc = is_optimal_anticode(member.materialize())
                assert ok and desc.materialize() == member.materialize()
                if desc.tail is None:
                    continue
                tailed += 1
                assert AnticodeDescriptor.from_dict(desc.to_dict(), shape, F2) == desc
                if all(sum(row) == 1 for row in desc.tail.basis):
                    unit += 1
                    assert anticode_dual(desc).materialize() == desc.materialize().dual()
                else:
                    refused += 1
                    with pytest.raises(ClassificationNotApplicable, match="does not factor"):
                        anticode_dual(desc)
        assert (tailed, unit, refused) == counts


def test_classification_decides_above_the_scan_guard():
    # the full F_2 space of (5,)x(5,) has 2^25 codewords, above DIST_CAP,
    # which the codeword scan refuses; no tail exists, so nothing is walked
    full = LinearCode.full(Shape((5,), (5,)), F2)
    with pytest.raises(EnumerationTooLarge):
        full.weighted_max()
    start = time.perf_counter()
    ok, desc = is_optimal_anticode(full)
    assert ok and desc.dim() == 25 and desc.materialize() == full
    assert time.perf_counter() - start < 1.0


def test_cap_bounds_only_the_binary_tail():
    # no cap bounds the binary tail any more: its RREF decides it, so no
    # tail word is walked, however long the tail
    start = time.perf_counter()
    # full F_2 (2,1,1,1)x(2,1,1,1): dim 7, a tail of dim 3 on the 1x1 blocks
    tailed = LinearCode.full(Shape((2, 1, 1, 1), (2, 1, 1, 1)), F2)
    ok, desc = is_optimal_anticode(tailed)
    assert ok and desc.tail.dim == 3
    # 2^6 words on six 1x1 blocks
    cube = LinearCode.full(Shape((1,) * 6, (1,) * 6), F2)
    assert is_optimal_anticode(cube)[0]
    # a 40-long tail with 2^38 words: the even-weight code of length 39 and
    # a zero coordinate is optimal; the even-weight code of length 40 is not
    long = Shape((1,) * 40, (1,) * 40)
    odd = [tuple(int(j in (i, 38)) for j in range(40)) for i in range(38)]
    ok, desc = is_optimal_anticode(LinearCode(long, F2, odd))
    assert ok and desc.tail.dim == 38 and desc.materialize() == LinearCode(long, F2, odd)
    even = [tuple(int(j in (i, 39)) for j in range(40)) for i in range(39)]
    assert is_optimal_anticode(LinearCode(long, F2, even)) == (False, None)
    assert time.perf_counter() - start < 1.0
    # no tail over F_3, and a code that fails before its tail is tested
    assert is_optimal_anticode(LinearCode.full(Shape((1,) * 6, (1,) * 6), F3))[0]
    diag = LinearCode(Shape((2, 1), (2, 1)), F2, [(1, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    assert is_optimal_anticode(diag) == (False, None)


def test_classification_walks_no_codeword(monkeypatch):
    rng = random.Random(7)
    shape = Shape((2, 1, 1, 1), (2, 1, 1, 1))
    codes = [desc.materialize() for desc in enumerate_anticodes(F2, shape, 2, "all")]
    for ctx in (F2, F3):
        rows = [tuple(rng.randrange(ctx.q) for _ in range(7)) for _ in range(3)]
        codes.append(LinearCode(shape, ctx, rows))
    want = [code.dim == code.weighted_max() for code in codes]
    assert any(want) and not all(want)

    def walk(self, weighted):
        raise AssertionError("a codeword walk started")

    monkeypatch.setattr(LinearCode, "_walk", walk)
    assert [is_optimal_anticode(code)[0] for code in codes] == want


def test_max_srk_generates():
    shape = Shape((2,), (2,))
    assert max_srk_generates(LinearCode.full(shape, F2))
    diag = LinearCode(shape, F2, [(1, 0, 0, 0), (0, 0, 0, 1)])
    # only the rank-2 word E_11 + E_22 tops out, and it spans a line
    assert not max_srk_generates(diag)
    with pytest.raises(TrivialCode):
        max_srk_generates(LinearCode.zero(shape, F2))


def test_staircase_profile_values():
    assert staircase_profile(Shape((2, 2), (1, 1)), (1, 1)) == (1, 1, 2, 2)
    assert staircase_profile(SECT_SHAPE, (1, 2)) == (1, 1, 1, 2, 2, 3, 3)
    assert staircase_profile(SECT_SHAPE, (0, 0)) == ()
    with pytest.raises(ShapeMismatch):
        staircase_profile(SECT_SHAPE, (2, 0))


def test_staircase_matches_materialized_profile():
    # the staircase formula equals the generalized weights of the product
    # anticode it describes
    from sumrank import weight_profile

    shape = Shape((2, 1), (2, 1))
    for u in [(1, 0), (2, 1), (1, 1), (0, 1)]:
        spaces = [
            BlockSupport(
                "col",
                Subspace.from_vectors(
                    F2, shape.n[i], [tuple(int(j == c) for j in range(shape.n[i])) for c in range(u[i])]
                ),
            )
            for i in range(2)
        ]
        desc = AnticodeDescriptor(shape, F2, tuple(spaces))
        code = desc.materialize()
        if code.dim == 0:
            continue
        profile = weight_profile(code, "product")
        assert profile.weights == staircase_profile(shape, u)


def test_r_mu_bounds_every_optimal_anticode():
    # every optimal anticode's dimension meets the greedy bound at its weight
    shape = Shape((2, 1), (2, 1))
    for mu in range(shape.ncols + 1):
        for desc in enumerate_anticodes(F2, shape, mu):
            assert desc.dim() <= r_mu(shape, mu)


def test_descriptor_serialization_round_trip():
    shape = Shape((2, 1, 1), (1, 1, 1))
    for mu in range(shape.ncols + 1):
        for desc in enumerate_anticodes(F2, shape, mu, variant="all"):
            data = desc.to_dict()
            back = AnticodeDescriptor.from_dict(data, shape, F2)
            assert back.materialize() == desc.materialize()


def test_dim_never_exceeds_weighted_bound_random():
    rng = random.Random(97)
    from helpers import random_code, random_shape

    for ctx in (F2, F3):
        for _ in range(40):
            shape = random_shape(rng, max_ell=2, max_m=2)
            code = random_code(rng, ctx, shape, rng.randint(0, 4))
            if code.dim == 0:
                continue
            assert code.dim <= code.weighted_max()
