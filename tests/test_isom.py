"""Linear isometries: group structure, weight preservation, equivalence."""

import random

import pytest

from sumrank import (
    Isometry,
    LinearCode,
    MatrixFq,
    MatrixTuple,
    Shape,
    admissible_permutations,
    equivalent_codes,
    gl_group,
    gl_order,
    isometry_count,
    random_gl,
    random_isometry,
)
from sumrank.errors import GroupTooLarge, IllegalTranspose, ShapeMismatch, SingularFactor

from helpers import F2, F3, F4, F5, gl_group_reference, random_code, random_shape


def test_gl_order_values():
    assert gl_order(1, 2) == 1
    assert gl_order(1, 3) == 2
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert gl_order(3, 2) == 168


def test_gl_group_enumeration():
    for ctx, n in [(F2, 1), (F2, 2), (F3, 2), (F2, 3)]:
        group = gl_group(ctx, n)
        assert len(group) == gl_order(n, ctx.q)
        assert len(set(group)) == len(group)
        for g in group:
            assert g.is_invertible()


@pytest.mark.parametrize(
    "ctx,n", [(F2, 1), (F2, 2), (F2, 3), (F2, 4), (F3, 2), (F3, 3), (F4, 2)],
    ids=lambda x: f"F{x.q}" if hasattr(x, "q") else str(x),
)
def test_gl_group_matches_the_rejection_reference(ctx, n):
    """The pruned walk lists the invertible matrices the rejection loop
    keeps, in the same row-major counter order."""
    assert gl_group(ctx, n) == gl_group_reference(ctx, n)


def test_random_gl_invertible():
    rng = random.Random(3)
    for _ in range(20):
        assert random_gl(F3, 3, rng).is_invertible()


def _random_tuple(rng, ctx, shape):
    return MatrixTuple.from_flat(
        shape, ctx, [rng.randrange(ctx.q) for _ in range(shape.ambient_dim)]
    )


def test_isometries_preserve_srk():
    rng = random.Random(11)
    for ctx in (F2, F3):
        for _ in range(25):
            shape = random_shape(rng)
            iso = random_isometry(ctx, shape, rng)
            for _ in range(5):
                t = _random_tuple(rng, ctx, shape)
                assert iso.apply(t).srk() == t.srk()
            a, b = _random_tuple(rng, ctx, shape), _random_tuple(rng, ctx, shape)
            assert iso.apply(a + b) == iso.apply(a) + iso.apply(b)


def test_identity_and_inverse():
    rng = random.Random(19)
    for ctx in (F2, F3):
        for _ in range(20):
            shape = random_shape(rng)
            iso = random_isometry(ctx, shape, rng)
            ident = Isometry.identity(shape, ctx)
            t = _random_tuple(rng, ctx, shape)
            assert ident.apply(t) == t
            assert iso.inverse().apply(iso.apply(t)) == t
            assert iso.apply(iso.inverse().apply(t)) == t
            both = iso.compose(iso.inverse())
            assert both.apply(t) == t


def test_compose_matches_sequential_application():
    rng = random.Random(29)
    # squares in the shape exercise the transpose algebra
    shape = Shape((2, 2, 1), (2, 1, 1))
    for ctx in (F2, F3):
        for _ in range(25):
            f = random_isometry(ctx, shape, rng)
            g = random_isometry(ctx, shape, rng)
            fg = f.compose(g)
            for _ in range(4):
                t = _random_tuple(rng, ctx, shape)
                assert fg.apply(t) == f.apply(g.apply(t))


def test_apply_code_preserves_invariants():
    rng = random.Random(41)
    for ctx in (F2, F3):
        shape = random_shape(rng, max_ell=2, max_m=2)
        code = random_code(rng, ctx, shape, 2)
        if code.dim == 0:
            continue
        iso = random_isometry(ctx, shape, rng)
        image = iso.apply_code(code)
        assert image.dim == code.dim
        assert image.srk_distribution() == code.srk_distribution()


def test_isometry_serialization_round_trip():
    rng = random.Random(53)
    shape = Shape((2, 2), (2, 1))
    for ctx in (F2, F3):
        iso = random_isometry(ctx, shape, rng)
        data = iso.to_dict()
        assert list(data.keys()) == ["sigma", "blocks"]
        back = Isometry.from_dict(data, shape, ctx)
        assert back == iso


def test_isometry_guards():
    shape = Shape((2, 1), (2, 1))
    eye2 = MatrixFq.identity(F2, 2)
    eye1 = MatrixFq.identity(F2, 1)
    with pytest.raises(ShapeMismatch):
        Isometry(shape, F2, (1, 0), (False, False), (eye2, eye1), (eye2, eye1))
    with pytest.raises(ShapeMismatch):
        Isometry(shape, F2, (0, 0), (False, False), (eye2, eye1), (eye2, eye1))
    singular = MatrixFq(F2, [[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        Isometry(shape, F2, (0, 1), (False, False), (singular, eye1), (eye2, eye1))
    # a sigma entry that is not an int, or a transpose flag that is not a
    # bool, is refused: (False, True) used to pass as (0, 1), and
    # "transpose": "no" read from a payload as True
    for sigma in [(False, True), (0.0, 1)]:
        with pytest.raises(ShapeMismatch, match="must be ints"):
            Isometry(shape, F2, sigma, (False, False), (eye2, eye1), (eye2, eye1))
    for transpose in [(0, False), ("no", False), (None, False)]:
        with pytest.raises(ShapeMismatch, match="must be bools"):
            Isometry(shape, F2, (0, 1), transpose, (eye2, eye1), (eye2, eye1))
    data = Isometry.identity(shape, F2).to_dict()
    with pytest.raises(ShapeMismatch):
        Isometry.from_dict(dict(data, sigma=[0.0, 1]), shape, F2)
    data["blocks"][0]["transpose"] = "no"
    with pytest.raises(ShapeMismatch):
        Isometry.from_dict(data, shape, F2)
    tall = Shape((2,), (1,))
    with pytest.raises(IllegalTranspose):
        Isometry(
            tall, F2, (0,), (True,), (MatrixFq.identity(F2, 2),), (eye1,)
        )
    # equivalent_codes refuses a cap that is not an int before it counts the
    # group: 1e7 and 1.5 have no bit_length, and True would pass as a cap of 1
    vast = LinearCode.zero(Shape((4000,), (1,)), F2)
    for cap in [1e7, 1.5, "x", True]:
        with pytest.raises(GroupTooLarge, match=f"cap {cap!r} is not an int"):
            equivalent_codes(vast, vast, cap=cap)


def test_admissible_permutations_and_count():
    same = Shape((1, 1), (1, 1))
    assert list(admissible_permutations(same)) == [(0, 1), (1, 0)]
    mixed = Shape((2, 1), (2, 1))
    assert list(admissible_permutations(mixed)) == [(0, 1)]
    # 2 permutations x per-block (GL_1 x GL_1 x transpose bit)^2
    assert isometry_count(same, 2) == 2 * (1 * 1 * 2) ** 2
    assert isometry_count(mixed, 2) == (6 * 6 * 2) * (1 * 1 * 2)


def test_equivalent_codes_finds_random_conjugates():
    rng = random.Random(67)
    for ctx, shape in [
        (F2, Shape((2, 1), (1, 1))),
        (F2, Shape((2, 2), (2, 1))),
        (F3, Shape((2,), (1,))),
    ]:
        for _ in range(5):
            code = random_code(rng, ctx, shape, 2)
            iso = random_isometry(ctx, shape, rng)
            image = iso.apply_code(code)
            witness = equivalent_codes(code, image)
            assert witness is not None
            assert witness.apply_code(code) == image


def test_equivalent_codes_negative_cases():
    shape = Shape((2,), (2,))
    line = LinearCode(shape, F2, [(1, 0, 0, 0)])
    full_rank_line = LinearCode(shape, F2, [(1, 0, 0, 1)])
    # srk distributions differ: no isometry can match them
    assert equivalent_codes(line, full_rank_line) is None
    plane = LinearCode(shape, F2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert equivalent_codes(line, plane) is None
    with pytest.raises(ShapeMismatch):
        equivalent_codes(line, LinearCode.zero(Shape((2,), (1,)), F2))
    with pytest.raises(GroupTooLarge):
        equivalent_codes(line, full_rank_line, cap=3)


def test_automorphism_witnesses_of_a_line():
    shape = Shape((1, 1), (1, 1))
    code = LinearCode(shape, F2, [(1, 0)])
    autos = equivalent_codes(code, code, all_witnesses=True)
    # the block swap moves the support; transposes on 1x1 blocks act
    # trivially, so exactly the four identity-permutation masks remain
    assert len(autos) == 4
    for w in autos:
        assert w.sigma == (0, 1)
        assert w.apply_code(code) == code


def test_automorphism_witnesses_rank_each_shared_factor_once(monkeypatch):
    # the witnesses share one matrix per distinct factor and a matrix keeps
    # its rank, so Isometry's invertibility checks rank each factor once,
    # not once per witness; over F_5 each solved right tuple stands for four
    # scalar multiples, taken from the GL pools
    import sumrank.matfq as matfq

    calls = []
    real = matfq.rank_rows
    monkeypatch.setattr(matfq, "rank_rows", lambda *a: calls.append(a) or real(*a))
    for ctx in (F3, F5):
        calls.clear()
        code = random_code(random.Random(73), ctx, Shape((2, 1), (1, 1)), 2)
        autos = equivalent_codes(code, code, all_witnesses=True)
        factors = {id(m) for w in autos for m in w.left + w.right}
        assert len(autos) > len(factors) and len(calls) <= len(factors)
        assert all(w.apply_code(code) == code for w in autos)
        # a caller's factors are still checked: a singular one is refused
        with pytest.raises(SingularFactor):
            Isometry(code.shape, ctx, (0, 1), (False, False),
                     (MatrixFq(ctx, [[1, 1], [1, 1]]),) + autos[0].left[1:], autos[0].right)


def test_equivalence_is_reflexive_with_witness():
    rng = random.Random(71)
    shape = Shape((2, 1), (1, 1))
    code = random_code(rng, F3, shape, 2)
    witness = equivalent_codes(code, code)
    assert witness is not None
    assert witness.apply_code(code) == code
