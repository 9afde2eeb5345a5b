"""Ambient tuples, linear codes, duality, and the codeword scans."""

import random

import pytest

from sumrank import (
    LinearCode,
    MatrixTuple,
    Shape,
    Subspace,
    field_from_dict,
)
from sumrank.errors import (
    AmbientMismatch,
    ContextMismatch,
    DimensionMismatch,
    EnumerationTooLarge,
    ShapeMismatch,
    TrivialCode,
    UnknownChoice,
)

from helpers import F2, F3, F4, _pairing, brute_rank, random_code, random_shape


def test_shape_strict_validation():
    Shape((3, 2), (1, 2))
    Shape((2, 2, 1), (2, 1, 1))
    with pytest.raises(ShapeMismatch):
        Shape((2, 3), (1, 1))  # rows must not increase
    with pytest.raises(ShapeMismatch):
        Shape((2, 2), (1, 3))  # cols above rows
    with pytest.raises(ShapeMismatch):
        Shape((2,), (1, 1))
    with pytest.raises(ShapeMismatch):
        Shape((2, 0), (1, 1))
    # numbers that are not ints are refused, not coerced: (2.7,) x (True,)
    # used to become (2,) x (1,)
    for m, n in [((2.7,), (True,)), ((2.0,), (1,)), ((2,), ("1",)), ((2, False), (1, 1))]:
        with pytest.raises(ShapeMismatch, match="must be ints"):
            Shape(m, n)
    for strict in (1, 0, "no", None):
        with pytest.raises(ShapeMismatch, match="must be a bool"):
            Shape((2,), (1,), strict)
    # dimensions that are not sequences raised a bare TypeError
    with pytest.raises(ShapeMismatch, match="must be sequences"):
        Shape(3, 3)
    # the relaxed mode lifts both constraints
    loose = Shape((2, 3), (3, 1), strict=False)
    assert loose.ambient_dim == 9


def test_shape_geometry():
    shape = Shape((3, 2, 1), (2, 2, 1))
    assert shape.ell == 3
    assert shape.ncols == 5
    assert shape.ambient_dim == 3 * 2 + 2 * 2 + 1
    assert shape.block_offsets() == (0, 6, 10)
    assert shape.column_offsets() == (0, 2, 4)
    assert shape.block_of_column(1) == 0
    assert shape.block_of_column(3) == 1
    assert shape.block_of_column(5) == 2
    assert shape.scalar_suffix_start() == 2
    assert Shape.from_dict(shape.to_dict()) == shape
    loose = Shape((1, 2), (1, 2), strict=False)
    assert Shape.from_dict(loose.to_dict()) == loose


def test_matrix_tuple_arithmetic_and_flat():
    shape = Shape((2, 1), (2, 1))
    a = MatrixTuple.from_flat(shape, F3, (1, 2, 0, 1, 2))
    b = MatrixTuple.from_flat(shape, F3, (2, 1, 0, 0, 1))
    assert (a + b).flatten() == (0, 0, 0, 1, 0)
    assert (a - b).flatten() == (2, 1, 0, 1, 1)
    assert a.scale(2).flatten() == (2, 4 % 3, 0, 2, 4 % 3)
    assert a.srk() == 3
    assert a.weighted_rank() == 2 * 2 + 1 * 1
    assert MatrixTuple.zero(shape, F3).is_zero()
    with pytest.raises(AmbientMismatch):
        MatrixTuple.from_flat(shape, F3, (1, 2, 0))
    rt = MatrixTuple.from_dict(a.to_dict())
    assert rt == a


def test_srk_is_sum_of_block_ranks():
    rng = random.Random(2)
    for ctx in (F2, F3, F4):
        shape = random_shape(rng)
        for _ in range(25):
            flat = tuple(rng.randrange(ctx.q) for _ in range(shape.ambient_dim))
            t = MatrixTuple.from_flat(shape, ctx, flat)
            expected = sum(brute_rank(ctx, blk.rows) for blk in t.blocks)
            assert t.srk() == expected
            expected_w = sum(
                shape.m[i] * brute_rank(ctx, blk.rows)
                for i, blk in enumerate(t.blocks)
            )
            assert t.weighted_rank() == expected_w


def test_code_canonicalization_and_membership():
    shape = Shape((2,), (2,))
    code = LinearCode(shape, F2, [(1, 1, 0, 0), (0, 0, 1, 1), (1, 1, 1, 1)])
    assert code.dim == 2
    # identical span, different generators
    same = LinearCode(shape, F2, [(1, 1, 1, 1), (0, 0, 1, 1)])
    assert code == same and hash(code) == hash(same)
    assert code.contains_flat((1, 1, 1, 1))
    assert not code.contains_flat((1, 0, 0, 0))
    t = MatrixTuple.from_flat(shape, F2, (1, 1, 0, 0))
    assert code.contains(t)


def test_contains_flat_rejects_a_vector_of_the_wrong_length():
    code = LinearCode(Shape((2,), (2,)), F2, [(1, 1, 0, 0)])
    for flat in [(1, 1, 0), (1, 1, 0, 0, 0)]:
        with pytest.raises(DimensionMismatch):
            code.contains_flat(flat)


def test_a_code_is_a_shape_plus_its_subspace():
    shape = Shape((2, 1), (2, 1))
    sub = Subspace(F3, shape.ambient_dim, [(1, 2, 0, 1, 0), (0, 0, 1, 1, 2)])
    code = LinearCode.from_subspace(shape, sub)
    assert code.subspace() is sub
    assert code == LinearCode(shape, F3, sub.basis)
    assert (code.ctx, code.rows, code.pivots, code.dim) == (F3, sub.basis, sub.pivots, 2)
    assert code.dual().subspace() == sub.orthogonal()
    assert LinearCode.zero(shape, F3).subspace() == Subspace.zero(F3, 5)
    assert LinearCode.full(shape, F3).subspace() == Subspace.full(F3, 5)


@pytest.mark.parametrize("extra", [{"pivots": (0,)}, {"canonical": True}])
def test_constructors_take_no_pivots_or_canonical(extra):
    rows = [(1, 0, 0, 0)]
    with pytest.raises(TypeError):
        LinearCode(Shape((2,), (2,)), F2, rows, **extra)
    with pytest.raises(TypeError):
        Subspace(F2, 4, rows, **extra)


def test_iter_flat_counts():
    shape = Shape((2, 1), (1, 1))
    code = random_code(random.Random(4), F3, shape, 2)
    words = list(code.iter_flat())
    assert len(words) == 3**code.dim - 1
    assert len(set(words)) == len(words)
    with_zero = list(code.iter_flat(include_zero=True))
    assert len(with_zero) == 3**code.dim


def test_dual_orthogonality_exhaustive():
    rng = random.Random(31)
    for ctx in (F2, F3):
        for _ in range(20):
            shape = random_shape(rng, max_ell=2, max_m=2)
            code = random_code(rng, ctx, shape, rng.randint(0, shape.ambient_dim))
            dual = code.dual()
            assert dual.dim == shape.ambient_dim - code.dim
            assert dual.dual() == code
            for t in code.basis_tuples():
                for s in dual.basis_tuples():
                    assert _pairing(ctx, t.flatten(), s.flatten()) == 0


def test_intersect_and_add_dimension_formula():
    rng = random.Random(13)
    shape = Shape((2, 1), (2, 1))
    for ctx in (F2, F3):
        for _ in range(25):
            a = random_code(rng, ctx, shape, rng.randint(0, 4))
            b = random_code(rng, ctx, shape, rng.randint(0, 4))
            meet = a.intersect(b)
            join = a.add(b)
            assert meet.dim + join.dim == a.dim + b.dim
            for row in meet.rows:
                assert a.contains_flat(row) and b.contains_flat(row)


def test_min_distance_enumerate_matches_direct_scan():
    rng = random.Random(41)
    for ctx in (F2, F3):
        for _ in range(25):
            shape = random_shape(rng, max_ell=2, max_m=2)
            code = random_code(rng, ctx, shape, rng.randint(1, 3))
            if code.dim == 0:
                continue
            got = code.min_distance(method="enumerate")
            expected = min(t.srk() for t in code.iter_codewords())
            assert got == expected
            assert code.max_srk() == max(t.srk() for t in code.iter_codewords())
            assert code.weighted_max() == max(
                t.weighted_rank() for t in code.iter_codewords()
            )


def test_packed_scan_agrees_with_generic_loop():
    # q = 2 runs the bit-sliced path; replicate it naively
    rng = random.Random(59)
    for _ in range(20):
        shape = random_shape(rng, max_ell=3, max_m=3)
        code = random_code(rng, F2, shape, rng.randint(1, 4))
        if code.dim == 0:
            continue
        dist = {}
        for t in code.iter_codewords():
            v = t.srk()
            dist[v] = dist.get(v, 0) + 1
        assert code.srk_distribution() == dist
        assert sum(dist.values()) == 2**code.dim - 1


def test_scan_guards():
    shape = Shape((1,), (1,))
    zero = LinearCode.zero(shape, F2)
    with pytest.raises(TrivialCode):
        zero.min_distance()
    big = LinearCode.full(Shape((3, 3), (3, 3)), F2)
    with pytest.raises(EnumerationTooLarge):
        big.min_distance(cap=100)


def test_block_projection():
    shape = Shape((2, 2), (1, 1))
    code = LinearCode(shape, F2, [(1, 0, 1, 0), (0, 1, 0, 0)])
    p0 = code.block_projection(0)
    p1 = code.block_projection(1)
    assert p0.dim == 2 and p1.dim == 1
    assert p1.contains((1, 0))


@pytest.mark.parametrize("i", [-1, 2, 5])
def test_block_projection_refuses_a_block_out_of_range(i):
    code = LinearCode(Shape((2, 2), (1, 1)), F2, [(1, 0, 1, 0)])
    with pytest.raises(ShapeMismatch, match="out of range"):
        code.block_projection(i)


def test_a_row_entry_outside_the_field_is_refused():
    # (2, 0, 0, 0) is not a word over F_2; it used to become a zero basis row
    with pytest.raises(ContextMismatch):
        LinearCode(Shape((2,), (2,)), F2, [(2, 0, 0, 0)])
    with pytest.raises(ContextMismatch):
        LinearCode(Shape((2,), (2,)), F3, [(0, -1, 0, 0)])


def test_a_row_entry_that_is_not_an_int_is_refused():
    # a float used to stay in the basis as it was given
    for row in [(1.0, 1), (1, 1.0), (0, 0.5)]:
        with pytest.raises(ContextMismatch):
            LinearCode(Shape((2,), (1,)), F2, [row])


@pytest.mark.parametrize("entry", [1.5, True, False, -1, 3, "1", None])
def test_payload_readers_refuse_an_entry_outside_the_field(entry):
    # MatrixFq reduces entries mod q; the payload readers must not let it
    blocks = [[[1, 0], [entry, 1]]]
    tup = {"field": {"p": 2, "e": 1}, "shape": {"m": [2], "n": [2]}, "blocks": blocks}
    with pytest.raises(ContextMismatch):
        MatrixTuple.from_dict(tup)
    code = {"field": {"p": 2, "e": 1}, "shape": {"m": [2], "n": [2]}, "basis": [blocks]}
    with pytest.raises(ContextMismatch):
        LinearCode.from_dict(code)
    ok = dict(tup, blocks=[[[1, 0], [1, 1]]])
    assert MatrixTuple.from_dict(ok).srk() == 2


@pytest.mark.parametrize(
    "field,shape,error",
    [
        ({"p": 2.9, "e": True}, {"m": [2.7], "n": [True]}, ContextMismatch),
        ({"p": 2, "e": 1.0}, {"m": [2], "n": [1]}, ContextMismatch),
        ({"p": "2", "e": 1}, {"m": [2], "n": [1]}, ContextMismatch),
        ({"p": 2, "e": 1}, {"m": [2.7], "n": [1]}, ShapeMismatch),
        ({"p": 2, "e": 1}, {"m": [2], "n": [True]}, ShapeMismatch),
        ({"p": 2, "e": 1}, {"m": [2], "n": ["1"]}, ShapeMismatch),
        ({"p": 2, "e": 1}, {"m": [2], "n": [1], "strict": 1}, ShapeMismatch),
        ({"p": 2, "e": 1}, {"m": [2], "n": [1], "strict": "no"}, ShapeMismatch),
    ],
)
def test_payload_readers_refuse_a_field_or_shape_number_that_is_not_an_int(field, shape, error):
    # int() and bool() used to coerce these, so 2.9 read as F_2 and [2.7] as m = 2
    tup = {"field": field, "shape": shape, "blocks": [[[1], [0]]]}
    with pytest.raises(error):
        MatrixTuple.from_dict(tup)
    with pytest.raises(error):
        LinearCode.from_dict({"field": field, "shape": shape, "basis": []})
    reader, part = (field_from_dict, field) if error is ContextMismatch else (Shape.from_dict, shape)
    with pytest.raises(error):
        reader(part)
    good = {"field": {"p": 2, "e": 1}, "shape": {"m": [2], "n": [1], "strict": False}}
    assert MatrixTuple.from_dict(dict(good, blocks=[[[1], [0]]])).srk() == 1


def test_a_row_of_the_wrong_length_is_refused():
    for row in [(1, 0, 0), (1, 0, 0, 0, 1)]:
        with pytest.raises(DimensionMismatch):
            LinearCode(Shape((2,), (2,)), F2, [(0, 1, 1, 0), row])


def test_shape_lines_refuse_unknown_kinds_and_blocks():
    shape = Shape((3, 1, 1), (2, 1, 1))
    assert shape.lines(3, "tail") == [range(8, 8)]
    with pytest.raises(ShapeMismatch):
        shape.lines(3, "col")
    with pytest.raises(ShapeMismatch):
        shape.lines(4, "tail")
    with pytest.raises(UnknownChoice):
        shape.lines(0, "diagonal")


def test_code_serialization_roundtrip():
    rng = random.Random(77)
    for ctx in (F2, F4):
        shape = random_shape(rng)
        code = random_code(rng, ctx, shape, 2)
        data = code.to_dict()
        assert list(data.keys()) == ["field", "shape", "basis"]
        assert LinearCode.from_dict(data) == code


def test_full_and_zero_codes():
    shape = Shape((2, 1), (2, 1))
    full = LinearCode.full(shape, F3)
    zero = LinearCode.zero(shape, F3)
    assert full.dim == shape.ambient_dim
    assert zero.dim == 0
    assert full.dual() == zero
    assert zero.dual() == full


def test_from_subspace_and_subspace_roundtrip():
    shape = Shape((2,), (2,))
    code = LinearCode(shape, F2, [(1, 0, 0, 1)])
    sub = code.subspace()
    again = LinearCode.from_subspace(shape, sub)
    assert again == code
