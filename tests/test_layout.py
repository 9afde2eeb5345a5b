"""The flat layout of anticode factors against the layout's own definition.

Meet and materialize both read factor coordinates from Shape.lines, so
a slip there would pass their differential tests unnoticed.  These tests
check Shape.lines against MatrixTuple.from_flat, and materialize against the
support definition through block row and column spaces.
"""

import random

import pytest

from sumrank import AnticodeDescriptor, BlockSupport, MatrixTuple, Shape, Subspace

from helpers import F2, F3

_lines = Shape.lines

SHAPES = [
    Shape((3, 3), (3, 3)),  # square blocks: row supports legal
    Shape((4, 2), (3, 2)),  # unequal row counts
    Shape((2, 3), (3, 1), strict=False),  # wiretap shapes need not be strict
    Shape((3, 1, 1), (2, 1, 1)),  # trailing 1x1 blocks: tails
]
FIELDS = [F2, F3]


def _random_space(rng, ctx, ambient):
    vecs = [[rng.randrange(ctx.q) for _ in range(ambient)] for _ in range(rng.randint(0, ambient))]
    return Subspace.from_vectors(ctx, ambient, vecs)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"F{c.q}")
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_lines_read_block_rows_columns_and_trailing_scalars(ctx, shape):
    rng = random.Random(f"lines:{ctx.q}:{shape}")
    for _ in range(5):
        flat = [rng.randrange(ctx.q) for _ in range(shape.ambient_dim)]
        blocks = MatrixTuple.from_flat(shape, ctx, flat).blocks

        def read(i, kind):
            return [tuple(flat[j] for j in line) for line in _lines(shape, i, kind)]

        for i, blk in enumerate(blocks):
            assert read(i, "col") == list(blk.rows)
            assert read(i, "row") == list(zip(*blk.rows))
        for i in range(shape.scalar_suffix_start(), shape.ell + 1):
            assert read(i, "tail") == [tuple(b.rows[0][0] for b in blocks[i:])]


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda c: f"F{c.q}")
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_materialize_meets_the_support_definition(ctx, shape):
    """Each basis tuple lies in the anticode, and the dimension is the
    product count, so materialize spans exactly the descriptor."""
    rng = random.Random(f"materialize:{ctx.q}:{shape}")
    k = shape.scalar_suffix_start()
    kinds = set()
    for _ in range(12):
        covered = rng.choice((k, shape.ell))
        supports = []
        for mm, nn in zip(shape.m[:covered], shape.n[:covered]):
            kind = rng.choice(("col", "row")) if mm == nn else "col"
            space = _random_space(rng, ctx, nn if kind == "col" else mm)
            supports.append(BlockSupport(kind, space))
            kinds.add(kind)
        tail = None
        if covered < shape.ell:
            tail = _random_space(rng, ctx, shape.ell - covered)
            kinds.add("tail")
        code = AnticodeDescriptor(shape, ctx, tuple(supports), tail).materialize()

        expected = sum(
            (mm if blk.kind == "col" else nn) * blk.space.dim
            for blk, mm, nn in zip(supports, shape.m, shape.n)
        )
        assert code.dim == expected + (tail.dim if tail is not None else 0)
        for row in code.rows:
            blocks = MatrixTuple.from_flat(shape, ctx, row).blocks
            for blk, mat in zip(supports, blocks):
                got = mat.row_space() if blk.kind == "col" else mat.column_space()
                assert blk.space.add(got) == blk.space
            if tail is not None:
                assert tail.contains([b.rows[0][0] for b in blocks[covered:]])
    # the seeded draws reach every factor kind the shape allows
    square = any(mm == nn for mm, nn in zip(shape.m, shape.n))
    assert ("row" in kinds) == square and ("tail" in kinds) == (k < shape.ell)
