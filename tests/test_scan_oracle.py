"""The codeword-scan walker against two independent enumerations.

One oracle spans the basis with ``helpers.span_vectors`` and ranks every
block of every word longhand with ``helpers.brute_rank``; the other is the
``iter_codewords`` / ``MatrixTuple.srk()`` chain the CLI oracles use.
Shapes cover strict and non-strict products, blocks with m_i < n_i and
1x1 tails, over F_2, F_3, F_4, F_5 and F_9.
"""

import random
from collections import Counter

import pytest

from helpers import F2, F3, F4, brute_rank, random_code, span_vectors
from sumrank import FieldContext, LinearCode, Shape
from sumrank.errors import EnumerationTooLarge, TrivialCode

F5 = FieldContext(5, 1)
F9 = FieldContext(3, 2)

SHAPES = [
    Shape((3, 2), (2, 2)),
    Shape((2, 1, 1), (2, 1, 1)),
    Shape((3, 3, 1), (3, 2, 1)),
    Shape((1, 3), (2, 2), strict=False),
    Shape((2, 1), (3, 1), strict=False),
    Shape((1, 2, 1), (3, 2, 1), strict=False),
]
# largest dimension per field, so that every oracle walks at most ~1k words;
# at F_2 dim 9 the scan tables every block of fewer than 9 entries and
# ranks the 9-entry block of (3,3,1)x(3,2,1) afresh
MAX_DIM = {2: 9, 3: 6, 4: 4, 5: 4, 9: 3}


def _brute_weights(code):
    """(srk, weighted rank) of every nonzero codeword, from the span."""
    shape, ctx = code.shape, code.ctx
    out = []
    for word in span_vectors(ctx, code.rows, shape.ambient_dim):
        if not any(word):
            continue
        ranks = [
            brute_rank(ctx, [word[pos + r * b : pos + (r + 1) * b] for r in range(a)])
            for pos, a, b in zip(shape.block_offsets(), shape.m, shape.n)
        ]
        out.append((sum(ranks), sum(a * rk for a, rk in zip(shape.m, ranks))))
    return out


def _codes(seed):
    rng = random.Random(seed)
    for ctx in (F2, F3, F4, F5, F9):
        for shape in SHAPES:
            for k in sorted({1, 2, min(MAX_DIM[ctx.q], shape.ambient_dim)}):
                yield random_code(rng, ctx, shape, k)


@pytest.mark.parametrize("seed", [1, 2])
def test_scans_match_the_span_oracle(seed):
    for code in _codes(seed):
        if code.dim == 0:
            continue
        weights = _brute_weights(code)
        srks = [s for s, _ in weights]
        dist = code.srk_distribution()
        assert dist == Counter(srks), code
        assert sum(dist.values()) == code.ctx.q**code.dim - 1
        assert code.min_distance(method="enumerate") == min(srks)
        assert code.max_srk() == max(srks)
        assert code.weighted_max() == max(w for _, w in weights)


def test_scans_match_the_matrix_tuple_chain():
    for code in _codes(3):
        if code.dim == 0:
            continue
        words = list(code.iter_codewords())
        assert code.srk_distribution() == Counter(t.srk() for t in words)
        assert code.weighted_max() == max(t.weighted_rank() for t in words)


def test_full_space_and_rank_one_codes():
    # every block rank from 0 to min(m_i, n_i) occurs in the full space
    for ctx in (F2, F3, F4):
        shape = Shape((2, 1), (2, 1))
        full = LinearCode.full(shape, ctx)
        assert full.srk_distribution() == Counter(s for s, _ in _brute_weights(full))
        assert (full.min_distance(), full.max_srk(), full.weighted_max()) == (1, 3, 5)
    line = LinearCode(Shape((3,), (3,)), F9, [(0, 0, 0, 0, 5, 7, 0, 0, 0)])
    assert line.srk_distribution() == {1: 8}


def test_weighted_max_stop_at_contract():
    # below stop_at the result is the exact maximum; otherwise it is some
    # value at or above stop_at, and never above the maximum
    for code in _codes(4):
        if code.dim == 0:
            continue
        top = code.weighted_max()
        for s in range(1, top + 3):
            got = code.weighted_max(stop_at=s)
            if top < s:
                assert got == top
            else:
                assert s <= got <= top


def test_zero_code_and_guard():
    for ctx in (F2, F3, F9):
        zero = LinearCode.zero(Shape((2, 1), (3, 1), strict=False), ctx)
        for scan in (zero.min_distance, zero.max_srk, zero.weighted_max):
            with pytest.raises(TrivialCode):
                scan()
        assert zero.srk_distribution() == {}
    # the zero code answers at once, whatever the declared block sizes
    huge = LinearCode.zero(Shape((10**5,), (10**5,)), F2)
    assert huge.srk_distribution() == {}
    with pytest.raises(TrivialCode):
        huge.max_srk()
    code = LinearCode.full(Shape((2,), (2,)), F3)
    assert code.max_srk(cap=81) == 2
    with pytest.raises(EnumerationTooLarge, match=r"q\^dim = 3\*\*4 exceeds cap 80"):
        code.max_srk(cap=80)


def test_guard_refuses_before_any_walk(monkeypatch):
    def walk(self, weighted):
        raise AssertionError("the walk started")

    monkeypatch.setattr(LinearCode, "_walk", walk)
    for ctx in (F2, F5):
        code = LinearCode.full(Shape((3, 1), (3, 1)), ctx)
        for scan in (code.min_distance, code.max_srk, code.weighted_max, code.srk_distribution):
            with pytest.raises(EnumerationTooLarge):
                scan(cap=ctx.q**code.dim - 1)
