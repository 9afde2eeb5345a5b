"""The codeword-scan walker against two independent enumerations.

One oracle spans the basis with ``helpers.span_vectors`` and ranks every
block of every word longhand with ``helpers.brute_rank``; the other is the
``iter_codewords`` / ``MatrixTuple.srk()`` chain the CLI oracles use.
Shapes cover strict and non-strict products, blocks with m_i < n_i and
1x1 tails, over F_2, F_3, F_4, F_5 and F_9.  The bit-sliced F_2 walk is
also run with chunks of 2 to 8 codewords, so that every scan crosses many
chunk boundaries.  is_optimal_anticode, which decides by the classification
and walks no codeword, is checked against dim = max weighted rank from the
span oracle.
"""

import random
import time
from collections import Counter

import pytest

import sumrank.code
from helpers import F2, F3, F4, brute_rank, random_code, span_vectors
from sumrank import (
    FieldContext,
    LinearCode,
    Shape,
    enumerate_anticodes,
    enumerate_subspaces,
    is_optimal_anticode,
)
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
# at F_2 dim 9 the bit-sliced walk takes all 512 codewords as one chunk
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


def test_zero_code_and_guard():
    for ctx in (F2, F3, F9):
        zero = LinearCode.zero(Shape((2, 1), (3, 1), strict=False), ctx)
        for scan in (zero.min_distance, zero.max_srk, zero.weighted_max):
            with pytest.raises(TrivialCode):
                scan()
        assert zero.srk_distribution() == {}
        # the anticode route refuses the same way, on strict shapes too
        for shape in (zero.shape, Shape((2, 1), (2, 1))):
            with pytest.raises(TrivialCode):
                LinearCode.zero(shape, ctx).min_distance(method="anticode")
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


def _check_scans(code, weights):
    """Every scan of code against (srk, weighted rank) of its nonzero words."""
    srks = [s for s, _ in weights]
    assert code.srk_distribution() == Counter(srks), code
    assert code.min_distance(method="enumerate") == min(srks)
    assert code.max_srk() == max(srks)
    assert code.weighted_max() == max(w for _, w in weights)


@pytest.mark.parametrize("bits", [1, 2, 3])
def test_f2_chunks_match_the_span_oracle(monkeypatch, bits):
    monkeypatch.setattr(sumrank.code, "_LANE_BITS", bits)
    rng = random.Random(20 + bits)
    for shape in SHAPES:
        for k in sorted({1, bits, bits + 1, min(MAX_DIM[2], shape.ambient_dim)}):
            code = random_code(rng, F2, shape, k)
            if code.dim:
                _check_scans(code, _brute_weights(code))
        if shape.ambient_dim <= 10:
            full = LinearCode.full(shape, F2)
            _check_scans(full, _brute_weights(full))


def test_f2_chunks_match_the_matrix_tuple_chain(monkeypatch):
    rng = random.Random(5)
    shape = Shape((4, 4, 3), (4, 3, 3))
    for k in (10, 11, 12):
        code = random_code(rng, F2, shape, k)
        weights = [(t.srk(), t.weighted_rank()) for t in code.iter_codewords()]
        for bits in (1, 3, 16):
            monkeypatch.setattr(sumrank.code, "_LANE_BITS", bits)
            _check_scans(code, weights)


def test_f2_min_distance_stops_in_a_later_chunk(monkeypatch):
    # rows[0] is the identity (rank 2); the rank-1 word rows[1] lies in the
    # second chunk of two codewords, and the scan stops there
    monkeypatch.setattr(sumrank.code, "_LANE_BITS", 1)
    code = LinearCode(Shape((2,), (2,)), F2, [(1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert code.rows[0] == (1, 0, 0, 1)
    seen = []
    walk = LinearCode._walk

    def counting(self, weighted):
        for value, count in walk(self, weighted):
            seen.append(count)
            yield value, count

    monkeypatch.setattr(LinearCode, "_walk", counting)
    assert code.min_distance(method="enumerate") == 1
    # the scan passed chunk 0 (one nonzero word) and stopped in chunk 1, so
    # chunks 2 and 3 were never built
    assert 1 < sum(seen) <= 3


def _low_rank_word(rng, m, n, r):
    """A flattened m x n matrix over F_2: the sum of r random rank-one terms."""
    mat = [[0] * n for _ in range(m)]
    for _ in range(r):
        u = [rng.randrange(2) for _ in range(m)]
        v = [rng.randrange(2) for _ in range(n)]
        for i in range(m):
            if u[i]:
                mat[i] = [x ^ y for x, y in zip(mat[i], v)]
    return tuple(x for row in mat for x in row)


def test_f2_scan_cost_is_polynomial_in_block_size():
    # enumerating the 2^min(m_i, n_i) kernel vectors of a 40-wide block
    # would never finish; row reduction of the planes takes milliseconds
    rng = random.Random(40)
    for shape in (Shape((40,), (40,)), Shape((2,), (40,), strict=False)):
        (m,), (n,) = shape.m, shape.n
        for k in (1, 2, 3):
            rows = [_low_rank_word(rng, m, n, rng.choice((1, 3, 40))) for _ in range(k)]
            code = LinearCode(shape, F2, rows)
            ranks = [
                brute_rank(F2, [w[r * n : (r + 1) * n] for r in range(m)])
                for w in span_vectors(F2, code.rows, shape.ambient_dim)
                if any(w)
            ]
            expected = (Counter(ranks), max(ranks), m * max(ranks))
            for scan, want in zip((code.srk_distribution, code.max_srk, code.weighted_max), expected):
                start = time.perf_counter()
                assert scan() == want
                assert time.perf_counter() - start < 1.0


def _check_optimality(code, top):
    """is_optimal_anticode against dim = max weighted rank top."""
    ok, desc = is_optimal_anticode(code)
    assert ok == (code.dim == top), code
    assert (desc is not None) == ok
    if ok:
        assert desc.materialize() == code


# F_2 with 3 to 6 trailing 1x1 blocks, with and without a head block, and
# small F_3 and F_4 spaces, where no tail exists
SMALL_SPACES = [
    (F2, Shape((1,) * 3, (1,) * 3)),
    (F2, Shape((1,) * 4, (1,) * 4)),
    (F2, Shape((1,) * 5, (1,) * 5)),
    (F2, Shape((1,) * 6, (1,) * 6)),
    (F2, Shape((2, 1, 1, 1), (1, 1, 1, 1))),
    (F2, Shape((2, 1, 1, 1, 1), (1, 1, 1, 1, 1))),
    (F2, Shape((2, 2), (2, 1))),
    (F3, Shape((2,), (2,))),
    (F3, Shape((2, 1), (1, 1))),
    (F3, Shape((1, 1, 1), (1, 1, 1))),
    (F4, Shape((2,), (2,))),
    (F4, Shape((1, 1, 1), (1, 1, 1))),
]


@pytest.mark.parametrize("ctx, shape", SMALL_SPACES)
def test_optimality_of_every_subspace_matches_the_span_oracle(ctx, shape):
    amb = shape.ambient_dim
    for k in range(amb + 1):
        for sub in enumerate_subspaces(ctx, amb, k):
            code = LinearCode(shape, ctx, sub.basis)
            top = max((w for _, w in _brute_weights(code)), default=0)
            _check_optimality(code, top)


def _mixed(rng, ctx, rows):
    """As many random combinations of rows as rows."""
    out = []
    for _ in rows:
        word = [0] * len(rows[0])
        for row in rows:
            c = rng.randrange(ctx.q)
            word = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(word, row)]
        out.append(tuple(word))
    return out


def test_optimality_of_mixed_anticodes_matches_the_scan():
    # each member of the "all" family with its basis mixed, then with one
    # row dropped and with one random row added; up to 2^10 words the span
    # oracle decides, above it the scan, which the tests above check, up to
    # 2^16 words over F_2 (packed) and 2^12 over F_3 and F_4
    rng = random.Random(50)
    for ctx, limit in ((F2, 1 << 16), (F3, 1 << 12), (F4, 1 << 12)):
        for shape in (s for s in SHAPES if s.strict):
            for mu in range(shape.ncols + 1):
                family = list(enumerate_anticodes(ctx, shape, mu, "all"))
                for desc in rng.sample(family, min(4, len(family))):
                    rows = list(desc.materialize().rows)
                    extra = tuple(rng.randrange(ctx.q) for _ in range(shape.ambient_dim))
                    for basis in (rows, rows[1:], rows + [extra]):
                        code = LinearCode(shape, ctx, _mixed(rng, ctx, basis) if basis else [])
                        if ctx.q**code.dim > limit:
                            continue
                        if not code.dim:
                            top = 0
                        elif ctx.q**code.dim <= 1 << 10:
                            top = max(w for _, w in _brute_weights(code))
                        else:
                            top = code.weighted_max()
                        _check_optimality(code, top)
