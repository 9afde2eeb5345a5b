"""Matrices, RREF canonicalization, subspaces, and subspace enumeration."""

import random
from functools import reduce
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumrank import (
    FieldContext,
    LinearCode,
    MatrixFq,
    MatrixTuple,
    Shape,
    Subspace,
    WiretapScenario,
    count_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
)
from sumrank.errors import (
    ContextMismatch,
    DimensionMismatch,
    EnumerationTooLarge,
    UsageError,
)
import sumrank.matfq as matfq
from sumrank.matfq import _products, nullspace_rows, rank_rows, reduce_against, rref

from helpers import (
    F2,
    F3,
    F4,
    F8,
    F9,
    brute_rank,
    list_rref,
    random_matrix,
    random_shape,
    reduce_against_reference,
    span_vectors,
)

F5, F16 = FieldContext(5, 1), FieldContext(2, 4)
# one field per row kernel and layout: F_2, F_3, F_{2^e}, list rows
ALL = (F2, F3, F4, F8, F16, F5, F9)
ALL_FIELDS = pytest.mark.parametrize("ctx", ALL, ids=["q2", "q3", "q4", "q8", "q16", "q5", "q9"])


def _low_rank_rows(rng, ctx, m, n, r):
    """The m rows of L R, L m x r and R r x n random: rank at most r, so
    zero and dependent rows occur."""
    left = [[rng.randrange(ctx.q) for _ in range(r)] for _ in range(m)]
    right = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(r)]
    return [[_brute_dot(ctx, row, [v[j] for v in right]) for j in range(n)] for row in left]


def _edge_cases(rng, ctx):
    """(rows, ncols): low-rank products, one past 64 bits in every packed
    layout, no rows, and no columns."""
    shapes = ((6, 70, 3), (12, 20, 5), (3, 5, 0))
    cases = [(_low_rank_rows(rng, ctx, m, n, r), n) for m, n, r in shapes]
    return cases + [([], 4), ([], 0), ([(), ()], 0)]


def _kernel_by_oracle(rows, n, ctx):
    """RREF (rows, pivots) of {x : M x = 0}, each reduction by list_rref."""
    red, piv = list_rref(rows, n, ctx)
    free = [f for f in range(n) if f not in piv]
    vecs = [[int(j == f) for j in range(n)] for f in free]
    for vec, f in zip(vecs, free):
        for row, p in zip(red, piv):
            vec[p] = ctx.neg(row[f])
    return list_rref(vecs, n, ctx)


def test_rref_canonical_and_idempotent():
    rng, extra = random.Random(11), random.Random(12)
    for ctx in ALL:
        cases = []
        for _ in range(60):
            m = rng.randint(1, 4)
            n = rng.randint(1, 5)
            cases.append(([[rng.randrange(ctx.q) for _ in range(n)] for _ in range(m)], n))
        for rows, n in cases + _edge_cases(extra, ctx):
            red, piv = rref(rows, n, ctx)
            assert (red, piv) == list_rref(rows, n, ctx)
            assert len(red) == len(piv) == brute_rank(ctx, rows)
            assert len(red) == len(matfq._echelon(rows, n, ctx))
            again, piv2 = rref(red, n, ctx)
            assert again == red and piv2 == piv
            # pivots strictly increase and pivot columns are unit
            assert list(piv) == sorted(set(piv))
            for i, p in enumerate(piv):
                assert red[i][p] == 1
                assert all(red[j][p] == 0 for j in range(len(red)) if j != i)


def test_rref_span_is_preserved():
    rng = random.Random(5)
    for ctx in (F2, F3):
        for _ in range(40):
            n = rng.randint(1, 4)
            rows = [
                [rng.randrange(ctx.q) for _ in range(n)]
                for _ in range(rng.randint(1, 3))
            ]
            red, _ = rref(rows, n, ctx)
            assert span_vectors(ctx, red, n) == span_vectors(ctx, rows, n)


def test_reduce_against_reconstructs():
    ctx = F3
    basis, piv = rref([[1, 2, 0], [0, 1, 1]], 3, ctx)
    for vec in ([1, 0, 0], [2, 2, 2], [0, 0, 1]):
        coeffs, rem = reduce_against(vec, basis, piv, ctx)
        rebuilt = list(rem)
        for c, row in zip(coeffs, basis):
            rebuilt = [ctx.add(x, ctx.mul(c, y)) for x, y in zip(rebuilt, row)]
        assert rebuilt == list(vec)


def test_nullspace_is_the_kernel():
    rng, extra = random.Random(23), random.Random(24)
    for ctx in ALL:
        cases = []
        for _ in range(30):
            m, n = rng.randint(1, 3), rng.randint(1, 4)
            cases.append(([[rng.randrange(ctx.q) for _ in range(n)] for _ in range(m)], n))
        for rows, n in cases + _edge_cases(extra, ctx):
            null = nullspace_rows(rows, n, ctx)
            assert null == _kernel_by_oracle(rows, n, ctx)[0]
            assert len(null) == n - brute_rank(ctx, rows)
            for vec in null:
                for row in rows:
                    acc = 0
                    for x, y in zip(row, vec):
                        acc = ctx.add(acc, ctx.mul(x, y))
                    assert acc == 0


def test_matrix_algebra():
    ctx = F3
    a = MatrixFq(ctx, [[1, 2], [0, 1]])
    b = MatrixFq(ctx, [[2, 0], [1, 1]])
    assert (a + b).rows == ((0, 2), (1, 2))
    assert (a - b).rows == ((2, 2), (2, 0))
    assert a.scale(2).rows == ((2, 4 % 3), (0, 2))
    assert (a @ b).rows == ((1, 2), (1, 1))
    assert a.transpose().rows == ((1, 0), (2, 1))
    eye = MatrixFq.identity(ctx, 2)
    assert (a @ a.inverse()) == eye
    assert a.rank() == 2
    assert not a.is_zero()
    assert MatrixFq.zero(ctx, 2, 2).is_zero()
    assert MatrixFq.unit(ctx, 2, 3, 1, 2).rows == ((0, 0, 0), (0, 0, 1))


def test_matrix_rank_against_reference():
    rng, extra = random.Random(3), random.Random(4)
    for ctx in ALL:
        mats = [random_matrix(rng, ctx, rng.randint(1, 4), rng.randint(1, 4)) for _ in range(80)]
        # the augmented rows [M | I] of a 33 x 33 matrix pass 64 bits in every layout
        mats.append(random_matrix(extra, ctx, 33, 33))
        mats.append(MatrixFq(ctx, _low_rank_rows(extra, ctx, 9, 9, 6)))
        for mat in mats:
            assert mat.rank() == brute_rank(ctx, mat.rows)
            assert mat.rank() == mat.transpose().rank()
            if mat.m != mat.n:
                continue
            eye = [[int(i == j) for j in range(mat.n)] for i in range(mat.n)]
            red, _ = list_rref([list(r) + e for r, e in zip(mat.rows, eye)], 2 * mat.n, ctx)
            if mat.rank() == mat.n:
                assert mat.inverse().rows == tuple(r[mat.n :] for r in red)
            else:
                with pytest.raises(DimensionMismatch, match="singular"):
                    mat.inverse()


def test_rank_rows_on_products_of_known_rank():
    # A = L R with L m x r and R r x n has rank at most r, so dependent and
    # zero rows occur; rank_rows must agree with the longhand rank
    rng, extra = random.Random(7), random.Random(8)
    for ctx in (F2, F3, F4, F9, F8, F16, F5):
        assert rank_rows([], 3, ctx) == 0
        for rows, n in _edge_cases(extra, ctx):
            assert rank_rows(rows, n, ctx) == brute_rank(ctx, rows)
            assert rank_rows(rows, n, ctx) == len(matfq._echelon(rows, n, ctx))
        for _ in range(60):
            m, n, r = rng.randint(1, 5), rng.randint(1, 5), rng.randint(0, 3)
            left = [[rng.randrange(ctx.q) for _ in range(r)] for _ in range(m)]
            right = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(r)]
            rows = [[0] * n for _ in range(m)]
            for i in range(m):
                for t in range(r):
                    for j in range(n):
                        rows[i][j] = ctx.add(rows[i][j], ctx.mul(left[i][t], right[t][j]))
            assert rank_rows(rows, n, ctx) == brute_rank(ctx, rows)
            assert rank_rows(list(zip(*rows)), m, ctx) == brute_rank(ctx, rows)


def test_matrix_inverse_guards():
    ctx = F2
    singular = MatrixFq(ctx, [[1, 1], [1, 1]])
    assert not singular.is_invertible()
    with pytest.raises(Exception):
        singular.inverse()
    with pytest.raises(DimensionMismatch):
        MatrixFq(ctx, [[1, 0], [1]])
    with pytest.raises(DimensionMismatch):
        MatrixFq(ctx, [])
    # rows that are not sequences raised a bare TypeError
    with pytest.raises(DimensionMismatch, match="must be sequences"):
        MatrixFq(ctx, 5)
    # an entry outside F_q is refused, not reduced: [[3, -1]] used to store [[1, 1]]
    for rows in ([[3, -1]], [[1, -1]], [[1.0, 0]], [[True, 0]], [["1", 0]], [[None]]):
        with pytest.raises(ContextMismatch, match="is not an element of F_2"):
            MatrixFq(ctx, rows)
    assert MatrixFq(F4, [[3, 0]]).rows == ((3, 0),)
    with pytest.raises(ContextMismatch, match="is not an element of F_4"):
        MatrixFq(F4, [[4, 0]])
    with pytest.raises(ContextMismatch):
        MatrixFq(F2, [[1]])._check(MatrixFq(F3, [[1]]))
    # a scalar outside F_q is refused, as an entry is: scale(7) over F_4 raised
    # IndexError, scale(-1) over F_4 gave [[3, 3]], scale(4) over F_3 read as 1
    for ctx, c in ((F4, 7), (F9, 9), (F4, -1), (F9, -2), (F3, 4), (F2, 2.0), (F3, "1"),
                   (F2, True), (F5, None)):
        mat = MatrixFq(ctx, [[1, 1], [0, 1]])
        pair = MatrixTuple(Shape((2,), (2,)), [mat])
        for scaled in (mat.scale, pair.scale):
            with pytest.raises(ContextMismatch, match=f"{c!r} is not an element of F_{ctx.q}"):
                scaled(c)


def test_row_and_column_space():
    mat = MatrixFq(F2, [[1, 0, 1], [1, 0, 1]])
    assert mat.row_space().dim == 1
    assert mat.column_space().dim == 1
    assert mat.column_space().ambient == 2


def test_submatrix_and_flatten():
    mat = MatrixFq(F3, [[0, 1, 2], [1, 1, 0]])
    sub = mat.submatrix([1], [0, 2])
    assert sub.rows == ((1, 0),)
    assert mat.flatten() == (0, 1, 2, 1, 1, 0)
    assert mat.to_lists() == [[0, 1, 2], [1, 1, 0]]


def test_subspace_membership_and_ops():
    ctx = F2
    a = Subspace(ctx, 3, [(1, 0, 1), (0, 1, 0)])
    b = Subspace(ctx, 3, [(1, 1, 1)])
    assert a.dim == 2 and b.dim == 1
    assert a.contains((1, 1, 1))
    meet = a.intersect(b)
    assert meet.dim == 1 and meet.contains((1, 1, 1))
    join = a.add(b)
    assert join.dim == 2
    assert a.coordinates((1, 1, 1)) == (1, 1)
    assert a.coordinates((0, 0, 1)) is None


def test_subspace_coordinates_checks_the_length():
    sp = Subspace(F3, 3, [(1, 2, 0), (0, 1, 1)])
    for vec in ((1, 2), (1, 2, 0, 0)):
        with pytest.raises(DimensionMismatch):
            sp.coordinates(vec)


def test_subspace_intersection_against_vector_sets():
    rng = random.Random(17)
    for ctx in (F2, F3):
        for _ in range(40):
            n = rng.randint(1, 4)
            a = Subspace(
                ctx, n, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(2)]
            )
            b = Subspace(
                ctx, n, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(2)]
            )
            expected = span_vectors(ctx, a.basis, n) & span_vectors(ctx, b.basis, n)
            got = span_vectors(ctx, a.intersect(b).basis, n)
            assert got == expected


def test_subspace_orthogonal_is_involutive():
    rng = random.Random(29)
    for ctx in (F2, F3, F4):
        for _ in range(30):
            n = rng.randint(1, 4)
            sp = Subspace(
                ctx, n, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(2)]
            )
            perp = sp.orthogonal()
            assert perp.dim == n - sp.dim
            assert perp.orthogonal() == sp
            for u in sp.basis:
                for v in perp.basis:
                    acc = 0
                    for x, y in zip(u, v):
                        acc = ctx.add(acc, ctx.mul(x, y))
                    assert acc == 0


def test_subspace_vectors_iterates_all():
    sp = Subspace(F3, 3, [(1, 0, 2), (0, 1, 1)])
    vecs = list(sp.vectors())
    assert len(vecs) == 9
    assert len(set(vecs)) == 9
    assert all(sp.contains(v) for v in vecs)


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 5, 2) == 1
    assert gaussian_binomial(5, 6, 2) == 0
    assert gaussian_binomial(4, 2, 3) == 130
    # symmetry
    for n in range(6):
        for k in range(n + 1):
            assert gaussian_binomial(n, k, 2) == gaussian_binomial(n, n - k, 2)


@pytest.mark.parametrize("q", [1, 0, -2])
def test_gaussian_binomial_refuses_a_non_field_order(q):
    with pytest.raises(UsageError, match="field order"):
        gaussian_binomial(3, 1, q)


def test_enumerate_subspaces_of_negative_dimension_is_empty():
    assert gaussian_binomial(3, -1, 2) == 0
    assert list(enumerate_subspaces(F2, 3, -1)) == []
    assert list(enumerate_subspaces(F3, 2, 3)) == []


def test_subspace_refuses_an_entry_outside_the_field():
    with pytest.raises(ContextMismatch):
        Subspace(F3, 3, [(1, 2, 7)])
    with pytest.raises(ContextMismatch):
        Subspace(F3, 3, [(1, 0, 0), (0, -1, 0)])
    assert Subspace(F3, 3, [(1, 2, 2)]).basis == ((1, 2, 2),)


def test_subspace_refuses_an_entry_that_is_not_an_int():
    # 1.5 used to reach pow() in the field inverse as a bare TypeError, and
    # "a" still raised one from min(); a bool passed and stayed in the basis
    for rows in ([(1.5, 0)], [(1, 0), (0, 1.0)], [(0, 2.0)], [("a", 0)], [(1, None)], [(True, 0)]):
        with pytest.raises(ContextMismatch):
            Subspace(F3, 2, rows)
    # so a code built from one wrote its JSON only until MatrixFq refused the bool
    with pytest.raises(ContextMismatch, match="not an int"):
        LinearCode(Shape((2,), (1,)), F2, [(True, 0)])


def test_subspace_refuses_a_row_of_the_wrong_length_or_a_negative_ambient():
    with pytest.raises(DimensionMismatch):
        Subspace(F2, 3, [(1, 0, 1), (1, 0)])
    with pytest.raises(DimensionMismatch):
        Subspace(F2, -1)
    assert Subspace(F2, 0, [()]).dim == 0


@pytest.mark.parametrize("ambient", [2.0, True, "2", None], ids=["float", "bool", "str", "none"])
def test_subspace_refuses_an_ambient_that_is_not_an_int(ambient):
    # 2.0 and True were kept as the ambient dimension
    with pytest.raises(DimensionMismatch, match="not an int"):
        Subspace(F2, ambient, [(1, 0)] if ambient == 2 else [(1,)])


@pytest.mark.parametrize("basis", [5, [5], [(1, 0), 7], None], ids=["int", "int-row", "mixed", "none"])
def test_subspace_refuses_a_basis_that_is_not_rows(basis):
    # each raised a bare TypeError from iterating or measuring a row
    with pytest.raises(DimensionMismatch, match="not a sequence of rows"):
        Subspace(F2, 2, basis)


def test_a_code_from_a_basis_that_is_not_rows_is_refused():
    with pytest.raises(DimensionMismatch):
        LinearCode(Shape((1,), (1,)), F2, 5)


def test_enumerate_subspaces_counts_and_distinctness():
    for ctx, n in ((F2, 4), (F3, 3), (F4, 2)):
        total = 0
        for k in range(n + 1):
            subs = list(enumerate_subspaces(ctx, n, k))
            assert len(subs) == gaussian_binomial(n, k, ctx.q)
            assert len(set(subs)) == len(subs)
            assert all(s.dim == k for s in subs)
            total += len(subs)
        assert total == count_subspaces(n, ctx.q)


def test_enumerate_subspaces_matches_brute_spans():
    # every subspace of F_2^3 and F_3^2, generated the slow way
    for ctx, n in ((F2, 3), (F3, 2)):
        vectors = [
            tuple((enc // ctx.q**i) % ctx.q for i in range(n))
            for enc in range(ctx.q**n)
        ]
        brute = set()
        for size in range(n + 1):
            for gens in combinations(vectors[1:], size):
                brute.add(span_vectors(ctx, gens))
        fast = set()
        for k in range(n + 1):
            for sp in enumerate_subspaces(ctx, n, k):
                fast.add(span_vectors(ctx, sp.basis))
        assert fast == brute


def test_enumerate_subspaces_cap():
    with pytest.raises(EnumerationTooLarge):
        list(enumerate_subspaces(F2, 30, 15, cap=1000))


@given(st.integers(2, 5), st.integers(0, 5))
def test_count_subspaces_consistent(n, k):
    q = 2
    assert gaussian_binomial(n, k, q) >= 0
    if k <= n:
        # recursion [n k] = [n-1 k-1] + q^k [n-1 k]
        assert gaussian_binomial(n, k, q) == gaussian_binomial(
            n - 1, k - 1, q
        ) + q**k * gaussian_binomial(n - 1, k, q)


# ------------------------------------------ differential tests of the kernel


def _random_subspaces(rng, ctx, count):
    """Seeded subspaces of F_q^n, n <= 8, the zero and full spaces included,
    then one of F_q^0 and two of F_q^70, each from a zero and a repeated row."""
    out = [Subspace.zero(ctx, 5), Subspace.full(ctx, 5), Subspace.full(ctx, 1)]
    for _ in range(count):
        n = rng.randint(1, 8)
        rows = [
            [rng.randrange(ctx.q) for _ in range(n)] for _ in range(rng.randint(0, n + 1))
        ]
        out.append(Subspace(ctx, n, rows))
    out.append(Subspace(ctx, 0, [(), ()]))
    for dim in (3, 6):
        rows = _low_rank_rows(rng, ctx, dim, 70, dim)
        out.append(Subspace(ctx, 70, rows + [[0] * 70, rows[0]]))
    return out


def _assert_rref(sp):
    """Pivots ascend, each pivot entry is 1 and alone in its column."""
    assert list(sp.pivots) == sorted(set(sp.pivots))
    for i, (row, p) in enumerate(zip(sp.basis, sp.pivots)):
        assert all(x == 0 for x in row[:p]) and row[p] == 1
        assert all(other[p] == 0 for k, other in enumerate(sp.basis) if k != i)


def _fresh(sp):
    return Subspace(sp.ctx, sp.ambient, sp.basis)


def _zassenhaus_reduced_afresh(a, b):
    n = a.ambient
    stacked = [tuple(r) + tuple(r) for r in a.basis]
    stacked += [tuple(r) + (0,) * n for r in b.basis]
    red, _ = list_rref(stacked, 2 * n, a.ctx)
    return Subspace(a.ctx, n, [r[n:] for r in red if not any(r[:n])])


def _brute_dot(ctx, u, v):
    return reduce(ctx.add, [ctx.mul(x, y) for x, y in zip(u, v)], 0)


@ALL_FIELDS
def test_orthogonal_is_wrapped_rref_of_the_old_path(ctx):
    rng = random.Random(41 + ctx.q)
    for sp in _random_subspaces(rng, ctx, 40):
        perp = sp.orthogonal()
        _assert_rref(perp)
        fresh = _fresh(perp)
        assert (perp.basis, perp.pivots) == (fresh.basis, fresh.pivots)
        old = Subspace(ctx, sp.ambient, nullspace_rows(sp.basis, sp.ambient, ctx))
        assert (perp.basis, perp.pivots) == (old.basis, old.pivots)
        red, piv = _kernel_by_oracle(sp.basis, sp.ambient, ctx)
        assert (perp.basis, perp.pivots) == (tuple(red), tuple(piv))
        assert perp.dim == sp.ambient - sp.dim
        assert all(_brute_dot(ctx, u, v) == 0 for u in sp.basis for v in perp.basis)


@ALL_FIELDS
def test_intersect_is_wrapped_rref_of_the_old_path(ctx):
    rng = random.Random(43 + ctx.q)
    by_n = {}
    for sp in _random_subspaces(rng, ctx, 60):
        by_n.setdefault(sp.ambient, []).append(sp)
    pairs = [(a, b) for group in by_n.values() for a in group for b in group]
    assert len(pairs) > 100
    for a, b in pairs:
        meet = a.intersect(b)
        _assert_rref(meet)
        fresh = _fresh(meet)
        assert (meet.basis, meet.pivots) == (fresh.basis, fresh.pivots)
        old = _zassenhaus_reduced_afresh(a, b)
        assert (meet.basis, meet.pivots) == (old.basis, old.pivots)
        assert all(a.contains(v) and b.contains(v) for v in meet.basis)
        join = a.add(b)
        red, piv = list_rref(a.basis + b.basis, a.ambient, ctx)
        assert (join.basis, join.pivots) == (tuple(red), tuple(piv))
        assert meet.dim == a.dim + b.dim - join.dim


def test_orthogonal_and_intersect_reduce_once(monkeypatch):
    calls = []
    real = matfq.rref

    def counted(rows, ncols, ctx):
        calls.append(ncols)
        return real(rows, ncols, ctx)

    rng = random.Random(47)
    a = Subspace(F3, 6, [[rng.randrange(3) for _ in range(6)] for _ in range(3)])
    b = Subspace(F3, 6, [[rng.randrange(3) for _ in range(6)] for _ in range(4)])
    monkeypatch.setattr(matfq, "rref", counted)
    a.orthogonal()
    assert calls == [6]
    calls.clear()
    a.intersect(b)
    assert calls == [12]


def _pack(row):
    return sum(x << j for j, x in enumerate(row))


def _kernel_io(ctx, n):
    """(kernel, pack, unpack, pivot column) for rows of F_q^n, packing and
    unpacking written out one entry at a time."""
    if ctx.q == 2:
        return (
            matfq._F2Rows,
            _pack,
            lambda v: [v >> j & 1 for j in range(n)],
            lambda low: low.bit_length() - 1,
        )
    if ctx.q == 3:
        return (
            matfq._F3Rows,
            lambda row: (_pack([x == 1 for x in row]), _pack([x == 2 for x in row])),
            lambda v: [(v[0] >> j & 1) + 2 * (v[1] >> j & 1) for j in range(n)],
            lambda low: low.bit_length() - 1,
        )
    if ctx.p == 2:
        e = ctx.e
        return (
            matfq._Gf2eRows(ctx, n),
            lambda row: sum(x << e * j for j, x in enumerate(row)),
            lambda v: [v >> e * j & (ctx.q - 1) for j in range(n)],
            lambda shift: shift // e,
        )
    return matfq._ListRows(ctx), tuple, list, lambda col: col


@ALL_FIELDS
def test_packed_kernels_match_echelon(ctx):
    # products L R of rank at most r, so dependent and zero rows occur, and
    # square ones of full rank; past 64 bits a packed row spans machine words
    rng = random.Random(73 + ctx.q)
    widths = (1, 3, 8, 20, 70) if ctx.q == 2 else (1, 2, 5, 12, 40)
    full = zero = 0
    for trial in range(120):
        n = rng.choice(widths)
        m, r = (n, n) if trial % 6 == 0 else (rng.randint(0, 12), rng.randint(0, 12))
        left = [[rng.randrange(ctx.q) for _ in range(r)] for _ in range(m)]
        right = [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(r)]
        rows = [[_brute_dot(ctx, row, col) for col in zip(*right)] for row in left]
        kernel, pack, unpack, column = _kernel_io(ctx, n)
        packed = [pack(row) for row in rows]
        want = matfq._echelon(rows, n, ctx)
        got = kernel.echelon(packed, n)
        assert len(got) == len(want) == brute_rank(ctx, rows)
        full += len(got) == n
        zero += [0] * n in rows
        assert [column(piv) for piv, _ in got] == [col for col, _ in want]
        assert [unpack(p) for _, p in got] == [row for _, row in want]
        # the kernel reads back what it packed, whole or any range of entries
        lo, hi = sorted(rng.randint(0, n) for _ in range(2))
        for row, p in zip(rows, packed):
            if r:  # with r = 0 the rows are empty
                assert kernel.unpack(p, 0, n) == tuple(row)
                assert kernel.unpack(p, lo, hi) == tuple(row[lo:hi])
        # extending a start is one-shot elimination and leaves the start as it was
        cut = rng.randint(0, m)
        start = kernel.echelon(packed[:cut], n)
        kept = list(start)
        assert kernel.echelon(packed[cut:], n, start) == got
        assert start == kept
        # elimination stops at ncols: a row past full rank is never reduced
        if got:
            top = len(got)
            assert kernel.echelon(packed + [None], top) == got
            assert matfq._echelon(rows + [None], top, ctx) == want
            assert len(kernel.echelon(packed, top - 1)) == top - 1
        # the column arithmetic Meet builds G·h with: every multiple of one
        # vector, a sum with a zero coefficient, and the empty sum, every
        # coefficient zero (a list row takes its length from the vectors)
        u, v, w = ([rng.randrange(ctx.q) for _ in range(n)] for _ in range(3))
        for c in range(ctx.q):
            assert unpack(kernel.combine([c], [pack(u)])) == [ctx.mul(c, x) for x in u]
        coeffs = [rng.randrange(1, ctx.q), 0, rng.randrange(ctx.q)]
        total = [
            reduce(ctx.add, [ctx.mul(c, x) for c, x in zip(coeffs, entries)], 0)
            for entries in zip(u, v, w)
        ]
        assert unpack(kernel.combine(coeffs, [pack(u), pack(v), pack(w)])) == total
        assert unpack(kernel.combine([0, 0], [pack(u), pack(v)])) == [0] * n
    assert full and zero


def test_one_picker_gives_each_field_its_kernel():
    assert matfq._row_kernel(F2, 4) is matfq._F2Rows
    assert matfq._row_kernel(F3, 4) is matfq._F3Rows
    for ctx in (F4, F8, F16):
        assert isinstance(matfq._row_kernel(ctx, 4), matfq._Gf2eRows)
    for ctx in (F5, F9):
        assert isinstance(matfq._row_kernel(ctx, 4), matfq._ListRows)


def test_gf2e_kernel_forms_a_scalar_only_when_a_reduction_meets_it(monkeypatch):
    # the kernel used to form c x^i for every c and every inverse up front:
    # q e products and q - 1 inverses, 25 ms at q = 2^14 even for the zero code
    ctx = FieldContext(2, 14)
    calls = []
    for name in ("mul", "inv", "add", "sub", "neg"):
        real = getattr(FieldContext, name)
        monkeypatch.setattr(
            FieldContext, name, lambda self, *a, _f=real, _n=name: calls.append(_n) or _f(self, *a)
        )
    kernel = matfq._Gf2eRows(ctx, 5)
    assert len(calls) <= ctx.e
    rng = random.Random(137)
    rows = [[rng.randrange(ctx.q) for _ in range(5)] for _ in range(4)]
    calls.clear()
    got = kernel.echelon([kernel.pack(row) for row in rows], 5)
    formed = calls.count("mul")
    # at most one row of e products per scalar met, at most 4 * 5 of them
    assert formed % ctx.e == 0 and formed <= 20 * ctx.e
    want = matfq._echelon(rows, 5, ctx)
    assert [kernel.unpack(p, 0, 5) for _, p in got] == [tuple(r) for _, r in want]
    # a second pass meets the same scalars and forms none of them again
    calls.clear()
    kernel.echelon([kernel.pack(row) for row in rows], 5)
    assert calls.count("mul") == 0


@ALL_FIELDS
def test_reduce_against_matches_the_per_entry_reference(ctx):
    rng = random.Random(53 + ctx.q)
    for sp in _random_subspaces(rng, ctx, 40):
        for _ in range(5):
            vec = tuple(rng.randrange(ctx.q) for _ in range(sp.ambient))
            coeffs, rem = reduce_against(vec, sp.basis, sp.pivots, ctx)
            assert (list(coeffs), rem) == reduce_against_reference(
                ctx, vec, sp.basis, sp.pivots
            )


def _kernel_pairing(ctx, x, y):
    """The trace pairing of x and y, matrices or tuples, as one product:
    x's flattened row against y's entries, each a one-entry row."""
    return _products(ctx, [x.flatten()], [(v,) for v in y.flatten()], 1)[0][0]


def _entrywise(op, *mats):
    """op applied entry by entry to matrices of one shape, as lists."""
    return [[op(*xs) for xs in zip(*rows)] for rows in zip(*(mat.rows for mat in mats))]


@ALL_FIELDS
def test_products_and_pairings_match_brute_sums(ctx):
    rng = random.Random(59 + ctx.q)
    for trial in range(30):
        # every tenth product is wide: its rows pass 64 bits in every packed layout
        wide = trial % 10 == 9
        m, k = rng.randint(1, 4), rng.randint(1, 4)
        n = rng.randint(65, 70) if wide else rng.randint(1, 4)
        a, b = random_matrix(rng, ctx, m, k), random_matrix(rng, ctx, k, n)
        want = [
            [_brute_dot(ctx, a.rows[i], [b.rows[t][j] for t in range(k)]) for j in range(n)]
            for i in range(m)
        ]
        assert (a @ b).to_lists() == want
        c = random_matrix(rng, ctx, m, k)
        assert _kernel_pairing(ctx, a, c) == _brute_dot(ctx, a.flatten(), c.flatten())
        d = random_matrix(rng, ctx, k, n)
        assert _kernel_pairing(ctx, b, d) == _brute_dot(ctx, b.flatten(), d.flatten())
        # sums, differences, negations and scalings, against the context entry by entry
        assert (b + d).to_lists() == _entrywise(ctx.add, b, d)
        assert (b - d).to_lists() == _entrywise(ctx.sub, b, d)
        assert (-b).to_lists() == _entrywise(ctx.neg, b)
        for s in {0, 1, ctx.q - 1, rng.randrange(ctx.q)}:
            assert b.scale(s).to_lists() == _entrywise(lambda x: ctx.mul(s, x), b)
    for _ in range(20):
        shape = random_shape(rng)
        d, c = (
            MatrixTuple.from_flat(
                shape, ctx, [rng.randrange(ctx.q) for _ in range(shape.ambient_dim)]
            )
            for _ in range(2)
        )
        assert _kernel_pairing(ctx, d, c) == _brute_dot(ctx, d.flatten(), c.flatten())
        assert (d + c).flatten() == tuple(map(ctx.add, d.flatten(), c.flatten()))
        assert (d - c).flatten() == tuple(map(ctx.sub, d.flatten(), c.flatten()))


@ALL_FIELDS
def test_observe_flat_matches_brute_sums(ctx):
    rng = random.Random(61 + ctx.q)
    for _ in range(20):
        shape = random_shape(rng)
        code = LinearCode(shape, ctx, [[1] + [0] * (shape.ambient_dim - 1)])
        taps = [
            random_matrix(rng, ctx, nn, rng.randint(1, nn + 1)) if rng.random() < 0.8 else None
            for nn in shape.n
        ]
        scen = WiretapScenario(code, taps)
        flat = [rng.randrange(ctx.q) for _ in range(shape.ambient_dim)]
        want = []
        for blk, tap in zip(MatrixTuple.from_flat(shape, ctx, flat).blocks, taps):
            if tap is not None:
                for row in blk.rows:
                    want.extend(_brute_dot(ctx, row, col) for col in zip(*tap.rows))
        assert scen.observe_flat(flat) == tuple(want)
