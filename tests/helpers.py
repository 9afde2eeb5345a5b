"""Shared builders and independent brute-force oracles for the suite.

Everything random goes through an explicit Random instance so every test
is reproducible from its literal seed.  The oracles here deliberately
avoid the library's theorem-backed code paths: they enumerate.
"""

import math
import random
from collections import Counter
from functools import lru_cache, reduce
from itertools import combinations, product as iter_product
from typing import List, Optional, Sequence, Tuple

from sumrank import (
    FieldContext,
    Isometry,
    LinearCode,
    MatrixFq,
    MatrixTuple,
    Shape,
    admissible_permutations,
    dim_decomposition,
    enumerate_anticodes,
    r_mu,
    singleton_distance_bound,
)
from sumrank.anticode import Meet
from sumrank.errors import TrivialCode
from sumrank.matfq import _echelon, _row_kernel, rank_rows
from sumrank.msrd import _column_window_descriptor

F2 = FieldContext(2, 1)
F3 = FieldContext(3, 1)
F4 = FieldContext(2, 2)
F5 = FieldContext(5, 1)
F8 = FieldContext(2, 3)
F9 = FieldContext(3, 2)


def random_shape(
    rng: random.Random,
    max_ell: int = 3,
    max_m: int = 3,
    cols_below_rows: bool = False,
) -> Shape:
    """A random strict shape; cols_below_rows forces n_i < m_i per block."""
    ell = rng.randint(1, max_ell)
    low = 2 if cols_below_rows else 1
    m = sorted((rng.randint(low, max_m) for _ in range(ell)), reverse=True)
    if cols_below_rows:
        n = [rng.randint(1, mi - 1) for mi in m]
    else:
        n = [rng.randint(1, mi) for mi in m]
    return Shape(tuple(m), tuple(n))


def random_code(
    rng: random.Random, ctx: FieldContext, shape: Shape, target_dim: int
) -> LinearCode:
    """Span of target_dim random vectors; the dim may land below the target."""
    rows = [
        tuple(rng.randrange(ctx.q) for _ in range(shape.ambient_dim))
        for _ in range(target_dim)
    ]
    return LinearCode(shape, ctx, rows)


def random_matrix(rng: random.Random, ctx: FieldContext, m: int, n: int) -> MatrixFq:
    return MatrixFq(ctx, [[rng.randrange(ctx.q) for _ in range(n)] for _ in range(m)])


def random_nonzero_matrix(rng, ctx, m, n) -> MatrixFq:
    while True:
        mat = random_matrix(rng, ctx, m, n)
        if not mat.is_zero():
            return mat


# ------------------------------------------------------------- brute oracles


def brute_rank(ctx: FieldContext, rows: Sequence[Sequence[int]]) -> int:
    """Rank by Gaussian elimination written out longhand, no library calls."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            col += 1
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = ctx.inv(work[rank][col])
        work[rank] = [ctx.mul(inv, x) for x in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                c = work[i][col]
                work[i] = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(work[i], work[rank])]
        rank += 1
        col += 1
    return rank


def reduce_against_reference(
    ctx: FieldContext,
    vec: Sequence[int],
    basis: Sequence[Sequence[int]],
    pivots: Sequence[int],
):
    """(coefficients, remainder) of vec against an RREF basis, one entry at a
    time: each basis row is subtracted at every position, zeros included."""
    rem = list(vec)
    coeffs = []
    for row, p in zip(basis, pivots):
        c = rem[p]
        coeffs.append(c)
        rem = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(rem, row)]
    return coeffs, tuple(rem)


def list_rref(rows: Sequence[Sequence[int]], ncols: int, ctx: FieldContext):
    """(rows, pivots) of the RREF on list rows, as matfq.rref computed it
    before it ran on the row kernels: forward elimination by matfq._echelon,
    then each row, last pivot first, cleared one entry at a time at the
    pivots of the rows done so far."""
    done = []
    for col, row in sorted(_echelon(rows, ncols, ctx), reverse=True):
        for p, prow in done:
            c = row[p]
            if c:
                row = [ctx.sub(x, ctx.mul(c, y)) for x, y in zip(row, prow)]
        done.append((col, row))
    return [tuple(r) for _, r in reversed(done)], [c for c, _ in reversed(done)]


def span_vectors(
    ctx: FieldContext, basis: Sequence[Sequence[int]], width: Optional[int] = None
) -> frozenset:
    """Every vector in the span, as a frozenset of tuples."""
    if width is None:
        width = len(basis[0]) if basis else 0
    out = {(0,) * width}
    for vec in basis:
        nxt = set()
        for c in range(ctx.q):
            scaled = tuple(ctx.mul(c, x) for x in vec)
            for w in out:
                nxt.add(tuple(ctx.add(a, b) for a, b in zip(w, scaled)))
        out = nxt
    return frozenset(out)


def brute_mi(scenario, messages: Sequence[Sequence[int]]) -> int:
    """I_q(M; W) in base-q symbols, M uniform on the span of messages and
    the noise uniform on the scenario's code: every (message, codeword)
    pair is sent once and its view counted through observe_flat."""
    code = scenario.code
    ctx, width = code.ctx, code.ambient_dim
    space = span_vectors(ctx, messages, width)
    noise = span_vectors(ctx, code.rows, width)
    joint = Counter(
        (m, scenario.observe_flat([ctx.add(a, b) for a, b in zip(m, c)]))
        for m in space
        for c in noise
    )
    views: Counter = Counter()
    for (_, w), count in joint.items():
        views[w] += count
    # p(m, w) / (p(m) p(w)) = count * |messages| / views[w]
    total = len(space) * len(noise)
    value = sum(
        count / total * math.log(count * len(space) / views[w], ctx.q)
        for (_, w), count in joint.items()
    )
    if abs(value - round(value)) > 1e-9:
        raise AssertionError(f"mutual information {value} is not an integer")
    return round(value)


def list_meet(code: LinearCode, desc) -> int:
    """dim(C ∩ A) as dim C - rank(G·H) on list rows: G the code's basis,
    H the parity checks of the materialized anticode, each G·h entry summed
    through the context, and the rank taken by rank_rows."""
    ctx = code.ctx
    cols = [
        [reduce(ctx.add, (ctx.mul(x, y) for x, y in zip(g, h)), 0) for g in code.rows]
        for h in desc.materialize().dual().rows
    ]
    return code.dim - rank_rows(cols, code.dim, ctx)


def pool_reference(code: LinearCode, i: int, kind: str, bases) -> list:
    """(echelon, its rows) of the columns G·h for each check basis in bases,
    as Meet built a pool before it kept check images: the lines sliced from
    the packed columns afresh, one combine per (line, check row), line by
    line, and one echelon per basis."""
    kernel, kdim = _row_kernel(code.ctx, code.dim), code.dim
    if not kdim:
        return [([], []) for _ in bases]
    packed = [kernel.pack(col) for col in zip(*code.rows)]
    lines = [packed[ln.start : ln.stop : ln.step] for ln in code.shape.lines(i, kind)]
    out = []
    for checks in bases:
        pairs = kernel.echelon([kernel.combine(h, vecs) for vecs in lines for h in checks], kdim)
        out.append((pairs, [row for _, row in pairs]))
    return out


def brute_min_cover(points: Sequence[Tuple[int, int]]) -> int:
    """Smallest set of rows and columns covering every point."""
    pts = sorted(set(points))
    lines = [("r", r) for r in {p[0] for p in pts}]
    lines += [("c", c) for c in {p[1] for p in pts}]
    for size in range(len(lines) + 1):
        for chosen in combinations(lines, size):
            taken = set(chosen)
            if all(("r", r) in taken or ("c", c) in taken for r, c in pts):
                return size
    raise AssertionError("unreachable")


def brute_best_01_rank(a: MatrixFq, mats: Sequence[MatrixFq]) -> int:
    """Max rank of a + sum of a 0/1 subset, fully enumerated."""
    best = 0
    for xs in iter_product((0, 1), repeat=len(mats)):
        total = a
        for x, mat in zip(xs, mats):
            if x:
                total = total + mat
        best = max(best, total.rank())
    return best


def hamming_generalized_weights(code: LinearCode) -> Tuple[int, ...]:
    """Classical GHW hierarchy by enumerating r-generated subcodes.

    Valid on shapes with every block 1x1, where srk is Hamming weight.
    d_r = min support size over r-dimensional subcodes.
    """
    ctx = code.ctx
    words = list(code.iter_flat(include_zero=False))
    out = []
    for r in range(1, code.dim + 1):
        best = None
        for gens in combinations(words, r):
            if brute_rank(ctx, gens) != r:
                continue
            supp = set()
            for w in span_vectors(ctx, gens):
                supp.update(i for i, x in enumerate(w) if x)
            size = len(supp)
            if best is None or size < best:
                best = size
        assert best is not None
        out.append(best)
    return tuple(out)


def max_hamming_weight(space) -> int:
    """Largest Hamming weight of a word of space, by a walk of all q^dim."""
    return max(len(v) - v.count(0) for v in space.vectors())


def brute_optimal_tails(ctx: FieldContext, t: int) -> list:
    """Subspaces of F_q^t whose dimension equals their largest Hamming
    weight: every subspace, by dimension in enumerate_subspaces order, kept
    when a walk of its words finds no heavier word."""
    from sumrank import enumerate_subspaces

    subs = (sub for u in range(t + 1) for sub in enumerate_subspaces(ctx, t, u))
    return [sub for sub in subs if max_hamming_weight(sub) == sub.dim]


def exhaustive_gen_weight(code: LinearCode, r: int) -> int:
    """d_r straight from the definition: every product anticode, materialized.

    Enumerates per-block support choices (column supports, plus row
    supports on square blocks) without going through the library's
    composition machinery.
    """
    from sumrank import enumerate_subspaces

    shape, ctx = code.shape, code.ctx
    per_block: List[List[Tuple[int, List[Tuple[int, ...]]]]] = []
    for i in range(shape.ell):
        mm, nn = shape.m[i], shape.n[i]
        options = []
        for u in range(nn + 1):
            for sp in enumerate_subspaces(ctx, nn, u):
                rows = _col_support_rows(shape, i, sp.basis, mm, nn)
                options.append((u, rows))
            if 0 < u < nn and mm == nn:
                for sp in enumerate_subspaces(ctx, mm, u):
                    rows = _row_support_rows(shape, i, sp.basis, mm, nn)
                    options.append((u, rows))
        per_block.append(options)
    best = None
    for combo in iter_product(*per_block):
        weight = sum(u for u, _ in combo)
        if best is not None and weight >= best:
            continue
        rows = [row for _, block_rows in combo for row in block_rows]
        anticode = LinearCode(shape, ctx, rows) if rows else LinearCode.zero(shape, ctx)
        if code.intersect(anticode).dim >= r:
            best = weight
    assert best is not None, "the full space is always feasible"
    return best


def _col_support_rows(shape, i, basis, mm, nn):
    off = shape.block_offsets()[i]
    out = []
    for vec in basis:
        for r in range(mm):
            flat = [0] * shape.ambient_dim
            flat[off + r * nn : off + (r + 1) * nn] = list(vec)
            out.append(tuple(flat))
    return out


def _row_support_rows(shape, i, basis, mm, nn):
    off = shape.block_offsets()[i]
    out = []
    for vec in basis:
        for c in range(nn):
            flat = [0] * shape.ambient_dim
            for r in range(mm):
                flat[off + r * nn + c] = vec[r]
            out.append(tuple(flat))
    return out


@lru_cache(maxsize=None)
def gl_group_reference(ctx: FieldContext, n: int) -> Tuple[MatrixFq, ...]:
    """GL(n, F_q) by rejection: every n x n matrix in row-major counter order
    (first entry slowest), kept when brute_rank finds it invertible."""
    out = []
    for entries in iter_product(range(ctx.q), repeat=n * n):
        rows = [entries[i * n : (i + 1) * n] for i in range(n)]
        if brute_rank(ctx, rows) == n:
            out.append(MatrixFq(ctx, rows))
    return tuple(out)


def _pairing(ctx: FieldContext, u: Sequence[int], v: Sequence[int]) -> int:
    return reduce(ctx.add, [ctx.mul(a, b) for a, b in zip(u, v)], 0)


def left_equations(ctx, sizes, checks, images, right):
    """Rows of the linear system in (M_1, ..., M_l) for fixed right factors,
    one entry per context call, as equivalent_codes built it on list rows.

    images[x][j] is op(X_sigma(j)) for basis tuple x and checks[h][j] is block
    j of parity check h, both as row tuples.  The unknown M_j[a][c] has
    coefficient (Y_j H_j^T)[c][a] with Y_j = op(X_sigma(j)) N_j, so equation
    (x, h) says that the image of x has zero pairing with h.
    """
    right_cols = [tuple(zip(*n.rows)) for n in right]
    ys = [
        [
            [tuple(_pairing(ctx, row, col) for col in cols) for row in blk]
            for blk, cols in zip(x, right_cols)
        ]
        for x in images
    ]
    rows = []
    for y in ys:
        for h in checks:
            eq = []
            for j, mm in enumerate(sizes):
                hj, yj = h[j], y[j]
                for a in range(mm):
                    eq.extend(_pairing(ctx, hj[a], yj[c]) for c in range(mm))
            rows.append(eq)
    return rows


def brute_equivalence(first: LinearCode, second: LinearCode, all_witnesses: bool = False):
    """Isometry search over both GL factors, one code image per isometry.

    Walks permutations, transpose masks, left tuples and then right tuples
    (block 0 slowest), so the first witness is the least in that order.
    Returns that witness or None; with all_witnesses, every witness in
    walk order.  The GL pools come from gl_group_reference, so no part of
    the search's pruned walk of invertible points is shared.
    """
    shape, ctx = first.shape, first.ctx
    found = []
    if first.dim != second.dim:
        return found if all_witnesses else None
    ell = shape.ell
    squares = [j for j in range(ell) if shape.m[j] == shape.n[j]]
    masks = [
        tuple(j in squares and bool(bits >> squares.index(j) & 1) for j in range(ell))
        for bits in range(1 << len(squares))
    ]
    basis = first.basis_tuples()
    left_pools = [gl_group_reference(ctx, m) for m in shape.m]
    right_pools = [gl_group_reference(ctx, n) for n in shape.n]
    for sigma in admissible_permutations(shape):
        for mask in masks:
            blocks_in = [
                [
                    b.blocks[sigma[j]].transpose() if mask[j] else b.blocks[sigma[j]]
                    for j in range(ell)
                ]
                for b in basis
            ]
            for left in iter_product(*left_pools):
                half = [[left[j] @ x for j, x in enumerate(row)] for row in blocks_in]
                for right in iter_product(*right_pools):
                    image = LinearCode.from_tuples(
                        shape,
                        ctx,
                        [
                            MatrixTuple(shape, [x @ right[j] for j, x in enumerate(row)])
                            for row in half
                        ],
                    )
                    if image == second:
                        phi = Isometry(shape, ctx, sigma, mask, left, right)
                        if not all_witnesses:
                            return phi
                        found.append(phi)
    return found if all_witnesses else None


# ------------------------------------------------------ flat family sweeps
#
# The sweeps as they ran before the pruned walker: every member of the
# family at every weight becomes a descriptor and gets its own Meet.dim,
# with no cut.  Each stops, and so refuses a cap, where the library's
# sweeps must: the members are generated lazily, so a family's size is
# only checked once the loop reaches it.

FAMILY_CAP = 10**6


def flat_family(ctx, shape, mu, variant, cap=FAMILY_CAP):
    return enumerate_anticodes(ctx, shape, mu, variant, cap)


def flat_weights(code, variant="product", cap=FAMILY_CAP):
    """d_1..d_k: ascending mu, every member, until every rank is met."""
    meet, weights = Meet(code), []
    for mu in range(1, code.shape.ncols + 1):
        if len(weights) == code.dim:
            break
        for desc in flat_family(code.ctx, code.shape, mu, variant, cap):
            weights += [mu] * (meet.dim(desc) - len(weights))
            if len(weights) == code.dim:
                break
    return tuple(weights)


def flat_gen_weight(code, r, variant="product", cap=FAMILY_CAP):
    """d_r: the weight of the first member meeting the code in r dims."""
    meet = Meet(code)
    for mu in range(1, code.shape.ncols + 1):
        for desc in flat_family(code.ctx, code.shape, mu, variant, cap):
            if meet.dim(desc) >= r:
                return mu
    raise AssertionError("the full space meets every rank demand")


def flat_leakage(code, mu, cap=FAMILY_CAP):
    """Largest meet of the dual with a support product of mu columns."""
    meet = Meet(code.dual())
    family = flat_family(code.ctx, code.shape, mu, "support", cap)
    return max((meet.dim(desc) for desc in family), default=0)


def flat_msrd_report(code, cap=FAMILY_CAP):
    """msrd_check(code).to_dict(), every criterion by a flat family loop."""
    shape, ctx = code.shape, code.ctx
    if code.dim == 0:
        raise TrivialCode("the zero code has no distance")
    code.check_dual_size(cap)  # c3 reads the dual, refused past the cap first
    d = flat_gen_weight(code, 1, "product", cap)
    j, delta, s = dim_decomposition(shape, code.dim)
    meet = Meet(code)
    if d == 1:
        c0 = code.dim == shape.ambient_dim
    else:
        target = r_mu(shape, d - 1)
        c0 = all(
            code.dim + target - meet.dim(desc) == shape.ambient_dim
            for desc in flat_family(ctx, shape, d - 1, "all", cap)
            if desc.dim() == target
        )
    c1 = s == 0 and not any(
        meet.dim(desc)
        for mu in range(1, sum(shape.n[:j]) + delta + 1)
        for desc in flat_family(ctx, shape, mu, "all", cap)
    )
    c2 = all(
        meet.dim(desc) >= shape.m[max(i for i, b in enumerate(desc.blocks) if b.space.dim)]
        for desc in flat_family(ctx, shape, d, "product", cap)
    )
    window = all(
        meet.dim(_column_window_descriptor(shape, ctx, frozenset(range(1, d)) | {h}))
        == shape.m[shape.block_of_column(h)]
        for h in range(d, shape.ncols + 1)
    )
    dual = code.dual()
    dual_d = flat_gen_weight(dual, 1, "product", cap) if dual.dim else None
    bound = singleton_distance_bound(shape, code.dim)
    return {
        "dim": code.dim,
        "distance": d,
        "distance_bound": bound,
        "block": j,
        "delta": delta,
        "remainder": s,
        "is_msrd": s == 0 and d == bound,
        "criteria": {
            "c0": c0,
            "c1": c1,
            "c2": c2,
            "c3": None if dual_d is None else d + dual_d == shape.ncols + 2,
            "column_window": window,
        },
        "equal_rows": all(m == shape.m[0] for m in shape.m),
        "dual_distance": dual_d,
    }
