"""Line covers of pivot patterns and low-rank coset escapes.

Positions handed to and returned from this module are 1-based (row,
column) pairs, matching the usual matrix convention; everything else in
the package indexes from 0.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

from .code import LinearCode
from .errors import (
    AInV,
    ContextMismatch,
    DimensionMismatch,
    DimensionTooSmall,
    InvariantViolation,
    RankOutOfRange,
    SearchExhausted,
    ShapeMismatch,
    ZeroMatrix,
    _record,
)
from .matfq import MatrixFq, _products, reduce_against

__all__ = [
    "leading_position",
    "CoverResult",
    "covering_number",
    "MeshulamResult",
    "meshulam_search",
    "CosetWitness",
    "coset_rank_lower",
    "coset_witness_exact",
]

WITNESS_CAP = 1 << 20
WITNESS_ATTEMPTS = 200_000


def leading_position(mat: MatrixFq) -> Tuple[int, int]:
    """The lexicographically least nonzero position of mat, 1-based."""
    for i, row in enumerate(mat.rows):
        for j, x in enumerate(row):
            if x:
                return (i + 1, j + 1)
    raise ZeroMatrix("the zero matrix has no nonzero position")


@_record
class CoverResult:
    """Minimum line cover size of a pivot pattern with a matched witness set.

    pivots are 1-based positions with pairwise distinct rows and columns;
    witnesses[j] is the least index of an input matrix whose leading
    position is pivots[j].
    """

    rho: int
    pivots: Tuple[Tuple[int, int], ...]
    witnesses: Tuple[int, ...]


def _check_collection(mats: Sequence[MatrixFq]) -> None:
    if not mats:
        raise DimensionMismatch("empty matrix collection")
    first = mats[0]
    for mat in mats:
        if mat.ctx != first.ctx:
            raise ContextMismatch("matrices over different field contexts")
        if mat.m != first.m or mat.n != first.n:
            raise ShapeMismatch("matrices of different dimensions")
        if mat.is_zero():
            raise ZeroMatrix("collections must consist of nonzero matrices")


def covering_number(mats: Sequence[MatrixFq]) -> CoverResult:
    """Minimum number of lines covering the leading-position pattern.

    By Koenig's theorem this equals a maximum matching of the pattern's
    bipartite row/column graph, computed here with augmenting paths; the
    matched positions form an independent set of the same size.
    """
    _check_collection(mats)
    first_witness = {}
    for idx, mat in enumerate(mats):
        pos = leading_position(mat)
        if pos not in first_witness:
            first_witness[pos] = idx
    pattern = sorted(first_witness)
    rows = sorted({r for r, _ in pattern})
    adj = {r: [c for rr, c in pattern if rr == r] for r in rows}
    match_col: dict = {}
    for r in rows:
        _augment(adj, match_col, r, set())
    pivots = tuple(sorted((r, c) for c, r in match_col.items()))
    witnesses = tuple(first_witness[p] for p in pivots)
    return CoverResult(len(pivots), pivots, witnesses)


def _augment(adj: dict, match_col: dict, r: int, seen: set) -> bool:
    """Match row r by an augmenting path avoiding the columns seen, as deep as the matching."""
    for c in adj[r]:
        if c not in seen:
            seen.add(c)
            if c not in match_col or _augment(adj, match_col, match_col[c], seen):
                match_col[c] = r
                return True
    return False


@_record
class MeshulamResult:
    coeffs: Tuple[int, ...]
    achieved_rank: int
    rho: int


def _leading_minor_nonsingular(mat: MatrixFq, k: int) -> bool:
    return mat.submatrix(range(k), range(k)).rank() == k


def _combinations(coeffs: Sequence[Sequence[int]], mats: Sequence[MatrixFq]) -> List[MatrixFq]:
    """sum_i c_i mats[i] for each coefficient row c, all from one product of
    the rows c with the flattened matrices."""
    ctx, m, n = mats[0].ctx, mats[0].m, mats[0].n
    flats = _products(ctx, coeffs, [mat.flatten() for mat in mats], m * n)
    return [MatrixFq(ctx, [flat[i : i + n] for i in range(0, m * n, n)]) for flat in flats]


def _shift(a: MatrixFq, coeffs: Sequence[int], mats: Sequence[MatrixFq]) -> MatrixFq:
    """a + sum of the mats[i] with coeffs[i] = 1."""
    return _combinations([(1, *coeffs)], [a, *mats])[0]


def meshulam_search(a: MatrixFq, mats: Sequence[MatrixFq]) -> MeshulamResult:
    """0/1 coefficients x with rank(a + sum x_i mats[i]) >= covering number.

    Follows the constructive argument: restrict the matched witnesses to
    the pivot rows and columns, change basis so the restricted matrices
    gain staircase form, then choose each coefficient by a leading-minor
    test.  The guarantee is asserted on every call.
    """
    _check_collection(mats)
    if a.ctx != mats[0].ctx:
        raise ContextMismatch("a lives in a different field context")
    if a.m != mats[0].m or a.n != mats[0].n:
        raise ShapeMismatch("a has different dimensions")
    cover = covering_number(mats)
    r = cover.rho
    ctx = a.ctx
    # pivots sorted by row; column order inside the submatrix is sorted too
    srows = [p[0] - 1 for p in cover.pivots]
    scols = sorted(p[1] - 1 for p in cover.pivots)
    bmats = [mats[w].submatrix(srows, scols) for w in cover.witnesses]
    cmat = MatrixFq(ctx, [bmats[j].rows[j] for j in range(r)])
    cinv = cmat.inverse()
    dmats = [b @ cinv for b in bmats]
    running = a.submatrix(srows, scols) @ cinv
    xs = []
    for j in range(r):
        if _leading_minor_nonsingular(running, j + 1):
            xs.append(0)
        else:
            running = running + dmats[j]
            xs.append(1)
            if not _leading_minor_nonsingular(running, j + 1):
                raise InvariantViolation(f"leading minor {j + 1} stayed singular")
    coeffs = [0] * len(mats)
    for j, w in enumerate(cover.witnesses):
        coeffs[w] = xs[j]
    achieved = _shift(a, coeffs, mats).rank()
    if achieved < r:
        raise InvariantViolation("guaranteed rank bound failed")
    return MeshulamResult(tuple(coeffs), achieved, r)


@_record
class CosetWitness:
    matrix: MatrixFq
    achieved_rank: int
    method: str


def _single_block_matrices(v: LinearCode) -> List[MatrixFq]:
    """The basis of v as matrices; every caller has checked v with _coset_block."""
    return [t.blocks[0] for t in v.basis_tuples()]


def _coset_block(a: MatrixFq, v: LinearCode, t: int) -> Tuple[int, int]:
    """The block size (m, n) of v, after checking a, v and t against each other."""
    if v.shape.ell != 1:
        raise ShapeMismatch("expected a single-block code")
    m, n = v.shape.m[0], v.shape.n[0]
    if m < n:
        raise ShapeMismatch("requires m >= n")
    if not 0 <= t < n:
        raise RankOutOfRange(f"t = {t} out of range for n = {n}")
    if a.ctx != v.ctx:
        raise ContextMismatch("a lives in a different field context")
    if a.m != m or a.n != n:
        raise ShapeMismatch("a has different dimensions")
    return m, n


def coset_rank_lower(a: MatrixFq, v: LinearCode, t: int) -> CosetWitness:
    """Some b in v with rank(a + b) >= t + 1, given dim(v) > m t.

    The canonical basis of v already has pairwise distinct leading
    positions, so the covering number of its pattern is at least t + 1
    and the 0/1 search applies directly.
    """
    m, n = _coset_block(a, v, t)
    if v.dim <= m * t:
        raise DimensionTooSmall(f"dim = {v.dim} must exceed m t = {m * t}")
    mats = _single_block_matrices(v)
    res = meshulam_search(a, mats)
    if res.rho < t + 1:
        raise InvariantViolation("distinct leading positions must cover t + 1")
    total = _shift(a, res.coeffs, mats)
    b = total - a
    achieved = total.rank()
    if achieved < t + 1:
        raise InvariantViolation("guaranteed rank bound failed")
    return CosetWitness(b, achieved, "meshulam")


def coset_witness_exact(
    a: MatrixFq,
    v: LinearCode,
    t: int,
    cap: int = WITNESS_CAP,
    seed: int = 0,
) -> CosetWitness:
    """Some b in v with rank(a + b) >= t + 1 when dim(v) = m t exactly.

    Existence is guaranteed for a outside v whenever q is odd, or t != 1,
    or rank(a) > t.  Over F_2 with t = 1 it can genuinely fail: the coset
    {[[x, y], [0, x + 1]]} of span{I, E_12} consists of singular matrices
    only, because x^2 + x vanishes on all of F_2.  A cheap deterministic
    attempt goes through the 0/1 search on span(a) + v; when that lands
    back inside v the search falls over to exhaustion of v (under the cap)
    and then to seeded random sampling.  Running out of candidates raises
    SearchExhausted: outside the F_2, t = 1 corner that always signals a
    bug, inside it a complete exhaustion is a proof that no escape exists.
    """
    m, n = _coset_block(a, v, t)
    if v.dim != m * t:
        raise DimensionMismatch(f"dim = {v.dim} must equal m t = {m * t}")
    ctx = a.ctx
    a_flat = a.flatten()
    if v.contains_flat(a_flat):
        raise AInV("a lies in v, no coset escape exists")
    if t == 0:
        return CosetWitness(MatrixFq.zero(ctx, m, n), a.rank(), "trivial")

    # deterministic attempt through the enlarged space span(a) + v
    vbar = LinearCode(v.shape, ctx, [a_flat] + list(v.rows))
    mats = _single_block_matrices(vbar)
    total = _shift(a, meshulam_search(a, mats).coeffs, mats)
    tot_flat = total.flatten()
    rem_a = reduce_against(a_flat, v.rows, v.pivots, ctx)[1]
    rem_t = reduce_against(tot_flat, v.rows, v.pivots, ctx)[1]
    j = next(i for i, x in enumerate(rem_a) if x)
    c = ctx.div(rem_t[j], rem_a[j])
    if c != 0 and total.rank() >= t + 1:
        scaled = total.scale(ctx.inv(c))
        b = scaled - a
        if v.contains_flat(b.flatten()):
            achieved = scaled.rank()
            if achieved >= t + 1:
                return CosetWitness(b, achieved, "meshulam")

    if ctx.q ** v.dim <= cap:
        lines = v.shape.lines(0, "col")
        for flat in v.iter_flat(include_zero=True):
            b = MatrixFq(ctx, [flat[line.start : line.stop] for line in lines])
            achieved = (a + b).rank()
            if achieved >= t + 1:
                return CosetWitness(b, achieved, "exhaustive")
        if ctx.q == 2 and t == 1:
            raise SearchExhausted(
                "the coset holds no matrix of rank above t; escapes over"
                " F_2 with t = 1 are not guaranteed"
            )
        raise SearchExhausted("exhaustion of v found no witness")

    rng = random.Random(seed)
    basis = _single_block_matrices(v)
    for _ in range(WITNESS_ATTEMPTS):
        cs = [rng.randrange(ctx.q) for _ in basis]
        b, total = _combinations([(0, *cs), (1, *cs)], [a, *basis])
        achieved = total.rank()
        if achieved >= t + 1:
            return CosetWitness(b, achieved, "random")
    raise SearchExhausted(f"no witness after {WITNESS_ATTEMPTS} random samples")
