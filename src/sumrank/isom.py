"""Sum-rank isometries: block permutations, two-sided GL actions, transposes.

A linear map preserving the sum-rank weight on a strict product space
factors as a dimension-preserving permutation of the blocks followed by
X -> M X N per block, with X -> M X^T N allowed on square blocks.  The
module applies, samples and composes them, and decides code equivalence
exactly: it enumerates permutations, transpose masks and right factors N,
and for each one solves a linear system for every left tuple (M_j) that
maps the first code into the second, so the left GL groups are never
listed.  The system is packed per right factor and solved by the field's
row kernel (matfq).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from itertools import permutations, product as iter_product
from math import factorial
from operator import xor
from typing import Iterator, List, Tuple

from .code import LinearCode, MatrixTuple, Shape
from .errors import (
    ContextMismatch,
    GroupTooLarge,
    IllegalTranspose,
    ShapeMismatch,
    SingularFactor,
    _record,
)
from .gf import FieldContext
from .matfq import MatrixFq, Subspace, _back_substitute, _row_kernel, vec_scale

__all__ = [
    "Isometry",
    "gl_order",
    "gl_group",
    "random_gl",
    "random_isometry",
    "admissible_permutations",
    "isometry_count",
    "equivalent_codes",
    "GROUP_CAP",
]

GROUP_CAP = 10**7
_GL_ENUM_CAP = 1 << 22
# groups whose order needs more bits than this are refused unformed
_ORDER_BITS = 1 << 12

_GL_CACHE: dict = {}


def gl_order(n: int, q: int) -> int:
    out = 1
    for i in range(n):
        out *= q**n - q**i
    return out


def gl_group(ctx: FieldContext, n: int) -> Tuple[MatrixFq, ...]:
    """All invertible n x n matrices, cached, in row-major counter order:
    the invertible points of F_q^(n x n), walked on its identity basis."""
    key = (ctx, n)
    cached = _GL_CACHE.get(key)
    if cached is not None:
        return cached
    q = ctx.q
    if q ** (n * n) > _GL_ENUM_CAP:
        raise GroupTooLarge(f"cannot enumerate GL({n}, F_{q})")
    lines = Shape((n,), (n,)).lines(0, "col")
    full = Subspace.full(ctx, n * n).basis
    points = _invertible_points(ctx, _row_kernel(ctx, n), [lines], full, None, False, {})
    result = tuple(MatrixFq(ctx, _blocks(p, [lines])[0]) for p in points)
    _GL_CACHE[key] = result
    return result


def random_gl(ctx: FieldContext, n: int, rng: random.Random) -> MatrixFq:
    """Uniform invertible matrix by rejection; acceptance is prod(1 - q^-i)."""
    q = ctx.q
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(n)]
        mat = MatrixFq(ctx, rows)
        if mat.is_invertible():
            return mat


@_record
class Isometry:
    """Weight-preserving map: block j of the image is M_j op(X_sigma[j]) N_j.

    sigma must preserve block dimensions and transpose flags are legal on
    square blocks only; every M_j and N_j must be invertible.
    """

    shape: Shape
    ctx: FieldContext
    sigma: Tuple[int, ...]
    transpose: Tuple[bool, ...]
    left: Tuple[MatrixFq, ...]
    right: Tuple[MatrixFq, ...]

    def __post_init__(self):
        ell = self.shape.ell
        if any(type(i) is not int for i in self.sigma):
            raise ShapeMismatch(f"sigma {list(self.sigma)} must be ints")
        if any(type(t) is not bool for t in self.transpose):
            raise ShapeMismatch(f"transpose flags {list(self.transpose)} must be bools")
        if sorted(self.sigma) != list(range(ell)):
            raise ShapeMismatch("sigma is not a permutation of the blocks")
        if len(self.transpose) != ell or len(self.left) != ell or len(self.right) != ell:
            raise ShapeMismatch("per-block data must cover every block")
        for j in range(ell):
            mm, nn = self.shape.m[j], self.shape.n[j]
            if self.shape.m[self.sigma[j]] != mm or self.shape.n[self.sigma[j]] != nn:
                raise ShapeMismatch("sigma must preserve block dimensions")
            if self.transpose[j] and mm != nn:
                raise IllegalTranspose("transpose is legal on square blocks only")
            lm, rn = self.left[j], self.right[j]
            if lm.ctx != self.ctx or rn.ctx != self.ctx:
                raise ContextMismatch("isometry matrices over a different field context")
            if lm.m != mm or lm.n != mm or rn.m != nn or rn.n != nn:
                raise ShapeMismatch(f"block {j}: factor dimensions do not match")
            if not lm.is_invertible() or not rn.is_invertible():
                raise SingularFactor(f"block {j}: factors must be invertible")

    @classmethod
    def identity(cls, shape: Shape, ctx: FieldContext) -> "Isometry":
        ell = shape.ell
        left = tuple(MatrixFq.identity(ctx, m) for m in shape.m)
        right = tuple(MatrixFq.identity(ctx, n) for n in shape.n)
        return cls(shape, ctx, tuple(range(ell)), (False,) * ell, left, right)

    def apply(self, t: MatrixTuple) -> MatrixTuple:
        if t.shape != self.shape or t.ctx != self.ctx:
            raise ShapeMismatch("tuple does not live in this isometry's space")
        xs = [t.blocks[i] for i in self.sigma]
        xs = [x.transpose() if tr else x for x, tr in zip(xs, self.transpose)]
        return MatrixTuple(self.shape, [m @ x @ n for m, x, n in zip(self.left, xs, self.right)])

    def apply_code(self, code: LinearCode) -> LinearCode:
        if code.shape != self.shape or code.ctx != self.ctx:
            raise ShapeMismatch("code does not live in this isometry's space")
        return LinearCode.from_tuples(
            self.shape, self.ctx, [self.apply(b) for b in code.basis_tuples()]
        )

    def compose(self, other: "Isometry") -> "Isometry":
        """self after other."""
        if self.shape != other.shape or self.ctx != other.ctx:
            raise ShapeMismatch("isometries on different spaces")
        parts = []
        for j, i in enumerate(self.sigma):
            if self.transpose[j]:  # (M' X N')^T = N'^T X^T M'^T
                left = self.left[j] @ other.right[i].transpose()
                right = other.left[i].transpose() @ self.right[j]
            else:
                left, right = self.left[j] @ other.left[i], other.right[i] @ self.right[j]
            parts.append((other.sigma[i], other.transpose[i] != self.transpose[j], left, right))
        sigma, transpose, left, right = zip(*parts)
        return Isometry(self.shape, self.ctx, sigma, transpose, left, right)

    def inverse(self) -> "Isometry":
        # block j of the image came from block i = sigma[j]; undo it there
        parts = {}
        for j, i in enumerate(self.sigma):
            li, ri = self.left[j].inverse(), self.right[j].inverse()
            if self.transpose[j]:
                li, ri = ri.transpose(), li.transpose()
            parts[i] = (j, self.transpose[j], li, ri)
        sigma, transpose, left, right = zip(*(parts[i] for i in range(self.shape.ell)))
        return Isometry(self.shape, self.ctx, sigma, transpose, left, right)

    def to_dict(self) -> dict:
        blocks = zip(self.left, self.right, self.transpose)
        return {
            "sigma": list(self.sigma),
            "blocks": [{"M": m.to_lists(), "N": n.to_lists(), "transpose": t}
                       for m, n, t in blocks],
        }

    @classmethod
    def from_dict(cls, data: dict, shape: Shape, ctx: FieldContext) -> "Isometry":
        blocks = data["blocks"]
        sigma, transpose = tuple(data["sigma"]), tuple(b["transpose"] for b in blocks)
        left, right = (tuple(MatrixFq(ctx, b[k]) for b in blocks) for k in "MN")
        return cls(shape, ctx, sigma, transpose, left, right)


def random_isometry(ctx: FieldContext, shape: Shape, rng: random.Random) -> Isometry:
    ell = shape.ell
    sigma = list(range(ell))
    by_dims: dict = {}
    for i in range(ell):
        by_dims.setdefault((shape.m[i], shape.n[i]), []).append(i)
    for idxs in by_dims.values():
        shuffled = idxs[:]
        rng.shuffle(shuffled)
        for pos, val in zip(idxs, shuffled):
            sigma[pos] = val
    transpose = tuple(m == n and rng.random() < 0.5 for m, n in zip(shape.m, shape.n))
    left = tuple(random_gl(ctx, m, rng) for m in shape.m)
    right = tuple(random_gl(ctx, n, rng) for n in shape.n)
    return Isometry(shape, ctx, tuple(sigma), transpose, left, right)


def admissible_permutations(shape: Shape) -> Iterator[Tuple[int, ...]]:
    """Block permutations preserving (m_i, n_i), lexicographic order."""
    dims = list(zip(shape.m, shape.n))
    for sigma in permutations(range(shape.ell)):
        if all(dims[sigma[j]] == dims[j] for j in range(shape.ell)):
            yield sigma


def isometry_count(shape: Shape, q: int) -> int:
    """Order of the isometry group: the guard equivalent_codes checks its cap
    against.  The search itself enumerates only the right factors."""
    per_block = 1
    for mm, nn in zip(shape.m, shape.n):
        factor = gl_order(mm, q) * gl_order(nn, q)
        if mm == nn:
            factor *= 2
        per_block *= factor
    nperm = 1
    for dims in set(zip(shape.m, shape.n)):
        nperm *= factorial(list(zip(shape.m, shape.n)).count(dims))
    return nperm * per_block


def _order_floor_bits(shape: Shape, q: int) -> int:
    """b with 2**b at most the isometry group order; |GL(n, q)| >= q**(n(n-1)/2)."""
    bits = 0
    for mm, nn in zip(shape.m, shape.n):
        bits += (q.bit_length() - 1) * (mm * (mm - 1) + nn * (nn - 1)) // 2
        bits += mm == nn
    return bits


def _transpose_masks(shape: Shape) -> Iterator[Tuple[bool, ...]]:
    """Every transpose mask, the flag of the first square block fastest."""
    flags = [(False, True) if m == n else (False,) for m, n in zip(shape.m, shape.n)]
    return (mask[::-1] for mask in iter_product(*flags[::-1]))


def _left_solver(ctx, basis, checks, sizes, pools):
    """solve(sigma, mask, idx): the RREF basis of the left tuples (M_j) that
    map the first code into the second with N_j = pools[j][idx[j]], given
    the first code's basis and the second's checks as row tuples per block.

    The unknown M_j[a][c] has a packed column: its coefficients in the
    equations (x, h), sums over d, b of op(X_x)_j[c][d] H_h,j[a][b] N_j[d][b],
    then its marker.  That is linear in N_j, so a table of n_j^2 columns and
    the marker per (j, sigma(j), mask[j]) gives it for each N_j by one
    combine with flat(N_j) + (1,).  The echelon rows of the columns that
    pivot in the markers span the solutions: back-substituted, their
    markers are the basis.
    """
    eqs, unknowns = len(basis) * len(checks), sum(m * m for m in sizes)
    if not eqs:  # every left tuple solves an empty system
        full = Subspace.full(ctx, unknowns).basis
        return lambda sigma, mask, idx: full
    size = eqs + unknowns
    kernel = _row_kernel(ctx, size)
    units = [kernel.pack((0,) * i + (1,) + (0,) * (size - i - 1)) for i in range(size)]
    cut = kernel.echelon([units[eqs]], size)[0][0]
    starts = [eqs + sum(m * m for m in sizes[:j]) for j in range(len(sizes))]
    flats = [[n.flatten() + (1,) for n in pool] for pool in pools]
    tables: dict = {}

    def table(j, s, t):
        images = [tuple(zip(*x[s])) if t else x[s] for x in basis]
        hs = [h[j] for h in checks]
        m, n, k, w = sizes[j], len(hs[0][0]), len(basis), len(hs)
        squares = [(d, b) for d in range(n) for b in range(n)]
        # the entries H_h[a][b] of every check, placed at the equations of x
        spread = [[[kernel.combine([h[a][b] for h in hs], units[x * w :]) for x in range(k)]
                   for b in range(n)] for a in range(m)]
        return {}, [
            [kernel.combine([p[c][d] for p in images], spread[a][b]) for d, b in squares]
            + [units[starts[j] + a * m + c]]
            for a in range(m) for c in range(m)
        ]

    def solve(sigma, mask, idx):
        columns = []
        for j, i in enumerate(idx):
            key = (j, sigma[j], mask[j])
            if key not in tables:
                tables[key] = table(*key)
            built, tab = tables[key]
            if i not in built:
                built[i] = [kernel.combine(flats[j][i], col) for col in tab]
            columns += built[i]
        marked = [p for p in kernel.echelon(columns, size) if p[0] >= cut]
        return [kernel.unpack(row, eqs, size) for _, row in _back_substitute(kernel, marked, size)]

    return solve


def _invertible_points(ctx, kernel, blocks, space, bound, first_only, memo):
    """Vectors of the span of space (an RREF basis) whose square blocks are
    all invertible, in lexicographic order; blocks holds each block's rows
    as the lines of its square shape, the last ending the vector.

    A depth-first walk over the RREF coefficients: fixing the coefficient of
    basis row i fixes every coordinate before the pivot of row i + 1, and a
    branch is cut as soon as the fixed rows of some block are dependent, as
    the row kernel finds once per memo key (block size, fixed rows).  With
    bound, only vectors below it count and the walk stops once the fixed
    prefix passes it; with first_only, it stops at the first hit.
    """
    total = blocks[-1][-1].stop
    ends = [row.index(1) for row in space] + [total]  # an RREF row's first 1 is its pivot
    done_at: List[list] = [[] for _ in ends]
    for lines in blocks:
        for line in lines:
            done_at[bisect_left(ends, line.stop)].append((len(lines), lines[0].start, line.stop))
    add, depth, q = xor if ctx.p == 2 else ctx.add, len(space), ctx.q
    steps: list = [None] * depth  # row i's multiples c = q - 1, ..., 1, formed when first reached
    found: List[Tuple[int, ...]] = []
    # the siblings left to walk, each (level, parent's vector, step to add, tied)
    stack, i, vec, tied = [], 0, (0,) * total, bound is not None
    while True:
        if tied:  # coordinates below ends[i] are fixed
            lo = ends[i - 1] if i else 0
            seg, ref = vec[lo : ends[i]], bound[lo : ends[i]]
            if seg > ref:
                return found
            tied = seg == ref
        for m, start, end in done_at[i]:
            key = (m, vec[start:end])
            if key not in memo:
                rows = [kernel.pack(key[1][t : t + m]) for t in range(0, end - start, m)]
                memo[key] = len(kernel.echelon(rows, m)) == len(rows)
            if not memo[key]:
                break
        else:  # every block fixed so far is invertible
            if i < depth:
                if steps[i] is None:  # c = 1 adds the row itself
                    row = space[i]
                    steps[i] = [*(vec_scale(ctx, c, row) for c in range(q - 1, 1, -1)), row]
                for step in steps[i]:
                    stack.append((i + 1, vec, step, tied))
                i += 1  # c = 0 first, which adds nothing
                continue
            if tied:  # vec is bound itself
                return found
            found.append(vec)
            if first_only:
                return found
        if not stack:
            return found
        i, vec, step, tied = stack.pop()
        vec = tuple(map(add, vec, step))


def _blocks(flat: Tuple[int, ...], blocks) -> list:
    """Split a flat vector into the row tuples of its blocks, given each
    block's rows as lines."""
    return [tuple(flat[line.start : line.stop] for line in lines) for lines in blocks]


def equivalent_codes(
    first: LinearCode,
    second: LinearCode,
    cap: int = GROUP_CAP,
    all_witnesses: bool = False,
):
    """Find an isometry sending first onto second.

    Returns the first witness in (sigma, transpose mask, left tuple, right
    tuple) order, each GL tuple in gl_group order with block 0 slowest, or
    None; with all_witnesses, every witness in that order (for first ==
    second, the automorphism group).  The isometry group order is checked
    against cap before any work happens.

    Only the right factors are enumerated.  For fixed sigma, mask and N the
    condition "M op(X) N lies in second for every basis tuple X of first"
    is linear in (M_1, ..., M_l), so one nullspace against the parity
    checks of second, one echelon of packed columns (_left_solver), yields
    every candidate left tuple, and a pruned walk of that space keeps the
    tuples whose blocks are all invertible.
    """
    if first.shape != second.shape:
        raise ShapeMismatch("codes live in different product spaces")
    if first.ctx != second.ctx:
        raise ContextMismatch("codes over different field contexts")
    shape, ctx = first.shape, first.ctx
    found: List[Isometry] = []
    if first.dim != second.dim:
        return found if all_witnesses else None
    # an order too long to write out is refused before it is formed
    floor_bits = _order_floor_bits(shape, ctx.q)
    if floor_bits >= max(cap.bit_length(), _ORDER_BITS):
        raise GroupTooLarge(f"more than 2**{floor_bits} isometries exceed cap {cap}")
    total = isometry_count(shape, ctx.q)
    if total > cap:
        raise GroupTooLarge(f"{total} isometries exceed cap {cap}")
    # weight data is isometry-invariant; cheap rejection when feasible
    if not all_witnesses and 0 < first.dim and ctx.q**first.dim <= 1 << 14:
        if first.srk_distribution() != second.srk_distribution():
            return None
    ell, sizes = shape.ell, shape.m
    # the unknowns (M_1, ..., M_l) flatten like a tuple of the square shape
    left_shape = Shape(sizes, sizes, strict=False)
    blocks = [shape.lines(j, "col") for j in range(ell)]
    # each block's projection dimension is isometry-invariant
    dims = [[c._projection_dim(i) for i in range(ell)] for c in (first, second)]
    left_blocks = [left_shape.lines(j, "col") for j in range(ell)]
    basis = [_blocks(row, blocks) for row in first.rows]
    checks = [_blocks(row, blocks) for row in second.dual().rows]
    right_pools = [gl_group(ctx, n) for n in shape.n]
    solve = _left_solver(ctx, basis, checks, sizes, right_pools)
    kernel = _row_kernel(ctx, max(sizes))
    memo: dict = {}
    lefts: dict = {}
    first_only = not all_witnesses
    for sigma in admissible_permutations(shape):
        if any(dims[0][i] != d for i, d in zip(sigma, dims[1])):
            continue
        for mask in _transpose_masks(shape):
            best = None
            pairs = []
            for idx in iter_product(*(range(len(pool)) for pool in right_pools)):
                space = solve(sigma, mask, idx)
                points = _invertible_points(ctx, kernel, left_blocks, space, best, first_only, memo)
                if points:
                    # with a bound, each hit lies below every earlier one
                    right = tuple(pool[i] for pool, i in zip(right_pools, idx))
                    pairs += [(point, right) for point in points]
                    best = None if all_witnesses else points[0]
            # stable: for equal left tuples the right tuples stay in order
            pairs.sort(key=lambda pair: pair[0])
            for point, right in pairs if all_witnesses else pairs[:1]:
                # one matrix per distinct left block, shared by the witnesses
                blks = _blocks(point, left_blocks)
                left = tuple(lefts.get(b) or lefts.setdefault(b, MatrixFq(ctx, b)) for b in blks)
                found.append(Isometry(shape, ctx, sigma, mask, left, right))
            if found and not all_witnesses:
                return found[0]
    return found if all_witnesses else None
