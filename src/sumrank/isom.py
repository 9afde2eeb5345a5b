"""Sum-rank isometries: block permutations, two-sided GL actions, transposes.

A linear map preserving the sum-rank weight on a strict product space
factors as a dimension-preserving permutation of the blocks followed by
X -> M X N per block, with X -> M X^T N allowed on square blocks.  The
module applies, samples and composes them, and decides code equivalence
exactly: it enumerates permutations, transpose masks and right factors N,
and for each one solves a linear system for every left tuple (M_j) that
maps the first code into the second, so the left GL groups are never
listed.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import permutations, product as iter_product
from math import factorial
from typing import Iterator, List, Optional, Tuple

from .code import LinearCode, MatrixTuple, Shape
from .errors import (
    ContextMismatch,
    GroupTooLarge,
    IllegalTranspose,
    ShapeMismatch,
    SingularFactor,
)
from .gf import FieldContext
from .matfq import MatrixFq, Subspace, _dot, _echelon, nullspace_rows, vec_add, vec_scale

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
    points = _invertible_points(ctx, [lines], Subspace.full(ctx, n * n).basis, None, False)
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


@dataclass(frozen=True)
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
        return cls(
            shape,
            ctx,
            tuple(range(ell)),
            (False,) * ell,
            tuple(MatrixFq.identity(ctx, m) for m in shape.m),
            tuple(MatrixFq.identity(ctx, n) for n in shape.n),
        )

    def apply(self, t: MatrixTuple) -> MatrixTuple:
        if t.shape != self.shape or t.ctx != self.ctx:
            raise ShapeMismatch("tuple does not live in this isometry's space")
        blocks = []
        for j in range(self.shape.ell):
            x = t.blocks[self.sigma[j]]
            if self.transpose[j]:
                x = x.transpose()
            blocks.append(self.left[j] @ x @ self.right[j])
        return MatrixTuple(self.shape, blocks)

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
        ell = self.shape.ell
        sigma = tuple(other.sigma[self.sigma[j]] for j in range(ell))
        transpose = []
        left = []
        right = []
        for j in range(ell):
            i = self.sigma[j]
            tr_inner = other.transpose[i]
            tr_outer = self.transpose[j]
            if tr_outer:
                # (M' X N')^T = N'^T X^T M'^T
                left.append(self.left[j] @ other.right[i].transpose())
                right.append(other.left[i].transpose() @ self.right[j])
            else:
                left.append(self.left[j] @ other.left[i])
                right.append(other.right[i] @ self.right[j])
            transpose.append(tr_inner != tr_outer)
        return Isometry(
            self.shape, self.ctx, sigma, tuple(transpose), tuple(left), tuple(right)
        )

    def inverse(self) -> "Isometry":
        ell = self.shape.ell
        inv_sigma = [0] * ell
        for j in range(ell):
            inv_sigma[self.sigma[j]] = j
        transpose = [False] * ell
        left: List[Optional[MatrixFq]] = [None] * ell
        right: List[Optional[MatrixFq]] = [None] * ell
        for j in range(ell):
            i = self.sigma[j]
            li = self.left[j].inverse()
            ri = self.right[j].inverse()
            if self.transpose[j]:
                transpose[i] = True
                left[i] = ri.transpose()
                right[i] = li.transpose()
            else:
                left[i] = li
                right[i] = ri
        return Isometry(
            self.shape,
            self.ctx,
            tuple(inv_sigma),
            tuple(transpose),
            tuple(left),  # type: ignore[arg-type]
            tuple(right),  # type: ignore[arg-type]
        )

    def to_dict(self) -> dict:
        return {
            "sigma": list(self.sigma),
            "blocks": [
                {
                    "M": self.left[j].to_lists(),
                    "N": self.right[j].to_lists(),
                    "transpose": self.transpose[j],
                }
                for j in range(self.shape.ell)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict, shape: Shape, ctx: FieldContext) -> "Isometry":
        blocks = data["blocks"]
        return cls(
            shape,
            ctx,
            tuple(data["sigma"]),
            tuple(b["transpose"] for b in blocks),
            tuple(MatrixFq(ctx, b["M"]) for b in blocks),
            tuple(MatrixFq(ctx, b["N"]) for b in blocks),
        )


def random_isometry(
    ctx: FieldContext,
    shape: Shape,
    rng: random.Random,
    allow_permutation: bool = True,
    allow_transpose: bool = True,
) -> Isometry:
    ell = shape.ell
    sigma = list(range(ell))
    if allow_permutation:
        by_dims: dict = {}
        for i in range(ell):
            by_dims.setdefault((shape.m[i], shape.n[i]), []).append(i)
        for idxs in by_dims.values():
            shuffled = idxs[:]
            rng.shuffle(shuffled)
            for pos, val in zip(idxs, shuffled):
                sigma[pos] = val
    transpose = tuple(
        allow_transpose and shape.m[j] == shape.n[j] and rng.random() < 0.5
        for j in range(ell)
    )
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
    squares = [j for j in range(shape.ell) if shape.m[j] == shape.n[j]]
    for bits in range(1 << len(squares)):
        mask = [False] * shape.ell
        for pos, j in enumerate(squares):
            mask[j] = bool(bits >> pos & 1)
        yield tuple(mask)


def _left_equations(ctx, sizes, checks, images, right):
    """Rows of the linear system in (M_1, ..., M_l) for fixed right factors.

    images[x][j] is op(X_sigma(j)) for basis tuple x and checks[h][j] is block
    j of parity check h, both as row tuples.  The unknown M_j[a][c] has
    coefficient (Y_j H_j^T)[c][a] with Y_j = op(X_sigma(j)) N_j, so equation
    (h, x) says that the image of x has zero pairing with h.
    """
    right_cols = [tuple(zip(*n.rows)) for n in right]
    ys = [
        [
            [tuple(_dot(ctx, row, col) for col in cols) for row in blk]
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
                    eq.extend(_dot(ctx, hj[a], yj[c]) for c in range(mm))
            rows.append(eq)
    return rows


def _invertible_points(ctx, blocks, space, bound, first_only):
    """Vectors of the span of space (an RREF basis) whose square blocks are
    all invertible, in lexicographic order; blocks holds each block's rows
    as the lines of its square shape, the last ending the vector.

    A depth-first walk over the RREF coefficients: fixing the coefficient of
    basis row i fixes every coordinate before the pivot of row i + 1, and a
    branch is cut as soon as the fixed rows of some block are dependent.
    With bound, only vectors below it count and the walk stops once the
    fixed prefix passes it; with first_only, it stops at the first hit.
    """
    total = blocks[-1][-1].stop
    ends = [next(c for c, x in enumerate(row) if x) for row in space] + [total]
    done_at: List[list] = [[] for _ in ends]
    for j, lines in enumerate(blocks):
        for line in lines:
            done_at[bisect_left(ends, line.stop)].append((j, line.start, line.stop))
    scaled = [[None] + [vec_scale(ctx, c, row) for c in range(1, ctx.q)] for row in space]
    depth = len(space)
    found: List[Tuple[int, ...]] = []

    def visit(i, vec, echelons, tied) -> bool:
        # coordinates below ends[i] are fixed; True stops the whole walk
        if tied:
            lo = ends[i - 1] if i else 0
            seg, ref = vec[lo : ends[i]], bound[lo : ends[i]]
            if seg > ref:
                return True
            tied = seg == ref
        if done_at[i]:
            echelons = list(echelons)
            for j, start, end in done_at[i]:
                grown = _echelon([vec[start:end]], end - start, ctx, echelons[j])
                if len(grown) == len(echelons[j]):
                    return False
                echelons[j] = grown
        if i == depth:
            if tied:
                return True
            found.append(vec)
            return first_only
        for step in scaled[i]:
            nxt = vec if step is None else vec_add(ctx, vec, step)
            if visit(i + 1, nxt, echelons, tied):
                return True
        return False

    visit(0, (0,) * total, [[]] * len(blocks), bound is not None)
    return found


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
    checks of second yields every candidate left tuple, and a pruned walk
    of that space keeps the tuples whose blocks are all invertible.
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
    proj_dims_second = [second.block_projection(j).dim for j in range(shape.ell)]
    proj_dims_first = [first.block_projection(j).dim for j in range(shape.ell)]
    ell = shape.ell
    sizes = shape.m
    # the unknowns (M_1, ..., M_l) flatten like a tuple of the square shape
    left_shape = Shape(sizes, sizes, strict=False)
    blocks = [shape.lines(j, "col") for j in range(ell)]
    left_blocks = [left_shape.lines(j, "col") for j in range(ell)]
    unknowns = left_shape.ambient_dim
    basis = [_blocks(row, blocks) for row in first.rows]
    checks = [_blocks(row, blocks) for row in second.dual().rows]
    right_pools = [gl_group(ctx, n) for n in shape.n]
    lefts: dict = {}
    for sigma in admissible_permutations(shape):
        if any(
            proj_dims_first[sigma[j]] != proj_dims_second[j] for j in range(ell)
        ):
            continue
        for mask in _transpose_masks(shape):
            images = [
                [tuple(zip(*x[sigma[j]])) if mask[j] else x[sigma[j]] for j in range(ell)]
                for x in basis
            ]
            best = None
            pairs = []
            for right in iter_product(*right_pools):
                eqs = _left_equations(ctx, sizes, checks, images, right)
                space = nullspace_rows(eqs, unknowns, ctx)
                points = _invertible_points(
                    ctx, left_blocks, space, best[0] if best else None, not all_witnesses
                )
                if all_witnesses:
                    pairs += [(point, right) for point in points]
                elif points:
                    best = (points[0], right)
            if all_witnesses:
                # stable: for equal left tuples the right tuples stay in order
                pairs.sort(key=lambda pair: pair[0])
            elif best is not None:
                pairs = [best]
            for point, right in pairs:
                left = []
                for blk in _blocks(point, left_blocks):
                    # one matrix per distinct left block, shared by the witnesses
                    if blk not in lefts:
                        lefts[blk] = MatrixFq(ctx, blk)
                    left.append(lefts[blk])
                found.append(Isometry(shape, ctx, sigma, mask, tuple(left), right))
            if found and not all_witnesses:
                return found[0]
    return found if all_witnesses else None
