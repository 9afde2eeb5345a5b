"""Optimal anticodes: bound, classification, enumeration, duality.

The dimension of any code is at most the maximum over its codewords of
sum m_i rank(C_i); spaces attaining it are the optimal anticodes.  They
factor into per-block support spaces, with one genuinely non-product
family: binary subspaces of trailing 1x1 blocks whose dimension equals
their maximum Hamming weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Iterator, List, Optional, Sequence, Tuple

from .code import LinearCode, Shape
from .errors import (
    AmbientMismatch,
    ClassificationNotApplicable,
    ContextMismatch,
    EnumerationTooLarge,
    IllegalTranspose,
    InvariantViolation,
    ShapeMismatch,
    TrivialCode,
    UnknownChoice,
)
from .gf import FieldContext
from .matfq import Subspace, enumerate_subspaces, gaussian_binomial, rank_rows, rref

__all__ = [
    "BlockSupport",
    "AnticodeDescriptor",
    "Meet",
    "enumerate_anticodes",
    "is_optimal_anticode",
    "anticode_dual",
    "max_srk_generates",
    "staircase_profile",
    "prior_anticode_bound",
    "optimal_hamming_subspaces",
    "ANTICODE_CAP",
    "HAMMING_TAIL_CAP",
]

ANTICODE_CAP = 10**6
HAMMING_TAIL_CAP = 6


@dataclass(frozen=True)
class BlockSupport:
    """One block factor: matrices whose rows (col) or columns (row) lie in L.

    kind "col" holds {M : Row(M) <= L} for L inside F_q^{n_i}; kind "row"
    holds {M : Col(M) <= L} for L inside F_q^{m_i} and is legal only on
    square blocks, where the two families genuinely differ.
    """

    kind: str
    space: Subspace

    def __post_init__(self):
        if self.kind not in ("col", "row"):
            raise UnknownChoice(f"unknown support kind {self.kind!r}")


@dataclass(frozen=True)
class AnticodeDescriptor:
    """Product-with-optional-tail presentation of an anticode.

    blocks cover the leading blocks one for one; when tail is present it
    spans the remaining trailing 1x1 blocks jointly as a subspace of
    F_q^(ell - len(blocks)).
    """

    shape: Shape
    ctx: FieldContext
    blocks: Tuple[BlockSupport, ...]
    tail: Optional[Subspace] = None

    def __post_init__(self):
        covered = len(self.blocks)
        ell = self.shape.ell
        if self.tail is None:
            if covered != ell:
                raise ShapeMismatch("blocks must cover every block when no tail is given")
        else:
            if covered + self.tail.ambient != ell:
                raise ShapeMismatch("tail ambient must cover the remaining blocks")
            for i in range(covered, ell):
                if self.shape.m[i] != 1 or self.shape.n[i] != 1:
                    raise ShapeMismatch("tail may only cover 1x1 blocks")
            if self.tail.ctx != self.ctx:
                raise AmbientMismatch("tail over a different field context")
        for i, blk in enumerate(self.blocks):
            mm, nn = self.shape.m[i], self.shape.n[i]
            if blk.space.ctx != self.ctx:
                raise AmbientMismatch("block support over a different field context")
            if blk.kind == "col":
                if blk.space.ambient != nn:
                    raise AmbientMismatch(f"block {i}: col support ambient must be {nn}")
            else:
                if mm != nn:
                    raise IllegalTranspose("row supports are legal on square blocks only")
                if blk.space.ambient != mm:
                    raise AmbientMismatch(f"block {i}: row support ambient must be {mm}")

    def dim(self) -> int:
        total = 0
        for i, blk in enumerate(self.blocks):
            mult = self.shape.m[i] if blk.kind == "col" else self.shape.n[i]
            total += mult * blk.space.dim
        if self.tail is not None:
            total += self.tail.dim
        return total

    def _tail_max_weight(self) -> int:
        if self.tail is None or self.tail.dim == 0:
            return 0
        return max(sum(1 for x in v if x) for v in self.tail.vectors())

    def max_weight(self) -> int:
        """Maximum sum-rank of the anticode (the support total, plus the
        largest Hamming weight in the tail)."""
        return sum(blk.space.dim for blk in self.blocks) + self._tail_max_weight()

    def last_support_block(self) -> Optional[int]:
        """Largest block index (0-based) with a nonzero factor, product form."""
        if self.tail is not None:
            raise ShapeMismatch("defined for product-form descriptors only")
        last = None
        for i, blk in enumerate(self.blocks):
            if blk.space.dim > 0:
                last = i
        return last

    def materialize(self) -> LinearCode:
        """The anticode as a code in full ambient coordinates.

        Sweeps measure dim(C ∩ A) through Meet instead; this serves
        classification, the CLI oracle and the tests.
        """
        shape, ctx = self.shape, self.ctx
        offsets = shape.block_offsets()
        ambient = shape.ambient_dim
        rows: List[Tuple[int, ...]] = []
        for i, blk in enumerate(self.blocks):
            mm, nn, off = shape.m[i], shape.n[i], offsets[i]
            if blk.kind == "col":
                for s in range(mm):
                    for l in blk.space.basis:
                        vec = [0] * ambient
                        vec[off + s * nn : off + (s + 1) * nn] = l
                        rows.append(tuple(vec))
            else:
                for tcol in range(nn):
                    for l in blk.space.basis:
                        vec = [0] * ambient
                        for r in range(mm):
                            vec[off + r * nn + tcol] = l[r]
                        rows.append(tuple(vec))
        if self.tail is not None:
            start = offsets[len(self.blocks)] if len(self.blocks) < shape.ell else ambient
            for w in self.tail.basis:
                vec = [0] * ambient
                for j, x in enumerate(w):
                    vec[start + j] = x
                rows.append(tuple(vec))
        code = LinearCode(shape, ctx, rows)
        if code.dim != self.dim():
            raise InvariantViolation("materialized anticode lost dimension")
        return code

    def to_dict(self) -> dict:
        out = {
            "blocks": [
                {"kind": blk.kind, "L": [list(r) for r in blk.space.basis]}
                for blk in self.blocks
            ]
        }
        if self.tail is not None:
            out["tail"] = {"basis": [list(r) for r in self.tail.basis]}
        return out

    @classmethod
    def from_dict(cls, data: dict, shape: Shape, ctx: FieldContext) -> "AnticodeDescriptor":
        blocks = []
        for i, b in enumerate(data["blocks"]):
            kind = b["kind"]
            ambient = shape.n[i] if kind == "col" else shape.m[i]
            blocks.append(BlockSupport(kind, Subspace(ctx, ambient, b["L"])))
        tail = None
        if data.get("tail") is not None:
            covered = len(blocks)
            tail = Subspace(ctx, shape.ell - covered, data["tail"]["basis"])
        return cls(shape, ctx, tuple(blocks), tail)


class Meet:
    """dim(C ∩ A) for one code C against any number of anticodes A.

    A tuple lies in A exactly when a parity-check basis of each block
    support kills every block row (col supports) or block column (row
    supports), and a parity check of the tail kills the trailing
    coordinates.  With G the RREF basis of C and H those checks,
    dim(C ∩ A) = dim C - rank(G·H).  The columns of G·H are kept per
    (block, kind, support), so a support that many descriptors of one
    sweep share is multiplied once; make one Meet per sweep.
    """

    __slots__ = ("code", "_columns")

    def __init__(self, code: LinearCode):
        self.code = code
        self._columns: dict = {}

    def dim(self, desc: AnticodeDescriptor) -> int:
        code = self.code
        if desc.shape != code.shape:
            raise ShapeMismatch("anticode and code live in different ambient spaces")
        if desc.ctx != code.ctx:
            raise ContextMismatch("anticode and code over different field contexts")
        checks: List[Tuple[int, ...]] = []
        for i, blk in enumerate(desc.blocks):
            checks += self._checks(i, blk.kind, blk.space)
        if desc.tail is not None:
            checks += self._checks(len(desc.blocks), "tail", desc.tail)
        if not checks:
            return code.dim
        return code.dim - rank_rows(checks, code.dim, code.ctx)

    def _checks(self, i: int, kind: str, space: Subspace) -> List[Tuple[int, ...]]:
        """Reduced columns G·h for the parity checks h of one support."""
        key = (i, kind, space.basis)
        cols = self._columns.get(key)
        if cols is None:
            code = self.code
            ctx = code.ctx
            add, mul = ctx.add, ctx.mul
            cols = []
            for func in _parity_functionals(code.shape, i, kind, space):
                col = []
                for row in code.rows:
                    acc = 0
                    for pos, h in func:
                        x = row[pos]
                        if x:
                            acc = add(acc, x if h == 1 else mul(x, h))
                    col.append(acc)
                if any(col):
                    cols.append(tuple(col))
            if len(cols) > 1:
                cols = rref(cols, code.dim, ctx)[0]
            self._columns[key] = cols
        return cols


def _parity_functionals(
    shape: Shape, i: int, kind: str, space: Subspace
) -> Iterator[List[Tuple[int, int]]]:
    """Sparse (flat position, coefficient) functionals cutting out one factor.

    For a block support these apply each parity check of the support to
    every block row (col) or block column (row); for a tail starting at
    block i they apply each parity check of the tail to the trailing
    coordinates.
    """
    offsets = shape.block_offsets()
    checks = [
        [(t, h) for t, h in enumerate(vec) if h]
        for vec in space.orthogonal().basis
    ]
    if kind == "tail":
        start = offsets[i] if i < shape.ell else shape.ambient_dim
        for chk in checks:
            yield [(start + t, h) for t, h in chk]
        return
    mm, nn, off = shape.m[i], shape.n[i], offsets[i]
    if kind == "col":
        for s in range(mm):
            base = off + s * nn
            for chk in checks:
                yield [(base + t, h) for t, h in chk]
    else:
        for tcol in range(nn):
            for chk in checks:
                yield [(off + r * nn + tcol, h) for r, h in chk]


def _compositions(bounds: Sequence[int], total: int) -> Iterator[Tuple[int, ...]]:
    """All tuples 0 <= u_i <= bounds[i] with sum u_i = total, lex ascending."""
    if total < 0 or total > sum(bounds):
        return
    if len(bounds) == 1:
        if total <= bounds[0]:
            yield (total,)
        return
    head, rest = bounds[0], bounds[1:]
    for u in range(min(head, total) + 1):
        for tail in _compositions(rest, total - u):
            yield (u,) + tail


def _block_option_count(shape: Shape, q: int, i: int, u: int, allow_row: bool) -> int:
    count = gaussian_binomial(shape.n[i], u, q)
    if allow_row and shape.m[i] == shape.n[i] and 0 < u < shape.n[i]:
        count += gaussian_binomial(shape.m[i], u, q)
    return count


def _block_options(
    ctx: FieldContext, shape: Shape, i: int, u: int, allow_row: bool, cap: int
) -> Iterator[BlockSupport]:
    for sub in enumerate_subspaces(ctx, shape.n[i], u, cap):
        yield BlockSupport("col", sub)
    if allow_row and shape.m[i] == shape.n[i] and 0 < u < shape.n[i]:
        for sub in enumerate_subspaces(ctx, shape.m[i], u, cap):
            yield BlockSupport("row", sub)


def product_descriptors(
    ctx: FieldContext,
    shape: Shape,
    mu: int,
    allow_row: bool = True,
    cap: int = ANTICODE_CAP,
) -> Iterator[AnticodeDescriptor]:
    """Product anticodes of maximum weight mu, every block a support space.

    With allow_row the square blocks contribute both support families;
    without it the enumeration is the support-space family, which is also
    defined on non-strict shapes.
    """
    if mu < 0 or mu > shape.ncols:
        return
    total = 0
    comps = list(_compositions(shape.n, mu))
    for comp in comps:
        size = 1
        for i, u in enumerate(comp):
            size *= _block_option_count(shape, ctx.q, i, u, allow_row)
        total += size
    if total > cap:
        raise EnumerationTooLarge(f"{total} anticodes at weight {mu} exceed cap {cap}")
    for comp in comps:
        pools = [list(_block_options(ctx, shape, i, u, allow_row, cap)) for i, u in enumerate(comp)]
        for combo in iter_product(*pools):
            yield AnticodeDescriptor(shape, ctx, tuple(combo))


def optimal_hamming_subspaces(ctx: FieldContext, t: int) -> List[Subspace]:
    """Subspaces of F_q^t whose dimension equals their maximum weight."""
    if t > HAMMING_TAIL_CAP:
        raise EnumerationTooLarge(f"tail length {t} exceeds cap {HAMMING_TAIL_CAP}")
    out = []
    for u in range(t + 1):
        for sub in enumerate_subspaces(ctx, t, u):
            if u == 0:
                out.append(sub)
                continue
            maxwt = max(sum(1 for x in v if x) for v in sub.vectors())
            if maxwt == u:
                out.append(sub)
    return out


def enumerate_anticodes(
    ctx: FieldContext,
    shape: Shape,
    mu: int,
    variant: str = "product",
    cap: int = ANTICODE_CAP,
) -> Iterator[AnticodeDescriptor]:
    """Optimal anticodes of maximum sum-rank mu, in a deterministic order.

    variant "product" walks the per-block support products; "all" adds,
    over F_2, the trailing-scalar subspaces with dimension equal to their
    maximum weight, deduplicating against the products they may repeat.
    """
    if not shape.strict:
        raise ShapeMismatch("anticode families are defined on strict shapes")
    if variant not in ("product", "all"):
        raise UnknownChoice(f"unknown variant {variant!r}")
    yield from product_descriptors(ctx, shape, mu, allow_row=True, cap=cap)
    if variant != "all" or ctx.q != 2:
        return
    k = shape.scalar_suffix_start()
    if k == shape.ell:
        return
    t = shape.ell - k
    head_n = shape.n[:k]
    # cube tails duplicate plain products; only the genuinely non-product
    # tails (some basis row of weight >= 2) are new
    tails = [
        w
        for w in optimal_hamming_subspaces(ctx, t)
        if w.dim <= mu and any(sum(1 for x in r if x) > 1 for r in w.basis)
    ]
    total = 0
    for tail in tails:
        for comp in _compositions(head_n, mu - tail.dim) if k else (
            [()] if mu == tail.dim else []
        ):
            size = 1
            for i, u in enumerate(comp):
                size *= _block_option_count(shape, ctx.q, i, u, True)
            total += size
    if total > cap:
        raise EnumerationTooLarge(f"{total} tail anticodes at weight {mu} exceed cap {cap}")
    for tail in tails:
        head_mu = mu - tail.dim
        if k == 0:
            if head_mu == 0:
                yield AnticodeDescriptor(shape, ctx, (), tail)
            continue
        for comp in _compositions(head_n, head_mu):
            pools = [
                list(_block_options(ctx, shape, i, u, True, cap))
                for i, u in enumerate(comp)
            ]
            for combo in iter_product(*pools):
                yield AnticodeDescriptor(shape, ctx, tuple(combo), tail)


def is_optimal_anticode(
    code: LinearCode, cap: int = 1 << 24
) -> Tuple[bool, Optional[AnticodeDescriptor]]:
    """Test dim = max weighted rank; on success return the classification.

    The returned descriptor is rebuilt from the block projections and
    checked against the code, so a successful return certifies both the
    optimality and the product (or tail) structure.
    """
    shape, ctx = code.shape, code.ctx
    if not shape.strict:
        raise ShapeMismatch("optimal anticodes live in strict shapes")
    if code.dim == 0:
        blocks = tuple(
            BlockSupport("col", Subspace.zero(ctx, nn)) for nn in shape.n
        )
        return True, AnticodeDescriptor(shape, ctx, blocks)
    top = code.weighted_max(cap=cap, stop_at=code.dim + 1)
    if top > code.dim:
        return False, None
    if top < code.dim:
        raise InvariantViolation("dimension exceeded the weighted-rank maximum")
    k = shape.scalar_suffix_start()
    use_tail = ctx.q == 2 and k < shape.ell
    covered = k if use_tail else shape.ell
    blocks = []
    for i in range(covered):
        proj = code.block_projection(i)
        mm, nn = shape.m[i], shape.n[i]
        row_span = Subspace.from_vectors(
            ctx, nn, [v[r * nn : (r + 1) * nn] for v in proj.basis for r in range(mm)]
        )
        if proj.dim == mm * row_span.dim:
            blocks.append(BlockSupport("col", row_span))
            continue
        if mm == nn:
            col_span = Subspace.from_vectors(
                ctx,
                mm,
                [tuple(v[r * nn + c] for r in range(mm)) for v in proj.basis for c in range(nn)],
            )
            if proj.dim == nn * col_span.dim:
                blocks.append(BlockSupport("row", col_span))
                continue
        raise InvariantViolation(f"block {i} projection is not a support space")
    tail = None
    if use_tail:
        start = shape.block_offsets()[k] if k < shape.ell else shape.ambient_dim
        tail = Subspace.from_vectors(
            ctx, shape.ell - k, [r[start:] for r in code.rows]
        )
    desc = AnticodeDescriptor(shape, ctx, tuple(blocks), tail)
    if desc.materialize() != code:
        raise InvariantViolation("optimal anticode failed to factor as classified")
    return True, desc


def _shape_allows_duality(shape: Shape, q: int) -> bool:
    return q != 2 or shape.ell - shape.scalar_suffix_start() <= 2


def anticode_dual(desc: AnticodeDescriptor) -> AnticodeDescriptor:
    """Blockwise orthogonal descriptor; the dual of an optimal anticode.

    Valid whenever q is not 2 or at most two trailing 1x1 blocks exist;
    outside that range duals of optimal anticodes stop being optimal
    (binary even-weight tails dualize to repetition codes).
    """
    shape, ctx = desc.shape, desc.ctx
    if not _shape_allows_duality(shape, ctx.q):
        raise ClassificationNotApplicable(
            "anticode duality fails over F_2 with three or more trailing 1x1 blocks"
        )
    blocks = list(desc.blocks)
    if desc.tail is not None:
        if desc.tail.dim != desc._tail_max_weight():
            raise ClassificationNotApplicable("tail is not an optimal anticode")
        if any(sum(1 for x in r if x) != 1 for r in desc.tail.basis):
            raise ClassificationNotApplicable("tail does not factor through the blocks")
        supported = {r.index(1) for r in desc.tail.basis}
        for j in range(desc.tail.ambient):
            space = (
                Subspace.full(ctx, 1) if j in supported else Subspace.zero(ctx, 1)
            )
            blocks.append(BlockSupport("col", space))
    out = tuple(
        BlockSupport(blk.kind, blk.space.orthogonal()) for blk in blocks
    )
    return AnticodeDescriptor(shape, ctx, out)


def max_srk_generates(code: LinearCode, cap: int = 1 << 24) -> bool:
    """True when the codewords of maximal weighted rank span the code."""
    if code.dim == 0:
        raise TrivialCode("the zero code has no nonzero codewords")
    top = code.weighted_max(cap=cap)
    gens = [t.flatten() for t in code.iter_codewords() if t.weighted_rank() == top]
    span = LinearCode(code.shape, code.ctx, gens)
    return span.dim == code.dim


def staircase_profile(shape: Shape, u: Sequence[int]) -> Tuple[int, ...]:
    """Generalized weights of the product anticode with support sizes u."""
    if len(u) != shape.ell or any(not 0 <= x <= n for x, n in zip(u, shape.n)):
        raise ShapeMismatch("support sizes out of range")
    out: List[int] = []
    prefix = 0
    for j in range(shape.ell):
        for delta in range(u[j]):
            out.extend([prefix + delta + 1] * shape.m[j])
        prefix += u[j]
    return tuple(out)


def prior_anticode_bound(shape: Shape, weight: int) -> int:
    """max sum m_i u_i over sum u_i = weight, 0 <= u_i <= n_i (greedy fill)."""
    if weight < 0 or weight > shape.ncols:
        raise ShapeMismatch("weight out of range")
    rest = weight
    total = 0
    for mm, nn in zip(shape.m, shape.n):
        take = min(rest, nn)
        total += mm * take
        rest -= take
    return total
