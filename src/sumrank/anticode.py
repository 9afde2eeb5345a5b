"""Optimal anticodes: bound, classification, enumeration, duality.

The dimension of any code is at most the maximum over its codewords of
sum m_i rank(C_i); spaces attaining it are the optimal anticodes.  They
factor into per-block support spaces, with one genuinely non-product
family: binary subspaces of trailing 1x1 blocks whose dimension equals
their maximum Hamming weight.  Such a tail is decided, generated and
counted from its RREF (_optimal_tail), never by walking its words.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations, product as iter_product
from math import comb
from typing import Iterator, List, Optional, Sequence, Tuple

from .code import ANTICODE_CAP, DIST_CAP, LinearCode, Shape
from .errors import (
    AmbientMismatch,
    ClassificationNotApplicable,
    ContextMismatch,
    DimNotAdmissible,
    EnumerationTooLarge,
    IllegalTranspose,
    InvariantViolation,
    ShapeMismatch,
    TrivialCode,
    UnknownChoice,
    _record,
)
from .gf import FieldContext
from .matfq import (
    Subspace,
    _row_kernel,
    enumerate_subspaces,
    gaussian_binomial,
)

__all__ = [
    "BlockSupport",
    "AnticodeDescriptor",
    "Meet",
    "enumerate_anticodes",
    "is_optimal_anticode",
    "anticode_dual",
    "max_srk_generates",
    "product_descriptors",
    "staircase_profile",
    "VARIANTS",
]

# the anticode families: every door that takes a variant refuses through _check_variant
VARIANTS = ("product", "all", "support")


@_record
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


@_record
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
        # a zero factor adds nothing, so it builds no lines
        return sum(len(self.shape.lines(i, k)) * sp.dim for i, k, sp in self._factors() if sp.dim)

    def _factors(self) -> List[Tuple[int, str, Subspace]]:
        """(block index, kind, space) of each block support, then of the tail."""
        tail = [] if self.tail is None else [(len(self.blocks), "tail", self.tail)]
        return [(i, blk.kind, blk.space) for i, blk in enumerate(self.blocks)] + tail

    def max_weight(self) -> int:
        """Maximum sum-rank of the anticode, read from the classification.

        A block support of dimension d reaches rank d capped by its number
        of lines (block rows for col, block columns for row); an optimal
        tail adds its dimension, and any other tail is refused.
        """
        if self.tail is not None and not _optimal_tail(self.tail):
            raise ClassificationNotApplicable("tail is not an optimal anticode")
        tail = 0 if self.tail is None else self.tail.dim
        return tail + sum(
            min(len(self.shape.lines(i, blk.kind)), blk.space.dim)
            for i, blk in enumerate(self.blocks)
            if blk.space.dim
        )

    def materialize(self) -> LinearCode:
        """The anticode as a code in full ambient coordinates.

        Sweeps measure dim(C ∩ A) through Meet instead; this serves
        classification, the CLI oracle and the tests.  The lines are
        disjoint and ascend and each space is in RREF, so its rows laid on
        them, in pivot order, are the anticode's RREF: wrapped, not reduced.
        """
        shape, ambient = self.shape, self.shape.ambient_dim
        rows: List[Tuple[int, Tuple[int, ...]]] = []
        for i, kind, space in self._factors():
            for line in shape.lines(i, kind) if space.dim else ():
                for l, p in zip(space.basis, space.pivots):
                    vec = [0] * ambient
                    vec[line.start : line.stop : line.step] = l
                    rows.append((line[p], tuple(vec)))
        rows.sort()
        pivots = [p for p, _ in rows]
        if len(set(pivots)) != len(rows):
            raise InvariantViolation("materialized anticode lost dimension")
        space = Subspace._from_rref(self.ctx, ambient, [vec for _, vec in rows], pivots)
        return LinearCode.from_subspace(shape, space)

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
        if len(data["blocks"]) > shape.ell:
            raise ShapeMismatch(f"{len(data['blocks'])} block supports for {shape.ell} blocks")
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
    """dim(C ∩ A) for one code C against anticodes A, one at a time or by family.

    A tuple lies in A exactly when a parity-check basis of each block
    support kills every block row (col supports) or block column (row
    supports), and a parity check of the tail kills the trailing
    coordinates.  With G the RREF basis of C and H those checks,
    dim(C ∩ A) = dim C - rank(G·H).

    dim measures one descriptor.  sweep walks the family of one weight
    depth-first, one block per level and a binary tail as the last, and
    never builds a descriptor: a child extends its parent's echelon of G·H
    with its own block's columns only, so the rank of a prefix bounds every
    meet below it and lets a caller's floor cut whole subtrees.  With a
    floor, a child's echelon stops at rank dim C - floor, where its meet
    could no longer beat the floor.  The block weights, counts and binary
    tails of each weight and the check bases of each pool do not depend on
    the code: every Meet of a process shares them per field and shape
    (_TABLE).  A Meet keeps what depends on its code: per (block, kind) the
    packed columns of each line and the images G·h of each check row h,
    one per line; per support the reduced columns dim reads; and per
    (block, weight, kinds) one merged pool, col members then row members,
    that sweep walks.  So make one Meet per code and drop it after.

    G's columns are packed once by the field's row kernel (matfq), which
    combines them into each column G·h and runs every echelon.  The zero
    code packs nothing, so its echelons are empty at any ambient size.
    """

    __slots__ = ("code", "_columns", "_images", "_pools", "_kernel", "_packed")

    def __init__(self, code: LinearCode):
        self.code = code
        self._columns: dict = {}
        self._images: dict = {}
        self._pools: dict = {}
        self._kernel = kernel = _row_kernel(code.ctx, code.dim)
        self._packed = [kernel.pack(col) for col in zip(*code.rows)]  # none on the zero code

    def dim(self, desc: AnticodeDescriptor) -> int:
        code = self.code
        if desc.shape != code.shape:
            raise ShapeMismatch("anticode and code live in different ambient spaces")
        if desc.ctx != code.ctx:
            raise ContextMismatch("anticode and code over different field contexts")
        checks: List[List[int]] = []
        for i, kind, space in desc._factors():
            key = (i, kind, space)
            if key not in self._columns:
                self._columns[key] = self._reduced(i, kind, space.orthogonal().basis)[1]
            checks += self._columns[key]
        return code.dim - len(self._kernel.echelon(checks, code.dim))

    def sweep(
        self,
        mu: int,
        variant: str,
        cap: int = ANTICODE_CAP,
        floor: Optional[int] = None,
        size: Optional[int] = None,
    ) -> Iterator[Tuple[int, Tuple[int, ...]]]:
        """(dim(C ∩ A), weights) for the members A of weight mu of a family.

        variant is one of VARIANTS, the families of enumerate_anticodes;
        weights holds the support dimension of each block, or for a binary
        tail member of each head block and then the tail.
        Without a floor every member is yielded.  With one, only members
        whose meet beats the floor are, and each raises the floor to its
        meet; a subtree is cut once dim C minus its prefix rank is at most
        the floor.  size keeps only members of that dimension.  The family
        is checked against cap where enumerate_anticodes checks it, with
        the same count and message.
        """
        shape, kdim = self.code.shape, self.code.dim
        kinds = ("col",) if variant == "support" else ("col", "row")
        extend = self._kernel.echelon
        for tail, tree, levels in _parts(self.code.ctx, shape, variant, mu, cap, _TABLE):
            ends = ("tail",) if tail else kinds
            if size is not None:  # only the weights of members of that dimension
                mults = shape.m[: len(levels) - 1] + (1,) if tail else shape.m
                tree = _tree(levels, mu, lambda i, u: 1, mults, size)[1]
            # the level walked: its (u, subtree) left, the members of u left, u and
            # its subtree, its prefix echelon and weights; above holds each level above
            steps, members, u, sub, basis, prefix, above = iter(tree), (), None, None, [], (), []
            while True:
                for pairs, rows in members:
                    if floor is not None and kdim - len(basis) <= floor:
                        steps = members = iter(())  # cut: the level is done
                        break
                    # past rank kdim - floor a member has t <= floor: skipped or cut anyway
                    top = kdim if floor is None else kdim - floor
                    echelon = extend(rows, top, basis) if basis else pairs
                    t = kdim - len(echelon)
                    if floor is not None and t <= floor:
                        continue
                    if sub:  # walk the subtree, then come back for this level's next member
                        above.append((steps, members, u, sub, basis, prefix))
                        steps, members, basis, prefix = iter(sub), (), echelon, prefix + (u,)
                        break
                    if floor is not None:
                        floor = t
                    yield t, prefix + (u,)
                else:  # this weight's members are done: on to the next, or up
                    u, sub = next(steps, (None, None))
                    if u is not None:
                        members = iter(self._pool(len(prefix), u, kinds if sub else ends, cap))
                    elif not above:
                        break
                    else:
                        steps, members, u, sub, basis, prefix = above.pop()

    def _dual_meets(self, mu: int, floor: int, cap: int) -> Iterator[int]:
        """Rising dims of C^⊥ ∩ A above the floor up to the largest, A over the
        weight-mu support anticodes (equal rows), after that family's cap
        check, from one sweep of C at N - mu (genweights._weights)."""
        code, shape = self.code, self.code.shape
        next(_parts(code.ctx, shape, "support", mu, cap, _TABLE))
        off = shape.m[0] * mu - code.dim
        if off > floor:  # every member meets C^⊥ in off dimensions or more
            yield off
            floor = off
        for t, _ in self.sweep(shape.ncols - mu, "support", cap, floor=floor - off):
            yield t + off

    def _pool(self, i: int, u: int, kinds: tuple, cap: int) -> list:
        """(echelon, its rows) of the columns G·h for each weight-u support of
        the kinds on block i, col before row, or each dim-u tail from block i
        on: one list per (block, weight, kinds), its pools built col first."""
        pool = self._pools.get((i, u, kinds))
        if pool is None:
            shape, ctx, pool = self.code.shape, self.code.ctx, []
            for kind in kinds:
                amb = shape.n[i] if kind == "col" else shape.m[i]
                bases = ()
                if kind == "tail":
                    bases = _tail_checks(ctx, shape.ell - i, u)
                elif kind == "col" or _has_rows(shape, i, u):  # L and its checks L^⊥ match
                    bases = _check_bases(ctx, amb, amb - u, cap)
                pool += [self._reduced(i, kind, checks) for checks in bases]
            self._pools[i, u, kinds] = pool
        return pool

    def _reduced(self, i: int, kind: str, checks) -> tuple:
        """(echelon, its rows) of the columns G·h for the check rows h of one
        support of a kind on block i, or of one tail from block i on.

        A check of a block support applies along every block row (col) or
        block column (row); a check of a tail starting at block i applies
        along the trailing coordinates.  Each check row's images are kept.
        """
        kernel, kdim = self._kernel, self.code.dim
        if not kdim:
            return [], []
        if (i, kind) not in self._images:
            lines = self.code.shape.lines(i, kind)
            self._images[i, kind] = [self._packed[ln.start : ln.stop : ln.step] for ln in lines], {}
        lines, images = self._images[i, kind]
        cols: list = []
        for h in checks:
            if h not in images:
                images[h] = [kernel.combine(h, vecs) for vecs in lines]
            cols += images[h]
        pairs = kernel.echelon(cols, kdim)
        return pairs, [row for _, row in pairs]


def _tree(levels, total: int, options, mults=None, size: int = 0) -> Tuple[int, tuple]:
    """(member count, prefix tree) of the weights u with u_i in levels[i]
    (ascending), sum u_i = total and, given mults, sum mults[i] * u_i = size.
    The tree is ((u_0, subtree), ...), None under the last level, with one
    shared subtree per (level, rest of total and of size).  A weight counts
    prod options(i, u_i) members; one counting none is left out.  Built from
    the last level up, over the states the levels above reach."""
    mults, seen = mults or [0] * len(levels), [{(total, size)}]
    for lv, m in zip(levels, mults):  # the states (rest of total, rest of size) each level sees
        seen.append({(r - u, d - m * u) for r, d in seen[-1] for u in lv if u <= r and m * u <= d})
    below = {(0, 0): (1, None)}  # state -> (count, subtree), past the last level
    for i in reversed(range(len(levels))):
        here, mult, opts = {}, mults[i], {u: options(i, u) for u in levels[i] if u <= total}
        for rest, dim in seen[i]:
            count, node = 0, []
            for u in levels[i]:
                if u > rest or dim < mult * u:
                    break
                c, sub = below.get((rest - u, dim - mult * u), (0, None))
                if c * opts[u]:
                    count += c * opts[u]
                    node.append((u, sub))
            if count:
                here[rest, dim] = count, tuple(node)
        below = here
    return below.get((total, size), (0, ()))


def _leaves(tree) -> List[Tuple[int, ...]]:
    """The weights a prefix tree holds, lex ascending, walked one iterator per level."""
    out, prefix, stack = [], [], [iter(tree)]
    while stack:
        u, sub = next(stack[-1], (None, None))
        del prefix[len(stack) - 1 :]
        if u is None:
            stack.pop()
        elif sub is None:
            out.append((*prefix, u))
        else:
            prefix.append(u)
            stack.append(iter(sub))
    return out


def _check_variant(shape: Shape, variant: str) -> None:
    """Refuse an unknown family, and "product" or "all" off a strict shape."""
    if variant not in VARIANTS:
        raise UnknownChoice(f"unknown variant {variant!r}")
    if variant != "support" and not shape.strict:
        raise ShapeMismatch(f"variant {variant!r} needs a strict shape")


def _has_rows(shape: Shape, i: int, u: int) -> bool:
    """Whether block i has weight-u row supports besides its col supports."""
    return shape.m[i] == shape.n[i] and 0 < u < shape.n[i]


# The code-independent half of every sweep, kept as isom._GL_CACHE keeps the GL
# groups: each weight's family (_parts), each pool's subspace bases (up to the
# caller's cap of them) and the binary tails' checks.  Entries are tuples that
# never change, and none is evicted: the table grows for the life of the process.
# A guard reads the caller's cap on every call; what it refuses is not stored.
_TABLE: dict = {}


def _parts(ctx: FieldContext, shape: Shape, variant: str, mu: int, cap: int, table: dict):
    """(whether tails end it, prefix tree, levels) of each part of the weight-mu
    family, kept in table: the products, then for variant "all" over F_2 the
    head blocks of each tail dimension r, with r as the last level.  A part's
    count is checked against cap when a walk reaches it, before any tail is
    built.  Sweeps keep the parts in _TABLE; the flat path keeps its own."""
    _check_variant(shape, variant)
    if type(mu) is not int:  # 2.0 == 2 and True == 1 would read another weight
        raise DimNotAdmissible(f"weight {mu!r} is not an int")
    key, q, with_rows = (ctx, shape, variant, mu), ctx.q, variant != "support"

    def options(i, u):  # the weight-u supports of block i
        rows = gaussian_binomial(shape.m[i], u, q) if with_rows and _has_rows(shape, i, u) else 0
        return gaussian_binomial(shape.n[i], u, q) + rows

    entry = table.get(key)
    if entry is None:
        levels = tuple(range(n + 1) for n in shape.n)
        entry = (*_tree(levels, mu, options), levels)
    if entry[0] > cap:
        raise EnumerationTooLarge(f"{entry[0]} anticodes at weight {mu} exceed cap {cap}")
    table[key] = entry
    yield False, entry[1], entry[2]
    tails = entry[3:]
    if not tails:  # the walk reaches the tails: count them and build their trees now
        tails, k = (0, ()), shape.scalar_suffix_start()
        t = shape.ell - k
        if variant == "all" and q == 2 and t:
            counts, parts = _tail_counts(q, t), []
            for r in range(min(mu, t) + 1):
                levels = tuple(range(n + 1) for n in shape.n[:k]) + ((r,),)
                count, tree = _tree(
                    levels, mu, lambda i, u: options(i, u) if i < k else counts[u] - comb(t, u)
                )
                parts += [(count, (True, tree, levels))] if tree else []
            tails = (sum(c for c, _ in parts), tuple(part for _, part in parts))
    if tails[0] > cap:
        raise EnumerationTooLarge(f"{tails[0]} tail anticodes at weight {mu} exceed cap {cap}")
    table[key] = entry[:3] + tails
    yield from tails[1]


def _check_bases(ctx: FieldContext, n: int, d: int, cap: int) -> tuple:
    """The RREF bases of the dim-d subspaces of F_q^n, as enumerate_subspaces gives them."""
    bases = _TABLE.get((ctx, n, d))
    if bases is None:
        bases = _TABLE[ctx, n, d] = tuple(h.basis for h in enumerate_subspaces(ctx, n, d, cap))
    elif len(bases) > cap:
        raise EnumerationTooLarge(f"{len(bases)} subspaces exceed cap {cap}")
    return bases


def _tail_checks(ctx: FieldContext, t: int, r: int) -> tuple:
    """The check bases of the non-product dim-r tails of F_q^t, from _TABLE."""
    key = (ctx, "tails", t, r)
    if key not in _TABLE:
        _TABLE[key] = tuple(w.orthogonal().basis for w in _nonproduct_tails(ctx, t, r))
    return _TABLE[key]


def _nonproduct_tails(ctx: FieldContext, t: int, r: int) -> List[Subspace]:
    """The dim-r optimal tails of F_q^t whose rows are not all unit vectors (products)."""
    return [w for w in _optimal_tails(ctx, t, r) if max(map(sum, w.basis), default=0) > 1]


def _optimal_tail(tail: Subspace) -> bool:
    """Whether dim T equals the largest Hamming weight of a word of T.

    Statement: this holds exactly when every RREF row of T is a unit
    vector, or, over F_2 only, every row has weight at most 2 and every
    non-pivot column is nonzero in an even number of rows.  So T is a
    direct sum, on disjoint coordinates, of single coordinates and (q = 2
    only) even-weight codes of odd length at least 3.

    Proof.  Let r = dim T and R_j the set of rows nonzero at a non-pivot
    column j.  A word whose coefficients are nonzero on the rows I is
    nonzero at the |I| pivots of I and at some non-pivot columns.  Over F_2
    it is the sum of the rows in I, of weight |I| + #{j : |I ∩ R_j| odd}.
    I = all rows gives weight r only if every |R_j| is even; then all rows
    but row i give r - 1 + #{j : i in R_j}, so row i spills into at most
    one non-pivot column.  The conditions suffice: the R_j are then
    disjoint and even, so each j with |I ∩ R_j| odd has a row of R_j outside
    I, and the weight is at most |I| + (r - |I|) = r.  For q >= 3, the word
    with all coefficients 1 has weight above r unless it is zero at every
    non-pivot column; then changing the coefficient of a row nonzero at a
    non-pivot column j to a third value makes column j nonzero, a word of
    weight r + 1.  So no row may spill.
    """
    spills = [
        [j for j, x in enumerate(row) if x and j != p]
        for row, p in zip(tail.basis, tail.pivots)
    ]
    if tail.ctx.q != 2:
        return not any(spills)
    hits = Counter(chain.from_iterable(spills))
    return all(len(s) <= 1 for s in spills) and all(c % 2 == 0 for c in hits.values())


def _optimal_tails(ctx: FieldContext, t: int, r: int) -> Iterator[Subspace]:
    """The dim-r subspaces of F_q^t that pass _optimal_tail, in
    enumerate_subspaces order: pivot sets ascend, then the free entries
    row by row, so each row takes no spill (least), then one spill column,
    the last column first."""
    spare = range(t - 1, -1, -1) if ctx.q == 2 else ()
    for pivots in combinations(range(t), r):
        for spill in _spills(pivots, spare, 0, frozenset()):
            rows = [tuple(int(c in (p, j)) for c in range(t)) for p, j in zip(pivots, spill)]
            yield Subspace._from_rref(ctx, t, rows, pivots)


def _spills(pivots, spare, i, odd) -> Iterator[tuple]:
    """The spill columns (None: none) of rows i on of an optimal tail with these pivots;
    odd holds the columns hit an odd number of times, each later row evens one."""
    if len(odd) > len(pivots) - i or odd and min(odd) < pivots[i]:
        return
    if i == len(pivots):
        yield ()
        return
    for j in (None, *(j for j in spare if j > pivots[i] and j not in pivots)):
        for rest in _spills(pivots, spare, i + 1, odd if j is None else odd ^ {j}):
            yield (j, *rest)


def _tail_counts(q: int, t: int) -> List[int]:
    """[number of dim-r optimal tails of F_q^t for r = 0..t], building none.

    By _optimal_tail the last coordinate is a single coordinate, or it
    closes an even-weight code of length 2s + 1 and dimension 2s with 2s of
    the t - 1 others (s = 0: a zero coordinate; s >= 1 only for q = 2).
    As a polynomial in y marking the dimension,
    P_t = y P_{t-1} + sum_s comb(t - 1, 2s) y^{2s} P_{t-1-2s}.
    """
    polys = [[1]]
    for n in range(1, t + 1):
        out = [0, *polys[n - 1]]
        for s in range((n + 1) // 2 if q == 2 else 1):
            for r, c in enumerate(polys[n - 1 - 2 * s]):
                out[r + 2 * s] += comb(n - 1, 2 * s) * c
        polys.append(out)
    return polys[t]


def enumerate_anticodes(
    ctx: FieldContext,
    shape: Shape,
    mu: int,
    variant: str = "product",
    cap: int = ANTICODE_CAP,
) -> Iterator[AnticodeDescriptor]:
    """Anticodes of maximum sum-rank mu from one family, in a deterministic order.

    variant "product" walks the per-block support products; "all" adds,
    over F_2, the trailing-scalar subspaces with dimension equal to their
    maximum weight that are no product; "support" walks the col support
    products, the one family also defined on non-strict shapes.  Block
    supports multiply out in order, those of each (block, weight) built
    once per call.  Sweeps walk a family through Meet.sweep instead; this
    serves the CLI oracle and the tests.
    """
    pools: dict = {}
    for tail, tree, levels in _parts(ctx, shape, variant, mu, cap, {}):
        comps, tails = _leaves(tree), [None]
        if tail:  # the last level is the dimension r of tails on the blocks after the head
            tails = _nonproduct_tails(ctx, shape.ell - len(levels) + 1, comps[0][-1])
            comps = [c[:-1] for c in comps]
        for w, comp in iter_product(tails, comps):
            for i, u in enumerate(comp):
                if (i, u) not in pools:
                    subs = enumerate_subspaces(ctx, shape.n[i], u, cap)
                    pools[i, u] = [BlockSupport("col", sub) for sub in subs]
                    if variant != "support" and _has_rows(shape, i, u):
                        subs = enumerate_subspaces(ctx, shape.m[i], u, cap)
                        pools[i, u] += [BlockSupport("row", sub) for sub in subs]
            for combo in iter_product(*(pools[i, u] for i, u in enumerate(comp))):
                yield AnticodeDescriptor(shape, ctx, combo, w)


def product_descriptors(
    ctx: FieldContext, shape: Shape, mu: int, cap: int = ANTICODE_CAP
) -> Iterator[AnticodeDescriptor]:
    """The product family of weight mu, as enumerate_anticodes(..., "product")."""
    yield from enumerate_anticodes(ctx, shape, mu, "product", cap)


def is_optimal_anticode(code: LinearCode) -> Tuple[bool, Optional[AnticodeDescriptor]]:
    """Decide dim = max weighted rank by the classification; on success
    return it.

    Optimal anticodes are the products of per-block support spaces, with
    over F_2 a tail on the trailing 1x1 blocks whose dimension equals its
    largest Hamming weight.  So the code is optimal exactly when each head
    block's projection is a support space, the code is the product of its
    projections, and a binary tail passes that weight test, which reads
    the tail's RREF (_optimal_tail).  No codeword or tail word is walked.
    """
    shape, ctx = code.shape, code.ctx
    if not shape.strict:
        raise ShapeMismatch("optimal anticodes live in strict shapes")
    k = shape.scalar_suffix_start()
    use_tail = ctx.q == 2 and k < shape.ell and code.dim > 0  # the zero code takes no tail
    covered = k if use_tail else shape.ell
    blocks = []
    for i in range(covered):
        proj_dim = code._projection_dim(i)
        if not proj_dim:  # the zero col support, read without building the block's lines
            blocks.append(BlockSupport("col", Subspace.zero(ctx, shape.n[i])))
            continue
        # the projection lies in the support space on the span of its block
        # rows (col) or block columns (row), and is it when the dimensions agree
        for kind in ("col", "row") if shape.m[i] == shape.n[i] else ("col",):
            lines = shape.lines(i, kind)
            vecs = [v[ln.start : ln.stop : ln.step] for v in code.rows for ln in lines]
            span = Subspace.from_vectors(ctx, len(lines[0]), vecs)
            if proj_dim == len(lines) * span.dim:
                blocks.append(BlockSupport(kind, span))
                break
        else:
            return False, None
    tail = None
    if use_tail:
        (line,) = shape.lines(k, "tail")
        tail = Subspace.from_vectors(ctx, len(line), [r[line.start :] for r in code.rows])
    desc = AnticodeDescriptor(shape, ctx, tuple(blocks), tail)
    # the code lies in the product of its projections, so it is that product,
    # the descriptor's materialization, exactly when the dimensions agree
    if desc.dim() != code.dim:
        return False, None
    if tail is not None and not _optimal_tail(tail):
        return False, None
    return True, desc


def anticode_dual(desc: AnticodeDescriptor) -> AnticodeDescriptor:
    """Blockwise orthogonal descriptor; the dual of an optimal anticode.

    A product dualizes block by block on any shape, each support into the
    support of its orthogonal.  A tail dualizes only when it is a
    coordinate space, the product of its 1x1 blocks.  Every other optimal
    tail holds a binary even-weight code of odd length L >= 3, whose dual
    holds the repetition code, of dimension 1 and weight L: no anticode.
    So such a tail is refused, as is a tail that fails _optimal_tail.
    """
    shape, ctx = desc.shape, desc.ctx
    blocks = list(desc.blocks)
    if desc.tail is not None:
        if not _optimal_tail(desc.tail):
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


def max_srk_generates(code: LinearCode, cap: int = DIST_CAP) -> bool:
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


def _strict(shape: Shape) -> None:
    if not shape.strict:
        raise ShapeMismatch("the Anticode Bound lives in strict shapes")


def _anticode_bound(shape: Shape, weight: int) -> int:
    """r(weight) = max sum m_i u_i over sum u_i = weight, 0 <= u_i <= n_i.

    The rows never grow on a strict shape, so filling the columns from the
    first block on attains the maximum.
    """
    _strict(shape)
    rest = weight
    total = 0
    for mm, nn in zip(shape.m, shape.n):
        take = min(rest, nn)
        total += mm * take
        rest -= take
    return total


def _anticode_bound_inverse(shape: Shape, dim: int) -> Tuple[int, int]:
    """(h, s) with r(h) <= N - dim = r(h) + s, s below the rows of column
    h + 1, N the ambient dimension: one pass takes whole blocks while their
    mass fits, then whole columns of the block where it stops."""
    _strict(shape)
    ambient = shape.ambient_dim
    if not 1 <= dim <= ambient:
        raise DimNotAdmissible(f"dimension {dim} outside 1..{ambient}")
    rest, j, h, m, n = ambient - dim, 0, 0, shape.m, shape.n
    while rest >= m[j] * n[j]:  # rest < ambient, so some block stops the walk
        rest -= m[j] * n[j]
        h += n[j]
        j += 1
    delta, s = divmod(rest, m[j])
    return h + delta, s

