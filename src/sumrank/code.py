"""Matrix tuples, linear sum-rank codes, duality, and weight scans.

An ambient space is a product of matrix blocks F_q^{m_i x n_i}.  A code is
a shape plus a subspace: its Shape and the matfq.Subspace (an RREF basis)
of its flattened codewords.  Flattening runs block by block, then row by
row, then column by column, and that order is the package-wide canonical
form; every module finds a block's rows, columns or trailing scalars in it
through ``Shape.lines``.  Every weight scan (distance, maximum ranks, weight
distribution) reads one walk over the nonzero codewords, ``LinearCode._walk``;
over F_2 it is bit-sliced and row-reduces a block for up to 2^16 codewords
at once.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import reduce
from itertools import accumulate, islice
from operator import mul, or_
from typing import Iterator, List, Optional, Sequence, Tuple

from .errors import (
    AmbientMismatch,
    ContextMismatch,
    EnumerationTooLarge,
    ShapeMismatch,
    TrivialCode,
    UnknownChoice,
    _record,
)
from .gf import FieldContext, field_from_dict
from .matfq import MatrixFq, Subspace, _ListRows, rank_rows, walk_span
# bench/selftest.py checks that the benchmark's tracer patches this site
from .matfq import rref  # noqa: F401

__all__ = [
    "Shape",
    "MatrixTuple",
    "LinearCode",
    "ANTICODE_CAP",
    "DIST_CAP",
]

# codewords a scan may walk, and anticodes a family sweep may visit
DIST_CAP = 1 << 24
ANTICODE_CAP = 10**6
# the bit-sliced F_2 walk takes at most 2^_LANE_BITS codewords per chunk, and
# fewer where the chunk's planes, one per coordinate, would pass 2^26 bits
_LANE_BITS = 16


@_record
class Shape:
    """Block dimensions of the ambient product space.

    In strict mode the row dimensions must be non-increasing and every
    block at least as tall as wide.  Only wiretap scenarios have a reason
    to drop strict mode.
    """

    m: Tuple[int, ...]
    n: Tuple[int, ...]
    strict: bool = True

    def __post_init__(self):
        try:
            m, n = tuple(self.m), tuple(self.n)
        except TypeError:
            raise ShapeMismatch("block dimensions m and n must be sequences") from None
        if any(type(x) is not int for x in m + n):
            raise ShapeMismatch(f"block dimensions {list(m)} x {list(n)} must be ints")
        if type(self.strict) is not bool:
            raise ShapeMismatch(f"strict = {self.strict!r} must be a bool")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        if len(self.m) != len(self.n) or not self.m:
            raise ShapeMismatch("m and n must be non-empty lists of equal length")
        if any(x < 1 for x in self.m) or any(x < 1 for x in self.n):
            raise ShapeMismatch("block dimensions must be positive")
        if self.strict:
            if any(self.m[i] < self.m[i + 1] for i in range(len(self.m) - 1)):
                raise ShapeMismatch("row dimensions must be non-increasing")
            if any(n > m for m, n in zip(self.m, self.n)):
                raise ShapeMismatch("blocks must satisfy n_i <= m_i in strict mode")

    @property
    def ell(self) -> int:
        return len(self.m)

    @property
    def ncols(self) -> int:
        return sum(self.n)

    @property
    def ambient_dim(self) -> int:
        return sum(map(mul, self.m, self.n))

    def block_offsets(self) -> Tuple[int, ...]:
        """Flat offsets of each block in the flattened coordinate order."""
        return tuple(accumulate(map(mul, self.m, self.n), initial=0))[:-1]

    def lines(self, i: int, kind: str) -> List[range]:
        """The flat coordinates of block i, one range per line: each block row
        for kind "col", each block column for "row", and for "tail" the
        trailing coordinates from block i on, jointly (empty at i = ell)."""
        if not 0 <= i < len(self.m) + (kind == "tail"):
            raise ShapeMismatch(f"block {i} out of range")
        off = sum(map(mul, self.m[:i], self.n[:i]))  # block_offsets()[i], without the tuple
        if kind == "tail":
            return [range(off, self.ambient_dim)]
        nn = self.n[i]
        end = off + self.m[i] * nn
        if kind == "col":
            return [range(s, s + nn) for s in range(off, end, nn)]
        if kind == "row":
            return [range(off + t, end, nn) for t in range(nn)]
        raise UnknownChoice(f"unknown line kind {kind!r}")

    def column_offsets(self) -> Tuple[int, ...]:
        return tuple(accumulate(self.n, initial=0))[:-1]

    def block_of_column(self, col: int) -> int:
        """Block index (0-based) holding the global column col (1-based)."""
        if not 1 <= col <= self.ncols:
            raise ShapeMismatch(f"column {col} out of range")
        return bisect_left(tuple(accumulate(self.n)), col)  # the first block reaching col

    def scalar_suffix_start(self) -> int:
        """Number of leading blocks with m_i > 1 (strict shapes only)."""
        k = self.ell
        while k > 0 and self.m[k - 1] == 1:
            k -= 1
        return k

    def to_dict(self) -> dict:
        out = {"m": list(self.m), "n": list(self.n)}
        if not self.strict:
            out["strict"] = False
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Shape":
        return cls(data["m"], data["n"], data.get("strict", True))


class MatrixTuple:
    """One element of the ambient product space."""

    __slots__ = ("shape", "ctx", "blocks")

    def __init__(self, shape: Shape, blocks: Sequence[MatrixFq]):
        blocks = tuple(blocks)
        if len(blocks) != shape.ell:
            raise ShapeMismatch("wrong number of blocks")
        ctx = blocks[0].ctx
        for b, mm, nn in zip(blocks, shape.m, shape.n):
            if b.ctx != ctx:
                raise ContextMismatch("blocks over different field contexts")
            if b.m != mm or b.n != nn:
                raise ShapeMismatch("block dimensions disagree with the shape")
        self.shape = shape
        self.ctx = ctx
        self.blocks = blocks

    @classmethod
    def zero(cls, shape: Shape, ctx: FieldContext) -> "MatrixTuple":
        return cls(shape, [MatrixFq.zero(ctx, a, b) for a, b in zip(shape.m, shape.n)])

    @classmethod
    def from_flat(cls, shape: Shape, ctx: FieldContext, flat: Sequence[int]) -> "MatrixTuple":
        if len(flat) != shape.ambient_dim:
            raise AmbientMismatch("flat vector length differs from ambient dimension")
        blocks = []
        pos = 0
        for a, b in zip(shape.m, shape.n):
            rows = [flat[pos + r * b : pos + (r + 1) * b] for r in range(a)]
            blocks.append(MatrixFq(ctx, rows))
            pos += a * b
        return cls(shape, blocks)

    def flatten(self) -> Tuple[int, ...]:
        return tuple(x for blk in self.blocks for r in blk.rows for x in r)

    def srk(self) -> int:
        """Sum-rank weight: the sum of the block ranks."""
        return sum(b.rank() for b in self.blocks)

    def weighted_rank(self) -> int:
        """Sum of m_i * rank(block_i)."""
        return sum(m * b.rank() for m, b in zip(self.shape.m, self.blocks))

    def is_zero(self) -> bool:
        return all(b.is_zero() for b in self.blocks)

    def __add__(self, other: "MatrixTuple") -> "MatrixTuple":
        if self.shape != other.shape:
            raise ShapeMismatch("tuples from different ambient spaces")
        return MatrixTuple(self.shape, [a + b for a, b in zip(self.blocks, other.blocks)])

    def __sub__(self, other: "MatrixTuple") -> "MatrixTuple":
        if self.shape != other.shape:
            raise ShapeMismatch("tuples from different ambient spaces")
        return MatrixTuple(self.shape, [a - b for a, b in zip(self.blocks, other.blocks)])

    def scale(self, c: int) -> "MatrixTuple":
        return MatrixTuple(self.shape, [b.scale(c) for b in self.blocks])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixTuple)
            and self.shape == other.shape
            and self.blocks == other.blocks
        )

    def __hash__(self) -> int:
        return hash((self.shape, self.blocks))

    def __repr__(self) -> str:
        return f"MatrixTuple(shape={self.shape.m}x{self.shape.n}, q={self.ctx.q})"

    def to_dict(self) -> dict:
        return {
            "field": self.ctx.to_dict(),
            "shape": self.shape.to_dict(),
            "blocks": [b.to_lists() for b in self.blocks],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MatrixTuple":
        ctx = field_from_dict(data["field"])
        shape = Shape.from_dict(data["shape"])
        return cls(shape, [MatrixFq(ctx, b) for b in data["blocks"]])


class LinearCode:
    """A sum-rank code: a Shape plus the Subspace of its flattened coordinates.

    Membership, the span walk, duals, sums and intersections are subspace
    operations on the flattened coordinates; the shape adds the block
    structure that sum-rank weights read.
    """

    __slots__ = ("shape", "_space")

    def __init__(self, shape: Shape, ctx: FieldContext, rows: Sequence[Sequence[int]]):
        self.shape = shape
        self._space = Subspace(ctx, shape.ambient_dim, rows)

    @classmethod
    def from_subspace(cls, shape: Shape, sub: Subspace) -> "LinearCode":
        if sub.ambient != shape.ambient_dim:
            raise AmbientMismatch("subspace ambient differs from shape")
        code = cls.__new__(cls)
        code.shape, code._space = shape, sub
        return code

    @classmethod
    def from_tuples(cls, shape: Shape, ctx: FieldContext, tuples: Sequence[MatrixTuple]) -> "LinearCode":
        flats = []
        for t in tuples:
            if t.shape != shape:
                raise ShapeMismatch("generator from a different ambient space")
            if t.ctx != ctx:
                raise ContextMismatch("generator over a different field context")
            flats.append(t.flatten())
        return cls(shape, ctx, flats)

    @classmethod
    def zero(cls, shape: Shape, ctx: FieldContext) -> "LinearCode":
        return cls.from_subspace(shape, Subspace.zero(ctx, shape.ambient_dim))

    @classmethod
    def full(cls, shape: Shape, ctx: FieldContext) -> "LinearCode":
        return cls.from_subspace(shape, Subspace.full(ctx, shape.ambient_dim))

    def subspace(self) -> Subspace:
        return self._space

    @property
    def ctx(self) -> FieldContext:
        return self._space.ctx

    @property
    def rows(self) -> Tuple[Tuple[int, ...], ...]:
        """The RREF basis of the flattened code."""
        return self._space.basis

    @property
    def pivots(self) -> Tuple[int, ...]:
        return self._space.pivots

    @property
    def dim(self) -> int:
        return self._space.dim

    @property
    def ambient_dim(self) -> int:
        return self.shape.ambient_dim

    def basis_tuples(self) -> List[MatrixTuple]:
        return [MatrixTuple.from_flat(self.shape, self.ctx, r) for r in self.rows]

    def contains_flat(self, flat: Sequence[int]) -> bool:
        return self._space.contains(flat)

    def contains(self, t: MatrixTuple) -> bool:
        if t.shape != self.shape:
            raise ShapeMismatch("tuple from a different ambient space")
        return self.contains_flat(t.flatten())

    # set operations

    def dual(self) -> "LinearCode":
        """Orthogonal code under the trace pairing.

        The trace pairing is the dot product in flattened coordinates, so
        the dual is the orthogonal subspace.
        """
        return LinearCode.from_subspace(self.shape, self._space.orthogonal())

    def check_dual_size(self, cap: int = ANTICODE_CAP) -> None:
        """Refuse a dual whose basis would pass cap entries, before building it."""
        entries = self.ambient_dim * (self.ambient_dim - self.dim)
        if entries > cap:
            raise EnumerationTooLarge(f"dual basis of {entries} entries exceeds cap {cap}")

    def intersect(self, other: "LinearCode") -> "LinearCode":
        self._check(other)
        return LinearCode.from_subspace(self.shape, self._space.intersect(other._space))

    def add(self, other: "LinearCode") -> "LinearCode":
        self._check(other)
        return LinearCode.from_subspace(self.shape, self._space.add(other._space))

    def _check(self, other: "LinearCode") -> None:
        if self.shape != other.shape:
            raise ShapeMismatch("codes in different ambient spaces")
        if self.ctx != other.ctx:
            raise ContextMismatch("codes over different field contexts")

    # codeword scans

    def iter_flat(self, include_zero: bool = False) -> Iterator[Tuple[int, ...]]:
        """Flattened codewords in deterministic counter order."""
        words = self._space.vectors()
        return words if include_zero else islice(words, 1, None)

    def iter_codewords(self, include_zero: bool = False) -> Iterator[MatrixTuple]:
        for flat in self.iter_flat(include_zero):
            yield MatrixTuple.from_flat(self.shape, self.ctx, flat)

    def _guard(self, cap: int) -> None:
        if self.ctx.q**self.dim > cap:
            raise EnumerationTooLarge(
                f"q^dim = {self.ctx.q}**{self.dim} exceeds cap {cap}"
            )

    def _walk(self, weighted: bool) -> Iterator[Tuple[int, int]]:
        """(value, multiplicity) pairs that cover each nonzero codeword once.

        value is srk, or sum m_i rank(C_i) when weighted.  For q = 2 the walk
        is bit-sliced: in a chunk of 2^h codewords a plane per coordinate, an
        int, holds that coordinate of every codeword, one per bit, and each
        block is row-reduced for all of them at once; chunks follow the high
        message bits in Gray order.
        For q > 2 it visits the codewords whose first nonzero message
        coefficient is 1, each for its q - 1 multiples (scaling keeps every
        block rank), and ranks blocks on slices of the word with _ListRows.
        """
        shape, rows = self.shape, self.rows
        if not rows:
            return
        ctx, k = self.ctx, len(rows)
        weights = shape.m if weighted else (1,) * shape.ell
        if ctx.q == 2:
            h = min(k, _LANE_BITS)
            while h > 1 and len(rows[0]) << h > 1 << 26:
                h -= 1
            full = (1 << (1 << h)) - 1
            # planes[j] bit x: coordinate j of the codeword whose low message
            # bits are x; message bit i sets the lanes whose bit i is set
            lane = full // 3 << 1
            planes = [lane if x else 0 for x in rows[0]]
            for i in range(1, h):
                lane = full // ((1 << (1 << i)) + 1) << (1 << i)
                planes = [p ^ lane if x else p for p, x in zip(planes, rows[i])]
            for chunk in range(1 << (k - h)):
                if chunk:
                    row = rows[h + (chunk & -chunk).bit_length() - 1]
                    planes = [p ^ full if x else p for p, x in zip(planes, row)]
                ge, pos = [full], 0  # ge[t]: lanes of value >= t; the zero word stays at 0
                for a, b, w in zip(shape.m, shape.n, weights):
                    block, pos = planes[pos : pos + a * b], pos + a * b
                    if a == 1 or b == 1:  # rank 1 wherever the block is nonzero
                        masks = [reduce(or_, block)]
                    else:  # columns along the shorter side; masks[c]: lanes with a pivot in c
                        grid = zip(*[iter(block)] * b)
                        mat = list(map(list, grid if a >= b else zip(*grid)))
                        last, masks = len(mat[0]) - 1, []
                        for c in range(last):
                            # a lane's pivot, its first row with a 1 in column c, is
                            # added to every such row, itself included
                            free, piv = full, [0] * (last + 1)  # free: no pivot in c yet
                            for cells in mat:
                                x = cells[c]
                                if x:
                                    new = x & free
                                    free ^= new
                                    for j in range(c + 1, last + 1):
                                        p = piv[j] = piv[j] | (new & cells[j])
                                        cells[j] ^= x & p
                            masks.append(full ^ free)
                        found = 0  # any 1 left in the last column is a pivot
                        for cells in mat:
                            found |= cells[last]
                        masks.append(found)
                    for found in masks:
                        ge += [0] * w
                        t = len(ge) - 1
                        while t:
                            ge[t] |= ge[t - w] & found if t > w else found
                            t -= 1
                below = 0
                for v in range(len(ge) - 1, 0, -1):
                    n = ge[v].bit_count()
                    if n > below:
                        yield v, n - below
                    below = n
            return
        blocks = [
            ([slice(line.start, line.stop) for line in shape.lines(i, "col")], b, w)
            for i, (b, w) in enumerate(zip(shape.n, weights))
        ]
        echelon = _ListRows(ctx).echelon  # packing each short row costs more than it saves
        for lead in range(k):
            for word in walk_span(ctx, self.rows[lead], self.rows[lead + 1 :]):
                total = 0
                for cuts, b, w in blocks:
                    total += w * len(echelon([word[cut] for cut in cuts], b))
                yield total, ctx.q - 1

    def _scan(self, kind: str, cap: int) -> int:
        """Min or max srk, or max weighted rank, over the values of _walk;
        "min" stops at 1."""
        if self.dim == 0:
            raise TrivialCode("the zero code has no nonzero codewords")
        self._guard(cap)
        # a minimum is the maximum of -v, reached once v = 1
        sign = -1 if kind == "min" else 1
        best = None
        for v, _ in self._walk(kind == "weighted_max"):
            if best is None or sign * v > best:
                best = sign * v
                if best == -1:
                    break
        return sign * best

    def min_distance(self, method: str = "enumerate", cap: Optional[int] = None) -> int:
        """Minimum sum-rank weight of a nonzero codeword.

        method "enumerate" scans at most cap codewords (default DIST_CAP);
        "anticode" asks the generalized weight machinery for the first weight
        over at most cap anticodes (default ANTICODE_CAP, as gen_weight), a
        theorem-backed route that the enumeration cross-checks in the tests.
        """
        if self.dim == 0:
            raise TrivialCode("the zero code has no nonzero codewords")
        if method == "enumerate":
            return self._scan("min", DIST_CAP if cap is None else cap)
        if method == "anticode":
            from .genweights import gen_weight

            return gen_weight(self, 1, "product", ANTICODE_CAP if cap is None else cap)
        raise UnknownChoice(f"unknown method {method!r}")

    def max_srk(self, cap: int = DIST_CAP) -> int:
        return self._scan("max", cap)

    def weighted_max(self, cap: int = DIST_CAP) -> int:
        """max over codewords of sum m_i rank(C_i), by a scan of all q^dim.

        A code attains its dimension here exactly when it is an optimal
        anticode; is_optimal_anticode decides that without a scan, and this
        is its oracle.
        """
        return self._scan("weighted_max", cap)

    def srk_distribution(self, cap: int = DIST_CAP) -> dict:
        """Count of nonzero codewords per sum-rank weight, from _walk; {} for the zero code."""
        self._guard(cap)
        out: dict = {}
        for v, count in self._walk(False):
            out[v] = out.get(v, 0) + count
        return out

    def block_projection(self, i: int) -> Subspace:
        """Projection onto block i as a subspace of flattened F_q^{m_i n_i}."""
        lines = self.shape.lines(i, "col")
        start, stop = lines[0].start, lines[-1].stop
        return Subspace.from_vectors(self.ctx, stop - start, [r[start:stop] for r in self.rows])

    def _projection_dim(self, i: int) -> int:
        """block_projection(i).dim, as the rank of the block's slice: no RREF is formed."""
        start, width = self.shape.block_offsets()[i], self.shape.m[i] * self.shape.n[i]
        return rank_rows([r[start : start + width] for r in self.rows], width, self.ctx)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LinearCode)
            and self.shape == other.shape
            and self._space == other._space
        )

    def __hash__(self) -> int:
        return hash((self.shape, self._space))

    def __repr__(self) -> str:
        return f"LinearCode(shape={self.shape.m}x{self.shape.n}, q={self.ctx.q}, dim={self.dim})"

    def to_dict(self) -> dict:
        return {
            "field": self.ctx.to_dict(),
            "shape": self.shape.to_dict(),
            "basis": [
                [b.to_lists() for b in t.blocks] for t in self.basis_tuples()
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LinearCode":
        ctx = field_from_dict(data["field"])
        shape = Shape.from_dict(data["shape"])
        tuples = [MatrixTuple(shape, [MatrixFq(ctx, b) for b in row]) for row in data["basis"]]
        return cls.from_tuples(shape, ctx, tuples)
