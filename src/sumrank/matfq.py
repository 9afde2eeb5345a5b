"""Exact linear algebra over a FieldContext: matrices, subspaces, RREF.

The reduced row echelon form is the only canonical representation used
for subspaces anywhere in the package, so equality of spans is always a
tuple comparison.  Entries are integer element representations.  Every
row reduction runs on the row kernel of its field, picked by _row_kernel.
The kernels share one interface, pack(vec), unpack(vec, lo, hi) for
entries lo..hi-1, combine(coeffs, vecs) for the sum of c·v, and
echelon(rows, ncols, start=()); those of F_2, F_3 and F_{2^e} pack bits
(Boothby and Bradshaw, arXiv:0901.1413), the others take each entry of a
list row through the context.  One back-substitution (_back_substitute)
serves rref and the equivalence search.  Products, pairings, sums and
scalings run on the kernels too: row i of A B is one combine of B's packed
rows with row i of A as the coefficients (_products).  RREF results
(duals, intersections) are wrapped, not reduced.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, count
from operator import lshift, xor
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import (
    ContextMismatch,
    DimensionMismatch,
    EnumerationTooLarge,
    InvariantViolation,
    NotPrime,
    ShapeMismatch,
)
from .gf import FieldContext

__all__ = [
    "MatrixFq",
    "Subspace",
    "rref",
    "rank_rows",
    "nullspace_rows",
    "vec_scale",
    "walk_span",
    "gaussian_binomial",
    "count_subspaces",
    "enumerate_subspaces",
]

SUBSPACE_CAP = 10**6


def vec_scale(ctx: FieldContext, c: int, v: Sequence[int]) -> Tuple[int, ...]:
    if c == 0:
        return (0,) * len(v)
    if c == 1:
        return tuple(v)
    mul = ctx.mul
    return tuple(mul(c, a) for a in v)


def walk_span(ctx: FieldContext, base: Tuple[int, ...], rows) -> Iterator[Tuple[int, ...]]:
    """base plus every combination of rows, base first, in counter order.

    The coefficient of the first row changes slowest; each step costs about
    one vector addition.
    """
    add, k, top = ctx.add, len(rows), ctx.q - 1
    scaled = [[vec_scale(ctx, c, row) for c in range(ctx.q)] for row in rows]
    digits = [0] * k
    partial = [base] * (k + 1)
    while True:
        yield partial[k]
        pos = k - 1
        while pos >= 0 and digits[pos] == top:
            digits[pos] = 0
            pos -= 1
        if pos < 0:
            return
        digits[pos] += 1
        for i in range(pos, k):
            d = digits[i]
            partial[i + 1] = tuple(map(add, partial[i], scaled[i][d])) if d else partial[i]


def _echelon(rows: Iterable[Sequence[int]], ncols: int, ctx: FieldContext, start=()):
    """Forward elimination to [(pivot column, row with leading entry 1)].

    Rows reduce against earlier pivot rows only, up to rank ncols.  A
    start (an earlier result) is extended in a new list; its pivot rows
    are shared, never modified.
    """
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    basis: List[Tuple[int, List[int]]] = list(start)
    for r in rows:
        if len(basis) == ncols:
            break
        row = list(r)
        for col, prow in basis:  # subtract the multiple of each pivot row that clears its column
            c = row[col]
            if c:
                for j in range(col, len(row)):
                    if prow[j]:
                        row[j] = sub(row[j], mul(c, prow[j]))
        for col, x in enumerate(row):
            if x:
                if x != 1:
                    x = inv(x)
                    row = [mul(x, y) for y in row]
                basis.append((col, row))
                break
    return basis


class _F2Rows:
    """Vectors of F_2^k packed into ints, bit j holding entry j.  A sum is
    one XOR; echelon gives [(lowest set bit, row)] with _echelon's rows."""

    BITS = bytes.maketrans(b"01", b"\0\1")  # a binary digit to its entry

    @staticmethod
    def pack(vec: Sequence[int]) -> int:
        return sum(map(lshift, vec, count()))

    @staticmethod
    def unpack(vec: int, lo: int, hi: int) -> Tuple[int, ...]:
        w = hi - lo  # the 1 at bit w keeps bin()'s leading zeros; [:2:-1] drops "0b1"
        return tuple(bin(vec >> lo & (1 << w) - 1 | 1 << w)[:2:-1].encode().translate(_F2Rows.BITS))

    @staticmethod
    def combine(coeffs, vecs) -> int:
        return reduce(xor, compress(vecs, coeffs), 0)

    @staticmethod
    def echelon(rows: Iterable[int], ncols: int, start=()):
        basis: List[Tuple[int, int]] = list(start)
        for row in rows:
            if len(basis) == ncols:
                break
            for low, prow in basis:
                if row & low:
                    row ^= prow
            if row:
                basis.append((row & -row, row))
        return basis


class _F3Rows:
    """Vectors of F_3^k as bit-plane pairs (ones, twos): bit j of ones is set
    where entry j is 1, of twos where it is 2.  A sum is seven OR/XOR
    operations on whole rows, t = (a1 | b2) ^ (a2 | b1) and then
    ((a2 | b2) ^ t, (a1 | b1) ^ t); negating a vector swaps its planes.
    """

    # the binary digit of an entry in the plane of 1s, and of 2s
    ONES, TWOS = (bytes(48 + (x == c) for x in range(256)) for c in (1, 2))

    @staticmethod
    def pack(vec: Sequence[int]) -> Tuple[int, int]:
        digits = bytes(vec)[::-1] or b"\0"  # entry j becomes binary digit j from the right
        return int(digits.translate(_F3Rows.ONES), 2), int(digits.translate(_F3Rows.TWOS), 2)

    @staticmethod
    def unpack(vec, lo: int, hi: int) -> Tuple[int, ...]:
        return tuple((vec[0] >> j & 1) | (vec[1] >> j & 1) << 1 for j in range(lo, hi))

    @staticmethod
    def combine(coeffs, vecs) -> Tuple[int, int]:
        a1 = a2 = 0
        for c, v in zip(coeffs, vecs):
            if c:
                b1, b2 = v if c == 1 else v[::-1]
                t = (a1 | b2) ^ (a2 | b1)
                a1, a2 = (a2 | b2) ^ t, (a1 | b1) ^ t
        return a1, a2

    @staticmethod
    def echelon(rows, ncols: int, start=()):
        """[(lowest set bit, row)] with _echelon's rows."""
        basis: list = list(start)
        for row in rows:
            if len(basis) == ncols:
                break
            r1, r2 = row
            for low, (p1, p2) in basis:
                if r1 & low:  # subtract the pivot row: add it with its planes swapped
                    t = (r1 | p1) ^ (r2 | p2)
                    r1, r2 = (r2 | p1) ^ t, (r1 | p2) ^ t
                elif r2 & low:  # add it
                    t = (r1 | p2) ^ (r2 | p1)
                    r1, r2 = (r2 | p2) ^ t, (r1 | p1) ^ t
            nz = r1 | r2
            if nz:
                low = nz & -nz
                basis.append((low, (r1, r2) if r1 & low else (r2, r1)))
        return basis


class _Gf2eRows:
    """Vectors of F_{2^e}^k, e >= 2, each packed into one int with e bits per
    entry, entry j at bits e*j and up.  A sum is one XOR.  c times a vector
    v is the XOR over i < e of ((v >> i) & M) * (c x^i), M marking bit 0 of
    every entry: each product of a 0/1 entry and an element below 2^e stays
    inside its entry.  A scalar's products c x^i, and M, are formed when a
    product first needs them (with no row to reduce, k may be vast).
    """

    __slots__ = ("ctx", "e", "k", "ones", "times")

    def __init__(self, ctx: FieldContext, k: int):
        self.ctx, self.e, self.k, self.ones = ctx, ctx.e, k, 0
        self.times: list = [None] * ctx.q

    def _times(self, c: int) -> List[int]:
        self.ones = self.ones or ((1 << self.e * self.k) - 1) // (self.ctx.q - 1)
        row = self.times[c] = [self.ctx.mul(c, 1 << i) for i in range(self.e)]
        return row

    def pack(self, vec: Sequence[int]) -> int:
        return sum(map(lshift, vec, range(0, self.e * len(vec), self.e)))

    def unpack(self, vec: int, lo: int, hi: int) -> Tuple[int, ...]:
        e, top = self.e, len(self.times) - 1
        return tuple(vec >> e * j & top for j in range(lo, hi))

    def _scale(self, c: int, v: int) -> int:
        out, times = 0, self.times[c] or self._times(c)
        ones = self.ones  # set by _times
        for i, x in enumerate(times):
            out ^= (v >> i & ones) * x
        return out

    def combine(self, coeffs, vecs) -> int:
        out = 0
        for c, v in zip(coeffs, vecs):
            if c:
                out ^= v if c == 1 else self._scale(c, v)
        return out

    def echelon(self, rows, ncols: int, start=()):
        """[(bit offset of the pivot entry, row)] with _echelon's rows."""
        e, times = self.e, self.times
        top = len(times) - 1
        basis: list = list(start)
        for row in rows:
            if len(basis) == ncols:
                break
            for shift, prow in basis:
                c = row >> shift & top
                if c == 1:
                    row ^= prow
                elif c:  # row - c prow: _scale's products, XORed into row
                    xs, ones = times[c] or self._times(c), self.ones
                    for i, x in enumerate(xs):
                        row ^= (prow >> i & ones) * x
            if row:
                shift = (row & -row).bit_length() - 1
                shift -= shift % e
                c = row >> shift & top
                basis.append((shift, row if c == 1 else self._scale(self.ctx.inv(c), row)))
        return basis


class _ListRows:
    """Vectors of F_q^k as tuples, every entry through the context: the row
    kernel of the fields with no packed form (F_5, F_9, ...)."""

    __slots__ = ("ctx", "add", "mul")

    def __init__(self, ctx: FieldContext):
        self.ctx, self.add, self.mul = ctx, ctx.add, ctx.mul

    pack = staticmethod(tuple)

    @staticmethod
    def unpack(vec, lo: int, hi: int) -> Tuple[int, ...]:
        return tuple(vec[lo:hi])

    def combine(self, coeffs, vecs) -> List[int]:
        add, mul = self.add, self.mul
        terms = [(c, v) for c, v in zip(coeffs, vecs) if c]
        out = []
        for j in range(len(vecs[0])):  # entry j; in Meet, row j of G
            acc = 0
            for c, v in terms:
                x = v[j]
                if x:
                    x = x if c == 1 else mul(x, c)
                    acc = add(acc, x) if acc else x
            out.append(acc)
        return out

    def echelon(self, rows, ncols: int, start=()):
        return _echelon(rows, ncols, self.ctx, start)


def _row_kernel(ctx: FieldContext, k: int):
    """The row kernel of ctx, for vectors of at most k entries."""
    packed = _F2Rows if ctx.q == 2 else _F3Rows if ctx.q == 3 else None
    return packed or (_Gf2eRows(ctx, k) if ctx.p == 2 else _ListRows(ctx))


def _products(ctx: FieldContext, left, right, n: int) -> List[Tuple[int, ...]]:
    """The rows of L R, L and R given by their rows, R's of n entries: row i
    is one combine of R's packed rows, with row i of L as the coefficients."""
    kernel = _row_kernel(ctx, n)
    packed = [kernel.pack(row) for row in right]
    return [kernel.unpack(kernel.combine(row, packed), 0, n) for row in left]


def _back_substitute(kernel, basis, ncols: int) -> list:
    """The reduced form of an echelon basis from kernel.echelon, as
    [(pivot, row)] with pivots ascending.  One echelon of the rows, last
    pivot first, takes each into the rows done so far: that clears its
    entries at their pivots and keeps its own leading 1."""
    return kernel.echelon([row for _, row in sorted(basis, reverse=True)], ncols)[::-1]


def rank_rows(rows: Iterable[Sequence[int]], ncols: int, ctx: FieldContext) -> int:
    """Rank of the matrix with the given rows: forward elimination on the row kernel."""
    kernel = _row_kernel(ctx, ncols)
    return len(kernel.echelon(map(kernel.pack, rows), ncols))


def rref(rows: Iterable[Sequence[int]], ncols: int, ctx: FieldContext):
    """Reduced row echelon form, returned as (rows, pivot_columns): forward
    elimination on the row kernel, then back-substitution."""
    kernel = _row_kernel(ctx, ncols)
    basis = kernel.echelon(map(kernel.pack, rows), ncols)
    red = [kernel.unpack(row, 0, ncols) for _, row in _back_substitute(kernel, basis, ncols)]
    return red, [row.index(1) for row in red]  # a reduced row's first nonzero entry is its 1


def reduce_against(
    vec: Sequence[int], basis: Sequence[Sequence[int]], pivots: Sequence[int], ctx: FieldContext
):
    """Reduce vec against an RREF basis.  Returns (coefficients, remainder).

    In RREF no other basis row touches a pivot column, so the coefficient
    of each basis row is vec's entry at its pivot, and the remainder is
    vec minus one combination of the rows.
    """
    coeffs, kernel = [vec[p] for p in pivots], _row_kernel(ctx, len(vec))
    negs = [1] + [ctx.neg(c) for c in coeffs]
    rem = kernel.combine(negs, [kernel.pack(v) for v in (vec, *basis)])
    return coeffs, kernel.unpack(rem, 0, len(vec))


def _nullspace(red, pivots, ncols: int, ctx: FieldContext):
    """RREF (rows, pivots) of {x : M x = 0} for M = red, itself in RREF:
    a vector per free column f, 1 at f and -row[f] at each row's pivot."""
    at = dict(zip(pivots, red))
    free = [f for f in range(ncols) if f not in at]
    basis = [[ctx.neg(at[j][f]) if j in at else int(j == f) for j in range(ncols)] for f in free]
    return rref(basis, ncols, ctx)


def nullspace_rows(rows: Iterable[Sequence[int]], ncols: int, ctx: FieldContext):
    """Canonical basis of {x : M x = 0} for the matrix M with the given rows."""
    red, pivots = rref(rows, ncols, ctx)
    return _nullspace(red, pivots, ncols, ctx)[0]


class MatrixFq:
    """An m x n matrix over a fixed field context, immutable; entries are ints in 0..q-1."""

    __slots__ = ("ctx", "m", "n", "rows", "_rank")

    def __init__(self, ctx: FieldContext, rows: Sequence[Sequence[int]]):
        try:
            rows = tuple(map(tuple, rows))
        except TypeError:
            raise DimensionMismatch("matrix rows must be sequences of entries") from None
        q = ctx.q
        for r in rows:
            for x in r:
                if type(x) is not int or not 0 <= x < q:
                    raise ContextMismatch(f"matrix entry {x!r} is not an element of F_{q}")
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix dimensions must be positive")
        n = len(rows[0])
        if any(len(r) != n for r in rows):
            raise DimensionMismatch("ragged rows")
        self.ctx = ctx
        self.m = len(rows)
        self.n = n
        self.rows = rows
        self._rank = None

    @classmethod
    def zero(cls, ctx: FieldContext, m: int, n: int) -> "MatrixFq":
        return cls(ctx, [[0] * n for _ in range(m)])

    @classmethod
    def identity(cls, ctx: FieldContext, n: int) -> "MatrixFq":
        return cls(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def unit(cls, ctx: FieldContext, m: int, n: int, i: int, j: int) -> "MatrixFq":
        """The matrix with a single 1 in row i, column j (0-based)."""
        rows = [[0] * n for _ in range(m)]
        rows[i][j] = 1
        return cls(ctx, rows)

    def _check(self, other: "MatrixFq", same_shape: bool = True) -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("matrices over different field contexts")
        if same_shape and (self.m != other.m or self.n != other.n):
            raise ShapeMismatch(f"{self.m}x{self.n} vs {other.m}x{other.n}")

    def _combine(self, c: int, other: Optional["MatrixFq"] = None, d: int = 0) -> "MatrixFq":
        """c self + d other: row i is one combine of the stacked rows, c at row i
        and d at row m + i (without other, past the last row and so unused)."""
        m, rows = self.m, self.rows + (other.rows if other else ())
        coeffs = [(0,) * i + (c,) + (0,) * (m - 1) + (d,) for i in range(m)]
        return MatrixFq(self.ctx, _products(self.ctx, coeffs, rows, self.n))

    def __add__(self, other: "MatrixFq") -> "MatrixFq":
        self._check(other)
        return self._combine(1, other, 1)

    def __sub__(self, other: "MatrixFq") -> "MatrixFq":
        self._check(other)
        return self._combine(1, other, self.ctx.neg(1))

    def __neg__(self) -> "MatrixFq":
        return self._combine(self.ctx.neg(1))

    def scale(self, c: int) -> "MatrixFq":
        q = self.ctx.q
        if type(c) is not int or not 0 <= c < q:
            raise ContextMismatch(f"scalar {c!r} is not an element of F_{q}")
        return self._combine(c)

    def __matmul__(self, other: "MatrixFq") -> "MatrixFq":
        self._check(other, same_shape=False)
        if self.n != other.m:
            raise ShapeMismatch("inner dimensions differ")
        return MatrixFq(self.ctx, _products(self.ctx, self.rows, other.rows, other.n))

    def transpose(self) -> "MatrixFq":
        return MatrixFq(self.ctx, list(zip(*self.rows)))

    def rank(self) -> int:  # kept from the first call: the matrix never changes
        if self._rank is None:
            self._rank = rank_rows(self.rows, self.n, self.ctx)
        return self._rank

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in r) for r in self.rows)

    def is_invertible(self) -> bool:
        return self.m == self.n and self.rank() == self.n

    def inverse(self) -> "MatrixFq":
        if self.m != self.n:
            raise ShapeMismatch("only square matrices invert")
        n = self.n
        aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(self.rows)]
        red, pivots = rref(aug, 2 * n, self.ctx)
        if pivots[:n] != list(range(n)):
            raise DimensionMismatch("matrix is singular")
        return MatrixFq(self.ctx, [r[n:] for r in red])

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "MatrixFq":
        return MatrixFq(self.ctx, [[self.rows[i][j] for j in col_idx] for i in row_idx])

    def flatten(self) -> Tuple[int, ...]:
        return tuple(x for r in self.rows for x in r)

    def row_space(self) -> "Subspace":
        return Subspace.from_vectors(self.ctx, self.n, self.rows)

    def column_space(self) -> "Subspace":
        return Subspace.from_vectors(self.ctx, self.m, list(zip(*self.rows)))

    def to_lists(self) -> list:
        return [list(r) for r in self.rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixFq)
            and self.ctx == other.ctx
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.rows))

    def __repr__(self) -> str:
        return f"MatrixFq(q={self.ctx.q}, rows={self.to_lists()})"


class Subspace:
    """A subspace of F_q^n held as its canonical RREF basis.  The constructor
    checks that n is an int and each row a sequence of n int entries in
    0..q-1 (a bool is refused); _from_rref trusts its caller."""

    __slots__ = ("ctx", "ambient", "basis", "pivots")

    def __init__(self, ctx: FieldContext, ambient: int, basis: Sequence[Sequence[int]] = ()):
        if type(ambient) is not int or ambient < 0:
            raise DimensionMismatch(f"ambient dimension {ambient!r} is not an int >= 0")
        top = ctx.q - 1
        try:
            for row in basis:
                if len(row) != ambient:
                    raise DimensionMismatch(f"a row of {len(row)} entries in ambient {ambient}")
                if ambient and set(map(type, row)) != {int}:
                    raise ContextMismatch("a row entry is not an int")
                if ambient and (min(row) < 0 or max(row) > top):
                    raise ContextMismatch(f"a row entry lies outside 0..{top}")
        except TypeError:
            raise DimensionMismatch("the basis is not a sequence of rows") from None
        rows, pivots = rref(basis, ambient, ctx)
        self.ctx, self.ambient, self.basis, self.pivots = ctx, ambient, tuple(rows), tuple(pivots)

    @classmethod
    def _from_rref(cls, ctx: FieldContext, ambient: int, basis, pivots) -> "Subspace":
        """Wrap rows already in RREF, with their pivot columns, without reducing them."""
        sub = cls.__new__(cls)
        sub.ctx, sub.ambient, sub.basis, sub.pivots = ctx, ambient, tuple(basis), tuple(pivots)
        return sub

    @classmethod
    def from_vectors(cls, ctx: FieldContext, ambient: int, vectors) -> "Subspace":
        return cls(ctx, ambient, list(vectors))

    @classmethod
    def zero(cls, ctx: FieldContext, ambient: int) -> "Subspace":
        return cls._from_rref(ctx, ambient, (), ())

    @classmethod
    def full(cls, ctx: FieldContext, ambient: int) -> "Subspace":
        eye = [tuple(1 if i == j else 0 for j in range(ambient)) for i in range(ambient)]
        return cls._from_rref(ctx, ambient, eye, range(ambient))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def _check(self, other: "Subspace") -> None:
        if self.ctx != other.ctx:
            raise ContextMismatch("subspaces over different field contexts")
        if self.ambient != other.ambient:
            raise DimensionMismatch("ambient dimensions differ")

    def contains(self, vec: Sequence[int]) -> bool:
        return self.coordinates(vec) is not None

    def coordinates(self, vec: Sequence[int]):
        if len(vec) != self.ambient:
            raise DimensionMismatch("vector length differs from ambient dimension")
        coeffs, rem = reduce_against(vec, self.basis, self.pivots, self.ctx)
        return None if any(rem) else tuple(coeffs)

    def add(self, other: "Subspace") -> "Subspace":
        self._check(other)
        return Subspace(self.ctx, self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: reduce stacked [u|u] and [v|0] blocks, read the tail."""
        self._check(other)
        n = self.ambient
        stacked = [tuple(r) + tuple(r) for r in self.basis]
        stacked += [tuple(r) + (0,) * n for r in other.basis]
        red, pivots = rref(stacked, 2 * n, self.ctx)
        # the rows that pivot in the tail come last and are in RREF there
        head = sum(1 for p in pivots if p < n)
        tail = [r[n:] for r in red[head:]]
        return Subspace._from_rref(self.ctx, n, tail, [p - n for p in pivots[head:]])

    def orthogonal(self) -> "Subspace":
        """{y : x . y = 0 for all x here} under the standard dot product."""
        if self.dim == 0:
            return Subspace.full(self.ctx, self.ambient)
        rows, pivots = _nullspace(self.basis, self.pivots, self.ambient, self.ctx)
        return Subspace._from_rref(self.ctx, self.ambient, rows, pivots)

    def vectors(self) -> Iterator[Tuple[int, ...]]:
        """All vectors, zero included, in deterministic counter order."""
        return walk_span(self.ctx, (0,) * self.ambient, self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self) -> int:
        return hash((self.ctx, self.ambient, self.basis))

    def __repr__(self) -> str:
        return f"Subspace(n={self.ambient}, dim={self.dim})"


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, exact."""
    if q < 2:
        raise NotPrime(f"q = {q} is not a field order")
    if k < 0 or k > n:
        return 0
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise InvariantViolation("Gaussian binomial numerator must divide evenly")
    return num // den


def count_subspaces(n: int, q: int) -> int:
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def enumerate_subspaces(
    ctx: FieldContext, n: int, dim: int, cap: int = SUBSPACE_CAP
) -> Iterator[Subspace]:
    """All dim-dimensional subspaces of F_q^n in canonical RREF order.

    Pivot supports ascend lexicographically; within one support the free
    entries run through base-q counter order, row-major.  The count always
    equals the Gaussian binomial, which the cap is checked against before
    any work happens.
    """
    from itertools import combinations

    total = gaussian_binomial(n, dim, ctx.q)
    if total > cap:
        raise EnumerationTooLarge(f"{total} subspaces exceed cap {cap}")
    if not total:  # dim outside 0..n
        return
    if dim == 0:
        yield Subspace.zero(ctx, n)
        return
    q = ctx.q
    for pivots in combinations(range(n), dim):
        pivot_set = set(pivots)
        free = [
            (i, j)
            for i in range(dim)
            for j in range(pivots[i] + 1, n)
            if j not in pivot_set
        ]
        for enc in range(q ** len(free)):
            rows = [[0] * n for _ in range(dim)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            rest = enc
            for i, j in reversed(free):
                rows[i][j] = rest % q
                rest //= q
            yield Subspace._from_rref(ctx, n, [tuple(r) for r in rows], pivots)
