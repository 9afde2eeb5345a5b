"""Generalized sum-rank weights and expansion of extension-field codes.

d_r is the least maximum weight of an anticode from the chosen family
meeting the code in dimension at least r.  Three families are supported:
the per-block products, the products enlarged by binary trailing tails,
and the plain support spaces (which also make sense on non-strict
shapes and drive the leakage analysis).  Each weight mu of a family is
walked by Meet.sweep, depth-first over the blocks with a shared prefix
echelon, so a prefix whose rank already rules out a new meet is cut
together with every member below it.

The paper proves that the generalized weights of an MSRD code are
determined by its parameters; msrd.msrd_weight_profile is that closed
form, and it holds in the product family.  It does not hold in "all":
the binary parity codes of length 3 to 5 are MSRD, yet each is itself an
optimal binary tail, so they meet "all" anticodes of lower weight than
the closed form gives (test_known_answers).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from .anticode import VARIANTS, Meet, _check_variant
# bench/selftest.py checks that the benchmark's tracer patches these sites
from .anticode import enumerate_anticodes, product_descriptors  # noqa: F401
from .code import ANTICODE_CAP, LinearCode, MatrixTuple, Shape
from .errors import (
    BadDegree,
    ContextMismatch,
    GammaNotBasis,
    InvariantViolation,
    NotLinearOverSubfield,
    RankOutOfRange,
    ShapeMismatch,
    UnequalRowDims,
    UnknownChoice,
    _record,
)
from .gf import FieldContext, _digits, _undigits
from .matfq import MatrixFq, _products

__all__ = [
    "WeightProfile",
    "gen_weight",
    "weight_profile",
    "wei_duality_check",
    "extension_context",
    "subfield_embedding",
    "GammaBasis",
    "gamma_expand",
    "VARIANTS",
]

def gen_weight(
    code: LinearCode, r: int, variant: str = "product", cap: int = ANTICODE_CAP
) -> int:
    """r-th generalized weight: ascending mu, first family member whose
    intersection with the code has dimension at least r wins.

    The sweep cuts every prefix whose rank leaves the code fewer than r
    dimensions, and stops at the first member it reaches."""
    _check_variant(code.shape, variant)
    if type(r) is not int or not 1 <= r <= code.dim:  # True == 1 would read d_1
        raise RankOutOfRange(f"r={r!r} outside 1..{code.dim}")
    return _weights(_sweeps(Meet(code), variant, cap), code.shape.ncols, r, r)[0]


def _weights(
    meets: Callable[[int, int], Iterable[int]], ncols: int, first: int, last: int
) -> List[int]:
    """[d_first, ..., d_last] of one anticode family, where meets(mu, floor)
    yields, for the members of weight mu, rising meets above the floor up to
    the largest.

    Ascending mu, each such meet t sets d_r = mu for the ranks r <= t still
    open and raises the floor to t.  The walk stops as soon as d_last is set.

    A code's own weights read its sweep (_sweeps), which cuts every prefix
    that cannot beat the floor.  threshold_table reads the support weights
    of C^⊥ from sweeps of C (Meet._dual_meets; equal row dimensions m,
    k = dim C).  A support anticode A of weight mu with column spaces V_i has
    dim A = m mu, and A^⊥ is the support anticode with the spaces V_i^⊥, of
    weight N - mu.  (C^⊥ ∩ A)^⊥ = C + A^⊥ gives the meet identity
        dim(C^⊥ ∩ A) = m mu - k + dim(C ∩ A^⊥),
    and A -> A^⊥ is a bijection between the weight-mu and weight-(N - mu)
    families, so a sweep of C at N - mu, its meets and floor shifted by
    m mu - k, visits the dual's members.  The bijection makes the two counts
    equal: the weight-mu count is checked first, so a refusal names the
    weight, count and cap the dual's sweep would, and the sweep at N - mu
    then passes its own check.
    """
    weights: List[int] = []
    for mu in range(1, ncols + 1):
        for t in meets(mu, first - 1 + len(weights)):
            weights += [mu] * (min(t, last) - first + 1 - len(weights))
            if t >= last:
                return weights
    raise InvariantViolation("the full space must meet every rank demand")


def _sweeps(meet: Meet, variant: str, cap: int) -> Callable[[int, int], Iterator[int]]:
    """meets(mu, floor) of _weights for meet.code's own weights in a family."""
    return lambda mu, floor: map(itemgetter(0), meet.sweep(mu, variant, cap, floor=floor))


@_record
class WeightProfile:
    """All d_r of one code under one anticode family, 1-indexed."""

    variant: str
    dim: int
    ncols: int
    weights: Tuple[int, ...]

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise UnknownChoice(f"unknown variant {self.variant!r}")
        if len(self.weights) != self.dim:
            raise ShapeMismatch("one weight per dimension")
        if any(b < a for a, b in zip(self.weights, self.weights[1:])):
            raise InvariantViolation("weights must be nondecreasing")
        if self.weights and self.weights[-1] > self.ncols:
            raise InvariantViolation("weights are bounded by the column count")

    def weight(self, r: int) -> int:
        if not 1 <= r <= self.dim:
            raise RankOutOfRange(f"r={r} outside 1..{self.dim}")
        return self.weights[r - 1]

    def to_dict(self) -> dict:
        return {"variant": self.variant, "dim": self.dim, "weights": list(self.weights)}


def weight_profile(
    code: LinearCode, variant: str = "product", cap: int = ANTICODE_CAP
) -> WeightProfile:
    """All generalized weights d_1..d_k in one shared walk over the family."""
    _check_variant(code.shape, variant)
    kdim = code.dim
    meets = _sweeps(Meet(code), variant, cap)
    weights = _weights(meets, code.shape.ncols, 1, kdim) if kdim else []
    return WeightProfile(variant, kdim, code.shape.ncols, tuple(weights))


def _residue_set(weights: Sequence[int], start: int, step: int) -> frozenset:
    """{weights[i-1] : i = start + s*step inside 1..len(weights)}."""
    total = len(weights)
    r = start % step
    if r == 0:
        r = step
    return frozenset(weights[i - 1] for i in range(r, total + 1, step))


def wei_duality_check(code: LinearCode, cap: int = ANTICODE_CAP) -> dict:
    """Duality of weight sets for equal row dimensions.

    For each residue r in [m], the dual's weight set on the residue class
    of r must be the complement in [n] of the reflected weight set of the
    code on the class of r + dim(code).  Refuses a dual too large to build,
    as msrd_check does; raises InvariantViolation on failure; returns the sets.
    """
    shape = code.shape
    m = shape.m[0]
    if any(mi != m for mi in shape.m):
        raise UnequalRowDims("weight duality needs equal row dimensions")
    n = shape.ncols
    code.check_dual_size()
    dual = code.dual()
    primal_w = weight_profile(code, "product", cap).weights
    dual_w = weight_profile(dual, "product", cap).weights
    rows = []
    for r in range(1, m + 1):
        w_dual = _residue_set(dual_w, r, m)
        reflected = frozenset(n + 1 - d for d in _residue_set(primal_w, r + code.dim, m))
        complement = frozenset(range(1, n + 1)) - reflected
        if w_dual != complement:
            raise InvariantViolation(
                f"duality fails at residue {r}: {sorted(w_dual)} != {sorted(complement)}"
            )
        rows.append(
            {
                "r": r,
                "dual_set": sorted(w_dual),
                "complement_set": sorted(complement),
            }
        )
    return {
        "m": m,
        "ncols": n,
        "primal": list(primal_w),
        "dual": list(dual_w),
        "classes": rows,
    }


# ---------------------------------------------------------------------------
# extension fields and expansion to matrix codes


@lru_cache(maxsize=None)
def extension_context(base: FieldContext, m: int) -> FieldContext:
    if m < 1:
        raise BadDegree("extension degree must be positive")
    if m == 1:
        return base
    return FieldContext(base.p, base.e * m)


@lru_cache(maxsize=None)
def subfield_embedding(small: FieldContext, big: FieldContext) -> Tuple[int, ...]:
    """Embedding table: image in big of every element of small.

    The map sends the small generator polynomial variable to the least
    root of the small modulus in big, which pins one embedding among the
    conjugates.
    """
    if small.p != big.p or big.e % small.e:
        raise NotLinearOverSubfield("no subfield copy inside the big field")
    p, e = small.p, small.e
    if e == 1:
        return tuple(range(p))
    if small == big:
        return tuple(range(small.q))
    coeffs = list(reversed(small.modulus))
    for root in range(big.q):
        acc = 0
        for c in coeffs:
            acc = big.add(big.mul(acc, root), c)
        if acc == 0:
            break
    else:
        raise InvariantViolation("the modulus splits in every overfield")
    powers = [1]
    for _ in range(1, e):
        powers.append(big.mul(powers[-1], root))
    digits = [_digits(x, p, e) for x in range(small.q)]
    return tuple(row[0] for row in _products(big, digits, [(w,) for w in powers], 1))


def _monomial_reprs(degree: int, p: int) -> Tuple[int, ...]:
    return tuple(p**j for j in range(degree))


class GammaBasis:
    """Per-block bases of the extension fields over the base field.

    Block i carries a basis of F_{q^{m_i}} over F_q, as elements of the
    extension context; coordinates of any extension scalar in that basis
    come from one prime-field linear solve, precomputed per block and held
    transposed, so that the solve is one product of the scalar's digits.
    """

    __slots__ = ("base", "shape", "exts", "bases", "_prime", "_solvers")

    def __init__(
        self, base: FieldContext, shape: Shape, bases: Sequence[Sequence[int]]
    ):
        self.base = base
        self.shape = shape
        try:
            self.bases = tuple(map(tuple, bases))
        except TypeError:
            raise GammaNotBasis("gamma bases must be one sequence of elements per block") from None
        if len(self.bases) != shape.ell:
            raise ShapeMismatch("one basis per block")
        self.exts = tuple(extension_context(base, m) for m in shape.m)
        for i, gams in enumerate(self.bases):
            if len(gams) != shape.m[i]:
                raise GammaNotBasis(f"block {i}: need {shape.m[i]} basis elements")
            if any(type(g) is not int or not 0 <= g < self.exts[i].q for g in gams):
                raise GammaNotBasis(f"block {i}: element outside the extension field")
        self._prime = FieldContext(base.p, 1)  # the field of every solve
        self._solvers = tuple(self._build_solver(i) for i in range(shape.ell))

    @classmethod
    def monomial(cls, base: FieldContext, shape: Shape) -> "GammaBasis":
        """Powers 1, x, ..., x^(m_i - 1) of the extension variable."""
        for m in shape.m:
            # bounds m_i by the field order before any power p**j is formed
            extension_context(base, m)
        return cls(base, shape, [_monomial_reprs(m, base.p) for m in shape.m])

    def _build_solver(self, i: int) -> Tuple[Tuple[int, ...], ...]:
        """The rows of the inverse of block i's system, transposed."""
        base, big = self.base, self.exts[i]
        p, e, em = base.p, base.e, base.e * self.shape.m[i]
        embed = subfield_embedding(base, big)
        cols = []
        for gam in self.bases[i]:
            for j in range(e):
                beta = embed[_undigits([0] * j + [1], p)] if j else 1
                cols.append(_digits(big.mul(beta, gam), p, em))
        mat = MatrixFq(self._prime, cols)  # the transpose of the system's matrix
        if not mat.is_invertible():
            raise GammaNotBasis(f"block {i}: elements are dependent over the base field")
        return mat.inverse().rows

    def coordinates(self, i: int, w: int) -> Tuple[int, ...]:
        """Base-field coordinates of extension scalar w in basis i."""
        p, e, m = self.base.p, self.base.e, self.shape.m[i]
        (t,) = _products(self._prime, [_digits(w, p, e * m)], self._solvers[i], e * m)
        return tuple(_undigits(t[k * e : (k + 1) * e], p) for k in range(m))

    def _check_vector(self, v: Sequence[Sequence[int]]) -> None:
        """Refuse v unless segment i holds n_i elements of F_{q^(m_i)}, one per block."""
        if len(v) != self.shape.ell:
            raise ShapeMismatch("one segment per block")
        for i, seg in enumerate(v):
            nn, top = self.shape.n[i], self.exts[i].q
            if len(seg) != nn:
                raise ShapeMismatch(f"block {i}: expected {nn} coordinates")
            for w in seg:
                if type(w) is not int or not 0 <= w < top:
                    raise ContextMismatch(f"block {i}: {w!r} is not an element of F_{top}")

    def expand_vector(self, v: Sequence[Sequence[int]]) -> MatrixTuple:
        """The matrix tuple whose block i solves (gamma_i) X = v_i."""
        self._check_vector(v)
        blocks = []
        for i, seg in enumerate(v):
            mm, nn = self.shape.m[i], self.shape.n[i]
            cols = [self.coordinates(i, w) for w in seg]
            blocks.append(
                MatrixFq(self.base, [[cols[c][r] for c in range(nn)] for r in range(mm)])
            )
        return MatrixTuple(self.shape, blocks)


def gamma_expand(
    gamma: GammaBasis,
    vectors: Sequence[Sequence[Sequence[int]]],
    subfield_degree: Optional[int] = None,
) -> LinearCode:
    """Base-field matrix code spanned by a subfield-linear vector code.

    vectors generate the code over F_{q^k}, k = subfield_degree (default
    gcd of the m_i); the result is their closure under the subfield
    scalars, expanded blockwise through gamma.
    """
    shape, base = gamma.shape, gamma.base
    for v in vectors:
        gamma._check_vector(v)
    k = gcd(*shape.m) if len(shape.m) > 1 else shape.m[0]
    if subfield_degree is not None:
        if type(subfield_degree) is not int:
            raise BadDegree(f"subfield degree {subfield_degree!r} must be an int")
        if subfield_degree < 1 or k % subfield_degree:
            raise NotLinearOverSubfield(
                f"degree {subfield_degree} does not divide every block degree"
            )
        k = subfield_degree
    sub = extension_context(base, k)
    embeds = [subfield_embedding(sub, ext) for ext in gamma.exts]
    scalars = _monomial_reprs(k, base.p)
    spanning = []
    for v in vectors:
        for s in scalars:
            scaled = tuple(
                _products(gamma.exts[i], [(embeds[i][s],)], [seg], len(seg))[0]
                for i, seg in enumerate(v)
            )
            spanning.append(gamma.expand_vector(scaled))
    return LinearCode.from_tuples(shape, base, spanning)
