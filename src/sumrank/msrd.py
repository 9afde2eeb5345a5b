"""Maximum sum-rank distance codes: bounds, criteria, weight formulas.

Every closed form reads one bound or its inversion.  The Anticode Bound
r(h) is the largest dimension of a weight-h optimal anticode, the greedy
column fill of a strict shape of ambient dimension N; at a dimension k
its inversion is (h, s) with r(h) <= N - k = r(h) + s.  A code of
dimension k has distance at most h + 1; codes meeting it with s = 0 are
MSRD, and their weights are d_r = min{h : r(h) >= N - k + r}.  The module
checks the definition, four bordering criteria and the column-window
characterization, cross-asserting every equivalence the theory promises.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .anticode import (
    AnticodeDescriptor,
    BlockSupport,
    Meet,
    _anticode_bound,
    _anticode_bound_inverse,
)
# bench/selftest.py checks that the benchmark's tracer patches these sites
from .anticode import enumerate_anticodes, product_descriptors  # noqa: F401
from .code import ANTICODE_CAP, LinearCode, Shape
from .errors import (
    DimNotAdmissible,
    InvariantViolation,
    RankOutOfRange,
    ShapeMismatch,
    TrivialCode,
    _record,
)
from .genweights import _sweeps, _weights
from .matfq import Subspace

__all__ = [
    "dim_decomposition",
    "distance_decomposition",
    "d_max_for_dim",
    "r_mu",
    "anticode_dim_extremes",
    "singleton_distance_bound",
    "admissible_ranks",
    "msrd_weight_profile",
    "MsrdReport",
    "msrd_check",
    "r_msrd_check",
]


def dim_decomposition(shape: Shape, dim: int) -> Tuple[int, int, int]:
    """Unique (j, delta, s) with dim = T_j - delta*m_j - s, 0 <= s < m_j:
    (h, s) inverts the Anticode Bound at dim, (j, delta) decomposes distance
    h + 1.  Codes can only be MSRD when the remainder s vanishes."""
    h, s = _anticode_bound_inverse(shape, dim)
    return (*distance_decomposition(shape, h + 1), s)


def distance_decomposition(shape: Shape, d: int) -> Tuple[int, int]:
    """Unique (j, delta) with d = (columns before block j) + delta + 1."""
    if not 1 <= d <= shape.ncols:
        raise DimNotAdmissible(f"distance {d} outside 1..{shape.ncols}")
    j = shape.block_of_column(d)
    before = sum(shape.n[:j])
    return j, d - 1 - before


def d_max_for_dim(shape: Shape, dim: int) -> int:
    """Largest admissible distance for an exactly-decomposable dimension."""
    h, s = _anticode_bound_inverse(shape, dim)
    if s:
        j = shape.block_of_column(h + 1)
        raise DimNotAdmissible(f"dimension {dim} leaves remainder {s} in block {j}")
    return h + 1


def r_mu(shape: Shape, mu: int) -> int:
    """Largest dimension of a weight-mu product anticode: the Anticode Bound."""
    if mu and not 1 <= mu <= shape.ncols:
        raise DimNotAdmissible(f"distance {mu} outside 1..{shape.ncols}")
    return _anticode_bound(shape, mu)


def anticode_dim_extremes(shape: Shape, mu: int) -> Tuple[int, int]:
    """(min, max) dimension over weight-mu product anticodes.

    The max fills columns from the heaviest blocks forward; the min leaves
    out the heaviest ncols - mu columns, whose fill is the same bound.
    """
    if not 0 <= mu <= shape.ncols:
        raise DimNotAdmissible(f"weight {mu} outside 0..{shape.ncols}")
    return shape.ambient_dim - _anticode_bound(shape, shape.ncols - mu), _anticode_bound(shape, mu)


def singleton_distance_bound(shape: Shape, dim: int) -> int:
    """Sharpest distance bound for the given dimension: the largest d with
    r(d - 1) <= N - dim, which is h + 1 of the bound's inversion."""
    if dim > shape.ambient_dim:
        raise DimNotAdmissible(f"dimension {dim} admits no distance")
    return _anticode_bound_inverse(shape, dim)[0] + 1


def admissible_ranks(shape: Shape, dim: int) -> Dict[int, int]:
    """Map r -> h: the first rank of each run of the MSRD weight hierarchy,
    to the column h that the run's weights equal."""
    weights = msrd_weight_profile(shape, dim)
    return {r: h for r, h in enumerate(weights, 1) if r == 1 or weights[r - 2] != h}


def msrd_weight_profile(shape: Shape, dim: int) -> Tuple[int, ...]:
    """Closed-form weights of an MSRD code of the given dimension:
    d_r = min{h : r(h) >= N - dim + r}.

    The closed form is the product family's: it fails for "all" over F_2 with
    trailing 1x1 blocks, where the binary parity codes of length 3 to 5, all
    MSRD, have weights (2, 2), (2, 2, 4) and (2, 2, 4, 4).
    """
    h = d_max_for_dim(shape, dim)  # r(h - 1) = N - dim, so every d_r >= h
    weights = []
    for need in range(shape.ambient_dim - dim + 1, shape.ambient_dim + 1):
        while _anticode_bound(shape, h) < need:
            h += 1
        weights.append(h)
    return tuple(weights)


def _column_window_descriptor(
    shape: Shape, ctx, columns: frozenset
) -> AnticodeDescriptor:
    """Product anticode of everything supported on the given 1-based columns."""
    blocks = []
    for off, nn in zip(shape.column_offsets(), shape.n):
        local = [c - off - 1 for c in columns if off < c <= off + nn]
        vecs = [tuple(1 if t == c else 0 for t in range(nn)) for c in local]
        blocks.append(BlockSupport("col", Subspace.from_vectors(ctx, nn, vecs)))
    return AnticodeDescriptor(shape, ctx, tuple(blocks))


@_record
class MsrdReport:
    """msrd_check output: the decomposition, the verdicts, the criteria."""

    dim: int
    distance: int
    block: int
    delta: int
    remainder: int
    distance_bound: int
    is_msrd: bool
    c0: bool
    c1: bool
    c2: bool
    c3: Optional[bool]
    column_window: bool
    equal_rows: bool
    dual_distance: Optional[int]

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "distance": self.distance,
            "distance_bound": self.distance_bound,
            "block": self.block,
            "delta": self.delta,
            "remainder": self.remainder,
            "is_msrd": self.is_msrd,
            "criteria": {
                "c0": self.c0,
                "c1": self.c1,
                "c2": self.c2,
                "c3": self.c3,
                "column_window": self.column_window,
            },
            "equal_rows": self.equal_rows,
            "dual_distance": self.dual_distance,
        }


def msrd_check(code: LinearCode, cap: int = ANTICODE_CAP) -> MsrdReport:
    """Full criteria battery with the theory's equivalences re-asserted.

    Any disagreement between the definition and a criterion that should
    match it raises InvariantViolation rather than returning a report.
    c0 and c1 ask whether some member beats a floor, so their sweeps cut
    every prefix that cannot and stop at the first member found; c2 needs
    every member of its weight, so its sweep only shares the prefixes.
    """
    shape, ctx = code.shape, code.ctx
    if not shape.strict:
        raise ShapeMismatch("MSRD theory lives in strict shapes")
    if code.dim == 0:
        raise TrivialCode("the zero code has no distance")
    # c3 reads the dual: refuse one too large to build before any sweep
    code.check_dual_size(cap)
    n = shape.ncols
    ambient = shape.ambient_dim
    # the distance is d_1 of the product family; its sweep fills the pools
    # that the criteria below read again
    meet = Meet(code)
    (d,) = _weights(_sweeps(meet, "product", cap), shape.ncols, 1, 1)
    j, delta, s = dim_decomposition(shape, code.dim)
    bound = singleton_distance_bound(shape, code.dim)
    if d > bound:
        raise InvariantViolation("distance exceeds the dimension bound")
    is_msrd = s == 0 and d == bound

    # C0: every largest anticode one short of the distance complements the
    # code, dim(C + A) = dim C + dim A - dim(C ∩ A); dim(C + A) <= ambient,
    # so only a meet above dim C + dim A - ambient can break it
    if d == 1:
        c0 = code.dim == ambient
    else:
        target = r_mu(shape, d - 1)
        floor = code.dim + target - ambient
        c0 = next(meet.sweep(d - 1, "all", cap, floor=floor, size=target), None) is None

    # C1: exact dimension and zero intersection below the admissible distance,
    # which is the bound once the remainder vanishes
    c1 = s == 0 and all(
        next(meet.sweep(mu, "all", cap, floor=0), None) is None for mu in range(1, bound)
    )

    # C2: products at the distance meet the code in at least m_k dimensions,
    # k the last block with a nonzero support; a lower bound, so no cut
    c2 = all(
        t >= shape.m[max(i for i, u in enumerate(weights) if u)]
        for t, weights in meet.sweep(d, "product", cap)
    )

    # column windows: first d-1 columns plus one sliding column
    window = True
    for h in range(d, n + 1):
        k = shape.block_of_column(h)
        cols = frozenset(range(1, d)) | {h}
        desc = _column_window_descriptor(shape, ctx, cols)
        if meet.dim(desc) != shape.m[k]:
            window = False
            break

    # C3: the two distances fill the column count plus two
    dual = code.dual()
    dual_d: Optional[int] = None
    c3: Optional[bool] = None
    if dual.dim:
        dual_d = dual.min_distance(method="anticode", cap=cap)
        c3 = d + dual_d == n + 2

    equal_rows = all(m == shape.m[0] for m in shape.m)

    if c0 != is_msrd:
        raise InvariantViolation("criterion c0 must match the definition")
    if c1 != is_msrd:
        raise InvariantViolation("criterion c1 must match the definition")
    if c2 and not is_msrd:
        raise InvariantViolation("criterion c2 must imply the definition")
    if equal_rows and c2 != is_msrd:
        raise InvariantViolation("criterion c2 must match the definition for equal rows")
    if window != is_msrd:
        raise InvariantViolation("the column windows must match the definition")
    if c3 is not None:
        dual_h, dual_s = _anticode_bound_inverse(shape, dual.dim)
        both = is_msrd and dual_s == 0 and dual_d == dual_h + 1
        # only one direction survives unequal row counts: a pair of extremal
        # codes can attain their bounds at different decomposition points,
        # leaving d + d' short of n + 2
        if c3 and not both:
            raise InvariantViolation("criterion c3 must imply both-sides MSRD")
        if c3 and not equal_rows:
            raise InvariantViolation("criterion c3 forces equal row counts")
        if equal_rows and c3 != is_msrd:
            raise InvariantViolation("criterion c3 must match the definition for equal rows")

    return MsrdReport(
        dim=code.dim,
        distance=d,
        block=j,
        delta=delta,
        remainder=s,
        distance_bound=bound,
        is_msrd=is_msrd,
        c0=c0,
        c1=c1,
        c2=c2,
        c3=c3,
        column_window=window,
        equal_rows=equal_rows,
        dual_distance=dual_d,
    )


def r_msrd_check(code: LinearCode, r: int, cap: int = ANTICODE_CAP) -> bool:
    """Does the weight hierarchy hit its column at rank r?

    True means d_r equals the h tied to r; the run up to r + m_k - 1 and
    the step to the next admissible rank are then re-verified, since the
    theory guarantees both.
    """
    shape = code.shape
    if not shape.strict:
        raise ShapeMismatch("MSRD theory lives in strict shapes")
    if code.dim == 0:
        raise TrivialCode("the zero code has no weights")
    ranks = admissible_ranks(shape, code.dim)
    if type(r) is not int or r not in ranks:  # True == 1 would pass as a rank
        raise RankOutOfRange(f"rank {r!r} is not tied to a column; valid: {sorted(ranks)}")
    h = ranks[r]
    k = shape.block_of_column(h)
    # d_r .. d_{r + m_k}: the rank itself, its run and the next rank's step
    meets = _sweeps(Meet(code), "product", cap)
    prof = _weights(meets, shape.ncols, r, min(r + shape.m[k], code.dim))
    if prof[0] != h:
        return False
    if any(d != h for d in prof[: shape.m[k]]):
        raise InvariantViolation("the run below the next rank must be constant")
    if h < shape.ncols:
        nxt = r + shape.m[k]
        if ranks.get(nxt) != h + 1 or prof[nxt - r] != h + 1:
            raise InvariantViolation("a satisfied rank must propagate to the next")
    return True
