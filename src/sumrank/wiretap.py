"""Coset-coding leakage over wiretapped multishot networks.

A message from a complement of the code is masked by a uniform codeword
and each block travels through its own linearly coded network; a tap of
B_i on block i reveals D_i B_i.  The leaked information in base-q
symbols is the dimension of the dual code met with the product of the
tap column spaces, and an exhaustive mutual-information computation
reproduces it exactly.  Strictness of the shape is never assumed here.

A coset code is usually small and its dual large.  leakage_dim meets C
itself on every code.  The three sweeps (threshold_table,
worst_case_leakage, leakage_threshold) read the dual's support family
through one side choice, _dual_support_meets: a code at most half the
ambient space with equal rows is swept itself, by the meet identity of
genweights._weights, and any other code sweeps its dual.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .anticode import AnticodeDescriptor, BlockSupport, Meet
# bench/selftest.py checks that the benchmark's tracer patches this site
from .anticode import product_descriptors  # noqa: F401
from .code import ANTICODE_CAP, LinearCode, Shape
from .errors import (
    AmbientMismatch,
    ContextMismatch,
    EnumerationTooLarge,
    InvariantViolation,
    RankOutOfRange,
    ShapeMismatch,
    _record,
)
from .genweights import _sweeps, _weights
from .matfq import MatrixFq, Subspace, _products, _row_kernel, rank_rows

__all__ = [
    "canonical_complement",
    "support_product",
    "leakage_dim",
    "worst_case_leakage",
    "WiretapScenario",
    "empirical_mi",
    "leakage_threshold",
    "threshold_table",
    "MI_CAP",
]

MI_CAP = 1 << 20


def canonical_complement(code: LinearCode) -> LinearCode:
    """Span of the unit vectors on the code's non-pivot coordinates."""
    ambient = code.ambient_dim
    pivots = set(code.pivots)
    rows = [
        tuple(1 if j == c else 0 for j in range(ambient))
        for c in range(ambient)
        if c not in pivots
    ]
    comp = LinearCode(code.shape, code.ctx, rows)
    if rank_rows(comp.rows + code.rows, ambient, code.ctx) != ambient:
        raise InvariantViolation("unit vectors off the pivots must complement the code")
    return comp


def _tap_supports(
    code: LinearCode, taps: Sequence[Optional[MatrixFq]]
) -> List[Subspace]:
    shape = code.shape
    if len(taps) != shape.ell:
        raise ShapeMismatch("one tap matrix per block")
    spaces = []
    for i, b in enumerate(taps):
        if b is None:
            # untapped block: nothing observed, support space is zero
            spaces.append(Subspace.zero(code.ctx, shape.n[i]))
            continue
        if b.ctx != code.ctx:
            raise ContextMismatch(f"tap {i} over a different field context")
        if b.m != shape.n[i]:
            raise ShapeMismatch(f"tap {i} must have {shape.n[i]} rows")
        spaces.append(b.column_space())
    return spaces


def support_product(
    shape: Shape, ctx, spaces: Sequence[Subspace]
) -> AnticodeDescriptor:
    """The product of row-support spaces over the given column spaces."""
    blocks = tuple(BlockSupport("col", sp) for sp in spaces)
    return AnticodeDescriptor(shape, ctx, blocks)


def _dual_support_meets(code: LinearCode, cap: int) -> Callable[[int, int], Iterable[int]]:
    """meets(mu, floor) of genweights._weights for C^⊥'s support family: sweeps
    of C (Meet._dual_meets) if 2 dim C <= ambient and rows are equal, else of C^⊥."""
    if 2 * code.dim <= code.ambient_dim and len(set(code.shape.m)) == 1:
        return partial(Meet(code)._dual_meets, cap=cap)
    return _sweeps(Meet(code.dual()), "support", cap)


def leakage_dim(code: LinearCode, taps: Sequence[Optional[MatrixFq]]) -> int:
    """Symbols leaked to a tap profile: dim of the dual inside the taps'
    support product A, read from C as dim A - dim C + dim(C ∩ A^⊥), A^⊥
    the product of the spaces V_i^⊥."""
    spaces, shape = _tap_supports(code, taps), code.shape
    desc = support_product(shape, code.ctx, [v.orthogonal() for v in spaces])
    dim_a = sum(m * v.dim for m, v in zip(shape.m, spaces))
    return dim_a - code.dim + Meet(code).dim(desc)


def worst_case_leakage(code: LinearCode, mu: int, cap: int = ANTICODE_CAP) -> int:
    """Max leakage over all tap profiles with mu links total: the largest
    meet of the dual's weight-mu support family, from one sweep."""
    if type(mu) is not int or not 0 <= mu <= code.shape.ncols:
        raise ShapeMismatch(f"links {mu!r} outside 0..{code.shape.ncols}")
    # each meet the sweep yields beats every earlier one
    return max(_dual_support_meets(code, cap)(mu, 0), default=0)


@_record
class WiretapScenario:
    """A code and per-block tap matrices.

    The message is uniform on a complement of the code; which complement
    does not change I(M; W), so empirical_mi builds the canonical one.
    """

    code: LinearCode
    taps: Tuple[Optional[MatrixFq], ...]

    def __post_init__(self):
        object.__setattr__(self, "taps", tuple(self.taps))
        _tap_supports(self.code, self.taps)

    @property
    def tapped_links(self) -> int:
        return sum(b.n for b in self.taps if b is not None)

    def observe_flat(self, flat: Sequence[int]) -> Tuple[int, ...]:
        """Flattened (D_1 B_1, ..., D_ell B_ell) for a flattened D."""
        shape, ctx = self.code.shape, self.code.ctx
        if len(flat) != shape.ambient_dim:
            raise AmbientMismatch("flat vector length differs from ambient dimension")
        out: List[int] = []
        for i, b in enumerate(self.taps):
            if b is not None:
                rows = [flat[line.start : line.stop] for line in shape.lines(i, "col")]
                out += [x for row in _products(ctx, rows, b.rows, b.n) for x in row]
        return tuple(out)


def _exact_log_q(value: Fraction, q: int) -> int:
    """log_q of a q-power probability, 1/q^j; anything else breaks linearity."""
    if value <= 0:
        raise InvariantViolation("log of a nonpositive probability ratio")
    num, den = value.numerator, value.denominator
    out = 0
    while den % q == 0:
        den //= q
        out -= 1
    if num != 1 or den != 1:
        raise InvariantViolation(f"{value} is not a power of {q}")
    return out


def _entropy_q(counts: Dict, total: int, q: int) -> Fraction:
    """Base-q entropy of a count table, exact."""
    acc = Fraction(0)
    for c in counts.values():
        p = Fraction(c, total)
        acc -= p * _exact_log_q(p, q)
    return acc


def empirical_mi(scenario: WiretapScenario, cap: int = MI_CAP) -> int:
    """Exhaustive I_q(M; W) over all message-codeword pairs, the message
    uniform on canonical_complement(code).

    Every distribution that appears is uniform on a q-power support, so
    the entropies are exact integers and the result matches leakage_dim.
    """
    code = scenario.code
    ctx = code.ctx
    q = ctx.q
    if q**code.ambient_dim > cap:
        raise EnumerationTooLarge(f"{q}**{code.ambient_dim} pairs exceed cap {cap}")
    msg = canonical_complement(code)
    observed_code = [scenario.observe_flat(c) for c in code.iter_flat(include_zero=True)]
    observed_msg = [scenario.observe_flat(m) for m in msg.iter_flat(include_zero=True)]
    width = len(observed_msg[0])  # the zero message is always there
    kernel = _row_kernel(ctx, width)
    packed_code = [kernel.pack(wc) for wc in observed_code]
    # the view of message i under codeword c is the sum of their views
    joint_counts = Counter(
        (mi_idx, kernel.unpack(kernel.combine((1, 1), (wm, wc)), 0, width))
        for mi_idx, wm in enumerate(map(kernel.pack, observed_msg))
        for wc in packed_code
    )
    w_counts: Counter = Counter()
    for (_, w), count in joint_counts.items():
        w_counts[w] += count
    # every message meets every codeword once
    m_counts = dict.fromkeys(range(len(observed_msg)), len(observed_code))
    total = len(observed_msg) * len(observed_code)
    mi = (
        _entropy_q(m_counts, total, q)
        + _entropy_q(w_counts, total, q)
        - _entropy_q(joint_counts, total, q)
    )
    if mi.denominator != 1:
        raise InvariantViolation(f"mutual information {mi} is not an integer")
    return int(mi)


def leakage_threshold(code: LinearCode, r: int, cap: int = ANTICODE_CAP) -> int:
    """Fewest tapped links forcing r leaked symbols: the r-th support
    weight of the dual code."""
    top = code.ambient_dim - code.dim
    if type(r) is not int or not 1 <= r <= top:  # True == 1 would read d_1
        raise RankOutOfRange(f"r={r!r} outside 1..{top}")
    return _weights(_dual_support_meets(code, cap), code.shape.ncols, r, r)[0]


def threshold_table(code: LinearCode, cap: int = ANTICODE_CAP) -> Tuple[int, ...]:
    """All leakage thresholds at once: the support weights of the dual."""
    top, meets = code.ambient_dim - code.dim, _dual_support_meets(code, cap)
    return tuple(_weights(meets, code.shape.ncols, 1, top)) if top else ()
