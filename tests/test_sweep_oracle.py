"""The pruned family walker (Meet.sweep) against the flat sweep it replaced.

Every result that a sweep feeds is compared with the flat loops of
tests/helpers.py, over F_2, F_3, F_4, F_5, F_8 and F_9, on the product family,
the binary tail family and the support family of non-strict shapes, for
the zero code, the full space, random codes and MSRD codes.  Small caps
must refuse at the same weight and with the same message as the flat
sweep.
"""

import random
import re

import pytest

from sumrank import (
    ANTICODE_CAP,
    LinearCode,
    Shape,
    admissible_ranks,
    gen_weight,
    msrd_check,
    r_msrd_check,
    singleton_distance_bound,
    threshold_table,
    weight_profile,
    worst_case_leakage,
)
from sumrank import anticode, genweights
from sumrank.anticode import Meet, _anticode_bound_inverse
from sumrank.errors import EnumerationTooLarge

from helpers import (
    F2,
    F3,
    F4,
    F5,
    F8,
    F9,
    flat_family,
    flat_gen_weight,
    flat_leakage,
    flat_msrd_report,
    flat_weights,
    list_meet,
    random_code,
)

CASES = [
    # square blocks: row supports next to col supports
    ("product", F2, Shape((3, 2), (3, 2))),
    ("product", F3, Shape((2, 2), (2, 2))),
    ("product", F4, Shape((2, 2), (2, 1))),
    ("product", F8, Shape((2, 1), (2, 1))),
    # F_9 has no packed form: its row kernel is _ListRows
    ("product", F9, Shape((2, 1), (2, 1))),
    # binary tails on three trailing 1x1 blocks, and on a shape of 1x1
    # blocks only, where a tail has no head blocks
    ("all", F2, Shape((2, 1, 1, 1), (2, 1, 1, 1))),
    ("all", F2, Shape((1,) * 5, (1,) * 5)),
    # F_5 has no packed form either; it comes after the cases above so that
    # the positional ids of the strict-only parametrization stay as they were
    ("product", F5, Shape((2, 1), (2, 1))),
    # support spaces on non-strict shapes
    ("support", F2, Shape((2, 3), (3, 3), strict=False)),
    ("support", F3, Shape((2, 3), (3, 2), strict=False)),
    ("support", F4, Shape((1, 2), (2, 2), strict=False)),
]
IDS = [f"{v}-q{c.q}-{s.m}x{s.n}" for v, c, s in CASES]


def _msrd_code(rng, ctx, shape, k):
    """Rejection sampling on the codeword-scan distance, not the sweep."""
    bound = singleton_distance_bound(shape, k)
    for _ in range(400):
        code = random_code(rng, ctx, shape, k)
        if code.dim == k and code.min_distance(method="enumerate") == bound:
            return code
    return None


def _codes(ctx, shape):
    """The zero code, the full space, random codes and, on strict shapes,
    MSRD codes of the dimensions that admit them."""
    rng = random.Random(shape.ambient_dim * 31 + ctx.q)
    n = shape.ambient_dim
    out = [LinearCode.zero(shape, ctx), LinearCode.full(shape, ctx)]
    out += [random_code(rng, ctx, shape, k) for k in (1, 2, n // 2, n - 2, n - 1)]
    if shape.strict:
        for k in (shape.m[0], n - shape.m[-1]):
            code = _msrd_code(rng, ctx, shape, k)
            if code is not None:
                out.append(code)
    return out


def _weights(desc):
    """The weights the walker reports for one flat member."""
    weights = tuple(b.space.dim for b in desc.blocks)
    if desc.tail is not None:
        weights += (desc.tail.dim,)
    return weights


def _members(meet, desc):
    """What the walker reports for one flat member: (meet, weights)."""
    return meet.dim(desc), _weights(desc)


@pytest.mark.parametrize("variant,ctx,shape", CASES, ids=IDS)
def test_sweep_yields_every_member_once(variant, ctx, shape):
    for code in _codes(ctx, shape):
        meet = Meet(code)
        for mu in range(shape.ncols + 1):
            flat = sorted(_members(meet, d) for d in flat_family(ctx, shape, mu, variant))
            assert sorted(meet.sweep(mu, variant)) == flat, (code.dim, mu)
            # with a floor: strictly rising meets up to the flat maximum
            for floor in (-1, 0, 1):
                seen = [t for t, _ in meet.sweep(mu, variant, floor=floor)]
                assert seen == sorted(set(seen))
                above = [t for t, _ in flat if t > floor]
                assert seen[-1:] == ([max(above)] if above else [])
            # size keeps only the members of one dimension
            dims = {}
            for desc in flat_family(ctx, shape, mu, variant):
                dims.setdefault(desc.dim(), []).append(_members(meet, desc))
            for size, members in dims.items():
                assert sorted(meet.sweep(mu, variant, size=size)) == sorted(members)


@pytest.mark.parametrize(
    "variant,ctx,shape",
    CASES,
    ids=[f"{v}-{s.m}x{s.n}" if c is F2 else f"{v}-q{c.q}-{s.m}x{s.n}" for v, c, s in CASES],
)
def test_packed_sweep_matches_list_rows(variant, ctx, shape):
    # the sweep builds and reduces G·h through the field's row kernel; every
    # member's meet must be the one list_meet's independent elimination gives
    for code in _codes(ctx, shape):
        meet = Meet(code)
        for mu in range(shape.ncols + 1):
            family = flat_family(ctx, shape, mu, variant)
            want = sorted((list_meet(code, d), _weights(d)) for d in family)
            assert sorted(meet.sweep(mu, variant)) == want, (code.dim, mu)


@pytest.mark.parametrize("variant,ctx,shape", CASES, ids=IDS)
def test_weights_match_the_flat_sweep(variant, ctx, shape):
    for code in _codes(ctx, shape):
        flat = flat_weights(code, variant)
        assert weight_profile(code, variant).weights == flat
        for r in range(1, code.dim + 1):
            assert gen_weight(code, r, variant) == flat[r - 1], (code.dim, r)


@pytest.mark.parametrize("variant,ctx,shape", CASES, ids=IDS)
def test_leakage_matches_the_flat_sweep(variant, ctx, shape):
    for code in _codes(ctx, shape):
        assert threshold_table(code) == flat_weights(code.dual(), "support")
        for mu in range(shape.ncols + 1):
            assert worst_case_leakage(code, mu) == flat_leakage(code, mu), (code.dim, mu)


@pytest.mark.parametrize("variant,ctx,shape", [c for c in CASES if c[2].strict])
def test_msrd_report_matches_the_flat_sweep(variant, ctx, shape):
    codes = [c for c in _codes(ctx, shape) if c.dim]
    for code in codes:
        assert msrd_check(code).to_dict() == flat_msrd_report(code), code.dim
    assert any(msrd_check(c).is_msrd for c in codes)


@pytest.mark.parametrize("variant,ctx,shape", CASES, ids=IDS)
def test_weight_ranges_match_the_flat_sweep(variant, ctx, shape):
    # the one rank-range walk behind gen_weight, weight_profile, msrd_check
    # and r_msrd_check: every range [first, last] of every code
    for code in _codes(ctx, shape):
        flat = list(flat_weights(code, variant))
        meets = genweights._sweeps(Meet(code), variant, ANTICODE_CAP)
        for first in range(1, code.dim + 1):
            for last in range(first, code.dim + 1):
                got = genweights._weights(meets, shape.ncols, first, last)
                assert got == flat[first - 1 : last], (code.dim, first, last)


@pytest.mark.parametrize(
    "ctx,shape",
    [(c, s) for _, c, s in CASES if s.strict],
    ids=[f"q{c.q}-{s.m}x{s.n}" for _, c, s in CASES if s.strict],
)
def test_rank_msrd_check_matches_the_flat_weights(ctx, shape):
    # r_msrd_check walks only the ranks r .. r + m_k; its answer at every
    # admissible rank must be the flat profile's d_r against the closed form
    rng = random.Random(shape.ambient_dim * 17 + ctx.q)
    hits = 0
    for k in range(1, shape.ambient_dim + 1):
        if _anticode_bound_inverse(shape, k)[1]:
            continue
        ranks = admissible_ranks(shape, k)
        codes = [c for c in (random_code(rng, ctx, shape, k) for _ in range(3)) if c.dim == k]
        msrd = _msrd_code(rng, ctx, shape, k)
        if msrd is not None:
            codes.append(msrd)
        for code in codes:
            flat = flat_weights(code)
            for r, h in ranks.items():
                want = flat[r - 1] == h
                assert r_msrd_check(code, r) == want, (k, r)
                hits += want
    assert hits


# ---------------------------------------------------------------- refusals


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except EnumerationTooLarge as exc:
        return "refused", str(exc)


def _check_count(message, ctx, shape, variant):
    """The count a refusal names is the size of the family it refused;
    variant is "support" or the family whose products and tails it names."""
    found = re.fullmatch(r"(\d+) (tail )?anticodes at weight (\d+) exceed cap \d+", message)
    assert found is not None, message
    total, tail, mu = int(found[1]), found[2], int(found[3])
    if variant != "support":
        variant = "all" if tail else "product"
    family = flat_family(ctx, shape, mu, variant)
    assert total == sum((d.tail is not None) == bool(tail) for d in family)


# (variant, field, shape, the tail refusal some cap must reach)
REFUSAL_CASES = [c + (None,) for c in CASES if c[2].ell != 5] + [
    # at weight 3, 20 tails but 10 products
    ("all", F2, Shape((1,) * 5, (1,) * 5), "20 tail anticodes at weight 3"),
    # seven trailing 1x1 blocks: the tails are counted like any family
    ("all", F2, Shape((2,) + (1,) * 7, (2,) + (1,) * 7), "350 tail anticodes at weight 3"),
]
CAPS = (1, 2, 3, 4, 6, 9, 12, 20, 35, 60, 100, 200, 400)
refusal_cases = pytest.mark.parametrize(
    "variant,ctx,shape,tail_refusal",
    REFUSAL_CASES,
    ids=[f"{v}-q{c.q}-{s.m}x{s.n}" for v, c, s, _ in REFUSAL_CASES],
)


@refusal_cases
def test_refusals_match_the_flat_sweep(variant, ctx, shape, tail_refusal, monkeypatch):
    monkeypatch.setattr(anticode, "_TABLE", {})
    _check_refusals(variant, ctx, shape, tail_refusal)


@refusal_cases
def test_refusals_match_the_flat_sweep_on_a_warm_table(
    variant, ctx, shape, tail_refusal, monkeypatch
):
    # a default-cap sweep of every weight keeps each part, pool and tail of
    # the family; each guard must still refuse a small cap as on a cold table
    monkeypatch.setattr(anticode, "_TABLE", {})
    code = random_code(random.Random(9), ctx, shape, shape.ambient_dim // 2)
    for mu in range(shape.ncols + 1):
        for v in ("product", "all", "support") if shape.strict else ("support",):
            list(Meet(code).sweep(mu, v))
    assert len(anticode._TABLE) > shape.ncols
    _check_refusals(variant, ctx, shape, tail_refusal)


def _check_refusals(variant, ctx, shape, tail_refusal):
    rng = random.Random(5)
    n = shape.ambient_dim
    codes = [random_code(rng, ctx, shape, k) for k in (1, 2, n // 2)]
    # a weight-1 codeword: d_1 = 1 is found before any tail is reached
    codes.append(LinearCode(shape, ctx, [(0,) * (n - 1) + (1,)]))
    refused = set()
    for code in codes:
        # (walker, flat sweep, family a refusal counts)
        pairs = [
            (lambda c: weight_profile(code, variant, c).weights,
             lambda c: flat_weights(code, variant, c), variant),
            (lambda c: threshold_table(code, c),
             lambda c: flat_weights(code.dual(), "support", c), "support"),
            (lambda c: worst_case_leakage(code, 1, c),
             lambda c: flat_leakage(code, 1, c), "support"),
            (lambda c: worst_case_leakage(code, shape.ncols // 2, c),
             lambda c: flat_leakage(code, shape.ncols // 2, c), "support"),
        ]
        for r in range(1, code.dim + 1):
            pairs.append((
                lambda c, r=r: gen_weight(code, r, variant, c),
                lambda c, r=r: flat_gen_weight(code, r, variant, c),
                variant,
            ))
        if shape.strict:
            pairs.append((
                lambda c: msrd_check(code, c).to_dict(),
                lambda c: flat_msrd_report(code, c),
                "all",
            ))
        for fast, flat, family in pairs:
            for cap in CAPS:
                got = _outcome(fast, cap)
                assert got == _outcome(flat, cap), (code.dim, cap)
                if got[0] == "refused" and got[1].startswith("dual basis"):
                    # msrd's dual guard, checked at the cap before any sweep
                    entries = n * (n - code.dim)
                    assert got[1] == f"dual basis of {entries} entries exceeds cap {cap}"
                elif got[0] == "refused":
                    _check_count(got[1], ctx, shape, family)
                    refused.add(got[1].split(" exceed")[0])
    assert any(re.match(r"\d+ anticodes at weight", m) for m in refused)
    if tail_refusal:
        assert any(m.startswith(tail_refusal) for m in refused)
