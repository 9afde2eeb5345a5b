"""The anticode table: the code-independent half of every sweep.

anticode._TABLE keeps, per field and shape, each weight's product and tail
parts, the check bases of every pool and the binary tails, and every Meet
of the process reads them.  These tests pin its contract: a guard reads the
caller's cap on every call, in the same order on a cold and a warm table;
what a guard refuses is not kept; entries never mix fields or shapes; each
entry equals an independent build; and no sweep leaves a reference cycle.
"""

import gc
import random
from itertools import product as iter_product

import pytest

from sumrank import (
    LinearCode,
    MatrixFq,
    Shape,
    covering_number,
    enumerate_anticodes,
    equivalent_codes,
    gen_weight,
    meshulam_search,
    msrd_check,
    random_isometry,
    threshold_table,
    weight_profile,
    worst_case_leakage,
)
from sumrank import anticode
from sumrank.anticode import Meet, _check_bases
from sumrank.errors import EnumerationTooLarge
from sumrank.matfq import Subspace, enumerate_subspaces

from helpers import F2, F3, F4, brute_optimal_tails, flat_weights, random_code

SCALARS = Shape((1,) * 5, (1,) * 5)


@pytest.fixture
def cold(monkeypatch):
    table = {}
    monkeypatch.setattr(anticode, "_TABLE", table)
    return table


def test_a_weight_its_products_decide_never_counts_its_tails(cold):
    # weight 3 of F_2 (1^5)x(1^5) has 10 products and 20 tails; the span of
    # 11100 meets a product at weight 3, so the tails are never reached
    code = LinearCode(SCALARS, F2, [(1, 1, 1, 0, 0)])
    for cap in (12, 15):
        assert gen_weight(code, 1, "all", cap) == 3
    assert len(cold[F2, SCALARS, "all", 3]) == 3  # the products only
    list(Meet(code).sweep(3, "all"))  # a default-cap walk keeps the tails too
    assert len(cold[F2, SCALARS, "all", 3]) == 5
    for cap in (12, 15):
        assert gen_weight(code, 1, "all", cap) == 3


def test_a_refused_part_or_pool_is_not_stored(cold):
    code = LinearCode(SCALARS, F2, [(1, 1, 1, 1, 0)])
    for _ in range(2):
        with pytest.raises(EnumerationTooLarge, match="^20 tail anticodes at weight 3 exceed"):
            weight_profile(code, "all", 12)
        assert len(cold[F2, SCALARS, "all", 3]) == 3  # the products are kept, the tails not
    with pytest.raises(EnumerationTooLarge, match="^10 anticodes at weight 2 exceed cap 9$"):
        list(Meet(code).sweep(2, "product", 9))
    assert (F2, SCALARS, "product", 2) not in cold
    # a pool refuses as enumerate_subspaces does, cold and warm
    with pytest.raises(EnumerationTooLarge, match="^35 subspaces exceed cap 34$"):
        _check_bases(F2, 4, 2, 34)
    assert (F2, 4, 2) not in cold
    assert len(_check_bases(F2, 4, 2, 35)) == 35
    with pytest.raises(EnumerationTooLarge, match="^35 subspaces exceed cap 34$"):
        _check_bases(F2, 4, 2, 34)


def test_entries_never_mix_fields_or_shapes(cold):
    m, n = (2, 2), (2, 1)
    strict, loose = Shape(m, n), Shape(m, n, strict=False)
    rng = random.Random(7)
    # F_2 and F_4 on one shape: the counts and pools differ
    codes = [random_code(rng, ctx, strict, 3) for ctx in (F2, F4, F2)]
    wants = [flat_weights(code) for code in codes]
    for code, want in zip(codes + codes[::-1], wants + wants[::-1]):
        assert weight_profile(code).weights == want
    assert len(cold[F2, 2, 1]) == 3 and len(cold[F4, 2, 1]) == 5
    assert cold[F2, strict, "product", 1][0] < cold[F4, strict, "product", 1][0]
    # one (m, n), strict and not: two entries per weight
    pair = [random_code(rng, F2, shape, 3) for shape in (strict, loose)]
    wants = [flat_weights(code, "support") for code in pair]
    for code, want in zip(pair + pair[::-1], wants + wants[::-1]):
        assert weight_profile(code, "support").weights == want
    for mu in range(1, strict.ncols + 1):
        assert cold[F2, strict, "support", mu] is not cold[F2, loose, "support", mu]


def _leaves(tree):
    """The weights under a prefix tree, read by a walk of its paths."""
    if tree is None:
        return [()]
    return [(u,) + rest for u, sub in tree for rest in _leaves(sub)]


def _compositions(bounds, total):
    return tuple(c for c in iter_product(*(range(b + 1) for b in bounds)) if sum(c) == total)


def _support_count(ctx, shape, comp, allow_row):
    total = 1
    for i, u in enumerate(comp):
        options = len(list(enumerate_subspaces(ctx, shape.n[i], u)))
        if allow_row and shape.m[i] == shape.n[i] and 0 < u < shape.n[i]:
            options += len(list(enumerate_subspaces(ctx, shape.m[i], u)))
        total *= options
    return total


def _nonproduct(ctx, t, r):
    """Non-product optimal tails of dimension r, from the word walk."""
    return [
        w for w in brute_optimal_tails(ctx, t)
        if w.dim == r and any(sum(1 for x in row if x) > 1 for row in w.basis)
    ]


@pytest.mark.parametrize(
    "ctx,shape",
    [
        (F2, Shape((2, 1, 1, 1, 1), (2, 1, 1, 1, 1))),
        (F3, Shape((3, 2), (2, 2))),
        (F4, Shape((2, 2), (2, 1))),
    ],
    ids=["q2-tails", "q3-rows", "q4"],
)
def test_entries_match_an_independent_build(cold, ctx, shape):
    code = random_code(random.Random(11), ctx, shape, 3)
    for mu in range(shape.ncols + 1):
        for variant in ("product", "all", "support"):
            list(Meet(code).sweep(mu, variant))
    k = shape.scalar_suffix_start()
    t = shape.ell - k
    seen = set()
    for key, entry in cold.items():
        seen.add(len(key) if key[1] != "tails" else "tails")
        assert key[0] == ctx
        if len(key) == 3:  # the RREF check bases of one pool
            _, n, d = key
            assert entry == tuple(h.basis for h in enumerate_subspaces(ctx, n, d))
        elif key[1] == "tails":  # the check bases of the dim-r tails
            _, _, t_key, r = key
            tails = _nonproduct(ctx, t_key, r)
            assert len(entry) == len(tails)
            for checks, w in zip(entry, tails):
                assert Subspace(ctx, t_key, checks).basis == checks
                assert len(checks) == t_key - r
                # binary tails only: each check is orthogonal to each row of w
                dots = [sum(a * b for a, b in zip(h, v)) for h in checks for v in w.basis]
                assert all(x % 2 == 0 for x in dots)
        else:  # one weight's family
            _, key_shape, variant, mu = key
            assert key_shape == shape
            comps = _compositions(shape.n, mu)
            assert tuple(_leaves(entry[1])) == comps
            assert entry[2] == tuple(range(n + 1) for n in shape.n)
            allow_row = variant != "support"
            assert entry[0] == sum(_support_count(ctx, shape, c, allow_row) for c in comps)
            if len(entry) == 3:
                continue
            count, parts = entry[3:]
            want_count, want_parts = 0, []
            if variant == "all" and ctx.q == 2 and t:
                for r in range(t + 1):
                    heads = _compositions(shape.n[:k], mu - r)
                    tails = _nonproduct(ctx, t, r)
                    want_count += len(tails) * sum(
                        _support_count(ctx, shape, h, True) for h in heads
                    )
                    if heads and tails:
                        want_parts.append(tuple(h + (r,) for h in heads))
            assert count == want_count
            assert [tuple(_leaves(tree)) for _, tree, _ in parts] == want_parts
            assert all(tail for tail, _, _ in parts)
    assert seen == ({3, 4, "tails"} if ctx.q == 2 else {3, 4})


def test_sweeps_leave_no_reference_cycles():
    # every walk is a loop or a module-level function, never a nested function
    # that refers to itself, so whether it ends or is closed, nothing waits
    # for the collector (a self-calling closure in the binary tails or the
    # matching left 5 or 8 cyclic objects per call)
    rng = random.Random(5)
    code = random_code(rng, F2, Shape((3, 3), (3, 2)), 5)
    assert code.dim == 5
    mats = [MatrixFq(F2, rows) for rows in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [1, 1]])]
    small = random_code(rng, F2, Shape((2, 1), (2, 1)), 2)
    image = random_isometry(F2, small.shape, rng).apply_code(small)
    calls = {
        "weight_profile": lambda: weight_profile(code),
        "gen_weight": lambda: gen_weight(code, 2),
        "msrd_check": lambda: msrd_check(code),
        "threshold_table": lambda: threshold_table(code),
        "worst_case_leakage": lambda: worst_case_leakage(code, 2),
        "a sweep dropped after its first item": lambda: next(Meet(code).sweep(2, "product")),
        "covering_number": lambda: covering_number(mats),
        "meshulam_search": lambda: meshulam_search(MatrixFq.zero(F2, 2, 2), mats),
        "binary tails": lambda: list(enumerate_anticodes(F2, Shape((2, 1, 1, 1), (2, 1, 1, 1)), 2, "all")),
        "equivalent_codes": lambda: equivalent_codes(small, image),
    }
    for call in calls.values():
        call()
    gc.collect()
    gc.disable()
    try:
        for name, call in calls.items():
            call()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_a_weight_tree_shares_its_subtrees(cold):
    # weight 7 of (1^15)x(1^15) holds C(15, 7) = 6435 block weights, which
    # share one subtree per (block, rest): at most 15 * 8 nodes
    shape = Shape((1,) * 15, (1,) * 15)
    list(Meet(LinearCode.zero(shape, F2)).sweep(7, "support"))
    count, tree = cold[F2, shape, "support", 7][:2]
    nodes, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is not None and id(node) not in nodes:
            nodes.add(id(node))
            stack += [sub for _, sub in node]
    assert count == len(_leaves(tree)) == 6435
    assert len(nodes) <= 15 * 8
