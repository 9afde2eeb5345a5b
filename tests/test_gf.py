"""Field arithmetic: exhaustive axioms at desk scale, table sanity,
modulus selection against an independent irreducibility scan."""

import random
from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumrank import FieldContext, Subspace, field_from_dict
from sumrank.errors import (
    ContextMismatch,
    DivideByZero,
    NotPrime,
    OrderTooLarge,
    ReducibleModulus,
)
from sumrank.gf import _digits, _undigits, is_irreducible, is_prime, lex_least_irreducible

SMALL = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]
BIGGER = [(2, 4), (3, 3), (2, 6)]


@pytest.mark.parametrize("p,e", SMALL)
def test_field_axioms_exhaustive(p, e):
    ctx = FieldContext(p, e)
    q = ctx.q
    for a in range(q):
        assert ctx.add(a, 0) == a
        assert ctx.mul(a, 1) == a
        assert ctx.add(a, ctx.neg(a)) == 0
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in range(q):
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
            for c in range(q):
                assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                    ctx.mul(a, b), ctx.mul(a, c)
                )


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (5, 3), (3, 5)])
def test_neg_and_sub_tables_match_digits(p, e):
    # odd p, e > 1, q <= 256: neg and sub read tables; the digit path is
    # the reference
    ctx = FieldContext(p, e)
    digits = [_digits(a, p, e) for a in range(ctx.q)]
    for a, da in enumerate(digits):
        assert ctx.neg(a) == _undigits([-d % p for d in da], p)
        for b, db in enumerate(digits):
            assert ctx.sub(a, b) == _undigits([(x - y) % p for x, y in zip(da, db)], p)


@pytest.mark.parametrize("p,e", [(3, 6), (5, 4), (7, 3)])
def test_odd_extensions_above_the_table_bound(p, e):
    # odd p, e > 1, q > 256: no add or neg table, so add, neg and sub run on
    # base-p digits
    ctx = FieldContext(p, e)
    assert ctx.q > 256 and ctx._neg_table is None
    rng = random.Random(ctx.q)
    for _ in range(3000):
        a, b, c = (rng.randrange(ctx.q) for _ in range(3))
        assert ctx.add(a, ctx.neg(a)) == 0
        assert ctx.sub(ctx.add(a, b), b) == a
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
    space = Subspace(ctx, 5, [[rng.randrange(ctx.q) for _ in range(5)] for _ in range(2)])
    dual = space.orthogonal()
    assert space.dim == 2 and dual.dim == 3
    for u in space.basis:
        for v in dual.basis:
            assert reduce(ctx.add, map(ctx.mul, u, v)) == 0


@pytest.mark.parametrize("p,e", BIGGER)
def test_field_axioms_pairwise(p, e):
    # triples are sampled, pairs are exhaustive
    ctx = FieldContext(p, e)
    q = ctx.q
    for a in range(q):
        if a:
            assert ctx.mul(a, ctx.inv(a)) == 1
        for b in range(q):
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
    for a in range(1, q, 7):
        for b in range(1, q, 5):
            for c in range(1, q, 3):
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(
                    ctx.mul(a, b), ctx.mul(a, c)
                )


@pytest.mark.parametrize("p,e", SMALL + BIGGER)
def test_frobenius_is_additive(p, e):
    ctx = FieldContext(p, e)
    for a in range(ctx.q):
        for b in range(ctx.q):
            left = ctx.pow(ctx.add(a, b), p)
            right = ctx.add(ctx.pow(a, p), ctx.pow(b, p))
            assert left == right


@pytest.mark.parametrize("p,e", SMALL + BIGGER)
def test_generator_spans_units(p, e):
    ctx = FieldContext(p, e)
    seen = set()
    acc = 1
    for _ in range(ctx.q - 1):
        seen.add(acc)
        acc = ctx.mul(acc, ctx.generator)
    assert seen == set(range(1, ctx.q))
    assert acc == 1


def _irreducible_by_roots_and_products(f, p):
    """Reference check: no factor of degree <= deg/2, by direct polynomial
    multiplication over F_p."""
    deg = len(f) - 1
    if deg == 1:
        return True

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def all_polys(d):
        # monic of degree exactly d
        for enc in range(p**d):
            coeffs = []
            v = enc
            for _ in range(d):
                coeffs.append(v % p)
                v //= p
            yield coeffs + [1]

    for d in range(1, deg // 2 + 1):
        for g in all_polys(d):
            for h in all_polys(deg - d):
                prod = mul(g, h)
                if tuple(prod) == tuple(f):
                    return False
    return True


@pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_lex_least_modulus_matches_reference(p, e):
    ctx = FieldContext(p, e)
    # first monic degree-e polynomial, in base-p encoding order, that the
    # reference factorization test calls irreducible
    found = None
    for enc in range(p**e):
        coeffs = []
        v = enc
        for _ in range(e):
            coeffs.append(v % p)
            v //= p
        f = tuple(coeffs) + (1,)
        if _irreducible_by_roots_and_products(f, p):
            found = f
            break
    assert found == ctx.modulus
    assert is_irreducible(ctx.modulus, p)


def test_f4_modulus_is_x2_x_1():
    assert FieldContext(2, 2).modulus == (1, 1, 1)


def test_lex_least_irreducible_degree_one():
    assert lex_least_irreducible(2, 1) == (0, 1)
    assert lex_least_irreducible(7, 1) == (0, 1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    assert {n for n in range(2, 50) if is_prime(n)} == primes
    assert not is_prime(1)
    assert not is_prime(0)


def test_constructor_guards():
    with pytest.raises(NotPrime):
        FieldContext(4, 1)
    with pytest.raises(OrderTooLarge):
        FieldContext(2, 17)
    with pytest.raises(ReducibleModulus):
        FieldContext(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x + 1)^2 over F_2
    with pytest.raises(ReducibleModulus):
        FieldContext(2, 2, modulus=(1, 1))  # wrong degree
    # numbers that are not ints are refused, not coerced: e = 2.0 used to
    # raise a bare TypeError, and modulus [1.5, 1, True] read as x^2 + x + 1
    for p, e in [(3, 2.0), (3.0, 2), (True, 1), (2, True), ("2", 1)]:
        with pytest.raises(ContextMismatch, match="must be ints"):
            FieldContext(p, e)
    for modulus in [(1.5, 1, True), (1, 1, True), (1, 1.0, 1), (3, 1, 1), (-1, 1, 1)]:
        with pytest.raises(ReducibleModulus, match="must be ints"):
            FieldContext(2, 2, modulus)
    # a modulus that is not a sequence raised a bare TypeError
    with pytest.raises(ContextMismatch, match="must be a sequence"):
        FieldContext(2, 2, 5)
    with pytest.raises(DivideByZero):
        FieldContext(3, 1).inv(0)
    with pytest.raises(DivideByZero):
        FieldContext(2, 2).pow(0, -1)


def test_zero_powers():
    ctx = FieldContext(3, 2)
    assert ctx.pow(0, 0) == 1
    assert ctx.pow(0, 5) == 0


def test_serialization_roundtrip():
    for p, e in SMALL + BIGGER:
        ctx = FieldContext(p, e)
        d = ctx.to_dict()
        assert ("modulus" in d) == (e > 1)
        assert field_from_dict(d) == ctx
    assert field_from_dict({"p": 2, "e": 2, "modulus": [1, 1, 1]}) == FieldContext(2, 2)


def test_context_equality_requires_same_modulus():
    # x^3+x+1 and x^3+x^2+1 describe isomorphic fields but distinct contexts
    a = FieldContext(2, 3, (1, 1, 0, 1))
    b = FieldContext(2, 3, (1, 0, 1, 1))
    assert a != b
    assert a == FieldContext(2, 3)


@given(st.integers(0, 26), st.integers(0, 26), st.integers(0, 26))
def test_f27_sampled_triples(a, b, c):
    ctx = FieldContext(3, 3)
    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
    assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
    if b:
        assert ctx.mul(ctx.div(a, b), b) == a
