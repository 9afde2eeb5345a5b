"""Exact arithmetic in GF(q) for prime powers q = p^e up to 2^16.

An element is an integer in [0, q) encoding its coefficient vector over
F_p, lowest degree first.  Extension fields multiply through log/antilog
tables built on a fixed primitive element (the smallest representation
whose multiplicative order is q - 1), so every operation is exact integer
work with no floating point anywhere.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from .errors import (
    BadDegree,
    ContextMismatch,
    DivideByZero,
    InvariantViolation,
    NotPrime,
    OrderTooLarge,
    ReducibleModulus,
)

__all__ = [
    "MAX_ORDER",
    "FieldContext",
    "is_prime",
    "is_irreducible",
    "lex_least_irreducible",
    "field_from_dict",
]

MAX_ORDER = 1 << 16


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for f in (2, 3):
        if n % f == 0:
            return n == f
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def _digits(value: int, p: int, width: int) -> list:
    out = []
    for _ in range(width):
        out.append(value % p)
        value //= p
    return out


def _undigits(digits: Sequence[int], p: int) -> int:
    value = 0
    for d in reversed(digits):
        value = value * p + d
    return value


# Polynomials over F_p are coefficient tuples, lowest degree first.

def _poly_rem(a: Sequence[int], b: Sequence[int], p: int) -> Tuple[int, ...]:
    """Remainder of a mod b; b must have an invertible leading coefficient."""
    a = list(a)
    deg_b = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    while True:
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < deg_b:
            break
        factor = (a[-1] * inv_lead) % p
        shift = len(a) - 1 - deg_b
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * c) % p
    return tuple(a)


def _monic_polys(p: int, degree: int) -> Iterator[Tuple[int, ...]]:
    for enc in range(p**degree):
        yield tuple(_digits(enc, p, degree)) + (1,)


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg(modulus)/2."""
    degree = len(modulus) - 1
    if degree < 1 or modulus[-1] != 1:
        return False
    if degree == 1:
        return True
    if modulus[0] == 0:
        return False
    for d in range(1, degree // 2 + 1):
        for g in _monic_polys(p, d):
            if not _poly_rem(modulus, g, p):
                return False
    return True


def lex_least_irreducible(p: int, e: int) -> Tuple[int, ...]:
    """The monic irreducible of degree e with the smallest base-p encoding."""
    for f in _monic_polys(p, e):
        if is_irreducible(f, p):
            return f
    raise InvariantViolation("unreachable: irreducibles exist in every degree")


class FieldContext:
    """The finite field F_q with q = p^e and a fixed modulus polynomial.

    Contexts compare by value (p, e, modulus); elements of two distinct
    contexts never combine, even when the parameters describe isomorphic
    fields under different moduli.
    """

    __slots__ = ("p", "e", "q", "modulus", "generator", "_exp", "_log", "_add_table", "_neg_table")

    def __init__(self, p: int, e: int, modulus: Optional[Sequence[int]] = None):
        if type(p) is not int or type(e) is not int:
            raise ContextMismatch(f"field p = {p!r} and e = {e!r} must be ints")
        # bounded before trial division and before p**e is formed
        if p > MAX_ORDER:
            raise OrderTooLarge(f"p = {p} exceeds the supported bound {MAX_ORDER}")
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        if e < 1:
            raise BadDegree("extension degree must be at least 1")
        if e >= MAX_ORDER.bit_length():
            raise OrderTooLarge(f"q = {p}**{e} exceeds the supported bound {MAX_ORDER}")
        q = p**e
        if q > MAX_ORDER:
            raise OrderTooLarge(f"q = {q} exceeds the supported bound {MAX_ORDER}")
        if modulus is None:
            modulus = lex_least_irreducible(p, e)
        else:
            try:
                modulus = tuple(modulus)
            except TypeError:
                raise ContextMismatch("modulus must be a sequence of coefficients") from None
            if any(type(c) is not int or not 0 <= c < p for c in modulus):
                raise ReducibleModulus(f"modulus {list(modulus)} must be ints in 0..{p - 1}")
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise ReducibleModulus("modulus must be monic of degree e")
            if not is_irreducible(modulus, p):
                raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.e = e
        self.q = q
        self.modulus = modulus
        self.generator = self._find_primitive()
        self._exp, self._log = self._build_tables()
        self._add_table = self._neg_table = None
        if e > 1 and p != 2 and q <= 256:
            self._add_table = [
                [self._add_digits(a, b) for b in range(q)] for a in range(q)
            ]
            self._neg_table = [row.index(0) for row in self._add_table]

    # raw arithmetic used to bootstrap tables

    def _mul_raw(self, a: int, b: int) -> int:
        p = self.p
        if self.e == 1:
            return (a * b) % p
        da = _digits(a, p, self.e)
        db = _digits(b, p, self.e)
        conv = [0] * (2 * self.e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
        rem = _poly_rem(conv, self.modulus, p)
        return _undigits(list(rem) + [0] * (self.e - len(rem)), p)

    def _pow_raw(self, a: int, k: int) -> int:
        out = 1
        base = a
        while k:
            if k & 1:
                out = self._mul_raw(out, base)
            base = self._mul_raw(base, base)
            k >>= 1
        return out

    def _find_primitive(self) -> int:
        order = self.q - 1
        if order == 1:
            return 1
        factors = []
        rest = order
        f = 2
        while f * f <= rest:
            if rest % f == 0:
                factors.append(f)
                while rest % f == 0:
                    rest //= f
            f += 1
        if rest > 1:
            factors.append(rest)
        for g in range(1, self.q):
            if all(self._pow_raw(g, order // f) != 1 for f in factors):
                return g
        raise InvariantViolation("unreachable: the multiplicative group is cyclic")

    def _build_tables(self):
        exp = [1] * (self.q - 1)
        log = [-1] * self.q
        log[1] = 0
        acc = 1
        for i in range(1, self.q - 1):
            acc = self._mul_raw(acc, self.generator)
            exp[i] = acc
            log[acc] = i
        return exp, log

    def _add_digits(self, a: int, b: int) -> int:
        p = self.p
        da = _digits(a, p, self.e)
        db = _digits(b, p, self.e)
        return _undigits([(x + y) % p for x, y in zip(da, db)], p)

    # element arithmetic on integer representations

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_digits(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return (-a) % self.p
        if self._neg_table is not None:
            return self._neg_table[a]
        p = self.p
        return _undigits([(-d) % p for d in _digits(a, p, self.e)], p)

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a][self._neg_table[b]]
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self.e == 1:
            return (a * b) % self.p
        idx = self._log[a] + self._log[b]
        if idx >= self.q - 1:
            idx -= self.q - 1
        return self._exp[idx]

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivideByZero("0 has no inverse")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[(self.q - 1 - self._log[a]) % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k == 0:
                return 1
            if k < 0:
                raise DivideByZero("0 has no inverse")
            return 0
        la = self._log[a] * k % (self.q - 1)
        return self._exp[la]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldContext)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.e, self.modulus))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p}, e={self.e}, modulus={list(self.modulus)})"

    def to_dict(self) -> dict:
        out = {"p": self.p, "e": self.e}
        if self.e > 1:
            out["modulus"] = list(self.modulus)
        return out


def field_from_dict(data: dict) -> FieldContext:
    return FieldContext(data["p"], data["e"], data.get("modulus"))
