"""The --q option of the example scripts: a prime power q = p^e read as F_q."""

import argparse

from sumrank.gf import MAX_ORDER, FieldContext


def field_of_order(text: str) -> FieldContext:
    """argparse type for --q: F_q, q = p^e, with the package's default modulus."""
    q = int(text)
    if not 2 <= q <= MAX_ORDER:
        raise argparse.ArgumentTypeError(f"q = {q} is not a prime power in 2..{MAX_ORDER}")
    p = next(f for f in range(2, q + 1) if q % f == 0)
    e = 1
    while p**e < q:
        e += 1
    if p**e != q:
        raise argparse.ArgumentTypeError(f"q = {q} is not a prime power")
    return FieldContext(p, e)
