"""Random hunt for distance-extremal codes on a small block shape.

Samples codes of every exactly-decomposable dimension, tallies how many
attain the distance bound, and prints one full report per dimension the
first time the bound is hit, together with the closed-form hierarchy.
Every MSRD code found must have the closed-form weight hierarchy and pass
the rank-indexed check at every admissible rank; the script exits 1 if
any does not.
"""

import argparse
import random
import sys
from dataclasses import dataclass

from sumrank import (
    LinearCode,
    Shape,
    admissible_ranks,
    msrd_check,
    msrd_weight_profile,
    r_msrd_check,
    weight_profile,
)
from sumrank.anticode import _anticode_bound_inverse
from sumrank.gf import FieldContext

from fieldarg import field_of_order


@dataclass(frozen=True)
class HuntConfig:
    ctx: FieldContext
    m: tuple
    n: tuple
    tries: int
    seed: int


def parse_config() -> HuntConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=field_of_order, default="2", help="a prime power")
    parser.add_argument("--m", type=int, nargs="+", default=[2, 1, 1])
    parser.add_argument("--n", type=int, nargs="+", default=[1, 1, 1])
    parser.add_argument("--tries", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    return HuntConfig(args.q, tuple(args.m), tuple(args.n), args.tries, args.seed)


def exact_dims(shape: Shape):
    """Dimensions the Anticode Bound's inversion meets with no remainder."""
    return [
        dim for dim in range(1, shape.ambient_dim + 1) if _anticode_bound_inverse(shape, dim)[1] == 0
    ]


def main() -> None:
    config = parse_config()
    ctx = config.ctx
    shape = Shape(config.m, config.n)
    rng = random.Random(config.seed)
    print(f"shape {shape.m} x {shape.n} over F_{ctx.q}")
    print(f"exactly decomposable dimensions: {exact_dims(shape)}")
    total = mismatches = 0
    for dim in exact_dims(shape):
        closed = msrd_weight_profile(shape, dim)
        ranks = admissible_ranks(shape, dim)
        hits = 0
        shown = False
        for _ in range(config.tries):
            rows = [
                tuple(rng.randrange(ctx.q) for _ in range(shape.ambient_dim))
                for _ in range(dim)
            ]
            code = LinearCode(shape, ctx, rows)
            if code.dim != dim:
                continue
            report = msrd_check(code)
            if not report.is_msrd:
                continue
            hits += 1
            weights = weight_profile(code).weights
            failed = [r for r in ranks if not r_msrd_check(code, r)]
            if weights != closed or failed:
                mismatches += 1
                print(f"dim {dim}: MSRD code with weights {weights}, failing ranks {failed}")
            if not shown:
                shown = True
                print(f"\ndim {dim}: first hit {report.to_dict()}")
                print(f"  closed-form hierarchy: {closed}")
        print(f"dim {dim}: {hits}/{config.tries} samples attain the bound")
        total += hits
    print(f"{total} MSRD codes, {mismatches} off the closed-form hierarchy")
    if mismatches:
        sys.exit(1)


if __name__ == "__main__":
    main()
