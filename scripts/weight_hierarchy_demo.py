"""Weight hierarchies of random codes, across anticode variants.

Draws random codes on a chosen block shape, prints the product / support /
free-variant hierarchies side by side with the dual's, and runs the
weight-set duality partition whenever the row dimensions are equal.
"""

import argparse
import random
from dataclasses import dataclass

from sumrank import (
    LinearCode,
    Shape,
    is_optimal_anticode,
    wei_duality_check,
    weight_profile,
)
from sumrank.errors import UnequalRowDims
from sumrank.gf import FieldContext

from fieldarg import field_of_order


@dataclass(frozen=True)
class DemoConfig:
    ctx: FieldContext
    m: tuple
    n: tuple
    dim: int
    count: int
    seed: int


def parse_config() -> DemoConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=field_of_order, default="2", help="a prime power")
    parser.add_argument("--m", type=int, nargs="+", default=[2, 2])
    parser.add_argument("--n", type=int, nargs="+", default=[2, 1])
    parser.add_argument("--dim", type=int, default=3)
    parser.add_argument("--count", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    return DemoConfig(args.q, tuple(args.m), tuple(args.n), args.dim, args.count, args.seed)


def random_code(rng, ctx, shape, dim) -> LinearCode:
    while True:
        rows = [
            tuple(rng.randrange(ctx.q) for _ in range(shape.ambient_dim))
            for _ in range(dim)
        ]
        code = LinearCode(shape, ctx, rows)
        if code.dim == dim:
            return code


def main() -> None:
    config = parse_config()
    ctx = config.ctx
    shape = Shape(config.m, config.n)
    rng = random.Random(config.seed)
    print(f"shape {shape.m} x {shape.n} over F_{ctx.q}, dim {config.dim}")
    for k in range(config.count):
        code = random_code(rng, ctx, shape, config.dim)
        product = weight_profile(code).weights
        support = weight_profile(code, "support").weights
        free = weight_profile(code, "all").weights
        dual = weight_profile(code.dual()).weights
        print(f"\ncode {k}: basis rows {code.rows}")
        print(f"  product  {product}")
        print(f"  support  {support}")
        print(f"  free     {free}")
        print(f"  dual     {dual}")
        optimal, desc = is_optimal_anticode(code)
        if optimal:
            print(f"  optimal anticode: {desc.to_dict()}")
        try:
            rows = wei_duality_check(code)["classes"]
        except UnequalRowDims:
            continue
        for row in rows:
            print(
                f"  residue {row['r']}: dual set {row['dual_set']}"
                f" == complement {row['complement_set']}"
            )


if __name__ == "__main__":
    main()
