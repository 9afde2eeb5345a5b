"""Wiretap leakage sweep for one coset-coding scheme.

Prints the dual support-weight thresholds, then the worst-case leakage
as a function of the number of tapped links, and finally spot-checks the
dual-intersection formula against exhaustive mutual information on a few
random tap profiles.  threshold_table and worst_case_leakage sweep the code
itself when it is at most half the ambient space (with equal row
dimensions), so each is also checked against a direct sweep of the dual.
Exits 1 if any check disagrees: a spot check, the thresholds against the
dual's support weights, or the worst-case leakage at some mu against the
dual sweep or against the number of thresholds at most mu.
"""

import argparse
import random
import sys
from dataclasses import dataclass

from sumrank import (
    LinearCode,
    Shape,
    WiretapScenario,
    empirical_mi,
    leakage_dim,
    threshold_table,
    weight_profile,
    worst_case_leakage,
)
from sumrank.anticode import Meet
from sumrank.gf import FieldContext
from sumrank.matfq import MatrixFq

from fieldarg import field_of_order


@dataclass(frozen=True)
class SweepConfig:
    ctx: FieldContext
    m: tuple
    n: tuple
    dim: int
    spot_checks: int
    seed: int


def parse_config() -> SweepConfig:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--q", type=field_of_order, default="2", help="a prime power")
    parser.add_argument("--m", type=int, nargs="+", default=[2, 2])
    parser.add_argument("--n", type=int, nargs="+", default=[2, 2])
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--spot-checks", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    return SweepConfig(
        args.q, tuple(args.m), tuple(args.n), args.dim, args.spot_checks, args.seed
    )


def main() -> int:
    config = parse_config()
    ctx = config.ctx
    shape = Shape(config.m, config.n)
    rng = random.Random(config.seed)
    while True:
        rows = [
            tuple(rng.randrange(ctx.q) for _ in range(shape.ambient_dim))
            for _ in range(config.dim)
        ]
        code = LinearCode(shape, ctx, rows)
        if code.dim == config.dim:
            break
    print(f"code of dim {code.dim} on {shape.m} x {shape.n} over F_{ctx.q}")
    thresholds = threshold_table(code)
    print(f"thresholds (links needed for r leaked symbols): {thresholds}")
    dual = code.dual()
    direct = weight_profile(dual, "support").weights
    mismatches = int(thresholds != direct)
    if thresholds != direct:
        print(f"  MISMATCH: the dual's support weights are {direct}")
    dual_meet = Meet(dual)
    for mu in range(shape.ncols + 1):
        leaked = worst_case_leakage(code, mu)
        counted = sum(1 for t in thresholds if t <= mu)
        swept = max((t for t, _ in dual_meet.sweep(mu, "support", floor=0)), default=0)
        mismatches += leaked != counted or leaked != swept
        verdict = "" if leaked == counted else f" [MISMATCH: {counted} thresholds <= mu]"
        verdict += "" if leaked == swept else f" [MISMATCH: {swept} by the dual sweep]"
        print(f"  mu = {mu}: worst-case leakage {leaked}{verdict}")
    for _ in range(config.spot_checks):
        taps = []
        for i in range(shape.ell):
            links = rng.randint(0, shape.n[i])
            if links == 0:
                taps.append(None)
                continue
            taps.append(
                MatrixFq(
                    ctx,
                    [
                        [rng.randrange(ctx.q) for _ in range(links)]
                        for _ in range(shape.n[i])
                    ],
                )
            )
        formula = leakage_dim(code, tuple(taps))
        exhaustive = empirical_mi(WiretapScenario(code, tuple(taps)))
        tapped = sum(b.n for b in taps if b is not None)
        verdict = "ok" if formula == exhaustive else "MISMATCH"
        mismatches += formula != exhaustive
        print(
            f"  random profile, {tapped} links: formula {formula},"
            f" exhaustive MI {exhaustive} [{verdict}]"
        )
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
