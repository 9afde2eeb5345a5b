"""Known answers from the Hamming specialization.

On 1x1 blocks the product and support families are the coordinate spaces,
so d_r is the generalized Hamming weight of Wei ("Generalized Hamming
weights for linear codes", IEEE T-IT 37(5), 1991), and MSRD is MDS.  The
closed-form MSRD weights hold in the product family, not in "all" over
F_2; and a col-support product has its staircase profile as weights.
"""

from itertools import product as iter_product

import pytest

from sumrank import (
    FieldContext,
    LinearCode,
    Shape,
    enumerate_anticodes,
    msrd_check,
    msrd_weight_profile,
    staircase_profile,
    wei_duality_check,
    weight_profile,
)

from helpers import F2, F3


def _scalars(length):
    return Shape((1,) * length, (1,) * length)


def _simplex(k):
    """The binary simplex code [2^k - 1, k]: every nonzero column of F_2^k."""
    cols = [c for c in iter_product((0, 1), repeat=k) if any(c)]
    return LinearCode(_scalars(len(cols)), F2, [tuple(c[i] for c in cols) for i in range(k)])


@pytest.mark.parametrize("k,want", [(3, (4, 6, 7)), (4, (8, 12, 14, 15))])
def test_simplex_codes_have_wei_weights(k, want):
    # Wei: d_r = 2^k - 2^(k - r)
    code = _simplex(k)
    assert want == tuple(2**k - 2 ** (k - r) for r in range(1, k + 1))
    for variant in ("product", "support"):
        assert weight_profile(code, variant).weights == want


def test_first_order_reed_muller_weights():
    points = list(iter_product((0, 1), repeat=3))
    rows = [(1,) * 8] + [tuple(p[i] for p in points) for i in range(3)]
    code = LinearCode(_scalars(8), F2, rows)
    assert weight_profile(code).weights == (4, 6, 7, 8)


@pytest.mark.parametrize("p", [5, 7])
def test_reed_solomon_codes_are_msrd(p):
    # evaluations of the polynomials of degree below k at every point of F_p
    ctx, shape = FieldContext(p, 1), _scalars(p)
    for k in range(1, p + 1):
        code = LinearCode(shape, ctx, [tuple(pow(a, j, p) for a in range(p)) for j in range(k)])
        assert code.dim == k
        assert msrd_check(code).is_msrd, k
        assert weight_profile(code).weights == msrd_weight_profile(shape, k), k
        wei_duality_check(code)


@pytest.mark.parametrize("k", [1, 2, 6, 7, 12, 13])
def test_reed_solomon_codes_over_f13_are_msrd(k):
    # a spread of k: every k of the [13, k] codes takes seconds
    ctx, shape = FieldContext(13, 1), _scalars(13)
    code = LinearCode(shape, ctx, [tuple(pow(a, j, 13) for a in range(13)) for j in range(k)])
    assert msrd_check(code).is_msrd
    assert weight_profile(code).weights == msrd_weight_profile(shape, k) == tuple(range(14 - k, 14))
    wei_duality_check(code)


@pytest.mark.parametrize(
    "length,product,every", [(3, (2, 3), (2, 2)), (4, (2, 3, 4), (2, 2, 4)), (5, (2, 3, 4, 5), (2, 2, 4, 4))]
)
def test_parity_codes_meet_the_closed_form_in_the_product_family_only(length, product, every):
    # the even-weight code is MDS, so MSRD, and its product weights are the
    # closed form; it is itself an optimal binary tail, so under "all" it
    # meets anticodes of lower weight
    rows = [tuple(int(j in (i, length - 1)) for j in range(length)) for i in range(length - 1)]
    shape = _scalars(length)
    code = LinearCode(shape, F2, rows)
    assert msrd_check(code).is_msrd
    assert weight_profile(code).weights == msrd_weight_profile(shape, length - 1) == product
    assert weight_profile(code, "all").weights == every


def test_staircase_profiles_are_the_weights_of_col_support_products():
    # every member of the col-support family, at every weight, as a code
    seen = 0
    for ctx, m, n in [
        (F2, (3, 2), (3, 2)),
        (F3, (2, 2), (2, 1)),
        (F2, (2, 1, 1), (2, 1, 1)),
        (F2, (3, 3, 2), (2, 2, 1)),
    ]:
        shape = Shape(m, n)
        for mu in range(shape.ncols + 1):
            for desc in enumerate_anticodes(ctx, shape, mu, "support"):
                u = tuple(blk.space.dim for blk in desc.blocks)
                assert weight_profile(desc.materialize()).weights == staircase_profile(shape, u)
                seen += 1
    assert seen == 162
