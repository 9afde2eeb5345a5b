"""Generalized weight hierarchies, duality of weight sets, expansions."""

import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from sumrank import anticode
from sumrank import (
    FieldContext,
    GammaBasis,
    LinearCode,
    Shape,
    WeightProfile,
    extension_context,
    gamma_expand,
    gen_weight,
    subfield_embedding,
    wei_duality_check,
    weight_profile,
)
from sumrank.errors import (
    BadDegree,
    ContextMismatch,
    GammaNotBasis,
    NotLinearOverSubfield,
    RankOutOfRange,
    ShapeMismatch,
    UnequalRowDims,
)

from helpers import (
    F2,
    F3,
    exhaustive_gen_weight,
    flat_weights,
    hamming_generalized_weights,
    random_code,
    random_shape,
)

SECT_SHAPE = Shape((3, 2), (1, 2))


def _known_codes():
    one = []
    for k in range(4):
        flat = [0] * SECT_SHAPE.ambient_dim
        flat[3 + k] = 1
        one.append(tuple(flat))
    two = [
        (1, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 0, 0),
    ]
    return LinearCode(SECT_SHAPE, F2, one), LinearCode(SECT_SHAPE, F2, two)


def test_known_profiles_and_their_duals():
    one, two = _known_codes()
    p1 = weight_profile(one)
    p2 = weight_profile(two)
    assert p1.weights == (1, 1, 2, 2)
    assert p2.weights == (1, 1, 2, 2)
    # same hierarchy, yet the duals tell the codes apart
    d1 = weight_profile(one.dual())
    d2 = weight_profile(two.dual())
    assert d1.weights == (1, 1, 1)
    assert d2.weights == (1, 1, 2)
    assert gen_weight(one.dual(), 3) == 1
    assert gen_weight(two.dual(), 3) == 2


def test_gen_weight_matches_definition_oracle():
    rng = random.Random(5)
    for ctx in (F2, F3):
        for _ in range(12):
            shape = random_shape(rng, max_ell=2, max_m=2)
            code = random_code(rng, ctx, shape, rng.randint(1, 3))
            if code.dim == 0:
                continue
            profile = weight_profile(code)
            for r in range(1, code.dim + 1):
                expected = exhaustive_gen_weight(code, r)
                assert gen_weight(code, r) == expected
                assert profile.weight(r) == expected


def test_profile_guards():
    one, _ = _known_codes()
    profile = weight_profile(one)
    with pytest.raises(RankOutOfRange):
        profile.weight(0)
    with pytest.raises(RankOutOfRange):
        profile.weight(5)
    with pytest.raises(RankOutOfRange):
        gen_weight(one, 0)
    assert profile.to_dict() == {
        "variant": "product",
        "dim": 4,
        "weights": [1, 1, 2, 2],
    }
    with pytest.raises(ValueError):
        WeightProfile("colrow", 1, 2, (1,))
    with pytest.raises(ValueError):
        weight_profile(one, "colrow")


def test_variant_shape_requirements():
    loose = Shape((1, 2), (1, 2), strict=False)
    code = LinearCode(loose, F2, [(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)])
    with pytest.raises(ShapeMismatch):
        weight_profile(code, "product")
    with pytest.raises(ShapeMismatch):
        weight_profile(code, "all")
    prof = weight_profile(code, "support")
    assert prof.dim == 2
    assert len(prof.weights) == 2


def test_all_variant_never_exceeds_product():
    rng = random.Random(17)
    for _ in range(12):
        shape = random_shape(rng, max_ell=3, max_m=2)
        code = random_code(rng, F2, shape, rng.randint(1, 3))
        if code.dim == 0:
            continue
        prod = weight_profile(code, "product").weights
        both = weight_profile(code, "all").weights
        assert all(a <= p for a, p in zip(both, prod))


def test_support_equals_product_when_columns_stay_below_rows():
    rng = random.Random(23)
    for ctx in (F2, F3):
        for _ in range(10):
            shape = random_shape(rng, max_ell=2, max_m=3, cols_below_rows=True)
            code = random_code(rng, ctx, shape, rng.randint(1, 3))
            if code.dim == 0:
                continue
            assert (
                weight_profile(code, "support").weights
                == weight_profile(code, "product").weights
            )


def test_scalar_blocks_reduce_to_hamming_weights():
    rng = random.Random(31)
    for ctx in (F2, F3):
        for ell in (2, 3):
            shape = Shape((1,) * ell, (1,) * ell)
            for _ in range(8):
                code = random_code(rng, ctx, shape, rng.randint(1, ell))
                if code.dim == 0:
                    continue
                assert (
                    weight_profile(code).weights
                    == hamming_generalized_weights(code)
                )


def test_a_sweep_builds_the_binary_tails_once(monkeypatch):
    # a head block of two columns: each tail dimension r serves the weights
    # r, r + 1 and r + 2, and its tails are built once per field and shape;
    # far's walk reaches every tail dimension near's does, so near builds none
    shape = Shape((2,) + (1,) * 5, (2,) + (1,) * 5)
    rng = random.Random(5)
    near, far = (random_code(rng, F2, shape, 5) for _ in range(2))
    wants = {code: flat_weights(code, "all") for code in (near, far)}
    calls, reads = [], []
    build, read = anticode._optimal_tails, anticode._tail_checks

    def counted(ctx, t, r):
        calls.append((t, r))
        return build(ctx, t, r)

    def counted_read(ctx, t, r):
        reads.append((t, r))
        return read(ctx, t, r)

    monkeypatch.setattr(anticode, "_TABLE", {})
    monkeypatch.setattr(anticode, "_optimal_tails", counted)
    monkeypatch.setattr(anticode, "_tail_checks", counted_read)
    assert weight_profile(far, "all").weights == wants[far]
    assert len(calls) > 1 and len(calls) == len(set(calls))
    del calls[:], reads[:]
    assert weight_profile(near, "all").weights == wants[near]
    assert reads and not calls


def test_ranks_must_be_ints():
    # 2.0 == 2 and True == 1: either would read another rank's answer
    code = random_code(random.Random(3), F2, Shape((3, 3), (3, 2)), 5)
    weight_profile(code)  # a warm table: the refusal comes before any lookup
    for r in (1.5, 2.0, True):
        with pytest.raises(RankOutOfRange):
            gen_weight(code, r)


def test_hierarchy_shape_properties():
    rng = random.Random(43)
    for ctx in (F2, F3):
        for _ in range(15):
            shape = random_shape(rng, max_ell=2, max_m=2)
            code = random_code(rng, ctx, shape, rng.randint(1, 4))
            if code.dim == 0:
                continue
            w = weight_profile(code).weights
            assert w[0] == code.min_distance(method="enumerate")
            assert all(a <= b for a, b in zip(w, w[1:]))
            assert w[-1] <= shape.ncols
            # dropping generators can only push weights up
            if code.dim >= 2:
                sub = LinearCode(shape, ctx, code.rows[: code.dim - 1])
                ws = weight_profile(sub).weights
                assert all(ws[r] >= w[r] for r in range(sub.dim))


def test_block_step_inequalities():
    # the prefix-step lower bound on the hierarchy, block by block
    rng = random.Random(47)
    for ctx in (F2, F3):
        for _ in range(10):
            shape = random_shape(rng, max_ell=2, max_m=2)
            code = random_code(rng, ctx, shape, rng.randint(2, 5))
            if code.dim == 0:
                continue
            w = weight_profile(code).weights
            for r in range(1, code.dim + 1):
                prefix_dim = 0
                prefix_cols = 0
                for j in range(shape.ell):
                    for delta in range(shape.n[j]):
                        idx = r + prefix_dim + delta * shape.m[j]
                        if idx <= code.dim:
                            assert w[idx - 1] >= w[r - 1] + prefix_cols + delta
                    prefix_dim += shape.n[j] * shape.m[j]
                    prefix_cols += shape.n[j]


def test_row_count_step_lemma():
    rng = random.Random(59)
    for ctx in (F2, F3):
        for _ in range(12):
            shape = random_shape(rng, max_ell=2, max_m=2)
            code = random_code(rng, ctx, shape, rng.randint(2, 5))
            if code.dim < 2:
                continue
            w = weight_profile(code).weights
            for k in range(shape.ell):
                cols_before = sum(shape.n[:k])
                for r in range(1, code.dim - shape.m[k] + 1):
                    if w[r + shape.m[k] - 1] > cols_before:
                        assert w[r + shape.m[k] - 1] >= w[r - 1] + 1


def test_weight_set_duality_on_equal_rows():
    rng = random.Random(61)
    for ctx in (F2, F3):
        for _ in range(10):
            m = rng.randint(1, 2)
            ell = rng.randint(1, 3)
            n = tuple(rng.randint(1, m) for _ in range(ell))
            shape = Shape((m,) * ell, n)
            if shape.ambient_dim < 2:
                continue
            code = random_code(rng, ctx, shape, rng.randint(1, shape.ambient_dim - 1))
            if code.dim in (0, shape.ambient_dim):
                continue
            report = wei_duality_check(code)
            assert report["m"] == m
            assert len(report["classes"]) == m
    mixed = LinearCode(Shape((2, 1), (1, 1)), F2, [(1, 0, 1)])
    with pytest.raises(UnequalRowDims):
        wei_duality_check(mixed)


_VAST_DUALITY = """
from sumrank import FieldContext, LinearCode, Shape, wei_duality_check
from sumrank.errors import EnumerationTooLarge
shape = Shape((1,) * 100000, (1,) * 100000)
code = LinearCode(shape, FieldContext(2, 1), [(1,) + (0,) * 99999])
try:
    wei_duality_check(code)
except EnumerationTooLarge as exc:
    print(exc)
"""


def test_weight_set_duality_refuses_a_vast_dual_before_building_it():
    # the F_2 dim-1 code on 10^5 1x1 blocks: its dual basis has about 10^10
    # entries, which raised MemoryError within 1 GB of address space
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", _VAST_DUALITY], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), preexec_fn=cap_memory, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr[-2000:]
    assert proc.stdout == "dual basis of 9999900000 entries exceeds cap 1000000\n"


def test_extension_and_embedding():
    f4 = extension_context(F2, 2)
    assert (f4.p, f4.e) == (2, 2)
    assert extension_context(F2, 1) == F2
    f16 = extension_context(F2, 4)
    table = subfield_embedding(f4, f16)
    assert table[0] == 0 and table[1] == 1
    for a in range(4):
        for b in range(4):
            assert table[f4.add(a, b)] == f16.add(table[a], table[b])
            assert table[f4.mul(a, b)] == f16.mul(table[a], table[b])
    assert len(set(table)) == 4
    with pytest.raises(NotLinearOverSubfield):
        subfield_embedding(F3, f4)


def test_gamma_basis_identity():
    # the defining identity: (gamma_1 ... gamma_m) X = w, per block
    rng = random.Random(67)
    shape = Shape((4, 2), (2, 1))
    gamma = GammaBasis.monomial(F2, shape)
    embeds = [subfield_embedding(F2, ext) for ext in gamma.exts]
    for _ in range(10):
        v = tuple(
            tuple(rng.randrange(gamma.exts[i].q) for _ in range(shape.n[i]))
            for i in range(shape.ell)
        )
        t = gamma.expand_vector(v)
        for i in range(shape.ell):
            ext = gamma.exts[i]
            for c in range(shape.n[i]):
                acc = 0
                for r in range(shape.m[i]):
                    term = ext.mul(
                        gamma.bases[i][r], embeds[i][t.blocks[i].rows[r][c]]
                    )
                    acc = ext.add(acc, term)
                assert acc == v[i][c]


# an odd prime base, an extension base and a base on the list-row kernel
BASES = pytest.mark.parametrize(
    "base", [F3, FieldContext(2, 2), FieldContext(5, 1)], ids=["q3", "q4", "q5"]
)


@BASES
def test_expansion_recombines_over_odd_and_extension_bases(base):
    # every expand_vector block recombines to its segment: the sum over r of
    # embed(X[r][c]) gamma_r is w_c in the extension field, for the monomial
    # basis and a random one
    rng = random.Random(89 + base.q)
    shape = Shape((3, 2), (2, 1))
    gammas = [GammaBasis.monomial(base, shape)]
    while len(gammas) < 2:
        exts = gammas[0].exts
        bases = [[rng.randrange(1, ext.q) for _ in range(m)] for ext, m in zip(exts, shape.m)]
        try:
            gammas.append(GammaBasis(base, shape, bases))
        except GammaNotBasis:
            pass  # dependent over the base field: draw again
    for gamma in gammas:
        embeds = [subfield_embedding(base, ext) for ext in gamma.exts]
        for _ in range(8):
            v = tuple(
                tuple(rng.randrange(ext.q) for _ in range(n))
                for ext, n in zip(gamma.exts, shape.n)
            )
            t = gamma.expand_vector(v)
            for ext, embed, gams, blk, seg in zip(gamma.exts, embeds, gamma.bases, t.blocks, v):
                for c, w in enumerate(seg):
                    acc = 0
                    for r, gam in enumerate(gams):
                        acc = ext.add(acc, ext.mul(embed[blk.rows[r][c]], gam))
                    assert acc == w


@BASES
def test_expansion_is_closed_under_the_subfield_scalars(base):
    # over F_{q^2} the code of v is spanned by the expansions of v and of
    # x v, with x v formed entry by entry in the extension field
    rng = random.Random(97 + base.q)
    shape = Shape((2, 2), (2, 1))
    gamma = GammaBasis.monomial(base, shape)
    x = base.p  # the extension variable
    for _ in range(5):
        v = tuple(tuple(rng.randrange(1, ext.q) for _ in range(n))
                  for ext, n in zip(gamma.exts, shape.n))
        code = gamma_expand(gamma, [v])
        xv = tuple(tuple(ext.mul(x, w) for w in seg) for ext, seg in zip(gamma.exts, v))
        assert code.dim == 2
        for u in (v, xv):
            assert code.contains_flat(gamma.expand_vector(u).flatten())
    # the subfield copy inside F_{q^4} is a field homomorphism
    sub, big = extension_context(base, 2), extension_context(base, 4)
    table = subfield_embedding(sub, big)
    assert len(set(table)) == sub.q
    for a in range(sub.q):
        for b in range(sub.q):
            assert table[sub.add(a, b)] == big.add(table[a], table[b])
            assert table[sub.mul(a, b)] == big.mul(table[a], table[b])


def test_gamma_expand_known_matrices():
    shape = Shape((2,), (2,))
    gamma = GammaBasis.monomial(F2, shape)
    # the vector (1, x) over F_4 expands to I; multiplying by x gives the
    # companion action, so the code is spanned by both images
    code = gamma_expand(gamma, [((1, 2),)])
    assert code.dim == 2
    assert code.rows == ((1, 0, 0, 1), (0, 1, 1, 1))
    # expansions are closed under the subfield scalars
    assert code.contains_flat(
        tuple(a ^ b for a, b in zip((1, 0, 0, 1), (0, 1, 1, 1)))
    )


def test_gamma_expand_subfield_degree_one():
    shape = Shape((2,), (2,))
    gamma = GammaBasis.monomial(F2, shape)
    code = gamma_expand(gamma, [((1, 2),)], subfield_degree=1)
    assert code.dim == 1
    assert code.rows == ((1, 0, 0, 1),)


def test_weight_jump_on_expanded_codes():
    # rows strictly above columns: expanded hierarchies move in steps of
    # the subfield degree
    shape = Shape((2, 2), (1, 1))
    gamma = GammaBasis.monomial(F2, shape)
    f4 = gamma.exts[0]
    rng = random.Random(71)
    for _ in range(10):
        v = ((rng.randrange(4),), (rng.randrange(4),))
        if all(w == (0,) for w in v):
            continue
        code = gamma_expand(gamma, [v])
        assert code.dim % 2 == 0
        w = weight_profile(code).weights
        for r in range(0, code.dim, 2):
            assert w[r] == w[r + 1]
    # two independent vectors: dim 4, both pairs glued
    code = gamma_expand(gamma, [((1,), (1,)), ((2,), (3,))])
    if code.dim == 4:
        w = weight_profile(code).weights
        assert w[0] == w[1] and w[2] == w[3]


def test_gamma_guards():
    shape = Shape((2,), (1,))
    with pytest.raises(GammaNotBasis):
        GammaBasis(F2, shape, [(1, 1)])
    with pytest.raises(GammaNotBasis):
        GammaBasis(F2, shape, [(1,)])
    with pytest.raises(GammaNotBasis):
        GammaBasis(F2, shape, [(1, 7)])
    # gamma elements that are not ints: (True, 2) used to read as (1, 2)
    for gams in [(True, 2), (1.0, 2), (1, "2")]:
        with pytest.raises(GammaNotBasis):
            GammaBasis(F2, shape, [gams])
    # bases that are not sequences raised a bare TypeError
    for bases in (5, [5]):
        with pytest.raises(GammaNotBasis, match="one sequence of elements per block"):
            GammaBasis(F2, shape, bases)
    gamma = GammaBasis.monomial(F2, shape)
    with pytest.raises(NotLinearOverSubfield):
        gamma_expand(gamma, [((1,),)], subfield_degree=3)
    for degree in (1.0, True, "1"):
        with pytest.raises(BadDegree):
            gamma_expand(gamma, [((1,),)], subfield_degree=degree)
    for v in (((1,), (1,)), ((1, 2),)):
        with pytest.raises(ShapeMismatch):
            gamma.expand_vector(v)
        with pytest.raises(ShapeMismatch):
            gamma_expand(gamma, [v])
    # a coordinate outside F_4 is refused, not reduced: (7,) used to equal (3,)
    for v in (((7,),), ((-1,),), ((True,),), ((1.5,),)):
        with pytest.raises(ContextMismatch, match="is not an element of F_4"):
            gamma.expand_vector(v)
        with pytest.raises(ContextMismatch, match="is not an element of F_4"):
            gamma_expand(gamma, [((1,),), v])


def test_gamma_nonmonomial_basis_agrees_on_spans():
    # any basis of the extension produces the same expanded code up to
    # the base change, so dimensions and weights agree
    shape = Shape((2,), (2,))
    mono = GammaBasis.monomial(F2, shape)
    other = GammaBasis(F2, shape, [(2, 1)])
    for vec in [((1, 2),), ((3, 1),)]:
        a = gamma_expand(mono, [vec])
        b = gamma_expand(other, [vec])
        assert a.dim == b.dim
        assert weight_profile(a).weights == weight_profile(b).weights


def test_anticode_distance_guards_the_family_like_gen_weight():
    """min_distance(method="anticode") without a cap sweeps at most
    ANTICODE_CAP anticodes, the default of gen_weight, not DIST_CAP."""
    from sumrank.errors import EnumerationTooLarge

    code = LinearCode(Shape((20, 1), (20, 1)), F2, [(0,) * 400 + (1,)])
    refusal = "2097151 anticodes at weight 1 exceed cap 1000000"
    with pytest.raises(EnumerationTooLarge, match=refusal):
        gen_weight(code, 1)
    with pytest.raises(EnumerationTooLarge, match=refusal):
        code.min_distance(method="anticode")
    assert code.min_distance(method="anticode", cap=1 << 24) == 1
    assert code.min_distance() == 1
