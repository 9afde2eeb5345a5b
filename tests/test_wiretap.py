"""Wiretap leakage: exhaustive mutual information against the dual-intersection
formula, and the sweeps of C (meet identity) against direct sweeps of the dual."""

import random

import pytest

from sumrank import (
    FieldContext,
    LinearCode,
    MatrixFq,
    Shape,
    WiretapScenario,
    canonical_complement,
    empirical_mi,
    leakage_dim,
    leakage_threshold,
    threshold_table,
    weight_profile,
    worst_case_leakage,
)
from sumrank import wiretap
from sumrank.anticode import Meet
from sumrank.errors import (
    AmbientMismatch,
    ContextMismatch,
    EnumerationTooLarge,
    RankOutOfRange,
    ShapeMismatch,
)

from helpers import (
    F2,
    F3,
    F4,
    brute_mi,
    flat_leakage,
    flat_weights,
    random_code,
    random_matrix,
    random_shape,
)

F5 = FieldContext(5, 1)


def _random_taps(rng, ctx, shape, none_chance=0.25):
    taps = []
    for i in range(shape.ell):
        # 0 links or a skipped block both mean "untapped"
        links = 0 if rng.random() < none_chance else rng.randint(0, shape.n[i] + 1)
        if links == 0:
            taps.append(None)
            continue
        taps.append(random_matrix(rng, ctx, shape.n[i], links))
    return tuple(taps)


def test_canonical_complement_properties():
    rng = random.Random(11)
    for _ in range(25):
        ctx = rng.choice([F2, F3])
        shape = random_shape(rng)
        code = random_code(rng, ctx, shape, rng.randint(0, shape.ambient_dim))
        comp = canonical_complement(code)
        assert comp.dim + code.dim == shape.ambient_dim
        assert comp.intersect(code).dim == 0
        assert comp.add(code).dim == shape.ambient_dim


def test_full_taps_leak_the_whole_dual():
    rng = random.Random(5)
    for ctx in (F2, F3):
        shape = Shape((2, 1), (2, 1))
        code = random_code(rng, ctx, shape, 2)
        taps = tuple(MatrixFq.identity(ctx, n) for n in shape.n)
        assert leakage_dim(code, taps) == code.dual().dim
        scen = WiretapScenario(code, taps)
        assert scen.tapped_links == shape.ncols
        assert empirical_mi(scen) == code.dual().dim


def test_untapped_network_leaks_nothing():
    code = LinearCode(Shape((2,), (2,)), F2, [(1, 0, 0, 1)])
    taps = (None,)
    assert leakage_dim(code, taps) == 0
    scen = WiretapScenario(code, taps)
    assert scen.tapped_links == 0
    assert scen.observe_flat((1, 0, 0, 1)) == ()
    assert empirical_mi(scen) == 0


def test_observe_flat_projects_each_block():
    shape = Shape((2,), (2,))
    b = MatrixFq(F3, [(1,), (2,)])
    scen = WiretapScenario(LinearCode(shape, F3, [(1, 0, 0, 1)]), (b,))
    # D = [[1, 2], [0, 1]], D b = [[1*1+2*2], [0*1+1*2]] = [[2], [2]]
    assert scen.observe_flat((1, 2, 0, 1)) == (2, 2)
    x, y = (1, 2, 0, 1), (0, 1, 1, 1)
    summed = tuple(F3.add(a, c) for a, c in zip(x, y))
    assert scen.observe_flat(summed) == tuple(
        F3.add(a, c) for a, c in zip(scen.observe_flat(x), scen.observe_flat(y))
    )


def test_observe_flat_checks_the_length():
    shape = Shape((2,), (2,))
    b = MatrixFq(F3, [(1,), (2,)])
    scen = WiretapScenario(LinearCode(shape, F3, [(1, 0, 0, 1)]), (b,))
    for flat in ((1, 2, 0), (1, 2, 0, 1, 1)):
        with pytest.raises(AmbientMismatch):
            scen.observe_flat(flat)


def test_empirical_mi_matches_leakage_dim():
    rng = random.Random(23)
    checked = 0
    while checked < 30:
        ctx = rng.choice([F2, F3])
        shape = random_shape(rng)
        limit = 9 if ctx.q == 2 else 6
        if shape.ambient_dim > limit:
            continue
        code = random_code(rng, ctx, shape, rng.randint(0, shape.ambient_dim))
        taps = _random_taps(rng, ctx, shape)
        scen = WiretapScenario(code, taps)
        assert empirical_mi(scen) == leakage_dim(code, taps)
        checked += 1


def test_empirical_mi_on_a_nonstrict_shape():
    rng = random.Random(7)
    shape = Shape((1, 2), (1, 2), strict=False)
    code = random_code(rng, F2, shape, 3)
    taps = (MatrixFq(F2, [(1,)]), MatrixFq(F2, [(1, 0), (1, 1)]))
    assert empirical_mi(WiretapScenario(code, taps)) == leakage_dim(code, taps)


def test_mi_does_not_depend_on_the_complement():
    rng = random.Random(41)
    shape = Shape((2, 1), (2, 1))
    code = random_code(rng, F2, shape, 2)
    taps = _random_taps(rng, F2, shape, none_chance=0.0)
    base = canonical_complement(code)
    codewords = list(code.iter_flat(include_zero=True))
    # shifting complement generators by codewords keeps it complementary
    shifted = [
        tuple(F2.add(a, b) for a, b in zip(row, rng.choice(codewords)))
        for row in base.rows
    ]
    alt = LinearCode(shape, F2, shifted)
    assert alt.dim == base.dim and alt.intersect(code).dim == 0
    scenario = WiretapScenario(code, taps)
    reference = empirical_mi(scenario)
    assert brute_mi(scenario, alt.rows) == reference
    assert brute_mi(scenario, base.rows) == reference
    assert reference == leakage_dim(code, taps)


def test_worst_case_leakage_ladder():
    rng = random.Random(3)
    for _ in range(8):
        ctx = rng.choice([F2, F3])
        shape = random_shape(rng, max_ell=2, max_m=2)
        code = random_code(rng, ctx, shape, rng.randint(1, shape.ambient_dim))
        dual_dim = code.dual().dim
        prev = 0
        for mu in range(shape.ncols + 1):
            cur = worst_case_leakage(code, mu)
            assert prev <= cur <= dual_dim
            prev = cur
        assert worst_case_leakage(code, 0) == 0
        assert worst_case_leakage(code, shape.ncols) == dual_dim


def test_random_taps_never_beat_the_worst_case():
    rng = random.Random(17)
    for _ in range(20):
        ctx = rng.choice([F2, F3])
        shape = random_shape(rng, max_ell=2, max_m=2)
        code = random_code(rng, ctx, shape, rng.randint(1, shape.ambient_dim))
        taps = _random_taps(rng, ctx, shape)
        mu = sum(
            b.column_space().dim for b in taps if b is not None
        )
        assert leakage_dim(code, taps) <= worst_case_leakage(code, mu)


def test_thresholds_are_the_min_links_forcing_leakage():
    rng = random.Random(29)
    cases = [
        LinearCode(Shape((2,), (2,)), F2, [(1, 0, 0, 1)]),
        LinearCode(Shape((2, 1), (1, 1)), F3, [(1, 0, 2), (0, 1, 1)]),
        random_code(rng, F2, Shape((2, 2), (2, 1)), 3),
        random_code(rng, F3, Shape((2, 1), (2, 1)), 2),
    ]
    for code in cases:
        table = threshold_table(code)
        dual_dim = code.dual().dim
        assert len(table) == dual_dim
        for r in range(1, dual_dim + 1):
            need = table[r - 1]
            assert leakage_threshold(code, r) == need
            assert worst_case_leakage(code, need) >= r
            if need > 0:
                assert worst_case_leakage(code, need - 1) < r


def test_support_profile_feels_the_orientation():
    # matrices confined to the first row spread over both column
    # coordinates; confined to the first column they hit only one
    shape = Shape((2,), (2,))
    rowwise = LinearCode(shape, F2, [(1, 0, 0, 0), (0, 1, 0, 0)])
    colwise = LinearCode(shape, F2, [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert weight_profile(rowwise, "support").weights == (1, 2)
    assert weight_profile(colwise, "support").weights == (1, 1)
    assert threshold_table(rowwise.dual()) == (1, 2)
    assert threshold_table(colwise.dual()) == (1, 1)


def test_scenario_guards():
    shape = Shape((2, 1), (2, 1))
    code = LinearCode(shape, F2, [(1, 0, 0, 1, 0), (0, 1, 1, 0, 1)])
    good = (MatrixFq.identity(F2, 2), None)
    with pytest.raises(ShapeMismatch):
        WiretapScenario(code, (None,))
    with pytest.raises(ShapeMismatch):
        WiretapScenario(code, (MatrixFq.identity(F2, 1), None))
    with pytest.raises(ContextMismatch):
        WiretapScenario(code, (MatrixFq.identity(F3, 2), None))
    with pytest.raises(ShapeMismatch):
        worst_case_leakage(code, shape.ncols + 1)
    with pytest.raises(EnumerationTooLarge, match=r"^2\*\*5 pairs exceed cap 4$"):
        empirical_mi(WiretapScenario(code, good), cap=4)


def test_a_vast_scenario_builds_no_complement(monkeypatch):
    # the scenario holds only the code and the taps, and empirical_mi refuses
    # 2**15000 pairs, a number past int-to-str's 4,300 digits, by its power
    # before it builds the complement
    monkeypatch.setattr(wiretap, "canonical_complement", None)
    shape = Shape((1,) * 15000, (1,) * 15000)
    code = LinearCode(shape, F2, [(1,) + (0,) * 14999])
    scenario = WiretapScenario(code, (None,) * 15000)
    with pytest.raises(EnumerationTooLarge, match=r"^2\*\*15000 pairs exceed cap 1048576$"):
        empirical_mi(scenario)


def test_links_and_ranks_must_be_ints():
    # 2.0 == 2 and True == 1: either would read another weight's answer
    code = random_code(random.Random(3), F2, Shape((3, 3), (3, 2)), 5)
    threshold_table(code)  # a warm table: the refusal comes before any lookup
    for bad in (1.5, 2.0, True):
        with pytest.raises(ShapeMismatch):
            worst_case_leakage(code, bad)
        with pytest.raises(RankOutOfRange):
            leakage_threshold(code, bad)


# ------------------------------------------- C side against the dual it replaces

# equal rows, strict and not, take the C side up to half the ambient space;
# unequal rows keep the dual for threshold_table and worst_case_leakage;
# leakage_dim meets C on every code
SIDE_CASES = [
    (F2, Shape((2, 2), (2, 1))),
    (F3, Shape((2, 2), (2, 2))),
    (F4, Shape((2, 2), (2, 1))),
    (F5, Shape((2, 2), (2, 1))),  # F_5 runs on the list-row kernel
    (F2, Shape((2, 2), (1, 3), strict=False)),
    (F3, Shape((1, 1), (2, 1), strict=False)),
    (F2, Shape((2, 1), (2, 1))),
]


def _code_of_dim(rng, ctx, shape, k):
    while True:
        code = random_code(rng, ctx, shape, k)
        if code.dim == k:
            return code


def _dual_leakage(code, mu):
    sweep = Meet(code.dual()).sweep(mu, "support", floor=0)
    return max((t for t, _ in sweep), default=0)


@pytest.mark.parametrize(
    "ctx,shape", SIDE_CASES, ids=[f"q{c.q}-{s.m}x{s.n}" for c, s in SIDE_CASES]
)
def test_the_c_side_matches_the_dual_sweep(ctx, shape):
    rng = random.Random(31)
    for k in range(shape.ambient_dim + 1):
        code = _code_of_dim(rng, ctx, shape, k)
        dual = code.dual()
        table = threshold_table(code)
        assert table == weight_profile(dual, "support").weights, k
        assert table == flat_weights(dual, "support"), k
        for mu in range(shape.ncols + 1):
            leaked = worst_case_leakage(code, mu)
            assert leaked == _dual_leakage(code, mu) == flat_leakage(code, mu), (k, mu)
        for _ in range(3):
            taps = _random_taps(rng, ctx, shape)
            desc = wiretap.support_product(shape, ctx, wiretap._tap_supports(code, taps))
            assert leakage_dim(code, taps) == Meet(dual).dim(desc), k


def _no_dual(self):
    raise AssertionError("the C side builds no dual")


def test_a_small_code_never_builds_its_dual(monkeypatch):
    # F_2 (4,4,4)x(4,4,4), dim 4 of 48: each dual sweep took seconds; the
    # values are those the dual sweeps give
    shape = Shape((4, 4, 4), (4, 4, 4))
    code = random_code(random.Random(5), F2, shape, 4)
    assert code.dim == 4
    rng = random.Random(5)
    taps = [
        (random_matrix(rng, F2, 4, 2), None, random_matrix(rng, F2, 4, 3)),
        (random_matrix(rng, F2, 4, 4), random_matrix(rng, F2, 4, 1), random_matrix(rng, F2, 4, 4)),
        (None, None, None),
    ]
    monkeypatch.setattr(LinearCode, "dual", _no_dual)
    assert threshold_table(code) == (
        1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7,
        7, 7, 8, 8, 8, 8, 9, 9, 9, 9, 10, 10, 10, 10, 11, 11, 11, 11, 12, 12, 12, 12,
    )
    assert [worst_case_leakage(code, mu) for mu in range(13)] == [
        0, 3, 6, 9, 13, 17, 21, 24, 28, 32, 36, 40, 44
    ]
    assert [leakage_dim(code, t) for t in taps] == [16, 20, 0]


def test_unequal_rows_and_large_codes_build_the_dual(monkeypatch):
    built = []
    real = LinearCode.dual

    def counted(self):
        built.append(self.dim)
        return real(self)

    monkeypatch.setattr(LinearCode, "dual", counted)
    rng = random.Random(13)
    unequal = _code_of_dim(rng, F2, Shape((2, 1), (2, 1)), 2)
    large = _code_of_dim(rng, F2, Shape((2, 2), (2, 1)), 4)
    taps = (MatrixFq.identity(F2, 2), MatrixFq.identity(F2, 1))
    for code in (unequal, large):
        for call in (threshold_table, lambda c: worst_case_leakage(c, 2)):
            built.clear()
            call(code)
            assert built == [code.dim]
        built.clear()
        leakage_dim(code, taps)  # the meet identity holds for any code
        assert built == []
