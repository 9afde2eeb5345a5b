"""Wiretap leakage: exhaustive mutual information against the dual-intersection formula."""

import random

import pytest

from sumrank import (
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
from sumrank.errors import (
    AmbientMismatch,
    ContextMismatch,
    EnumerationTooLarge,
    RankOutOfRange,
    ShapeMismatch,
)

from helpers import F2, F3, brute_mi, random_code, random_matrix, random_shape


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
