"""Acceptance suite: each test pins one advertised guarantee end to end.

One verdict line per guarantee: pytest -v prints PASSED or FAILED per
test, and every test ends with a PASS summary carrying the measured
values and its runtime.  Batteries run at full promised size; every
theorem-backed number is checked against an independent brute-force
recomputation inside the test body.
"""

import random
import time

from sumrank import (
    AnticodeDescriptor,
    BlockSupport,
    LinearCode,
    MatrixFq,
    MatrixTuple,
    Shape,
    coset_witness_exact,
    empirical_mi,
    enumerate_anticodes,
    enumerate_subspaces,
    gen_weight,
    leakage_dim,
    meshulam_search,
    msrd_check,
    msrd_weight_profile,
    r_msrd_check,
    wei_duality_check,
    weight_profile,
    WiretapScenario,
)
from sumrank.matfq import Subspace

from helpers import (
    F2,
    F3,
    F4,
    brute_best_01_rank,
    random_code,
    random_matrix,
    random_shape,
)

SECT_SHAPE = Shape((3, 2), (1, 2))


def _flat(shape, *blocks):
    out = []
    for rows in blocks:
        for r in rows:
            out.extend(r)
    assert len(out) == shape.ambient_dim
    return tuple(out)


def test_criterion_01_small_code_profiles_and_duals():
    start = time.monotonic()
    one = []
    for k in range(4):
        flat = [0] * SECT_SHAPE.ambient_dim
        flat[3 + k] = 1
        one.append(tuple(flat))
    code_one = LinearCode(SECT_SHAPE, F2, one)
    code_two = LinearCode(
        SECT_SHAPE,
        F2,
        [
            (1, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0),
        ],
    )
    assert weight_profile(code_one).weights == (1, 1, 2, 2)
    assert weight_profile(code_two).weights == (1, 1, 2, 2)
    d3_one = gen_weight(code_one.dual(), 3)
    d3_two = gen_weight(code_two.dual(), 3)
    assert d3_one == 1 and d3_two == 2
    elapsed = time.monotonic() - start
    assert elapsed < 5
    print(
        f"criterion 01: PASS profiles (1,1,2,2) twice, dual d_3 = 1 vs 2"
        f" [{elapsed:.2f}s]"
    )


def test_criterion_02_msrd_example_failing_c2():
    start = time.monotonic()
    shape = Shape((3, 2, 1, 1, 1), (3, 2, 1, 1, 1))
    code = LinearCode(
        shape,
        F2,
        [
            _flat(
                shape,
                [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
                [(1, 0), (0, 1)],
                [(1,)], [(1,)], [(0,)],
            ),
            _flat(
                shape,
                [(0, 0, 1), (1, 0, 1), (0, 1, 0)],
                [(0, 1), (1, 1)],
                [(0,)], [(1,)], [(1,)],
            ),
        ],
    )
    report = msrd_check(code)
    assert report.dim == 2
    assert report.distance == 7
    assert report.is_msrd
    assert report.c2 is False
    # the witness: first-two-columns support on the big block, full rest
    first_two = Subspace(F2, 3, [(1, 0, 0), (0, 1, 0)])
    blocks = [BlockSupport("col", first_two)]
    blocks += [BlockSupport("col", Subspace.full(F2, n)) for n in shape.n[1:]]
    witness = AnticodeDescriptor(shape, F2, tuple(blocks))
    assert witness.max_weight() == report.distance
    assert witness.materialize().intersect(code).dim == 0
    elapsed = time.monotonic() - start
    assert elapsed < 30
    print(
        f"criterion 02: PASS d = 7 MSRD, witness of weight 7 meets the"
        f" code in 0 [{elapsed:.2f}s]"
    )


def test_criterion_03_weight_gap_below_closed_form():
    start = time.monotonic()
    shape = Shape((4, 4, 2), (4, 2, 2))
    gens = [
        _flat(
            shape,
            [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)],
            [(1, 0), (0, 1), (0, 0), (0, 0)],
            [(1, 0), (0, 0)],
        ),
        _flat(
            shape,
            [(0, 0, 0, 1), (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0)],
            [(0, 1), (1, 1), (0, 0), (0, 0)],
            [(0, 0), (1, 0)],
        ),
        _flat(
            shape,
            [(0, 0, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 0, 0)],
            [(0, 0), (0, 0), (1, 0), (0, 1)],
            [(0, 0), (0, 0)],
        ),
        _flat(
            shape,
            [(0,) * 4] * 4,
            [(0, 0)] * 4,
            [(0, 0), (0, 1)],
        ),
    ]
    code = LinearCode(shape, F2, gens)
    assert code.dim == 4
    weights = tuple(gen_weight(code, r) for r in (1, 2, 3))
    assert weights == (1, 7, 7)
    closed = msrd_weight_profile(shape, code.dim)
    assert closed == (7, 7, 8, 8)
    # rank 3 stays at column 7 while the extremal hierarchy jumps to 8
    assert weights[2] < closed[2]
    assert r_msrd_check(code, 3) is False
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(
        f"criterion 03: PASS d_1,d_2,d_3 = {weights}, extremal profile"
        f" {closed}, not 3-extremal [{elapsed:.2f}s]"
    )


def test_criterion_04_anticode_bound_battery():
    start = time.monotonic()
    rng = random.Random(101)
    checked = 0
    while checked < 1000:
        ctx = rng.choice([F2, F3])
        shape = random_shape(rng)
        top = min(shape.ambient_dim, 10 if ctx.q == 2 else 6)
        code = random_code(rng, ctx, shape, rng.randint(1, top))
        if code.dim == 0 or code.dim > top:
            continue
        assert code.dim <= code.weighted_max()
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 120
    print(
        f"criterion 04: PASS {checked} random codes within the dimension"
        f" bound, zero violations [{elapsed:.2f}s]"
    )


def _random_meshulam_instance(rng, ctx):
    # wide blocks welcome: the search itself never looks at a shape
    m = rng.randint(1, 3)
    n = rng.randint(1, 3)
    shape = Shape((m,), (n,), strict=False)
    while True:
        code = random_code(rng, ctx, shape, rng.randint(1, m * n))
        if code.dim >= 1:
            break
    mats = [
        MatrixFq(ctx, [row[i * n : (i + 1) * n] for i in range(m)])
        for row in code.rows
    ]
    return random_matrix(rng, ctx, m, n), mats


def _guaranteed_coset_instance(rng, ctx, m, n, t):
    shape = Shape((m,), (n,))
    while True:
        code = random_code(rng, ctx, shape, m * t + 1)
        if code.dim < m * t:
            continue
        v = LinearCode(shape, ctx, code.rows[: m * t])
        break
    while True:
        a = random_matrix(rng, ctx, m, n)
        if v.contains_flat(tuple(x for row in a.rows for x in row)):
            continue
        # escapes are guaranteed except over F_2 with t = 1 and low rank
        if ctx.q == 2 and t == 1 and a.rank() < 2:
            continue
        return a, v


def test_criterion_05_meshulam_and_coset_batteries():
    start = time.monotonic()
    rng = random.Random(53)
    for _ in range(500):
        ctx = rng.choice([F2, F3, F4])
        a, mats = _random_meshulam_instance(rng, ctx)
        res = meshulam_search(a, mats)
        assert res.achieved_rank >= res.rho
        best = brute_best_01_rank(a, mats)
        assert res.rho <= res.achieved_rank <= best
    exhausted = 0
    for _ in range(120):
        ctx = rng.choice([F2, F3])
        m = rng.randint(2, 3)
        n = rng.randint(2, m)
        t = rng.randint(1, n - 1)
        a, v = _guaranteed_coset_instance(rng, ctx, m, n, t)
        wit = coset_witness_exact(a, v, t)
        assert wit.achieved_rank >= t + 1
        assert v.contains_flat(
            tuple(x for row in wit.matrix.rows for x in row)
        )
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(
        f"criterion 05: PASS 500 search instances at or above rho within"
        f" the 0/1 optimum, {120 - exhausted} coset escapes, none"
        f" exhausted [{elapsed:.2f}s]"
    )


def test_criterion_06_weight_set_duality_battery():
    start = time.monotonic()
    rng = random.Random(19)
    checked = 0
    while checked < 200:
        ctx = rng.choice([F2, F3])
        m = rng.randint(1, 2)
        ell = rng.randint(1, 4)
        n = tuple(rng.randint(1, m) for _ in range(ell))
        shape = Shape((m,) * ell, n)
        if not 2 <= shape.ambient_dim <= 12:
            continue
        code = random_code(rng, ctx, shape, rng.randint(1, shape.ambient_dim - 1))
        if not 1 <= code.dim < shape.ambient_dim:
            continue
        result = wei_duality_check(code)
        assert len(result["classes"]) == m
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(
        f"criterion 06: PASS weight-set duality on {checked} equal-row"
        f" codes, every residue class partitions [{elapsed:.2f}s]"
    )


def _pack(row):
    out = 0
    for x in row:
        out = (out << 1) | x
    return out


def _span_ints(rows):
    span = [0]
    for row in rows:
        g = _pack(row)
        span += [v ^ g for v in span]
    return frozenset(span)


def test_criterion_07_enumeration_matches_exhaustive_filter():
    start = time.monotonic()
    shapes = [
        Shape((2, 2), (2, 2)),
        Shape((3, 2), (1, 2)),
        Shape((3, 1), (2, 1)),
        Shape((2, 2), (2, 1)),
        Shape((2, 1), (2, 1)),
        Shape((2, 1, 1, 1), (1, 1, 1, 1)),
        Shape((2, 1, 1), (1, 1, 1)),
        Shape((1, 1, 1), (1, 1, 1)),
        Shape((2,), (2,)),
        Shape((4,), (1,)),
    ]
    total = 0
    for shape in shapes:
        amb = shape.ambient_dim
        assert amb <= 8
        wrank = [
            MatrixTuple.from_flat(
                shape, F2, tuple((v >> (amb - 1 - j)) & 1 for j in range(amb))
            ).weighted_rank()
            for v in range(1 << amb)
        ]
        filtered = set()
        for dim in range(amb + 1):
            for sub in enumerate_subspaces(F2, amb, dim, cap=1 << 20):
                span = _span_ints(sub.basis)
                if max(wrank[v] for v in span) == dim:
                    filtered.add(span)
        listed = set()
        for mu in range(shape.ncols + 1):
            for desc in enumerate_anticodes(F2, shape, mu, "all"):
                listed.add(_span_ints(desc.materialize().rows))
        assert listed == filtered
        total += len(filtered)
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(
        f"criterion 07: PASS exact set equality on {len(shapes)} shapes,"
        f" {total} optimal anticodes either way [{elapsed:.2f}s]"
    )


def test_criterion_08_leakage_equals_mutual_information():
    start = time.monotonic()
    rng = random.Random(23)
    checked = 0
    while checked < 100:
        ctx = rng.choice([F2, F3])
        shape = random_shape(rng)
        if shape.ambient_dim > (9 if ctx.q == 2 else 6):
            continue
        code = random_code(rng, ctx, shape, rng.randint(0, shape.ambient_dim))
        taps = []
        for i in range(shape.ell):
            links = 0 if rng.random() < 0.25 else rng.randint(0, shape.n[i] + 1)
            taps.append(
                None if links == 0 else random_matrix(rng, ctx, shape.n[i], links)
            )
        scenario = WiretapScenario(code, tuple(taps))
        assert empirical_mi(scenario) == leakage_dim(code, tuple(taps))
        checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 300
    print(
        f"criterion 08: PASS exhaustive mutual information equals the"
        f" dual-intersection dimension on {checked} scenarios"
        f" [{elapsed:.2f}s]"
    )


def test_criterion_09_variant_coherence():
    start = time.monotonic()
    rng = random.Random(31)
    narrow = 0
    while narrow < 100:
        ctx = rng.choice([F2, F3])
        shape = random_shape(rng, cols_below_rows=True)
        top = min(4, shape.ambient_dim)
        code = random_code(rng, ctx, shape, rng.randint(1, top))
        if code.dim == 0:
            continue
        product = weight_profile(code, "product").weights
        support = weight_profile(code, "support").weights
        assert support == product
        everything = weight_profile(code, "all").weights
        assert all(a <= p for a, p in zip(everything, product))
        narrow += 1
    general = 0
    while general < 30:
        ctx = rng.choice([F2, F3])
        shape = random_shape(rng)
        top = min(4, shape.ambient_dim)
        code = random_code(rng, ctx, shape, rng.randint(1, top))
        if code.dim == 0:
            continue
        product = weight_profile(code, "product").weights
        everything = weight_profile(code, "all").weights
        assert all(a <= p for a, p in zip(everything, product))
        general += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600
    print(
        f"criterion 09: PASS support variant equals product on {narrow}"
        f" narrow-block codes, free variant never above it on"
        f" {narrow + general} [{elapsed:.2f}s]"
    )


def _all_codes(ctx, shape):
    amb = shape.ambient_dim
    for dim in range(1, amb + 1):
        for sub in enumerate_subspaces(ctx, amb, dim, cap=1 << 20):
            yield LinearCode.from_subspace(shape, sub)


def test_criterion_10_hierarchy_clauses_and_criteria_equivalences():
    start = time.monotonic()

    # five hierarchy clauses, exhaustively over every code of each shape
    clause_cases = [
        (F2, Shape((1, 1), (1, 1))),
        (F3, Shape((1, 1), (1, 1))),
        (F2, Shape((2, 1), (1, 1))),
        (F2, Shape((2, 2), (1, 1))),
        (F2, Shape((2, 1), (2, 1))),
    ]
    codes_seen = 0
    for ctx, shape in clause_cases:
        ncols = shape.ncols
        entries = []
        for code in _all_codes(ctx, shape):
            w = weight_profile(code).weights
            assert w[0] == code.min_distance(method="enumerate")
            assert all(w[i] <= w[i + 1] for i in range(len(w) - 1))
            assert w[-1] <= ncols
            for j in range(1, shape.ell + 1):
                cols = sum(shape.n[i] for i in range(j - 1))
                mass = sum(shape.m[i] * shape.n[i] for i in range(j - 1))
                for delta in range(shape.n[j - 1]):
                    jump = mass + delta * shape.m[j - 1]
                    for r in range(1, code.dim - jump + 1):
                        assert w[r + jump - 1] >= w[r - 1] + cols + delta
            entries.append((code, w))
            codes_seen += 1
        for small, w_small in entries:
            for big, w_big in entries:
                if small.dim > big.dim or not all(
                    big.contains_flat(row) for row in small.rows
                ):
                    continue
                assert all(
                    w_small[r] >= w_big[r] for r in range(small.dim)
                )

    # extremality criteria, exhaustively over every code of each shape
    criteria_cases = [
        (F2, Shape((2, 1), (1, 1))),
        (F2, Shape((2, 1), (2, 1))),
        (F2, Shape((1, 1), (1, 1))),
        (F3, Shape((1, 1), (1, 1))),
        (F2, Shape((1, 1, 1), (1, 1, 1))),
        (F2, Shape((2, 1, 1), (1, 1, 1))),
        (F2, Shape((2, 2), (1, 1))),
        (F2, Shape((2, 2), (2, 1))),
    ]
    reports = 0
    mixed_pairs = 0
    for ctx, shape in criteria_cases:
        for code in _all_codes(ctx, shape):
            rep = msrd_check(code)
            dual = code.dual()
            dual_rep = msrd_check(dual) if dual.dim >= 1 else None
            assert rep.c0 == rep.is_msrd
            assert rep.c1 == rep.is_msrd
            if rep.c2:
                assert rep.is_msrd
            # c3 implies both sides extremal; the converse holds only for
            # equal rows, and the (2,1,1) shape exercises the gap
            if rep.c3 and dual_rep is not None:
                assert rep.is_msrd and dual_rep.is_msrd
                assert rep.equal_rows
            if rep.equal_rows:
                assert rep.c2 == rep.is_msrd
                if rep.c3 is not None:
                    assert rep.c3 == rep.is_msrd
                if rep.is_msrd and dual_rep is not None:
                    assert dual_rep.is_msrd
            elif (
                rep.is_msrd
                and dual_rep is not None
                and dual_rep.is_msrd
                and rep.c3 is False
            ):
                mixed_pairs += 1
            reports += 1
    assert mixed_pairs > 0

    elapsed = time.monotonic() - start
    assert elapsed < 900
    print(
        f"criterion 10: PASS five hierarchy clauses on {codes_seen} codes,"
        f" criteria equivalences on {reports} reports [{elapsed:.2f}s]"
    )
