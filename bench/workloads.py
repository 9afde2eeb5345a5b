"""The four benchmark workloads: seeded inputs, task runners, references, checks.

A plan is plain JSON made by ``generate(workload, seed)``: the codes and other
inputs, the task list, the order the timed loop walks and the tasks one
untraced or traced pass runs (all of them unless the plan says otherwise).
``Runtime`` turns a plan into library objects, ``warm_up`` fills the
program's caches the way a long session would, ``run_task`` performs one task (one library call, or one
CLI process for ``cli``) and returns a JSON-able answer.  ``references``
computes, outside any timed phase and through a path independent of the one
under test, what ``check`` compares each answer against.

The library is imported inside functions so that the ``cli`` worker, whose
tasks are child processes, never imports it itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from itertools import product as iter_product

# Field of each plan entry as (p, e).
F2, F3, F4, F9 = (2, 1), (3, 1), (2, 2), (3, 2)


def _S():
    import sumrank

    return sumrank


def _ctx(field):
    return _S().FieldContext(field[0], field[1])


def _shape(m, n):
    return _S().Shape(tuple(m), tuple(n))


def _q(field) -> int:
    return field[0] ** field[1]


# --------------------------------------------------------------- generation


def _random_code(rng, ctx, shape, k):
    S = _S()
    while True:
        rows = [
            tuple(rng.randrange(ctx.q) for _ in range(shape.ambient_dim))
            for _ in range(k)
        ]
        code = S.LinearCode(shape, ctx, rows)
        if code.dim == k:
            return code


def _random_subspace(rng, ctx, n, u):
    S = _S()
    while True:
        vecs = [tuple(rng.randrange(ctx.q) for _ in range(n)) for _ in range(u)]
        sub = S.Subspace(ctx, n, vecs)
        if sub.dim == u:
            return sub


def _random_anticode(rng, ctx, shape, u):
    """A product anticode with support sizes u, moved by a random isometry."""
    S = _S()
    blocks = tuple(
        S.BlockSupport("col", _random_subspace(rng, ctx, shape.n[i], u[i]))
        for i in range(shape.ell)
    )
    code = S.AnticodeDescriptor(shape, ctx, blocks).materialize()
    return S.random_isometry(ctx, shape, rng).apply_code(code)


def _msrd_code(rng, ctx, shape, k):
    """Rejection sampling: random codes until the distance meets the bound."""
    S = _S()
    bound = S.singleton_distance_bound(shape, k)
    while True:
        code = _random_code(rng, ctx, shape, k)
        if code.min_distance(method="anticode") == bound:
            return code


class _Plan:
    def __init__(self, workload, seed):
        self.rng = random.Random(f"{workload}:{seed}")
        self.data = {"workload": workload, "seed": seed, "codes": [], "tasks": [], "warm": []}

    def code(self, field, code) -> int:
        self.data["codes"].append(
            {"field": list(field), "m": list(code.shape.m), "n": list(code.shape.n),
             "rows": [list(r) for r in code.rows]}
        )
        return len(self.data["codes"]) - 1

    def task(self, kind, field, **extra) -> None:
        self.data["tasks"].append(dict(kind=kind, q=_q(field), **extra))

    def finish(self, rounds=1):
        """Timed order: a seeded shuffle of the task list, repeated."""
        n = len(self.data["tasks"])
        order = []
        for _ in range(rounds):
            perm = list(range(n))
            self.rng.shuffle(perm)
            order += perm
        self.data["order"] = order
        return self.data


# Sweep shapes: (field, m, n), with the size of the anticode family that
# warm-up materializes (all weights, variant "all").  The sizes sum to 1883,
# under a quarter of the 8192 entries the materialize cache holds, so every
# sweep task runs warm.
SWEEP_SHAPES = {
    "A": (F2, (4, 3), (3, 3)),              # 479
    "B3": (F3, (3, 3), (3, 2)),             # 323
    "B4": (F4, (3, 3), (3, 2)),             # 601
    "C": (F2, (3, 3), (3, 2)),              # 149
    "E": (F4, (2, 2), (2, 2)),              # 143
    "F": (F3, (3, 2), (2, 2)),              # 59
    "T": (F2, (2, 1, 1, 1), (2, 1, 1, 1)),  # 71: 63 products and 8 binary tails
    "L2": (F2, (3, 2), (2, 2)),             # 39
    "L3": (F3, (2, 2), (2, 1)),             # 19
}
# Task kinds of the smaller codes, two per code, taken in turn.
_SWEEP_KINDS = ("wp_product", "wcl", "wp_support", "msrd", "threshold")


def _gen_sweep(p: _Plan, smoke: bool):
    rng = p.rng
    if smoke:
        plan = [("C", 6, False, ("wp_product", "wp_support", "threshold", "wcl", "msrd")),
                ("T", 3, False, ("wp_all",)),
                ("E", 6, True, ("msrd",)),
                ("L2", 4, False, ("leak",))]
    else:
        # a few large codes (the middle dimensions the roadmap profiles), then
        # many smaller ones whose costs overlap, so that every quantile falls
        # where many distinct inputs lie and no single input sets it
        plan = [("A", 8, False, ("wp_product", "msrd")), ("A", 8, False, ("wp_product",)),
                ("B3", 6, False, ("wp_product",)), ("B4", 5, False, ("wp_product",))]
        # every C code runs weight_profile: that dense group sets p90
        for j in range(18):
            plan.append(("C", 3 + j % 6, False, ("wp_product", _SWEEP_KINDS[1 + j % 4])))
        turn = 0
        for key, dims in (("L2", (2, 3, 4, 5, 6, 7)), ("E", (3, 4, 5)), ("F", (3, 4, 5, 6, 7))):
            for j in range(24):
                kinds = (_SWEEP_KINDS[turn % 5], _SWEEP_KINDS[(turn + 1) % 5])
                turn += 2
                plan.append((key, dims[j % len(dims)], False, kinds))
        plan += [("E", 6, True, ("msrd",)), ("F", 7, True, ("msrd",))] * 2
        plan += [("T", 2 + j % 3, False, ("wp_all", "wp_product")) for j in range(12)]
        plan += [("L2", 4, False, ("leak",))] * 4 + [("L3", 3, False, ("leak",))] * 4
    for key, k, msrd, kinds in plan:
        field, m, n = SWEEP_SHAPES[key]
        ctx, shape = _ctx(field), _shape(m, n)
        code = _msrd_code(rng, ctx, shape, k) if msrd else _random_code(rng, ctx, shape, k)
        idx = p.code(field, code)
        for kind in kinds:
            extra = {"code": idx, "shape": key}
            if kind == "wcl":
                extra["mu"] = rng.randint(1, shape.ncols - 1)
            if kind == "leak":
                taps = []
                for i in range(shape.ell):
                    if rng.random() < 0.25:
                        taps.append(None)
                        continue
                    cols = rng.randint(1, shape.n[i])
                    taps.append([[rng.randrange(_q(field)) for _ in range(cols)]
                                 for _ in range(shape.n[i])])
                extra["taps"] = taps
            p.task(kind, field, **extra)
    p.data["warm"] = sorted({t["shape"] for t in p.data["tasks"]})
    return p.finish(rounds=1 if smoke else 12)


def _gen_scan(p: _Plan, smoke: bool):
    rng = p.rng
    scans = ("min", "max", "dist", "wmax")
    big = ((4, 4, 3), (4, 3, 3))
    mid = ((3, 3), (3, 2))
    if smoke:
        plan = [(F2, big, 10, None), (F3, mid, 4, None)]
    else:
        # packed F_2 path: dims 10 to 13 (1k to 8k codewords); generic path:
        # F_3, F_4 and F_9 with 81 to 729 codewords.  The dims are weighted so
        # that the middle of the cost range, 5 to 10 ms here, holds the most
        # tasks and the quantiles fall inside a dense group.
        plan = [(F2, big, k, None) for k in (10, 11, 11, 11, 12, 12, 13) * 3]
        plan += [(F3, mid, k, None) for k in (4, 5, 5, 5, 6)]
        plan += [(F4, mid, k, None) for k in (4, 4, 4, 5)]
        plan += [(F9, ((2, 2), (2, 2)), k, None) for k in (2, 3, 3)]
        plan += [(F2, big, None, u) for u in ((1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 0, 1))]
        plan += [(F3, mid, None, (1, 1)), (F4, mid, None, (1, 0)),
                 (F9, ((2, 2), (2, 2)), None, (1, 0)), (F3, mid, None, (0, 2))]
    for j, (field, (m, n), k, u) in enumerate(plan):
        ctx, shape = _ctx(field), _shape(m, n)
        code = _random_anticode(rng, ctx, shape, u) if u else _random_code(rng, ctx, shape, k)
        idx = p.code(field, code)
        # is_optimal_anticode stops early on most random codes, so it runs on
        # every anticode and on one random code in four
        for kind in scans + (("optimal",) if u or j % 4 == 0 else ()):
            p.task(kind, field, code=idx)
    return p.finish(rounds=1 if smoke else 8)


# Equivalence shapes: (field, m, n, k) with the isometry count each search
# walks at most; all stay far below GROUP_CAP = 10**7.  The largest group
# gl_group builds is GL(3, F_2) with 168 elements.
EQUIV_PAIRS = [
    (F2, (3, 1), (2, 1), 2),        # 2016
    (F2, (3, 1), (2, 1), 3),        # 2016
    (F2, (2, 2, 1), (2, 1, 1), 3),  # 864
    (F2, (2, 2), (2, 1), 3),        # 432
    (F3, (2,), (2,), 2),            # 4608
    (F4, (2, 1), (1, 1), 2),        # 9720
    (F3, (2, 1), (1, 1), 2),        # 768
]
# Automorphism walks visit the whole group, so their cost hardly depends on
# the code.
EQUIV_AUTS = [
    (F2, (2, 2, 1), (2, 1, 1), 3),  # 864
    (F2, (2, 2), (2, 1), 3),        # 432
    (F3, (2, 1), (1, 1), 2),        # 768
    (F3, (2,), (2,), 2),            # 4608
]
PAIRS_PER_SHAPE = 120


def _isometry_at(ctx, shape, u: float):
    """The isometry a fraction u in [0, 1) of the way through the product of
    admissible permutations, transpose masks, left and then right GL tuples
    (last factor fastest, as the search and ``_brute_automorphisms`` walk it)."""
    S = _S()
    ell = shape.ell
    perms = list(S.admissible_permutations(shape))
    squares = [j for j in range(ell) if shape.m[j] == shape.n[j]]
    pools = [S.gl_group(ctx, d) for d in shape.m + shape.n]
    radices = [len(perms), 1 << len(squares)] + [len(pool) for pool in pools]
    total = 1
    for r in radices:
        total *= r
    idx = int(u * total)
    digits = []
    for r in reversed(radices):
        idx, d = divmod(idx, r)
        digits.append(d)
    digits.reverse()
    mask = [False] * ell
    for pos, j in enumerate(squares):
        mask[j] = bool(digits[1] >> pos & 1)
    mats = [pool[d] for pool, d in zip(pools, digits[2:])]
    return S.Isometry(shape, ctx, perms[digits[0]], tuple(mask), tuple(mats[:ell]),
                      tuple(mats[ell:]))


def _spread_order(n: int):
    """0..n-1 ordered so that every prefix is spread evenly over the range
    (van der Corput: sorted by the bit-reversed index)."""
    bits = max(1, (n - 1).bit_length())
    return sorted(range(n), key=lambda j: int(format(j, f"0{bits}b")[::-1], 2))


def _gen_equiv(p: _Plan, smoke: bool):
    rng = p.rng
    if smoke:
        shapes, per_shape, auts = [EQUIV_PAIRS[3], EQUIV_PAIRS[6]], 1, [EQUIV_AUTS[1]]
    else:
        shapes, per_shape, auts = EQUIV_PAIRS, PAIRS_PER_SHAPE, EQUIV_AUTS * 2
    # The search stops at the first witness it meets, so a pair's cost is
    # set by where phi sits in the group.  A random phi would make each cost
    # a fresh draw and the run's quantiles a sample.  Instead pair j of a
    # shape takes phi at the place (j + offset) / per_shape of the group,
    # with a seeded offset, and the task list walks the places in an order
    # whose every prefix covers the group evenly, so a run that stops part
    # way through the list has still sampled every shape across its group.
    ctxs = [(_ctx(f), _shape(m, n)) for f, m, n, _ in shapes]
    offsets = [rng.random() for _ in shapes]
    aut_every = per_shape // len(auts) or 1
    for step, j in enumerate(_spread_order(per_shape)):
        for (field, _, _, k), (ctx, shape), offset in zip(shapes, ctxs, offsets):
            code = _random_code(rng, ctx, shape, k)
            image = _isometry_at(ctx, shape, (j + offset) / per_shape).apply_code(code)
            p.task("equiv", field, code=p.code(field, code), other=p.code(field, image))
        if step % aut_every == aut_every - 1 and step // aut_every < len(auts):
            field, m, n, k = auts[step // aut_every]
            code = _random_code(rng, _ctx(field), _shape(m, n), k)
            p.task("aut", field, code=p.code(field, code))
    p.data["warm"] = sorted({(tuple(f), d) for f, m, n, _ in shapes + auts for d in m + n})
    tasks = p.data["tasks"]
    # the untraced and traced passes take the first half of the walk and
    # every automorphism walk
    half = len(tasks) // 2
    p.data["pass"] = [i for i, t in enumerate(tasks) if i < half or t["kind"] == "aut"]
    p.data["order"] = list(range(len(tasks))) * (1 if smoke else 4)
    return p.data


def _write_json(path, payload) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(payload, str):
            fh.write(payload)
        else:
            json.dump(payload, fh)
    return path


def _gen_cli(p: _Plan, smoke: bool, files: str):
    S = _S()
    rng = p.rng
    os.makedirs(files, exist_ok=True)
    counter = [0]

    def put(payload) -> str:
        counter[0] += 1
        return _write_json(os.path.join(files, f"in{counter[0]:02d}.json"), payload)

    def code(field, m, n, k):
        return _random_code(rng, _ctx(field), _shape(m, n), k)

    def matrix(field, rows, cols, nonzero=True):
        while True:
            mat = [[rng.randrange(_q(field)) for _ in range(cols)] for _ in range(rows)]
            if not nonzero or any(any(r) for r in mat):
                return mat

    def tuple_payload(field, m, n):
        return {"field": {"p": field[0], "e": field[1]}, "shape": {"m": list(m), "n": list(n)},
                "blocks": [matrix(field, a, b, nonzero=False) for a, b in zip(m, n)]}

    def add(field, argv, expect=0):
        p.task("cli", field, argv=argv, expect_exit=expect)

    # one input per subcommand, fields mixed; a share with --oracle or table
    srk3 = put(tuple_payload(F3, (3, 2), (2, 2)))
    add(F3, ["srk", srk3])
    add(F2, ["srk", put(tuple_payload(F2, (3, 2), (3, 1))), "--format", "table"])
    if not smoke:
        add(F4, ["srk", put(tuple_payload(F4, (2, 2), (2, 1))), "--oracle"])
        c = put(code(F2, (3, 2), (2, 2), 4).to_dict())
        add(F2, ["dist", c, "--oracle"])
        add(F2, ["gweights", c])
        add(F2, ["gweights", c, "--variant", "supp", "--format", "table"])
        add(F2, ["dual", c, "--oracle"])
        c3 = put(code(F3, (2, 2), (2, 1), 3).to_dict())
        add(F3, ["dist", c3])
        add(F3, ["gweights", c3, "--r", "2", "--oracle"])
        add(F3, ["dual", c3])
        msrd_code = _msrd_code(rng, _ctx(F4), _shape((2, 2), (2, 2)), 6)
        cm = put(msrd_code.to_dict())
        add(F4, ["msrd", cm])
        add(F4, ["msrd", cm, "--oracle", "--format", "table"])
        anti = _random_anticode(rng, _ctx(F2), _shape((3, 2), (3, 2)), (1, 1))
        add(F2, ["anticode", put(anti.to_dict()), "--oracle"])
        add(F3, ["anticode", c3])
        for field, size, count in ((F2, 3, 5), (F3, 3, 4)):
            mats = [matrix(field, size, size) for _ in range(count)]
            fd = {"p": field[0], "e": field[1]}
            add(field, ["rho", put({"field": fd, "mats": mats}), "--oracle"])
            a = matrix(field, size, size, nonzero=False)
            add(field, ["meshulam", put({"field": fd, "a": a, "mats": mats}), "--oracle"])
        for field, m, n, k in ((F2, (2, 1), (2, 1), 2), (F3, (2, 1), (1, 1), 2)):
            ctx, shape = _ctx(field), _shape(m, n)
            first = _random_code(rng, ctx, shape, k)
            second = S.random_isometry(ctx, shape, rng).apply_code(first)
            add(field, ["equiv", put(first.to_dict()), put(second.to_dict()), "--oracle"])
        leak_code = code(F2, (2, 2), (2, 1), 3)
        taps = {"field": {"p": 2, "e": 1}, "taps": [matrix(F2, 2, 1), None]}
        add(F2, ["leak", put(leak_code.to_dict()), put(taps), "--oracle"])
        vectors = [[[rng.randrange(4) for _ in range(2)], [rng.randrange(4)]] for _ in range(2)]
        gam = {"field": {"p": 2, "e": 1}, "shape": {"m": [2, 2], "n": [2, 1]},
               "gamma": "monomial", "vectors": vectors}
        add(F2, ["expand", put(gam), "--oracle"])
        # malformed inputs: the CLI must answer with exit 1 and no traceback
        ragged = code(F2, (2, 2), (2, 1), 2).to_dict()
        ragged["basis"][0][0][0].append(1)
        add(F2, ["dist", put(ragged)], expect=1)
        add(F2, ["gweights", put("{not json")], expect=1)
        add(F2, ["expand", put(dict(gam, vectors=[[[1, 7], [0]]]))], expect=1)
    add(F2, ["rho", put({"field": {"p": 2, "e": 1}, "mats": [[[0, 0], [0, 0]]]})], expect=1)
    p.data["warm"] = ["srk", srk3]
    return p.finish(rounds=1 if smoke else 8)


def generate(workload: str, seed: int, files: str, smoke: bool = False) -> dict:
    """The plan of one run; cli input files go to ``files``."""
    p = _Plan(workload, seed)
    if workload == "sweep":
        return _gen_sweep(p, smoke)
    if workload == "scan":
        return _gen_scan(p, smoke)
    if workload == "equiv":
        return _gen_equiv(p, smoke)
    if workload == "cli":
        return _gen_cli(p, smoke, files)
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------- execution


class Runtime:
    """Library objects built from a plan."""

    def __init__(self, plan: dict):
        self.plan = plan
        self.codes = []
        self.taps = {}
        if plan["workload"] == "cli":
            return
        S = _S()
        for entry in plan["codes"]:
            ctx = _ctx(entry["field"])
            shape = _shape(entry["m"], entry["n"])
            self.codes.append(S.LinearCode(shape, ctx, [tuple(r) for r in entry["rows"]]))
        for i, task in enumerate(plan["tasks"]):
            if task["kind"] == "leak":
                ctx = self.codes[task["code"]].ctx
                self.taps[i] = tuple(
                    None if t is None else S.MatrixFq(ctx, t) for t in task["taps"]
                )


def warm_up(rt: Runtime) -> None:
    """Fill the caches a long session would have filled.

    sweep: materialize every anticode family member of each shape (the
    materialize cache); equiv: build each GL group once (the gl_group
    cache); cli: one CLI process, so the import path is hot in the page
    cache; scan keeps no cache.
    """
    workload = rt.plan["workload"]
    if workload == "cli":
        run_cli_process(rt.plan["warm"])
        return
    S = _S()
    if workload == "sweep":
        for key in rt.plan["warm"]:
            field, m, n = SWEEP_SHAPES[key]
            ctx, shape = _ctx(field), _shape(m, n)
            for mu in range(1, shape.ncols + 1):
                for desc in S.enumerate_anticodes(ctx, shape, mu, "all"):
                    desc.materialize()
    elif workload == "equiv":
        for field, d in rt.plan["warm"]:
            S.gl_group(_ctx(field), d)


def child_env() -> dict:
    """Environment of every child process: the package from ./src, fixed hashing."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_cli_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "sumrank.cli", *argv],
        env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120,
    )
    return [proc.returncode, proc.stdout.decode("utf-8", "replace")]


def run_cli_inprocess(argv):
    from sumrank import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(list(argv))
    return [status, out.getvalue()]


def run_task(rt: Runtime, i: int, inprocess: bool = False):
    """Perform task i and return its answer as JSON-able data."""
    task = rt.plan["tasks"][i]
    kind = task["kind"]
    if kind == "cli":
        return (run_cli_inprocess if inprocess else run_cli_process)(task["argv"])
    S = _S()
    code = rt.codes[task["code"]]
    if kind.startswith("wp_"):
        return list(S.weight_profile(code, kind[3:]).weights)
    if kind == "threshold":
        return list(S.threshold_table(code))
    if kind == "wcl":
        return S.worst_case_leakage(code, task["mu"])
    if kind == "msrd":
        return S.msrd_check(code).to_dict()
    if kind == "leak":
        return S.leakage_dim(code, rt.taps[i])
    if kind == "min":
        return code.min_distance(method="enumerate")
    if kind == "max":
        return code.max_srk()
    if kind == "dist":
        return {str(k): v for k, v in sorted(code.srk_distribution().items())}
    if kind == "wmax":
        return code.weighted_max()
    if kind == "optimal":
        ok, desc = S.is_optimal_anticode(code)
        return [ok, desc.to_dict() if desc is not None else None]
    if kind == "equiv":
        phi = S.equivalent_codes(code, rt.codes[task["other"]])
        return phi.to_dict() if phi is not None else None
    if kind == "aut":
        return len(S.equivalent_codes(code, code, all_witnesses=True))
    raise ValueError(f"unknown task kind {kind!r}")


# ------------------------------------------------------------- references


def _brute_ranks(code):
    """Per-codeword block ranks by the benchmark's own elimination.

    Returns ({srk: count}, max weighted rank) over the nonzero codewords.
    Only field addition and multiplication come from the library; the
    codeword walk and the rank computation are written out here.
    """
    ctx, shape = code.ctx, code.shape
    q = ctx.q
    offs = shape.block_offsets()
    dist, wmax = {}, 0
    if q == 2:
        rows = [sum(x << j for j, x in enumerate(r)) for r in code.rows]
        for coeffs in iter_product((0, 1), repeat=len(rows)):
            word = 0
            for c, r in zip(coeffs, rows):
                if c:
                    word ^= r
            if not word:
                continue
            srk = wrk = 0
            for off, a, b in zip(offs, shape.m, shape.n):
                mask = (1 << b) - 1
                basis = []
                for s in range(a):
                    v = (word >> (off + s * b)) & mask
                    for piv in basis:
                        v = min(v, v ^ piv)
                    if v:
                        basis.append(v)
                        basis.sort(reverse=True)
                srk += len(basis)
                wrk += a * len(basis)
            dist[srk] = dist.get(srk, 0) + 1
            wmax = max(wmax, wrk)
        return dist, wmax
    add = [[ctx.add(a, b) for b in range(q)] for a in range(q)]
    mul = [[ctx.mul(a, b) for b in range(q)] for a in range(q)]
    neg = [next(b for b in range(q) if add[a][b] == 0) for a in range(q)]
    inv = [0] + [next(b for b in range(q) if mul[a][b] == 1) for a in range(1, q)]
    n = shape.ambient_dim
    for coeffs in iter_product(range(q), repeat=code.dim):
        if not any(coeffs):
            continue
        word = [0] * n
        for c, r in zip(coeffs, code.rows):
            if c:
                mc = mul[c]
                word = [add[w][mc[x]] for w, x in zip(word, r)]
        srk = wrk = 0
        for off, a, b in zip(offs, shape.m, shape.n):
            mat = [word[off + s * b: off + (s + 1) * b] for s in range(a)]
            rank = 0
            for col in range(b):
                piv = next((r for r in range(rank, a) if mat[r][col]), None)
                if piv is None:
                    continue
                mat[rank], mat[piv] = mat[piv], mat[rank]
                scale = inv[mat[rank][col]]
                mat[rank] = [mul[scale][x] for x in mat[rank]]
                for r in range(a):
                    f = mat[r][col]
                    if r != rank and f:
                        nf = neg[f]
                        mat[r] = [add[x][mul[nf][y]] for x, y in zip(mat[r], mat[rank])]
                rank += 1
            srk += rank
            wrk += a * rank
        dist[srk] = dist.get(srk, 0) + 1
        wmax = max(wmax, wrk)
    return dist, wmax


def _brute_automorphisms(code) -> int:
    """|Aut(C)| by applying every isometry of the shape to the code."""
    S = _S()
    shape, ctx = code.shape, code.ctx
    squares = [j for j in range(shape.ell) if shape.m[j] == shape.n[j]]
    count = 0
    for sigma in S.admissible_permutations(shape):
        for bits in range(1 << len(squares)):
            mask = [False] * shape.ell
            for pos, j in enumerate(squares):
                mask[j] = bool(bits >> pos & 1)
            for left in iter_product(*(S.gl_group(ctx, m) for m in shape.m)):
                for right in iter_product(*(S.gl_group(ctx, n) for n in shape.n)):
                    phi = S.Isometry(shape, ctx, sigma, tuple(mask), left, right)
                    if phi.apply_code(code) == code:
                        count += 1
    return count


def references(rt: Runtime) -> dict:
    """Reference data per task index, from paths independent of the tasks'."""
    S = _S()
    plan = rt.plan
    memo = {}

    def once(key, fn):
        if key not in memo:
            memo[key] = fn()
        return memo[key]

    def enum_distance(code):
        return code.min_distance(method="enumerate") if code.dim else None

    def thresholds(idx, upto=None):
        """Leakage thresholds by one gen_weight sweep per rank."""
        code = rt.codes[idx]
        dual_dim = code.ambient_dim - code.dim
        got = memo.setdefault(("thr", idx), [])
        while len(got) < dual_dim and (upto is None or not got or got[-1] <= upto):
            got.append(S.leakage_threshold(code, len(got) + 1))
        return got

    refs = {}
    for i, task in enumerate(plan["tasks"]):
        kind = task["kind"]
        if kind == "cli":
            status, out = run_cli_inprocess(task["argv"])
            refs[i] = {"status": status, "stdout": out}
            continue
        idx = task.get("code")
        code = rt.codes[idx]
        if kind.startswith("wp_"):
            variant = kind[3:]
            refs[i] = once((kind, idx), lambda: [
                S.gen_weight(code, r, variant) for r in range(1, code.dim + 1)])
        elif kind == "threshold":
            refs[i] = list(thresholds(idx))
        elif kind == "wcl":
            mu = task["mu"]
            refs[i] = sum(1 for t in thresholds(idx, mu) if t <= mu)
        elif kind == "msrd":
            refs[i] = once(("msrd", idx), lambda: {
                "distance": enum_distance(code),
                "dual_distance": enum_distance(code.dual()),
                "bound": S.singleton_distance_bound(code.shape, code.dim),
                "remainder": S.dim_decomposition(code.shape, code.dim)[2],
            })
        elif kind == "leak":
            refs[i] = S.empirical_mi(S.WiretapScenario(code, rt.taps[i]))
        elif kind in ("min", "max", "dist", "wmax", "optimal"):
            dist, wmax = once(("brute", idx), lambda: _brute_ranks(code))
            refs[i] = {
                "min": min(dist), "max": max(dist), "wmax": wmax,
                "dist": {str(k): v for k, v in sorted(dist.items())},
                "optimal": wmax == code.dim,
            }[kind]
        elif kind == "equiv":
            refs[i] = True  # the second code is an isometric image of the first
        elif kind == "aut":
            refs[i] = once(("aut", idx), lambda: _brute_automorphisms(code))
    return refs


def check(rt: Runtime, i: int, answer, ref) -> bool:
    """Does the answer of task i agree with its reference?"""
    S = _S() if rt.plan["workload"] != "cli" else None
    task = rt.plan["tasks"][i]
    kind = task["kind"]
    if kind == "cli":
        return (answer == [ref["status"], ref["stdout"]]
                and ref["status"] == task["expect_exit"])
    if isinstance(answer, dict) and "exception" in answer:
        return False
    if kind == "msrd":
        want_msrd = ref["remainder"] == 0 and ref["distance"] == ref["bound"]
        return (answer["distance"] == ref["distance"]
                and answer["dual_distance"] == ref["dual_distance"]
                and answer["is_msrd"] == want_msrd)
    if kind == "optimal":
        if answer[0] != ref:
            return False
        if not ref:
            return answer[1] is None
        code = rt.codes[task["code"]]
        desc = S.AnticodeDescriptor.from_dict(answer[1], code.shape, code.ctx)
        return desc.materialize() == code
    if kind == "equiv":
        if answer is None or not ref:
            return answer is None and not ref
        first, second = rt.codes[task["code"]], rt.codes[task["other"]]
        phi = S.Isometry.from_dict(answer, first.shape, first.ctx)
        return phi.apply_code(first) == second
    return answer == ref
