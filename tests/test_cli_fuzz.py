"""Malformed JSON payloads through the CLI loaders.

Every input, however broken, must end in exit code 0, 1 or 2 with no
traceback: wrong types, ragged matrices, out-of-range entries, and declared
dimensions far larger than any payload could fill, under a small --cap.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from test_cli import _run

ENTRY = st.one_of(
    st.integers(-3, 8),
    st.integers(min_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=2),
    st.none(),
    st.booleans(),
    st.lists(st.integers(0, 2), max_size=2),
)
FIELDS = [{"p": 2, "e": 1}, {"p": 3, "e": 1}, {"p": 2, "e": 2}]
BAD_FIELD = st.one_of(
    st.fixed_dictionaries(
        {
            "p": st.one_of(st.sampled_from([2, 3, 4, 0, -2, 65537, 2**61 - 1]), ENTRY),
            "e": st.one_of(st.integers(-1, 3), st.integers(17, 10**15), ENTRY),
        },
        optional={"modulus": st.one_of(st.lists(ENTRY, max_size=4), ENTRY)},
    ),
    ENTRY,
)
HUGE = st.integers(10**3, 10**12)


def _matrix(draw, q, rows, cols):
    return [[draw(st.integers(0, q - 1)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def payloads(draw, kind):
    """A well-formed code or tuple payload with at most one defect planted."""
    field = draw(st.sampled_from(FIELDS))
    q = field["p"] ** field["e"]
    ell = draw(st.integers(1, 2))
    m = sorted((draw(st.integers(1, 3)) for _ in range(ell)), reverse=True)
    n = [draw(st.integers(1, mi)) for mi in m]
    shape = {"m": m, "n": n}
    tuples = [
        [_matrix(draw, q, a, b) for a, b in zip(m, n)]
        for _ in range(draw(st.integers(0, 3)) if kind == "basis" else 1)
    ]
    data = {"field": field, "shape": shape}
    data[kind] = tuples if kind == "basis" else tuples[0]
    defect = draw(st.sampled_from(
        ["none", "entry", "ragged", "empty", "field", "dim", "huge", "vast", "key", "type", "top"]
    ))
    blocks = [blk for t in tuples for blk in t]
    if defect == "entry" and blocks:
        row = draw(st.sampled_from(draw(st.sampled_from(blocks))))
        row[draw(st.integers(0, len(row) - 1))] = draw(ENTRY)
    elif defect == "ragged" and blocks:
        row = draw(st.sampled_from(draw(st.sampled_from(blocks))))
        row.extend(draw(st.lists(st.integers(0, 1), min_size=1, max_size=2)))
    elif defect == "empty" and blocks:
        draw(st.sampled_from(blocks)).clear()
    elif defect == "field":
        data["field"] = draw(BAD_FIELD)
    elif defect == "dim":
        shape[draw(st.sampled_from(["m", "n"]))][draw(st.integers(0, ell - 1))] = draw(ENTRY)
    elif defect in ("huge", "vast"):
        # a declared space far larger than any payload could fill; "vast"
        # also empties the payload, which leaves a zero code
        shape["m"] = [draw(HUGE) for _ in range(ell)]
        shape["n"] = [draw(st.one_of(HUGE, st.integers(1, 3))) for _ in range(ell)]
        if defect == "vast":
            data[kind] = []
    elif defect == "key":
        del data[draw(st.sampled_from(sorted(data)))]
    elif defect == "type":
        data[draw(st.sampled_from(sorted(data)))] = draw(ENTRY)
    elif defect == "top":
        return draw(st.one_of(ENTRY, st.lists(ENTRY, max_size=2)))
    return data


CODE = payloads("basis")
TUPLE = payloads("blocks")
CAP = st.integers(1, 64)

FUZZ = settings(
    max_examples=120,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _check(argv, capsys):
    status, out, err = _run(argv, capsys)
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status == 0:
        json.loads(out)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


@FUZZ
@given(first=CODE, second=st.one_of(CODE, st.none()), cap=CAP)
def test_equiv_answers_any_payload(tmp_path, capsys, first, second, cap):
    a = _write(tmp_path, "a.json", first)
    b = _write(tmp_path, "b.json", first if second is None else second)
    _check(["equiv", a, b, "--cap", str(cap)], capsys)


@FUZZ
@given(payload=TUPLE, cap=CAP)
def test_srk_answers_any_payload(tmp_path, capsys, payload, cap):
    _check(["srk", _write(tmp_path, "t.json", payload), "--cap", str(cap)], capsys)


@FUZZ
@given(payload=CODE, cap=CAP)
def test_dual_answers_any_payload(tmp_path, capsys, payload, cap):
    _check(["dual", _write(tmp_path, "c.json", payload), "--cap", str(cap)], capsys)


def _loosen(payload):
    # the same payload in a non-strict space, where dist enumerates codewords
    if isinstance(payload, dict) and isinstance(payload.get("shape"), dict):
        payload["shape"]["strict"] = False
    return payload


@FUZZ
@given(payload=st.one_of(CODE, CODE.map(_loosen)), cap=CAP, oracle=st.booleans())
def test_dist_answers_any_payload(tmp_path, capsys, payload, cap, oracle):
    argv = ["dist", _write(tmp_path, "c.json", payload), "--cap", str(cap)]
    _check(argv + (["--oracle"] if oracle else []), capsys)


@FUZZ
@given(payload=CODE, cap=CAP, oracle=st.booleans())
def test_anticode_answers_any_payload(tmp_path, capsys, payload, cap, oracle):
    argv = ["anticode", _write(tmp_path, "c.json", payload), "--cap", str(cap)]
    _check(argv + (["--oracle"] if oracle else []), capsys)


def test_loader_corner_cases(tmp_path, capsys):
    # entries json.dump writes as Infinity, a directory path, bytes that are
    # not UTF-8, and a zero code in a space too large to write out, whose
    # dual the leak report also needs
    inf = {"field": {"p": 2, "e": 1}, "shape": {"m": [1], "n": [1]}, "blocks": [[[float("inf")]]]}
    assert _run(["srk", _write(tmp_path, "inf.json", inf)], capsys)[0] == 1
    assert _run(["srk", str(tmp_path)], capsys)[0] == 1
    raw = tmp_path / "raw.json"
    raw.write_bytes(b"\xff\xfe{")
    assert _run(["dual", str(raw)], capsys)[0] == 1
    huge = {"field": {"p": 2, "e": 1}, "shape": {"m": [10**9], "n": [10**9]}, "basis": []}
    path = _write(tmp_path, "huge.json", huge)
    assert _run(["dual", path], capsys)[0] == 1
    assert _run(["equiv", path, path], capsys)[0] == 1
    silent = _write(tmp_path, "taps.json", {"taps": [None]})
    assert _run(["leak", path, silent], capsys)[0] == 1
    # extension degrees far past the field bound, and a degree that is text
    vast = {"field": {"p": 2, "e": 1}, "shape": {"m": [10**6], "n": [1]}, "vectors": []}
    assert _run(["expand", _write(tmp_path, "g.json", vast)], capsys)[0] == 1
    text = {"field": {"p": 3, "e": 1}, "shape": {"m": [1], "n": [1]}, "vectors": [[[2]]],
            "subfield_degree": ""}
    assert _run(["expand", _write(tmp_path, "s.json", text)], capsys)[0] == 1
    big_p = {"field": {"p": 2**61 - 1, "e": 1}, "shape": {"m": [1], "n": [1]}, "blocks": [[[1]]]}
    assert _run(["srk", _write(tmp_path, "p.json", big_p)], capsys)[0] == 1
    big_e = {"field": {"p": 2, "e": 10**15}, "shape": {"m": [1], "n": [1]}, "blocks": [[[1]]]}
    assert _run(["srk", _write(tmp_path, "e.json", big_e)], capsys)[0] == 1


VARIANT = st.sampled_from(["product", "all", "supp", "support"])
RANK = st.one_of(st.just("all"), st.integers(-1, 5).map(str), st.sampled_from(["x", ""]))


@FUZZ
@given(payload=CODE, cap=CAP, oracle=st.booleans(), variant=VARIANT, rank=RANK)
def test_gweights_answers_any_payload(tmp_path, capsys, payload, cap, oracle, variant, rank):
    argv = ["gweights", _write(tmp_path, "c.json", payload), "--cap", str(cap)]
    argv += ["--variant", variant, f"--r={rank}"]
    _check(argv + (["--oracle"] if oracle else []), capsys)


@FUZZ
@given(payload=CODE, cap=CAP, oracle=st.booleans())
def test_msrd_answers_any_payload(tmp_path, capsys, payload, cap, oracle):
    argv = ["msrd", _write(tmp_path, "c.json", payload), "--cap", str(cap)]
    _check(argv + (["--oracle"] if oracle else []), capsys)


def _plant(draw, data):
    """Plant at most one defect in a payload dict: a key dropped or retyped,
    a bad field, or a bad top level."""
    defect = draw(st.sampled_from(["none", "none", "field", "key", "type", "top"]))
    if defect == "field":
        data["field"] = draw(BAD_FIELD)
    elif defect == "key":
        del data[draw(st.sampled_from(sorted(data)))]
    elif defect == "type":
        data[draw(st.sampled_from(sorted(data)))] = draw(ENTRY)
    elif defect == "top":
        return draw(st.one_of(ENTRY, st.lists(ENTRY, max_size=2)))
    return data


def _bent(draw, mat):
    """A matrix with at most one entry, row or size defect planted."""
    defect = draw(st.sampled_from(["none", "none", "entry", "ragged", "empty", "wide"]))
    if defect == "entry" and mat and mat[0]:
        row = draw(st.sampled_from(mat))
        row[draw(st.integers(0, len(row) - 1))] = draw(ENTRY)
    elif defect == "ragged" and mat:
        draw(st.sampled_from(mat)).append(0)
    elif defect == "empty":
        mat.clear()
    elif defect == "wide":
        mat.append([1] * draw(st.integers(1, 4)))
    return mat


@st.composite
def code_and_taps(draw):
    """A code payload and a taps payload, shaped to match it when it can."""
    code = draw(CODE)
    fields = [code["field"]] if isinstance(code, dict) and "field" in code else []
    try:
        n = [int(x) for x in code["shape"]["n"]][:3]
    except (KeyError, TypeError, ValueError, OverflowError):
        n = [draw(st.integers(1, 3))]
    field = draw(st.sampled_from(FIELDS))
    q = field["p"] ** field["e"]
    taps = []
    for rows in n:
        if draw(st.booleans()) or not 0 < rows <= 4:
            taps.append(None)
        else:
            taps.append(_bent(draw, _matrix(draw, q, rows, draw(st.integers(1, 3)))))
    data = {"taps": taps}
    if draw(st.booleans()):
        data["field"] = draw(st.sampled_from(fields + [field]))
    return code, _plant(draw, data)


@FUZZ
@given(pair=code_and_taps(), cap=CAP, oracle=st.booleans())
def test_leak_answers_any_payload(tmp_path, capsys, pair, cap, oracle):
    code, taps = pair
    argv = ["leak", _write(tmp_path, "c.json", code), _write(tmp_path, "t.json", taps)]
    argv += ["--cap", str(cap)]
    _check(argv + (["--oracle"] if oracle else []), capsys)


@st.composite
def gamma_payloads(draw):
    """An expansion payload: base field, shape, gamma bases and vectors."""
    field = draw(st.sampled_from(FIELDS))
    p, e = field["p"], field["e"]
    ell = draw(st.integers(1, 2))
    m = sorted((draw(st.integers(1, 3)) for _ in range(ell)), reverse=True)
    n = [draw(st.integers(1, mi)) for mi in m]
    tops = [(p**e) ** mi for mi in m]
    vectors = [
        [[draw(st.integers(0, top - 1)) for _ in range(ni)] for ni, top in zip(n, tops)]
        for _ in range(draw(st.integers(0, 2)))
    ]
    data = {"field": field, "shape": {"m": m, "n": n}, "vectors": vectors}
    if draw(st.booleans()):
        # explicit bases: a basis only by chance
        data["gamma"] = [
            [draw(st.integers(0, top - 1)) for _ in range(mi)] for mi, top in zip(m, tops)
        ]
    if draw(st.booleans()):
        data["subfield_degree"] = draw(st.one_of(st.integers(-1, 4), ENTRY))
    defect = draw(st.sampled_from(["none", "segment", "coord", "huge"]))
    if defect == "segment" and vectors:
        draw(st.sampled_from(vectors)).append(draw(ENTRY))
    elif defect == "coord" and vectors and vectors[0][0]:
        vectors[0][0][0] = draw(ENTRY)
    elif defect == "huge":
        data["shape"]["m"] = [draw(HUGE) for _ in range(ell)]
    return _plant(draw, data)


@FUZZ
@given(payload=gamma_payloads(), cap=CAP, oracle=st.booleans())
def test_expand_answers_any_payload(tmp_path, capsys, payload, cap, oracle):
    argv = ["expand", _write(tmp_path, "g.json", payload), "--cap", str(cap)]
    _check(argv + (["--oracle"] if oracle else []), capsys)


@st.composite
def matrix_lists(draw, start=False):
    """A matrix-list payload ({"field", "mats"}, plus "a" for meshulam)."""
    field = draw(st.sampled_from(FIELDS))
    q = field["p"] ** field["e"]
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    mats = [
        _bent(draw, _matrix(draw, q, rows, cols)) for _ in range(draw(st.integers(0, 4)))
    ]
    data = {"field": field, "mats": mats}
    if start:
        data["a"] = _bent(draw, _matrix(draw, q, rows, cols))
    return _plant(draw, data)


@FUZZ
@given(payload=matrix_lists(), cap=CAP, oracle=st.booleans())
def test_rho_answers_any_payload(tmp_path, capsys, payload, cap, oracle):
    argv = ["rho", _write(tmp_path, "m.json", payload), "--cap", str(cap)]
    _check(argv + (["--oracle"] if oracle else []), capsys)


@FUZZ
@given(payload=matrix_lists(start=True), cap=CAP, oracle=st.booleans())
def test_meshulam_answers_any_payload(tmp_path, capsys, payload, cap, oracle):
    argv = ["meshulam", _write(tmp_path, "m.json", payload), "--cap", str(cap)]
    _check(argv + (["--oracle"] if oracle else []), capsys)


# Valid payloads, each with the slots where a number must be an int: a
# slot's kind is "int", "bool", or the order of the field its elements
# live in.
F4_TUPLE = {
    "field": {"p": 2, "e": 2, "modulus": [1, 1, 1]},
    "shape": {"m": [2, 1], "n": [2, 1], "strict": True},
    "blocks": [[[1, 2], [3, 0]], [[1]]],
}
LEAK = [
    {"field": {"p": 2, "e": 1}, "shape": {"m": [2], "n": [2]}, "basis": [[[[1, 0], [0, 1]]]]},
    {"taps": [[[1], [0]]]},
]
GAMMA = {
    "field": {"p": 2, "e": 1},
    "shape": {"m": [2], "n": [2]},
    "gamma": [[1, 2]],
    "vectors": [[[1, 2]]],
    "subfield_degree": 1,
}
SLOTS = [
    ("srk", [F4_TUPLE], (0, "field", "p"), "int"),
    ("srk", [F4_TUPLE], (0, "field", "e"), "int"),
    ("srk", [F4_TUPLE], (0, "field", "modulus", 0), 2),
    ("srk", [F4_TUPLE], (0, "field", "modulus", 2), 2),
    ("srk", [F4_TUPLE], (0, "shape", "m", 0), "int"),
    ("srk", [F4_TUPLE], (0, "shape", "n", 1), "int"),
    ("srk", [F4_TUPLE], (0, "shape", "strict"), "bool"),
    ("srk", [F4_TUPLE], (0, "blocks", 0, 1, 0), 4),
    ("leak", LEAK, (1, "taps", 0, 1, 0), 2),
    ("expand", [GAMMA], (0, "vectors", 0, 0, 1), 4),
    ("expand", [GAMMA], (0, "gamma", 0, 0), 4),
    ("expand", [GAMMA], (0, "subfield_degree"), "int"),
]


def _not_for(kind):
    """Numbers a slot of this kind must refuse: floats (whole ones too) and
    bools for an int, ints and floats for a bool, and for field elements
    also the ints outside 0..q-1."""
    floats = st.one_of(st.floats(), st.sampled_from([0.0, 1.0, 2.0]))
    if kind == "bool":
        return st.one_of(st.integers(), floats)
    bad = st.one_of(floats, st.booleans())
    if kind == "int":
        return bad
    return st.one_of(bad, st.integers(max_value=-1), st.integers(min_value=kind))


@st.composite
def planted_numbers(draw):
    subcommand, payloads, (index, *keys), kind = draw(st.sampled_from(SLOTS))
    payloads = json.loads(json.dumps(payloads))
    slot = payloads[index]
    for key in keys[:-1]:
        slot = slot[key]
    slot[keys[-1]] = draw(_not_for(kind))
    return subcommand, payloads


@pytest.mark.parametrize(
    "subcommand,payloads", [("srk", [F4_TUPLE]), ("leak", LEAK), ("expand", [GAMMA])]
)
def test_the_payloads_that_slots_are_planted_in_exit_zero(tmp_path, capsys, subcommand, payloads):
    paths = [_write(tmp_path, f"{i}.json", p) for i, p in enumerate(payloads)]
    assert _run([subcommand] + paths, capsys)[0] == 0


@FUZZ
@given(planted=planted_numbers())
def test_a_number_that_is_not_an_int_for_its_slot_exits_one(tmp_path, capsys, planted):
    # a coerced number answers for another code than the one given
    subcommand, payloads = planted
    paths = [_write(tmp_path, f"{i}.json", p) for i, p in enumerate(payloads)]
    status, out, err = _run([subcommand] + paths, capsys)
    assert status == 1 and out == "" and "Traceback" not in err
