"""CLI contract: JSON payloads in, deterministic reports out, exit codes 0/1/2."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from sumrank import LinearCode, Shape
from sumrank.cli import RunConfig, main, parse_args
from sumrank.errors import UsageError
from sumrank.isom import Isometry

from helpers import F2

SRC = str(Path(__file__).resolve().parent.parent / "src")

SRK_TUPLE = {
    "field": {"p": 3, "e": 1},
    "shape": {"m": [2, 1], "n": [2, 1]},
    "blocks": [[[1, 2], [0, 1]], [[2]]],
}

IDENTITY_CODE = {
    "field": {"p": 2, "e": 1},
    "shape": {"m": [2], "n": [2]},
    "basis": [[[[1, 0], [0, 1]]]],
}

FULL_2X2 = {
    "field": {"p": 2, "e": 1},
    "shape": {"m": [2], "n": [2]},
    "basis": [
        [[[1, 0], [0, 0]]],
        [[[0, 1], [0, 0]]],
        [[[0, 0], [1, 0]]],
        [[[0, 0], [0, 1]]],
    ],
}

COVER_MATS = {
    "field": {"p": 2, "e": 1},
    "mats": [[[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [1, 1]]],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _run(argv, capsys):
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_srk_json_table_and_determinism(tmp_path, capsys):
    path = _write(tmp_path, "t.json", SRK_TUPLE)
    status, out, err = _run(["srk", path], capsys)
    assert status == 0 and err == ""
    assert json.loads(out) == {"srk": 3}
    again = _run(["srk", path], capsys)
    assert again == (status, out, err)
    status, out, _ = _run(["srk", path, "--format", "table"], capsys)
    assert status == 0 and out == "3\n"
    assert _run(["srk", path, "--oracle"], capsys)[0] == 0


def test_dist_picks_method_by_strictness(tmp_path, capsys):
    path = _write(tmp_path, "c.json", IDENTITY_CODE)
    status, out, _ = _run(["dist", path, "--oracle"], capsys)
    assert status == 0
    assert json.loads(out) == {"distance": 2, "method": "anticode"}
    loose = {
        "field": {"p": 2, "e": 1},
        "shape": {"m": [1, 2], "n": [1, 2], "strict": False},
        "basis": [[[[1]], [[0, 0], [0, 0]]]],
    }
    path = _write(tmp_path, "loose.json", loose)
    status, out, _ = _run(["dist", path], capsys)
    assert status == 0
    assert json.loads(out) == {"distance": 1, "method": "enumerate"}


def test_dist_refuses_the_zero_code(tmp_path, capsys):
    zero = {"field": {"p": 2, "e": 1}, "shape": {"m": [2, 1], "n": [2, 1]}, "basis": []}
    path = _write(tmp_path, "zero.json", zero)
    for argv in (["dist", path], ["dist", path, "--oracle"]):
        status, out, err = _run(argv, capsys)
        assert (status, out) == (1, "")
        assert err == "error: the zero code has no nonzero codewords\n"


def test_dual_emits_code_json_and_involutes(tmp_path, capsys):
    path = _write(tmp_path, "c.json", IDENTITY_CODE)
    status, out, _ = _run(["dual", path, "--oracle"], capsys)
    assert status == 0
    dual = LinearCode.from_dict(json.loads(out))
    code = LinearCode.from_dict(IDENTITY_CODE)
    assert dual == code.dual()
    back_path = _write(tmp_path, "dual.json", json.loads(out))
    status, out, _ = _run(["dual", back_path], capsys)
    assert status == 0
    assert LinearCode.from_dict(json.loads(out)) == code


def test_dual_oracle_on_every_row_kernel(tmp_path, capsys, monkeypatch):
    # F_2 and F_3 bit rows, F_4 packed entries, F_5 list rows; the zero code
    # and the full space pair nothing
    for p, e in ((2, 1), (3, 1), (2, 2), (5, 1)):
        corner = [[[[1, 0], [0, 0]]]]
        for basis in ([], corner, FULL_2X2["basis"]):
            payload = {"field": {"p": p, "e": e}, "shape": {"m": [2], "n": [2]}, "basis": basis}
            status, _, err = _run(["dual", _write(tmp_path, "c.json", payload), "--oracle"], capsys)
            assert (status, err) == (0, "")
    # a "dual" that pairs nontrivially with the code trips the oracle
    monkeypatch.setattr(LinearCode, "dual", lambda self: self)
    payload = {"field": {"p": 5, "e": 1}, "shape": {"m": [2], "n": [2]}, "basis": corner}
    status, _, err = _run(["dual", _write(tmp_path, "c.json", payload), "--oracle"], capsys)
    assert status == 2
    assert "oracle mismatch on dual: nonzero trace pairing" in err


def test_gweights_profile_single_rank_and_table(tmp_path, capsys):
    path = _write(tmp_path, "full.json", FULL_2X2)
    status, out, _ = _run(["gweights", path, "--oracle"], capsys)
    assert status == 0
    report = json.loads(out)
    assert report["weights"] == [1, 1, 2, 2]
    assert report["variant"] == "product"

    status, out, _ = _run(["gweights", path, "--r", "3"], capsys)
    assert status == 0
    assert json.loads(out) == {"variant": "product", "r": 3, "weight": 2}

    status, out, _ = _run(["gweights", path, "--variant", "supp"], capsys)
    assert status == 0
    assert json.loads(out)["variant"] == "support"

    status, out, _ = _run(["gweights", path, "--format", "table"], capsys)
    assert status == 0
    assert out.splitlines() == ["variant product", "r  d_r", "1  1", "2  1", "3  2", "4  2"]


def test_gweights_rank_flag_validation(tmp_path, capsys):
    path = _write(tmp_path, "full.json", FULL_2X2)
    status, _, err = _run(["gweights", path, "--r", "zero"], capsys)
    assert status == 1 and "error:" in err
    status, _, err = _run(["gweights", path, "--r", "0"], capsys)
    assert status == 1 and "error:" in err
    # past the dimension: a guard, not a crash
    status, _, err = _run(["gweights", path, "--r", "9"], capsys)
    assert status == 1 and "error:" in err


def test_msrd_report(tmp_path, capsys):
    code = LinearCode(
        Shape((2, 1), (2, 1)), F2, [(1, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 1, 1, 0, 1)]
    )
    path = _write(tmp_path, "c.json", code.to_dict())
    status, out, _ = _run(["msrd", path, "--oracle"], capsys)
    assert status == 0
    report = json.loads(out)
    assert report["is_msrd"] is True
    assert report["distance"] == 2
    status, out, _ = _run(["msrd", path, "--format", "table"], capsys)
    assert status == 0 and "is_msrd" in out


def test_anticode_classification(tmp_path, capsys):
    colwise = {
        "field": {"p": 2, "e": 1},
        "shape": {"m": [2], "n": [2]},
        "basis": [[[[1, 0], [0, 0]]], [[[0, 0], [1, 0]]]],
    }
    path = _write(tmp_path, "a.json", colwise)
    status, out, _ = _run(["anticode", path, "--oracle"], capsys)
    assert status == 0
    report = json.loads(out)
    assert report["is_optimal"] is True and report["dim"] == 2
    assert report["descriptor"] is not None

    diag = {
        "field": {"p": 2, "e": 1},
        "shape": {"m": [2], "n": [2]},
        "basis": [[[[1, 0], [0, 0]]], [[[0, 0], [0, 1]]]],
    }
    path = _write(tmp_path, "d.json", diag)
    status, out, _ = _run(["anticode", path], capsys)
    assert status == 0
    report = json.loads(out)
    assert report["is_optimal"] is False and report["descriptor"] is None


def test_anticode_cap_guards_only_the_oracle_scan(tmp_path, capsys):
    # the classification walks no codeword, so a cap below 2^4 leaves the
    # plain answer alone; the oracle's scan still refuses the dim-4 code
    path = _write(tmp_path, "full.json", FULL_2X2)
    status, out, _ = _run(["anticode", path, "--cap", "8"], capsys)
    assert status == 0 and json.loads(out)["is_optimal"] is True
    status, out, err = _run(["anticode", path, "--oracle", "--cap", "8"], capsys)
    assert (status, out) == (1, "")
    assert err == "error: q^dim = 2**4 exceeds cap 8\n"


def test_long_binary_tails_answer_or_refuse_by_count(tmp_path, capsys):
    # seven trailing 1x1 blocks: the oracles walk the whole tail family
    shape = Shape((2,) + (1,) * 7, (2,) + (1,) * 7)
    rows = [(1,) * 5 + (0,) * 6, (0,) * 4 + (1,) * 3 + (0,) * 4, (0,) * 7 + (1,) * 4]
    path = _write(tmp_path, "t7.json", LinearCode(shape, F2, rows).to_dict())
    for argv in (["gweights", path, "--variant", "all", "--oracle"], ["msrd", path, "--oracle"]):
        status, out, err = _run(argv, capsys)
        assert (status, err) == (0, ""), err
    # thirty binary 1x1 blocks: at weight 2, C(30, 3) even-weight tails
    # exceed the cap before any tail is built
    thirty = Shape((1,) * 30, (1,) * 30)
    rows = [tuple(int(10 * i <= j < 10 * i + 10) for j in range(30)) for i in range(3)]
    path = _write(tmp_path, "t30.json", LinearCode(thirty, F2, rows).to_dict())
    status, out, err = _run(["gweights", path, "--variant", "all", "--cap", "1000"], capsys)
    assert (status, out) == (1, "")
    assert err == "error: 4060 tail anticodes at weight 2 exceed cap 1000\n"


def test_rho_and_meshulam(tmp_path, capsys):
    path = _write(tmp_path, "mats.json", COVER_MATS)
    status, out, _ = _run(["rho", path, "--oracle"], capsys)
    assert status == 0
    report = json.loads(out)
    assert report["rho"] == 2
    assert len(report["pivots"]) == 2 and len(report["witnesses"]) == 2

    payload = dict(COVER_MATS)
    payload["a"] = [[0, 0], [0, 0]]
    path = _write(tmp_path, "start.json", payload)
    status, out, _ = _run(["meshulam", path, "--oracle"], capsys)
    assert status == 0
    report = json.loads(out)
    assert report["rho"] == 2
    assert report["achieved_rank"] >= 2
    assert len(report["coeffs"]) == 3
    assert set(report["coeffs"]) <= {0, 1}


def test_meshulam_oracle_checks_the_achieved_sum(tmp_path, capsys):
    # the search picks (0, 0, 1) and reaches rank 3, where the complemented
    # choice (1, 1, 0) reaches only 2, so an oracle that sums the wrong
    # matrices disagrees with the reported rank
    payload = {
        "field": {"p": 2, "e": 1},
        "a": [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        "mats": [
            [[0, 0, 0], [0, 1, 1], [1, 1, 1]],
            [[0, 1, 0], [0, 1, 0], [1, 1, 0]],
            [[1, 1, 1], [1, 1, 0], [1, 1, 0]],
        ],
    }
    path = _write(tmp_path, "mesh.json", payload)
    status, out, err = _run(["meshulam", path, "--oracle"], capsys)
    assert status == 0 and err == ""
    assert json.loads(out) == {"coeffs": [0, 0, 1], "achieved_rank": 3, "rho": 2}


def test_equiv_positive_and_negative(tmp_path, capsys):
    shape = {"m": [1, 1], "n": [1, 1]}
    first = {"field": {"p": 2, "e": 1}, "shape": shape, "basis": [[[[1]], [[0]]]]}
    second = {"field": {"p": 2, "e": 1}, "shape": shape, "basis": [[[[0]], [[1]]]]}
    p1 = _write(tmp_path, "a.json", first)
    p2 = _write(tmp_path, "b.json", second)
    status, out, _ = _run(["equiv", p1, p2, "--oracle"], capsys)
    assert status == 0
    report = json.loads(out)
    assert report["equivalent"] is True
    code1 = LinearCode.from_dict(first)
    code2 = LinearCode.from_dict(second)
    witness = Isometry.from_dict(report["isometry"], code1.shape, code1.ctx)
    assert witness.apply_code(code1) == code2

    heavy = {"field": {"p": 2, "e": 1}, "shape": shape, "basis": [[[[1]], [[1]]]]}
    p3 = _write(tmp_path, "c.json", heavy)
    status, out, _ = _run(["equiv", p1, p3], capsys)
    assert status == 0
    assert json.loads(out) == {"equivalent": False, "isometry": None}


def test_leak_report(tmp_path, capsys):
    code_path = _write(tmp_path, "c.json", IDENTITY_CODE)
    taps = {"field": {"p": 2, "e": 1}, "taps": [[[1], [0]]]}
    taps_path = _write(tmp_path, "taps.json", taps)
    status, out, _ = _run(["leak", code_path, taps_path, "--oracle"], capsys)
    assert status == 0
    assert json.loads(out) == {"leak_symbols": 1, "threshold_table": [1, 2, 2]}

    silent = _write(tmp_path, "none.json", {"taps": [None]})
    status, out, _ = _run(["leak", code_path, silent], capsys)
    assert status == 0
    assert json.loads(out)["leak_symbols"] == 0

    clash = _write(tmp_path, "f3.json", {"field": {"p": 3, "e": 1}, "taps": [None]})
    status, _, err = _run(["leak", code_path, clash], capsys)
    assert status == 1 and "field" in err


def test_expand_report(tmp_path, capsys):
    payload = {
        "field": {"p": 2, "e": 1},
        "shape": {"m": [2], "n": [2]},
        "gamma": "monomial",
        "vectors": [[[1, 2]]],
    }
    path = _write(tmp_path, "g.json", payload)
    status, out, _ = _run(["expand", path, "--oracle"], capsys)
    assert status == 0
    code = LinearCode.from_dict(json.loads(out))
    assert code.dim == 2
    assert code.rows == ((1, 0, 0, 1), (0, 1, 1, 1))

    bad = dict(payload, vectors=[[[1, 7]]])
    path = _write(tmp_path, "bad.json", bad)
    status, _, err = _run(["expand", path], capsys)
    assert status == 1 and "error:" in err

    # a true coordinate or gamma element used to read as 1 and exit 0
    for bad in (dict(payload, vectors=[[[True, 2]]]), dict(payload, gamma=[[True, 2]])):
        status, out, err = _run(["expand", _write(tmp_path, "bad.json", bad)], capsys)
        assert status == 1 and out == "" and "Traceback" not in err


def test_usage_failures_exit_one(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    status, _, err = _run(["dist", missing], capsys)
    assert status == 1 and "no such file" in err

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json", encoding="utf-8")
    status, _, err = _run(["dist", str(garbled)], capsys)
    assert status == 1

    toplevel = tmp_path / "list.json"
    toplevel.write_text("[1, 2]", encoding="utf-8")
    status, _, err = _run(["dist", str(toplevel)], capsys)
    assert status == 1 and "JSON object" in err

    stripped = dict(IDENTITY_CODE)
    del stripped["basis"]
    path = _write(tmp_path, "broken.json", stripped)
    status, _, err = _run(["dist", path], capsys)
    assert status == 1 and "malformed" in err

    status, _, err = _run(["frobnicate", path], capsys)
    assert status == 1 and "error:" in err

    small = _write(tmp_path, "c.json", IDENTITY_CODE)
    status, _, err = _run(["dist", small, "--cap", "2"], capsys)
    assert status == 1


def _limited(argv, limit=1 << 30):
    """Run sumrank in a new process with its address space limited to limit bytes."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "sumrank.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("field", [{"p": 2, "e": 1}, {"p": 3, "e": 1}, {"p": 2, "e": 2}])
def test_gweights_oracle_on_a_vast_zero_code(tmp_path, field):
    # Meet used to pack a column for each of the 7e10 ambient coordinates, and
    # the classification built one range per block row, 2.8e7 of them; each
    # run gets 1 GB, so such a regression fails here instead of exhausting memory
    payload = {"field": field, "shape": {"m": [27833789, 2434], "n": [2517, 1]}, "basis": []}
    path = _write(tmp_path, "zero.json", payload)
    status, out, err = _limited(["gweights", path, "--oracle"])
    assert status == 0, err
    assert json.loads(out) == {"variant": "product", "dim": 0, "weights": []}
    # the zero code is the product of zero col supports
    zero = {"blocks": [{"kind": "col", "L": []}, {"kind": "col", "L": []}]}
    for flags in ([], ["--oracle"]):
        status, out, err = _limited(["anticode", path, *flags])
        assert status == 0, err
        assert json.loads(out) == {"is_optimal": True, "dim": 0, "descriptor": zero}
    for argv in (["dist", path], ["msrd", path], ["dual", path], ["equiv", path, path]):
        status, out, err = _limited(argv)
        assert status in (0, 1) and "Traceback" not in err, (argv, err)
        assert status == 0 or out == ""


def test_msrd_refuses_a_vast_dual_before_sweeping(tmp_path):
    # a dim-1 F_2 code of (10^5, 1)x(1, 1) whose large block is zero: msrd swept
    # for many seconds and then raised MemoryError building its 10^10-entry dual
    shape = {"m": [10**5, 1], "n": [1, 1]}
    payload = {"field": {"p": 2, "e": 1}, "shape": shape, "basis": [[[[0]] * 10**5, [[1]]]]}
    status, out, err = _limited(["msrd", _write(tmp_path, "vast.json", payload)])
    assert (status, out) == (1, "")
    assert err == "error: dual basis of 10000100000 entries exceeds cap 1000000\n"


@pytest.mark.parametrize("sub", ["dual", "leak"])
def test_dual_guard_refuses_above_the_cap(tmp_path, capsys, sub):
    # the identity code has ambient 4 and dim 1: a dual basis of 4 * 3 entries
    argv = [sub, _write(tmp_path, "c.json", IDENTITY_CODE)]
    if sub == "leak":
        argv.append(_write(tmp_path, "t.json", {"taps": [[[1], [0]]]}))
    assert _run(argv + ["--cap", "12"], capsys)[0] == 0
    status, out, err = _run(argv + ["--cap", "11"], capsys)
    assert (status, out, err) == (1, "", "error: dual basis of 12 entries exceeds cap 11\n")


@pytest.mark.parametrize("blocks", [[[1.5, 0], [3, 1]], [[True, 0], [-1, 1]], [[1, 0], [2, 1]]])
def test_entries_outside_the_field_exit_one(tmp_path, capsys, blocks):
    # these tuples used to be reduced mod 2 and answer srk 2 with exit 0
    field = {"p": 2, "e": 1}
    tup = {"field": field, "shape": {"m": [2], "n": [2]}, "blocks": [blocks]}
    status, out, err = _run(["srk", _write(tmp_path, "t.json", tup)], capsys)
    assert status == 1 and out == "" and "not an element of F_2" in err
    code = _write(tmp_path, "c.json", dict(IDENTITY_CODE, basis=[[blocks]]))
    status, _, err = _run(["dist", code], capsys)
    assert status == 1 and "not an element" in err
    taps = _write(tmp_path, "taps.json", {"field": field, "taps": [blocks]})
    status, _, err = _run(["leak", _write(tmp_path, "i.json", IDENTITY_CODE), taps], capsys)
    assert status == 1 and "not an element" in err
    mats = _write(tmp_path, "m.json", dict(COVER_MATS, mats=COVER_MATS["mats"] + [blocks]))
    status, _, err = _run(["rho", mats], capsys)
    assert status == 1 and "not an element" in err
    pair = _write(tmp_path, "a.json", dict(COVER_MATS, a=blocks))
    status, _, err = _run(["meshulam", pair], capsys)
    assert status == 1 and "not an element" in err


@pytest.mark.parametrize(
    "field,shape",
    [
        ({"p": 2.9, "e": True}, {"m": [2.7], "n": [True]}),
        ({"p": 2, "e": 1}, {"m": [2.7], "n": [True]}),
        ({"p": 2, "e": 1}, {"m": [2], "n": [1], "strict": 0}),
        ({"p": 2, "e": 2, "modulus": [1.5, 1, True]}, {"m": [2], "n": [1]}),
    ],
)
def test_field_and_shape_numbers_that_are_not_ints_exit_one(tmp_path, capsys, field, shape):
    # int(), bool() and the modulus's int(c) % p coerced these, and the first
    # and last answered srk 1 with exit 0
    tup = {"field": field, "shape": shape, "blocks": [[[1], [0]]]}
    status, out, err = _run(["srk", _write(tmp_path, "t.json", tup)], capsys)
    assert status == 1 and out == "" and "must be" in err and "Traceback" not in err
    code = {"field": field, "shape": shape, "basis": [[[[1], [0]]]]}
    status, out, err = _run(["gweights", _write(tmp_path, "c.json", code)], capsys)
    assert status == 1 and out == "" and "must be" in err


def test_oracle_mismatch_exits_two(tmp_path, capsys, monkeypatch):
    import sumrank.cli as cli_mod

    path = _write(tmp_path, "mats.json", COVER_MATS)
    monkeypatch.setattr(cli_mod, "_brute_cover_size", lambda points: 99)
    status, _, err = _run(["rho", path, "--oracle"], capsys)
    assert status == 2
    assert err.startswith("invariant_violation:")


SUBCOMMANDS = ["srk", "dist", "dual", "gweights", "msrd", "anticode", "rho", "meshulam", "equiv",
               "leak", "expand"]


def test_parser_lists_and_reads_every_subcommand(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(SUBCOMMANDS) + "}" in capsys.readouterr().out
    missing = str(tmp_path / "missing.json")
    for name in SUBCOMMANDS:
        paths = [missing] * (2 if name in ("equiv", "leak") else 1)
        status, out, err = _run([name, *paths], capsys)
        assert (status, out) == (1, "") and f"no such file: {missing}" in err, name
    for name in ("equiv", "leak"):
        status, out, err = _run([name, missing], capsys)
        assert (status, out) == (1, "") and "the following arguments are required" in err


def test_run_config_validation(capsys):
    with pytest.raises(UsageError):
        RunConfig("srk", ("x.json",), cap=0)
    status, out, err = _run(["srk", "x.json", "--seed", "1"], capsys)
    assert status == 1 and out == "" and "Traceback" not in err
    with pytest.raises(UsageError):
        RunConfig("srk", ("x.json",), format="yaml")


def test_parse_args_normalizes_flags():
    config = parse_args(["gweights", "c.json", "--variant", "supp", "--r", "2"])
    assert config.variant == "support" and config.rank == 2
    config = parse_args(["gweights", "c.json"])
    assert config.variant == "product" and config.rank is None
    with pytest.raises(UsageError):
        parse_args(["gweights", "c.json", "--r", "-1"])
    with pytest.raises(UsageError):
        parse_args(["srk"])


def test_reports_are_byte_stable(tmp_path, capsys):
    code = LinearCode(
        Shape((2, 1), (2, 1)), F2, [(1, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 1, 1, 0, 1)]
    )
    path = _write(tmp_path, "c.json", code.to_dict())
    for argv in (
        ["msrd", path],
        ["msrd", path, "--format", "table"],
        ["gweights", path, "--variant", "all"],
        ["dual", path],
    ):
        first = _run(argv, capsys)
        second = _run(argv, capsys)
        assert first == second and first[0] == 0


def test_anticode_reports_a_binary_tail(tmp_path, capsys):
    # the code is its even-weight tail on the three trailing 1x1 blocks
    shape = Shape((2, 1, 1, 1), (2, 1, 1, 1))
    code = LinearCode(shape, F2, [(0,) * 4 + (1, 1, 0), (0,) * 5 + (1, 1)])
    path = _write(tmp_path, "tail.json", code.to_dict())
    status, out, err = _run(["anticode", path, "--oracle"], capsys)
    assert (status, err) == (0, "")
    assert json.loads(out) == {
        "is_optimal": True,
        "dim": 2,
        "descriptor": {
            "blocks": [{"kind": "col", "L": []}],
            "tail": {"basis": [[1, 0, 1], [0, 1, 1]]},
        },
    }


DIAG_2X2 = {
    "field": {"p": 2, "e": 1},
    "shape": {"m": [2], "n": [2]},
    "basis": [[[[1, 0], [0, 0]]], [[[0, 0], [0, 1]]]],
}


@pytest.mark.parametrize(
    "argv,payloads,table",
    [
        # a threshold list is a scalar-list row
        (
            ["leak", "{0}", "{1}", "--oracle"],
            [IDENTITY_CODE, {"field": {"p": 2, "e": 1}, "taps": [[[1], [0]]]}],
            ["leak_symbols     1", "threshold_table  1 2 2"],
        ),
        # nested pivots go through json.dumps
        (
            ["rho", "{0}"],
            [COVER_MATS],
            ["rho        2", "pivots: [[1, 2], [2, 1]]", "witnesses  1 2"],
        ),
        # a non-optimal code has no descriptor
        (
            ["anticode", "{0}"],
            [DIAG_2X2],
            ["is_optimal  false", "dim         2", "descriptor  -"],
        ),
        # the full space has no dual distance, and c3 does not apply to it
        (
            ["msrd", "{0}"],
            [LinearCode.full(Shape((2, 1), (2, 1)), F2).to_dict()],
            [
                "dim             5",
                "distance        1",
                "distance_bound  1",
                "block           0",
                "delta           0",
                "remainder       0",
                "is_msrd         true",
                "criteria:",
                "  c0             true",
                "  c1             true",
                "  c2             true",
                "  c3             -",
                "  column_window  true",
                "equal_rows      false",
                "dual_distance   -",
            ],
        ),
        # a single-rank report falls back to the generic table
        (
            ["gweights", "{0}", "--r", "2"],
            [FULL_2X2],
            ["variant  product", "r        2", "weight   1"],
        ),
    ],
    ids=["leak", "rho", "anticode", "msrd", "gweights-r"],
)
def test_table_rows_are_pinned(tmp_path, capsys, argv, payloads, table):
    paths = [_write(tmp_path, f"p{i}.json", p) for i, p in enumerate(payloads)]
    argv = [arg.format(*paths) for arg in argv] + ["--format", "table"]
    assert _run(argv, capsys) == (0, "\n".join(table) + "\n", "")
