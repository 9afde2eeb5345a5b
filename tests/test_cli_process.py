"""The CLI as a fresh process: the same bytes as in-process, and lazy loading.

The in-process tests cannot see a handler that lost one of its imports,
because the test modules have imported every submodule already.  Here each
subcommand runs in a new interpreter, as ``python -m sumrank.cli``.
"""

import json
import os
import subprocess
import sys

import pytest

from sumrank import LinearCode, Shape
from test_cli import COVER_MATS, FULL_2X2, IDENTITY_CODE, SRC, SRK_TUPLE, _run, _write

from helpers import F2

# the modules only some subcommands use
LAZY = ("anticode", "genweights", "msrd", "isom", "cover", "wiretap")

MSRD_CODE = LinearCode(
    Shape((2, 1), (2, 1)), F2, [(1, 0, 0, 0, 1), (0, 0, 0, 1, 1), (0, 1, 1, 0, 1)]
).to_dict()
COLWISE = {
    "field": {"p": 2, "e": 1},
    "shape": {"m": [2], "n": [2]},
    "basis": [[[[1, 0], [0, 0]]], [[[0, 0], [1, 0]]]],
}
LINE = {"m": [1, 1], "n": [1, 1]}
FIRST = {"field": {"p": 2, "e": 1}, "shape": LINE, "basis": [[[[1]], [[0]]]]}
SECOND = {"field": {"p": 2, "e": 1}, "shape": LINE, "basis": [[[[0]], [[1]]]]}
TAPS = {"field": {"p": 2, "e": 1}, "taps": [[[1], [0]]]}
GAMMA = {
    "field": {"p": 2, "e": 1},
    "shape": {"m": [2], "n": [2]},
    "gamma": "monomial",
    "vectors": [[[1, 2]]],
}

# one invocation per subcommand: (argv, payloads written to the argv's files)
CASES = [
    (["srk", "{0}", "--oracle"], [SRK_TUPLE]),
    (["dist", "{0}", "--oracle"], [IDENTITY_CODE]),
    (["dual", "{0}", "--oracle"], [IDENTITY_CODE]),
    (["gweights", "{0}", "--format", "table"], [FULL_2X2]),
    (["msrd", "{0}", "--oracle"], [MSRD_CODE]),
    (["anticode", "{0}", "--oracle"], [COLWISE]),
    (["rho", "{0}", "--oracle"], [COVER_MATS]),
    (["meshulam", "{0}", "--oracle"], [dict(COVER_MATS, a=[[0, 0], [0, 0]])]),
    (["equiv", "{0}", "{1}", "--oracle"], [FIRST, SECOND]),
    (["leak", "{0}", "{1}", "--oracle"], [IDENTITY_CODE, TAPS]),
    (["expand", "{0}", "--oracle"], [GAMMA]),
    (["dist", "{0}", "--cap", "2"], [IDENTITY_CODE]),
]


def _python(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, *args], capture_output=True, env=env, timeout=120
    )


def _argv(tmp_path, argv, payloads):
    paths = [_write(tmp_path, f"in{i}.json", p) for i, p in enumerate(payloads)]
    return [a.format(*paths) for a in argv]


def _loaded(code, *args, roots=("sumrank",)):
    """Names of the modules under roots loaded after running code in a new process."""
    report = f"print(*(m for m in sys.modules if m.split('.')[0] in {roots!r}), file=sys.stderr)"
    proc = _python("-c", f"import sys\n{code}\n{report}", *args)
    assert proc.returncode == 0, proc.stderr.decode()
    return set(proc.stderr.decode().split())


@pytest.mark.parametrize("argv,payloads", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_fresh_process_matches_in_process(tmp_path, capsys, argv, payloads):
    argv = _argv(tmp_path, argv, payloads)
    status, out, err = _run(argv, capsys)
    proc = _python("-m", "sumrank.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        status,
        out.encode(),
        err.encode(),
    )


def test_cli_import_loads_only_the_shared_modules():
    assert _loaded("import sumrank.cli") == {
        "sumrank",
        "sumrank.cli",
        "sumrank.errors",
        "sumrank.gf",
        "sumrank.matfq",
        "sumrank.code",
    }


@pytest.mark.parametrize("sub", ["srk", "dual"])
def test_light_subcommands_skip_the_sweep_modules(tmp_path, sub):
    argv = _argv(tmp_path, [sub, "{0}"], [SRK_TUPLE if sub == "srk" else IDENTITY_CODE])
    loaded = _loaded("from sumrank.cli import main\nmain(sys.argv[1:])", *argv)
    assert not loaded & {f"sumrank.{name}" for name in LAZY}


# run the CLI with its messages sent to stdout, so stderr holds only the modules
_MAIN = (
    "from sumrank.cli import main\n"
    "sys.stderr = sys.stdout\nmain(sys.argv[1:])\nsys.stderr = sys.__stderr__"
)


@pytest.mark.parametrize("argv,payloads", CASES, ids=[" ".join(c[0]) for c in CASES])
def test_no_subcommand_loads_dataclasses_or_inspect(tmp_path, argv, payloads):
    # each costs a CLI process milliseconds of import
    argv = _argv(tmp_path, argv, payloads)
    assert _loaded(_MAIN, *argv, roots=("dataclasses", "inspect")) == set()


@pytest.mark.parametrize("sub", ["gweights", "msrd", "equiv"])
def test_a_malformed_payload_loads_no_sweep_module(tmp_path, sub):
    # the handler reads its payloads before it imports its library module
    (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
    bad = str(tmp_path / "bad.json")
    argv = [sub, bad, bad][: 3 if sub == "equiv" else 2]
    loaded = _loaded(_MAIN, *argv)
    assert "sumrank.cli" in loaded and not loaded & {f"sumrank.{name}" for name in LAZY}


# the F_2 dim-1 code [1, 0, ..., 0] on 1,500 1x1 blocks: a sweep as deep as
# the blocks, which raised RecursionError while the walks recursed per block
DEEP = LinearCode(Shape((1,) * 1500, (1,) * 1500), F2, [(1,) + (0,) * 1499]).to_dict()
DEEP_CASES = [
    (["gweights"], {"variant": "product", "dim": 1, "weights": [1]}),
    (["gweights", "--variant", "all"], {"variant": "all", "dim": 1, "weights": [1]}),
    (["gweights", "--variant", "support"], {"variant": "support", "dim": 1, "weights": [1]}),
    (["gweights", "--variant", "support", "--oracle"], {"variant": "support", "dim": 1, "weights": [1]}),
    (["dist"], {"distance": 1, "method": "anticode"}),
    (["anticode"], None),
]


@pytest.mark.parametrize("argv,want", DEEP_CASES, ids=[" ".join(c[0]) for c in DEEP_CASES])
def test_a_payload_of_1500_blocks_sweeps_without_a_depth_limit(tmp_path, argv, want):
    path = _write(tmp_path, "deep.json", DEEP)
    proc = _python("-m", "sumrank.cli", argv[0], path, *argv[1:])
    assert proc.returncode == 0 and b"Traceback" not in proc.stderr, proc.stderr.decode()[-2000:]
    out = json.loads(proc.stdout)
    assert out == want if want is not None else (out["is_optimal"], out["dim"]) == (True, 1)


def test_msrd_refuses_the_dual_of_a_payload_of_1500_blocks(tmp_path):
    proc = _python("-m", "sumrank.cli", "msrd", _write(tmp_path, "deep.json", DEEP))
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: dual basis of 2248500 entries exceeds cap 1000000\n"
