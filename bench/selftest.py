"""Self-tests of the benchmark itself; run from the repository root:

    python3 bench/selftest.py

Each check runs ``bench/run.py`` in smoke mode (one task of each kind per
workload, one set-up, about a second of timing) and fails loudly:

* every metric named in BENCHMARK.json is printed, with its unit, by the
  untraced and the traced run of every workload, and a smoke run is correct;
* a deliberately wrong reference makes the run fail with ``failed`` > 0;
* two traced runs of one seed give identical exact counts;
* the tracer puts back every name it patched;
* in a directory holding only BENCHMARK.json and the benchmark, the command
  exits nonzero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()


class SelfTestFailure(Exception):
    pass


def check(cond, message):
    if not cond:
        raise SelfTestFailure(message)


def bench(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metrics_printed_with_units():
    want = spec()
    runs = {}
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, proc = bench(workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  f"{workload} trace={trace} smoke run failed:\n{proc.stdout}\n{proc.stderr}")
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{workload}: unexpected result keys {sorted(result)}")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  f"{workload}: attempted {result['attempted']}, failed {result['failed']}")
            named = {m["name"]: m["unit"] for m in want[key]}
            got = {name: v["unit"] for name, v in result["metrics"].items()}
            check(got == named, f"{workload} trace={trace}: metrics {got} != {named}")
            for name, value in result["metrics"].items():
                check(isinstance(value["value"], (int, float)),
                      f"{workload}: {name} is not a number")
            runs[(workload, trace)] = result
    return runs


def test_wrong_reference_fails(workload):
    code, result, proc = bench(workload, 0, "--corrupt-reference")
    check(code != 0, f"{workload}: a wrong reference still exited 0")
    check(result is not None and not result["correct"] and result["failed"] > 0,
          f"{workload}: a wrong reference was not counted:\n{proc.stdout}")


def test_exact_counts_repeat(first_runs):
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import tracer

    for workload in WORKLOADS:
        code, again, _ = bench(workload, 1)
        check(code == 0, f"{workload}: second traced run failed")
        first = first_runs[(workload, 1)]["metrics"]
        for name in tracer.EXACT:
            check(first[name]["value"] == again["metrics"][name]["value"],
                  f"{workload}: {name} differs between traced runs of one seed")


def test_tracer_restores():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import sumrank
    import sumrank.cli  # noqa: F401
    import tracer

    tr = tracer.Tracer()
    tr.install()
    sites = [(owner, attr, getattr(owner, attr)) for owner, attr in tr.patched_sites()]
    check(len(sites) > 40, f"only {len(sites)} sites patched")
    # every import site of a traced function must be covered
    from sumrank import code, genweights, msrd, wiretap

    check(code.rref is sumrank.matfq.rref, "code.rref was not patched with matfq.rref")
    for mod in (genweights, msrd, wiretap):
        check(mod.product_descriptors is sumrank.anticode.product_descriptors,
              f"{mod.__name__}.product_descriptors missed")
    tr.uninstall()
    for owner, attr, wrapper in sites:
        check(getattr(owner, attr) is not wrapper, f"{owner}.{attr} still patched")
        check(not hasattr(vars(owner)[attr], "__wrapped__"), f"{owner}.{attr} not restored")


def test_refuses_without_program():
    scratch = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(HERE, os.path.join(scratch, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _ = bench("sweep", 0, cwd=scratch)
        check(code != 0 and result is None, "ran without the program in src/")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    runs = test_metrics_printed_with_units()
    print("ok  every BENCHMARK.json metric printed with its unit, smoke runs correct")
    for workload in WORKLOADS:
        test_wrong_reference_fails(workload)
    print("ok  a wrong reference makes every workload fail")
    test_exact_counts_repeat(runs)
    print("ok  exact counts repeat between traced runs of one seed")
    test_tracer_restores()
    print("ok  the tracer restores every patched name")
    test_refuses_without_program()
    print("ok  refuses to run where src/ is missing")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SelfTestFailure as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        sys.exit(1)
