"""Seeded benchmark of the sumrank package and its CLI.

    python3 bench/run.py --workload sweep|scan|equiv|cli --seed N --seconds S --trace 0|1

Run it from the repository root; it measures the package in ``src``.  One
run generates the workload's inputs from the seed, computes a reference
answer for every task through an independent path, and then:

* with ``--trace 0`` starts the worker for set-up alone a few times (set-up
  time is their median), then once more to run tasks in a closed loop (one
  caller, one call at a time) for ``--seconds``, and checks every answer.
  Times are scaled to a reference host speed measured between tasks (see
  ``pace``), so that the host's own changes of speed cancel out;
* with ``--trace 1`` runs the plan's fixed pass once untraced and once
  traced in fresh workers, and reports totals per layer from the spans
  (``--seconds`` does not apply, so that exact counts repeat).

At most one child process runs at a time and no threads are started.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every answer matched its reference.
Scratch files go to ``.bench_out/`` under the working directory.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import pace

HERE = os.path.dirname(os.path.abspath(__file__))
SETUPS = 5  # set-up is timed in this many fresh workers per run
PROBES = 9  # interpreter and import probes per traced run
CHILD_TIMEOUT = 170.0
WORKLOADS = ("sweep", "scan", "equiv", "cli")

# End-to-end metrics, in BENCHMARK.json order, and their units.
END_TO_END = [
    ("task_ms_p50", "ms"),
    ("task_ms_p90", "ms"),
    ("tasks_per_s", "1/s"),
    ("f2_task_ms_p50", "ms"),
    ("fq_task_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
# Per-layer metrics the run measures itself rather than reading from spans.
RUN_LAYERS = [
    ("cli.bare_python_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.run_ms_p50", "ms"),
    ("cli.emit_ms_p50", "ms"),
    ("cli.process_overhead_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
]


class BenchError(Exception):
    pass


def _worker(workloads, plan_path: str, kind: str, mode: str, seconds: float, out_path: str):
    """Start a worker; return (raw set-up seconds, its scale, result or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), plan_path, mode,
           repr(seconds), out_path]
    before = pace.sample(kind)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=workloads.child_env(), stdout=subprocess.PIPE)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT)
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - start
        after = proc.stdout.readline() if line.strip() == b"ready" else b""
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != b"ready" or not after.strip() or proc.returncode != 0:
        raise BenchError(f"worker {mode} failed with exit code {proc.returncode}")
    factor = pace.scale(kind, before, float(after))
    if mode == "setup":
        return setup, factor, None
    with open(out_path, encoding="utf-8") as fh:
        return setup, factor, json.load(fh)


def _probe_ms(workloads, code: str) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        # pipes, not DEVNULL: with a timeout and no pipe to wait on,
        # subprocess polls for the exit in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", code], env=workloads.child_env(), check=True,
                       capture_output=True, timeout=CHILD_TIMEOUT)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def _count_failures(workloads, rt, refs, result) -> tuple:
    failed, bad = 0, []
    for key, seen in result["answers"].items():
        i = int(key)
        for answer, count in seen.items():
            if not workloads.check(rt, i, json.loads(answer), refs[i]):
                failed += count
                bad.append((i, rt.plan["tasks"][i]["kind"], answer[:200]))
    return failed, bad


def _corrupt(refs: dict) -> None:
    """Make the first reference wrong, for the self-test of the checks."""
    i = min(refs)
    ref = refs[i]
    if isinstance(ref, bool):
        refs[i] = not ref
    elif isinstance(ref, int):
        refs[i] = ref + 1
    elif isinstance(ref, list):
        refs[i] = ref + [0]
    elif isinstance(ref, dict) and "stdout" in ref:
        refs[i] = dict(ref, stdout=ref["stdout"] + " ")
    elif isinstance(ref, dict) and "distance" in ref:
        refs[i] = dict(ref, distance=(ref["distance"] or 0) + 1)
    else:
        refs[i] = {"corrupted": ref}


def _timed_metrics(plan, result, setups, smoke) -> tuple:
    """Metrics at the reference speed, and the raw figures beside them."""
    kind = pace.kind_of(plan["workload"])
    probes = result["probes"]
    raw = [t * 1e3 for t in result["times"]]
    times = [t * pace.scale(kind, probes[w], probes[w + 1])
             for t, w in zip(raw, result["window"])]
    qs = [plan["tasks"][i]["q"] for i in result["order"]]
    f2 = [t for t, q in zip(times, qs) if q == 2]
    fq = [t for t, q in zip(times, qs) if q != 2]
    if not f2 or not fq:
        if not smoke:
            raise BenchError("the timed phase ran no task over F_2 or none over q > 2")
        f2, fq = f2 or [0.0], fq or [0.0]
    p90 = _p90(times)
    return {
        "task_ms_p50": statistics.median(times),
        "task_ms_p90": p90,
        "tasks_per_s": len(times) / (sum(times) / 1e3),
        "f2_task_ms_p50": statistics.median(f2),
        "fq_task_ms_p50": statistics.median(fq),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(raw_s * f for raw_s, f in setups),
    }, {"samples": len(times), "f2_samples": len(f2), "fq_samples": len(fq),
        "above_p90": sum(1 for t in times if t > p90), "setups": len(setups),
        "raw_p50": statistics.median(raw), "raw_per_s": len(raw) / (sum(raw) / 1e3),
        "raw_setup": statistics.median(raw_s for raw_s, _ in setups),
        "speed": pace.REFERENCE_S[kind] / statistics.median(probes)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="one task of each kind, one set-up: a quick self-test")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="self-test: make one reference wrong, the run must fail")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "sumrank", "__init__.py")):
        print("error: run from the repository root; src/sumrank is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    pace.pin()

    run_dir = os.path.join(".bench_out", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        return _bench(args, workloads, run_dir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _bench(args, workloads, run_dir) -> int:
    t0 = time.perf_counter()
    plan = workloads.generate(args.workload, args.seed,
                              os.path.join(run_dir, "inputs"), smoke=args.smoke)
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    rt = workloads.Runtime(plan)
    t1 = time.perf_counter()
    refs = workloads.references(rt)
    t2 = time.perf_counter()
    if args.corrupt_reference:
        _corrupt(refs)
    out_path = os.path.join(run_dir, "result.json")
    kind = pace.kind_of(args.workload)
    print(f"workload {args.workload} seed {args.seed}: {len(plan['tasks'])} tasks "
          f"over {len(plan['codes'])} codes; inputs {t1 - t0:.1f} s, references {t2 - t1:.1f} s")

    if args.trace == 0:
        setups = [_worker(workloads, plan_path, kind, "setup", 0, out_path)[:2]
                  for _ in range(1 if args.smoke else SETUPS - 1)]
        setup, factor, result = _worker(workloads, plan_path, kind, "timed", args.seconds, out_path)
        setups.append((setup, factor))
        failed, bad = _count_failures(workloads, rt, refs, result)
        attempted = len(result["times"])
        metrics, info = _timed_metrics(plan, result, setups, args.smoke)
        for name, unit in END_TO_END:
            print(f"  {name:<16} {metrics[name]:12.4f} {unit}")
        print(f"  {'fail_ratio':<16} {failed / attempted:12.4f} ratio "
              f"({failed} of {attempted})")
        print(f"  samples {info['samples']} (F_2 {info['f2_samples']}, q>2 "
              f"{info['fq_samples']}), {info['above_p90']} above p90; "
              f"set-up median of {info['setups']} workers")
        print(f"  raw: task p50 {info['raw_p50']:.4f} ms, {info['raw_per_s']:.4f} tasks/s, "
              f"set-up {info['raw_setup']:.4f} s; host at {info['speed']:.3f} of the "
              f"reference speed (median of {len(result['probes'])} probes)")
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        failed, attempted, reported, bad = _traced(args, workloads, plan, plan_path, run_dir, rt, refs)

    for i, task_kind, answer in bad[:10]:
        print(f"  MISMATCH task {i} ({task_kind}): {answer}", file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": reported}))
    return 0 if correct else 1


def _traced(args, workloads, plan, plan_path, run_dir, rt, refs):
    import tracer as tracing

    failed = attempted = 0
    bad = []
    passes = {}
    modes = ["pass", "inproc", "trace"] if plan["workload"] == "cli" else ["pass", "trace"]
    kind = pace.kind_of(plan["workload"])
    for mode in modes:
        out = os.path.join(run_dir, f"{mode}.json")
        result = _worker(workloads, plan_path, kind, mode, args.seconds, out)[2]
        passes[mode] = result
        f, b = _count_failures(workloads, rt, refs, result)
        failed += f
        bad += b
        attempted += len(result["times"])
    spans_dir = os.path.join(".bench_out", "spans")
    os.makedirs(spans_dir, exist_ok=True)
    shutil.copyfile(os.path.join(run_dir, "trace.json.spans.gz"),
                    os.path.join(spans_dir, f"{plan['workload']}-{args.seed}.gz"))

    layers = passes["trace"]["layers"]
    base, traced = passes.get("inproc", passes["pass"]), passes["trace"]
    bare = _probe_ms(workloads, "pass")
    layers["cli.bare_python_ms"] = bare
    layers["cli.import_ms"] = _probe_ms(workloads, "import sumrank") - bare
    if plan["workload"] == "cli":
        inproc_ms = [t * 1e3 for t in passes["inproc"]["times"]]
        process_ms = [t * 1e3 for t in passes["pass"]["times"]]
        parts = passes["inproc"]["cli_layers_ms"]
        layers["cli.run_ms_p50"] = statistics.median(run for _, run in parts)
        layers["cli.emit_ms_p50"] = statistics.median(
            t - parse - run for t, (parse, run) in zip(inproc_ms, parts))
        layers["cli.process_overhead_ms"] = statistics.median(
            p - t for p, t in zip(process_ms, inproc_ms))
    else:
        for name in ("cli.run_ms_p50", "cli.emit_ms_p50", "cli.process_overhead_ms"):
            layers[name] = 0.0
    layers["trace.overhead_ratio"] = (len(traced["times"]) / traced["elapsed"]) / (
        len(base["times"]) / base["elapsed"])
    units = dict(tracing.LAYER_METRICS + RUN_LAYERS)
    for name, unit in tracing.LAYER_METRICS + RUN_LAYERS:
        print(f"  {name:<34} {layers[name]:14.4f} {unit}")
    print(f"  untraced pass {len(base['times'])} tasks in {base['elapsed']:.2f} s; "
          f"traced {traced['elapsed']:.2f} s")
    reported = {name: {"value": layers[name], "unit": units[name]} for name in units}
    return failed, attempted, reported, bad


if __name__ == "__main__":
    sys.exit(main())
