"""One benchmark process: set up, then run tasks in one of four modes.

    python3 bench/worker.py PLAN MODE SECONDS OUT

Run from the repository root with ``src`` on PYTHONPATH.  The worker builds
the plan's inputs, warms the caches, prints ``ready`` (the parent times set-up
up to that line) and a host-speed probe (see ``pace``), and then, by MODE:

* ``setup``  exits at once;
* ``timed``  walks the plan's order until SECONDS have passed, probing the
  host speed before the first task and after every ``pace.EVERY_S`` of tasks;
* ``pass``   runs the plan's pass (by default every task) once, in order;
* ``inproc`` like ``pass``, but CLI tasks run in this process, with the time
  spent in ``cli.parse_args`` and ``cli.run`` recorded per task;
* ``trace``  like ``inproc``, with every layer traced from before the inputs
  are built; the spans are written next to OUT.

OUT receives the per-task times, each distinct answer per task with its
count, the probes with, per task, the index of the probe before it, and the
process's peak RSS.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _record(answers: dict, i: int, answer) -> None:
    key = json.dumps(answer, sort_keys=True)
    slot = answers.setdefault(i, {})
    slot[key] = slot.get(key, 0) + 1


def _run(run_task, rt, i, inprocess):
    try:
        return run_task(rt, i, inprocess)
    except Exception as exc:  # a failed task is counted, never fatal
        return {"exception": f"{type(exc).__name__}: {exc}"}


def main(argv) -> int:
    plan_path, mode, seconds, out_path = argv
    seconds = float(seconds)
    import pace
    import workloads

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = None
    if mode == "trace":
        import sumrank  # noqa: F401  the tracer patches the loaded modules
        import sumrank.cli  # noqa: F401
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    rt = workloads.Runtime(plan)
    workloads.warm_up(rt)
    print("ready", flush=True)
    kind = pace.kind_of(plan["workload"])
    probes = [pace.sample(kind)]
    print(repr(probes[0]), flush=True)
    if mode == "setup":
        return 0

    inprocess = mode in ("inproc", "trace")
    cli_timers = restore = None
    if mode == "inproc" and plan["workload"] == "cli":
        cli_timers, restore = _time_cli_layers()
    times, order, answers, window = [], [], {}, []
    layer_ms = []
    t0 = time.perf_counter()
    if mode == "timed":
        seq = plan["order"]
        deadline = t0 + seconds
        k = 0
        busy = 0.0
        while True:
            i = seq[k % len(seq)]
            k += 1
            a = time.perf_counter()
            ans = _run(workloads.run_task, rt, i, False)
            b = time.perf_counter()
            times.append(b - a)
            order.append(i)
            window.append(len(probes) - 1)
            _record(answers, i, ans)
            busy += b - a
            if busy >= pace.EVERY_S[kind] or b >= deadline:
                probes.append(pace.probe(kind))
                busy = 0.0
            if b >= deadline:
                break
    else:
        for i in plan.get("pass", range(len(plan["tasks"]))):
            if tracer is not None:
                tracer.task_id = i + 1
            if cli_timers is not None:
                cli_timers["parse"] = cli_timers["run"] = 0.0
            a = time.perf_counter()
            ans = _run(workloads.run_task, rt, i, inprocess)
            b = time.perf_counter()
            times.append(b - a)
            order.append(i)
            _record(answers, i, ans)
            if cli_timers is not None:
                layer_ms.append([cli_timers["parse"] * 1e3, cli_timers["run"] * 1e3])
    elapsed = time.perf_counter() - t0
    if restore is not None:
        restore()
    who = resource.RUSAGE_CHILDREN if plan["workload"] == "cli" and not inprocess else resource.RUSAGE_SELF
    out = {
        "mode": mode,
        "times": times,
        "order": order,
        "elapsed": elapsed,
        "probes": probes,
        "window": window,
        "answers": {str(i): v for i, v in answers.items()},
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    if layer_ms:
        out["cli_layers_ms"] = layer_ms
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.aggregate()
        tracer.write(out_path + ".spans.gz")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


def _time_cli_layers():
    """Time cli.parse_args and cli.run inside cli.main, nothing else.

    Returns the timers and a function that puts the originals back.
    """
    from sumrank import cli

    timers = {"parse": 0.0, "run": 0.0}
    originals = {attr: getattr(cli, attr) for attr in ("parse_args", "run")}
    for attr, key in (("parse_args", "parse"), ("run", "run")):
        original = originals[attr]

        def timed(*args, _fn=original, _key=key, **kwargs):
            a = time.perf_counter()
            try:
                return _fn(*args, **kwargs)
            finally:
                timers[_key] += time.perf_counter() - a

        setattr(cli, attr, timed)

    def restore():
        for attr, original in originals.items():
            setattr(cli, attr, original)

    return timers, restore


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
