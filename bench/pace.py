"""Host-speed probes: every reported time is scaled to one reference speed.

The benchmark runs on shared hosts whose guest CPUs change speed by a
quarter or more within a minute; CPU time moves with wall time and steal
time stays near zero, so the processor itself runs slower.  A run cannot
avoid that, so it measures it.  A probe times a fixed piece of work that
does not involve the package under test:

* ``compute``: a pure-Python kernel (Gauss-Jordan elimination over GF(251),
  written here), about 1.5 ms; used by the workloads whose tasks are
  library calls;
* ``spawn``: a bare ``python -c pass`` process; used by ``cli``, whose tasks
  are processes.  Process start-up slows with the host in its own way (page
  faults, exec, file mapping), which the compute kernel does not follow.

A CPU's speed flips between a fast and a slow state every 30 to 150 ms, and
the share of time spent slow drifts over minutes.  So the worker probes
often: before its first task and after every ``EVERY_S`` of task time.  A
task's time is multiplied by ``REFERENCE_S / p``, where ``p`` is the mean of
the probe just before it and the probe just after it, which estimates how
slow the host ran around it (averaging more probes tracks the host worse).  A reported time is thus the time
the task would have taken on a host that runs the probe in ``REFERENCE_S``.
Raw times are printed next to the scaled ones.

The speeds of a host's CPUs change independently of each other, so a probe
only speaks for the CPU it ran on: ``pin`` keeps the benchmark and every
process it starts on one CPU.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

# Probe times in the fast state of a 2-vCPU Intel Xeon VM, CPython 3.11.7.
REFERENCE_S = {"compute": 0.0013, "spawn": 0.050}
EVERY_S = {"compute": 0.05, "spawn": 1.0}  # probe again after this much task time
SAMPLE = {"compute": 8, "spawn": 2}  # probes averaged around each set-up
_P = 251
_ROWS, _COLS = 10, 14
_KERNELS = 6  # kernels per timed chunk


def _matrix():
    x = 12345
    mat = []
    for _ in range(_ROWS):
        row = []
        for _ in range(_COLS):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            row.append(x % _P)
        mat.append(row)
    return mat


def _kernel() -> int:
    mat = _matrix()
    rank = 0
    for col in range(_COLS):
        piv = next((r for r in range(rank, _ROWS) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], _P - 2, _P)
        mat[rank] = [v * inv % _P for v in mat[rank]]
        for r in range(_ROWS):
            f = mat[r][col]
            if r != rank and f:
                mat[r] = [(a - f * b) % _P for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def pin() -> None:
    """Run this process, and every process it starts, on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def kind_of(workload: str) -> str:
    return "spawn" if workload == "cli" else "compute"


def probe(kind: str) -> float:
    """Seconds the host takes for one probe of this kind now."""
    start = time.perf_counter()
    if kind == "spawn":
        # pipes, as the cli tasks have: with a timeout but no pipe to wait
        # on, subprocess polls for the exit in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60,
                       capture_output=True)
    else:
        for _ in range(_KERNELS):
            _kernel()
    return time.perf_counter() - start


def sample(kind: str) -> float:
    """Mean of a few probes: the host's speed at one moment, for set-up."""
    return statistics.fmean(probe(kind) for _ in range(SAMPLE[kind]))


def scale(kind: str, before: float, after: float) -> float:
    """Factor for a time measured between two probes (or samples)."""
    return REFERENCE_S[kind] / ((before + after) / 2)
