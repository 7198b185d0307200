"""Run on the fastest allowed CPU.

On a shared host one vCPU is often slowed for seconds at a time while
another runs at full speed.  A ~10 ms probe of each allowed CPU picks
the faster one; probes happen between jobs, outside every timer.  Only
this process's own affinity is changed.
"""

from __future__ import annotations

import os
from time import perf_counter

ALLOWED_CPUS = sorted(os.sched_getaffinity(0))


def _spin() -> float:
    start = perf_counter()
    total = 0
    for i in range(20000):
        total += i * i % 7
    return perf_counter() - start


def fastest_cpu() -> int | None:
    """The allowed CPU that runs a short loop fastest right now; this
    process is left free to run on every allowed CPU."""
    if len(ALLOWED_CPUS) < 2:
        return None
    speed = {}
    for cpu in ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(3))
    os.sched_setaffinity(0, ALLOWED_CPUS)
    return min(speed, key=speed.get)


def pin_fastest_cpu() -> None:
    best = fastest_cpu()
    if best is not None:
        os.sched_setaffinity(0, {best})
