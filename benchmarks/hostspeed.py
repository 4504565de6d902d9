"""A fixed reference task that tracks how fast the host runs Python.

The benchmark runs on a few cores of a shared host whose speed drifts by up
to about 1.5x over seconds to minutes, while the process keeps its core (no
steal time: the core itself runs slower).  A time measured in one run then
says as much about the host as about the program.  So the workload process
runs this task between requests, and each request's time is scaled by
``NOMINAL_S / median(times of the task runs around it)``: it reads as if the
host ran the task in ``NOMINAL_S``.  The task never calls ``steinitz``, so a
change to the program moves the scaled times exactly as it moves the raw
ones.  The runs around a request, rather than all runs of the whole run,
set its scale because a slow spell of a few seconds otherwise lands whole
in the latency tail: on ``verify-tower``, whose tail is the 11th-largest of
about a hundred requests, the tail's spread over seeds fell from about 0.15
of its median to about 0.05.

The task is a plain integer loop.  Of five candidate tasks timed beside
``verify-tower`` and ``symbolic-wide`` requests over five minutes of the
host's fast and slow spells, it and a variant that also sorted and indexed a
list of tuples followed the workloads' times most closely, taking out half
their spread; the variant's large allocations showed in ``peak_rss_mb``.
Tasks built from ``Fraction`` matrix products or dict-of-exponents
arithmetic swung about twice as far as the workloads did.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

#: The task's time on the host the benchmark was written on (2-vCPU Intel
#: Xeon VM, CPython 3) in a fast spell.  A fixed constant: it sets the unit
#: of the scaled times and must not change between the runs compared.
NOMINAL_S = 0.008
#: The timed loop runs the task once this much time has passed since it last
#: did, between two requests.
EVERY_S = 0.2
#: Task runs on each side of a request whose median scales it (about 0.8 s
#: of the run on each side).
WINDOW = 4


def reference() -> float:
    """Run the task once; returns its time in seconds."""
    t0 = perf_counter()
    n = 0
    for i in range(100_000):
        n += i * i % 11
    return perf_counter() - t0


def factor(times: list[float]) -> float:
    """What a time is multiplied by, from the task times around it."""
    return NOMINAL_S / median(times)


def scale_each(latencies: list[float], ref_at: list[int], ref_times: list[float]) -> list[float]:
    """Each latency scaled by the task runs around it.

    ``ref_at[i]`` is the number of task runs that had ended when request
    ``i`` ended, so runs ``ref_at[i] - 1`` and ``ref_at[i]`` bracket it.
    """
    return [elapsed * factor(ref_times[max(0, j - WINDOW):j + WINDOW])
            for elapsed, j in zip(latencies, ref_at)]
