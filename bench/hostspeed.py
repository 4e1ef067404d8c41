"""Host-speed calibration for the timed runs.

The benchmark runs on shared machines whose speed drifts by tens of percent
for stretches of tens of seconds, so that two runs of the same code can
disagree by more than any useful bound.  To take that drift out, the timed
run calls ``kernel`` after every task.  The kernel is fixed work that shares
no code with tdmech (float arithmetic in the interpreter loop and small
numpy calls, the mix tdmech's own tasks are made of) and allocates nothing
the garbage collector tracks, so a change to tdmech cannot change its time.

Each task's duration is then scaled by ``REFERENCE_S / local`` where
``local`` is the median time of the kernel calls made within ``SPAN_S`` of
the middle of the task (at least the call just before it and the one just
after it): the reported times read as if the host ran at the speed at which
the kernel takes ``REFERENCE_S``.  The host's speed changes within a second,
so the span is short.  The raw times are printed next to them.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right

import numpy as np

# Kernel time on the machine the benchmark was written on (a shared 2-vCPU
# "Intel(R) Xeon(R) Processor" host) at its usual speed.
REFERENCE_S = 1.0e-3
SPAN_S = 0.2  # calibrations this close to the middle of a task scale it
PROBE_CALIBRATIONS = 10  # before and after each set-up probe

_MATRIX = np.array([[2.0, 0.1, 0.0], [0.1, 3.0, 0.2], [0.0, 0.2, 4.0]])


def kernel() -> float:
    """Fixed work of about a millisecond; returns a value so none is skipped."""
    a, b, c, acc = 1.0, 0.5, 0.25, 0.0
    for _ in range(3000):
        a, b, c = a * 0.999 + b * 0.001, b + c * 1e-3, c * 0.9999
        acc += a * b - c
    x = np.ones(3)
    for _ in range(60):
        x = np.linalg.solve(_MATRIX, x + 1.0)
    return acc + float(x[0])


def timed_kernel() -> tuple[float, float]:
    """One kernel call: its middle on the ``perf_counter`` clock and its seconds."""
    start = time.perf_counter()
    kernel()
    seconds = time.perf_counter() - start
    return start + seconds / 2, seconds


def local_factors(task_mids: list[float], calibrations: list[tuple[float, float]]) -> list[float]:
    """``REFERENCE_S / local`` for each task middle; ``calibrations`` are
    ``timed_kernel`` results in time order."""
    mids = [mid for mid, _ in calibrations]
    factors = []
    for mid in task_mids:
        after = bisect_left(mids, mid)
        lo = min(bisect_left(mids, mid - SPAN_S), max(after - 1, 0))
        hi = max(bisect_right(mids, mid + SPAN_S), min(after + 1, len(mids)))
        factors.append(REFERENCE_S / statistics.median(seconds for _, seconds in calibrations[lo:hi]))
    return factors


def probe_factor(run_probe):
    """Run ``run_probe()`` between two sets of calibrations; returns its result
    and the speed factor of the host around it."""
    before = [timed_kernel()[1] for _ in range(PROBE_CALIBRATIONS)]
    result = run_probe()
    after = [timed_kernel()[1] for _ in range(PROBE_CALIBRATIONS)]
    return result, REFERENCE_S / statistics.median(before + after)
