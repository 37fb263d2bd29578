"""Host speed, probed next to the timed work, and times scaled by it.

The benchmark runs on a few vCPUs of a shared machine whose speed swings
by up to 2x within seconds: a fixed pure-Python loop takes anywhere from
1x to 2x its fastest time, in user CPU time as much as in wall time, so
the swing is the core's speed and not time stolen from the process.
Longer runs do not average that out, because the host can stay slow for
minutes.  So each timed interval is bracketed by two short probes of a
fixed pure-Python kernel (dict, tuple and integer work, like latcurve's
own), and its wall time is scaled by ``REFERENCE_S / probe time``: the
time the work would have taken on a host running the kernel in
``REFERENCE_S``.  The kernel is part of the benchmark and never changes
with the code under test, so a faster program still reads faster.
"""

from __future__ import annotations

import gc
import math
import time

PROBE_ITERATIONS = 20_000
PROBE_REPEATS = 3
# one kernel run takes about this long on an unloaded 2-vCPU x86_64 VM
# with Python 3.11; scaled times read as wall times on such a host
REFERENCE_S = 0.005


def _kernel(n: int) -> int:
    counts: dict = {}
    acc = 0
    for i in range(n):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
        acc += (i * i) % 13
    return acc + len(counts)


def probe() -> float:
    """Seconds for one run of the kernel, averaged over a few runs, with
    the cyclic collector off so the caller's heap does not matter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(PROBE_REPEATS):
            _kernel(PROBE_ITERATIONS)
        return (time.perf_counter() - t0) / PROBE_REPEATS
    finally:
        if enabled:
            gc.enable()


class ScaledClock:
    """Scales timed intervals by the host speed around them.

    Probe once, then after each interval call ``scale(raw_s)``: it probes
    again and scales by the geometric mean of the probes before and
    after.  The probe after one interval is the probe before the next,
    so the work between intervals should be short.  ``probes`` keeps
    every probe time for the result file.
    """

    def __init__(self) -> None:
        self.probes = [probe()]

    def scale(self, raw_s: float) -> float:
        self.probes.append(probe())
        speed = math.sqrt(self.probes[-2] * self.probes[-1])
        return raw_s * REFERENCE_S / speed
