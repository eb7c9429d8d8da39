"""Machine-speed reference for timings taken on a shared machine.

On a VM whose host is shared, the same Python code runs at very different
speeds from one minute to the next: on the 2-vCPU Xeon VM this benchmark
was written on, the same pass took anywhere from 1.0x to 1.7x its fastest
time, in periods lasting tens of seconds.  The benchmark therefore reports
its times scaled to a reference speed.  While it measures, a timer signal
runs a fixed pure-Python kernel every INTERVAL_S seconds and records how
long it took.  A time t measured while the kernel's median time was k is
reported as t * KERNEL_REF_S / k: the time the work would have taken at the
speed where the kernel takes KERNEL_REF_S.  The kernel lives here, outside
qrlab, so no change to qrlab changes it.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.2
KERNEL_REF_S = 0.0007  # the kernel's median time in a quiet period of that VM


def kernel() -> float:
    """Run the fixed reference kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(4000):
        k = (i * 7919) % 4001
        d[k] = d.get(k, 0) + i
    return time.perf_counter() - t0


def scale(kernel_times) -> float:
    """Factor that converts wall time to reference time."""
    return KERNEL_REF_S / statistics.median(kernel_times)


class SpeedSampler:
    """Context manager: run the kernel on SIGALRM every INTERVAL_S seconds.

    The handler runs in the main thread between bytecodes of whatever is
    being measured, so the samples cover the measured interval evenly; they
    add about 0.4% to it.  Must be used from the main thread.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame):
        self.samples.append(kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale_since(self, start: int) -> float:
        """Scale for the interval since samples[start], plus one sample now
        (an interval shorter than INTERVAL_S has no timer sample)."""
        self.samples.append(kernel())
        return scale(self.samples[start:])
