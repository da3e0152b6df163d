"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core swings by up to 2x over tens of
seconds, with the process never descheduled (its CPU time equals its wall
time), so repeated runs of the same pass disagree far more than any change
worth measuring.  The benchmark therefore times a fixed calibration kernel
before and after every timed interval and, from a SIGALRM handler, every
INTERVAL_S within it, and reports times rescaled to a reference speed:

    calibrated seconds = measured seconds * REFERENCE_S / kernel seconds

with the kernel seconds averaged over the interval and the kernel's own
runs subtracted from the measured seconds.  REFERENCE_S is the kernel's time
on a quiet 2-vCPU Intel Xeon host; on a quiet machine of that speed
calibrated and measured seconds agree.  The kernel is pure-Python
big-integer arithmetic shaped like the inner loop of the fraction-free
elimination that dominates phenkf's time.
"""

import signal
import statistics
import time

REFERENCE_S = 0.004
KERNEL_RUNS = 5
INTERVAL_S = 0.2


def kernel():
    """Seconds for one run of the fixed calibration loop."""
    start = time.perf_counter()
    p, q, prev = 3 ** 120 + 1, 7 ** 90, 5 ** 40
    acc = 0
    for i in range(6000):
        x, _ = divmod(p * (q + i) - acc * prev, prev)
        acc = x & 0xFFFF
    return time.perf_counter() - start


def kernel_seconds():
    """Median of KERNEL_RUNS kernel times now: the machine's current speed."""
    return statistics.median(kernel() for _ in range(KERNEL_RUNS))


def scale(seconds, kernel_s):
    """`seconds` measured while the kernel took `kernel_s`, at reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Runs the kernel every INTERVAL_S of wall time while active (Unix).

    The handler runs in the main thread between bytecodes, so the sampled
    program sees only a short pause; ``samples`` holds each kernel time.
    """

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        self.samples.append(kernel())
