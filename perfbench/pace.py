"""Machine-speed probe interleaved with the measured work.

The host this benchmark runs on is shared, and the speed of one core
drifts by tens of percent over seconds as neighbours load it.  Two
cores do not drift together, so a probe on another core, or one before
and after a pass, tells little.  ``Pace`` therefore runs two fixed
kernels on the same thread, from a SIGALRM every ``INTERVAL_S``, in
the middle of the measured work: one bound by the interpreter and
small numpy calls (the junction layers), one bound by memory traffic
(the lattice layer).  ``now`` is ``perf_counter`` minus the time spent
in probes, so no probe is ever timed.  ``speed`` is the geometric
mean, over both kernels, of reference time over mean measured time in
and around an interval: about 1.0 on an idle core, lower on a loaded
one.  ``scaled`` multiplies an interval by it, giving seconds at the
reference speed.  A short call timed alone runs inside ``single``,
which probes just before the call and never during it.

The memory kernel's 8 MB array is part of every child's peak RSS.
"""

import bisect
import contextlib
import math
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02
WINDOW_S = 0.1  # a short call is scaled by the probes this near it
INTERPRETER_ITERATIONS = 100
LARGE_DOUBLES = 1 << 20  # 8 MB, more than one core's share of cache

_SMALL = np.array([[0.3, 0.1], [0.1, -0.3]])
_large = []


def interpreter_kernel():
    """Interpreter and 2x2 numpy work, as in one junction point."""
    a, acc = _SMALL, 0.0
    for i in range(INTERPRETER_ITERATIONS):
        acc += (i * 0.5) % 7.0
        a = a @ a * 0.5 + 0.1
    return acc


def memory_kernel():
    """One streaming pass over an 8 MB array, as in a large sparse product."""
    if not _large:
        _large.append(np.linspace(0.0, 1.0, LARGE_DOUBLES))
    return _large[0].sum()


# About each kernel's time on an unloaded core of a 2-vCPU Xeon VM
# under CPython 3.11.  They only set the unit: the benchmark compares
# ratios between runs.
INTERPRETER_S = 2.5e-4
MEMORY_S = 3.5e-4


class Pace:
    def __init__(self):
        self.at = []  # now() of each probe
        self.interpreter = []  # seconds of each probe's interpreter kernel
        self.memory = []  # seconds of each probe's memory kernel
        self.spent = 0.0

    def probe(self, *_signal):
        t0 = time.perf_counter()
        interpreter_kernel()
        t1 = time.perf_counter()
        memory_kernel()
        t2 = time.perf_counter()
        self.at.append(t0 - self.spent)
        self.interpreter.append(t1 - t0)
        self.memory.append(t2 - t1)
        self.spent += time.perf_counter() - t0

    def now(self):
        return time.perf_counter() - self.spent

    def start(self):
        memory_kernel()  # allocate and warm before the first timed probe
        signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def single(self):
        """Time one short call: probe right before it, never inside it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        self.probe()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def speed(self, start, end):
        """Core speed over [start - WINDOW_S, end + WINDOW_S] (now() clock)."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            return 1.0
        return math.sqrt(INTERPRETER_S / statistics.fmean(self.interpreter[lo:hi])
                         * MEMORY_S / statistics.fmean(self.memory[lo:hi]))

    def scaled(self, start, end):
        """Seconds from ``start`` to ``end`` at the reference speed."""
        return (end - start) * self.speed(start, end)
