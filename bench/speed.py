"""A CPU clock corrected for the speed of a shared host.

The benchmark runs on virtual CPUs that share physical cores with other
tenants.  A single-threaded pure-Python loop on such a core switches, every
few seconds, between a fast and a slow state (about 1.6x apart on the
recording host), and the two virtual CPUs switch independently.  A 6-s
witness therefore measures a different mix of the two states on every run,
and no amount of repeating it inside a 30-s run averages that out.

`Probe` samples the speed of the CPU the program is running on while the
program runs: a `SIGPROF` timer fires every `INTERVAL` seconds of CPU time
and its handler times a fixed pure-Python kernel (`kernel`, about 0.3 ms).
`Probe.now()` is a clock that advances with the thread's CPU time, not
counting the handler, scaled by the speed measured around it: the mean of
`KERNEL_REF_S / kernel time` over the last `SMOOTH` samples.  Each slice of
work is thus counted at the speed measured next to it, and a duration on
this clock is in seconds of a CPU on which the kernel takes `KERNEL_REF_S`.

The clock is built on thread CPU time: while a process-wide CPU timer is
armed, Linux reads the process CPU clock only at scheduler ticks.
"""

import gc
import signal
import statistics
import time
from collections import deque
from fractions import Fraction

INTERVAL = 0.010  # seconds of CPU time between samples
KERNEL_REF_S = 0.0003  # the kernel's time in the fast state of the recording host
SMOOTH = 4  # samples averaged into one speed

CPU = time.thread_time


def kernel():
    """Fixed interpreter work in the program's style: Fractions and dicts."""
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(1, i)
    d = {}
    for i in range(600):
        d[i % 37] = d.get(i % 37, 0) + i
    return s


class Probe:
    """The corrected clock; sampling runs while the context is entered."""

    def __init__(self):
        self.samples = 0
        self._recent = deque(maxlen=SMOOTH)
        self._speed = 1.0
        self._base = 0.0  # corrected seconds at _base_cpu
        self._base_cpu = CPU()

    def _sample(self, signum=None, frame=None):
        # A collection started by the kernel's allocations would time the
        # program's garbage as the kernel's, and leave it off the clock.
        collecting = gc.isenabled()
        gc.disable()
        t0 = CPU()
        kernel()
        self._recent.append(KERNEL_REF_S / max(CPU() - t0, 1e-6))
        if collecting:
            gc.enable()
        speed = statistics.fmean(self._recent)
        self._base += (t0 - self._base_cpu) * speed
        self._speed = speed
        self._base_cpu = CPU()  # the handler's own time is not counted
        self.samples += 1

    def __enter__(self):
        kernel()  # warm the kernel up before its first timed sample
        for _ in range(SMOOTH):
            self._sample()
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._old)

    def now(self):
        """Corrected seconds since the probe was made."""
        while True:
            n = self.samples
            t = self._base + (CPU() - self._base_cpu) * self._speed
            if n == self.samples:  # no sample taken meanwhile
                return t
