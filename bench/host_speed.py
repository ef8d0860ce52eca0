"""Host speed sampled while the benchmark runs, to take host drift out of
the reported times.

On a shared virtual machine the speed of a core moves by a factor of up to
two within seconds, with process CPU time equal to wall time, so the drift
comes from the host and not from the program.  A fixed calibration kernel
(an interpreter loop and a 1 MiB memory copy, no ``pshjb`` code) runs every
``period_s`` seconds from a SIGALRM handler in the measured process.  Each
sample first scans a buffer twice the size of the core's L2 cache, untimed,
so the kernel always starts from the same cache state whatever the program
left there; then one pass of the kernel is timed.  Its duration, against the
reference duration ``REF_S``, gives the host speed at that moment.

An operation's host-speed time is its wall time, less the time the samples
took, multiplied by the mean speed factor ``REF_S / duration`` over the
samples taken during it: the time the same work takes when the host runs at
the reference speed.  On a 2-core x86_64 virtual machine (Python 3.11.7,
numpy 2.4.6, scipy 1.17.1) this took the spread of twelve heat solves from
0.09 of their median to 0.02, and of 45 set-up probes from 0.10 to 0.05
(first to third quartile).  The module uses the standard library only, so a
set-up probe can start sampling before it imports numpy.

Python runs the handler between bytecodes of the main thread, so a sample is
taken at the first such point after the alarm; the program's long numeric
calls only delay it.
"""

from __future__ import annotations

import signal
import statistics
import time

# Kernel duration at the reference host speed: about its median during the
# heat solve on the machine named above, so that host-speed times there are
# close to typical wall times.
REF_S = 4.1e-4


class HostSpeed:
    def __init__(self, period_s: float = 0.1):
        self.period_s = period_s
        self._flush = bytearray(1 << 22)                # 4 MiB
        self._src = bytearray(1 << 20)
        self._dst = bytearray(1 << 20)
        # (end time, kernel duration, time taken by the sample)
        self.samples: list[tuple[float, float, float]] = []
        self._running = False

    def kernel(self) -> float:
        """Duration of one pass of the calibration kernel."""
        self._flush.find(b"x")
        t0 = time.perf_counter()
        acc, names = 0, {}
        for i in range(600):
            acc += i * i % 7
            names[i & 63] = str(i)
        self._dst[:] = self._src
        return time.perf_counter() - t0

    def _on_alarm(self, signum=None, frame=None):
        t0 = time.perf_counter()
        dur = self.kernel()
        t1 = time.perf_counter()
        self.samples.append((t1, dur, t1 - t0))

    def start(self):
        for _ in range(3):           # warm the kernel's code and data
            self.kernel()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        self._running = True

    def stop(self):
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._running = False

    def correct(self, t0: float, t1: float) -> tuple[float, float]:
        """(host-speed time, speed factor) of an operation that ran from
        ``t0`` to ``t1`` (``time.perf_counter`` readings).  An operation too
        short to hold a sample takes the factor of the nearest one."""
        if not self.samples:
            self._on_alarm()
        inside = [s for s in self.samples if t0 < s[0] <= t1]
        near = inside or [min(self.samples, key=lambda s: abs(s[0] - t1))]
        factor = statistics.fmean(REF_S / d for _, d, _ in near)
        return (t1 - t0 - sum(c for _, _, c in inside)) * factor, factor
