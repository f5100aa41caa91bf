"""CPU time rescaled to the speed of a reference core.

The benchmark's hosts are shared virtual machines.  On the one the
bounds were set on, each core runs at one of two speeds, about 1.6x
apart, and switches every few seconds without the guest seeing it (CPU
time slows down with wall time, so this is not steal time).  Measured
over a run, throughput then spreads by 10-25 %, whatever the run length.

A :class:`ReferenceClock` takes this out.  Every 10 ms of CPU time a
profiling-timer signal runs a fixed probe (a 3,000-step dict loop, about
1-2 % of the CPU) and times it; the CPU time since the previous probe is
counted at the ratio :data:`REFERENCE_PROBE_S` / that probe's time.  The
clock so reads seconds of a core that runs the probe in
:data:`REFERENCE_PROBE_S` -- the fast state of the 2.1 GHz Xeon of
README.md.  On that host eight runs of one simulation ranged over 47 %
in wall-clock throughput and over 9 % on this clock.

The probe's own time is left out.  Only the main thread is counted, and
the clock must be stopped before the process exits: the profiling signal
kills a process that has no handler for it.
"""

from __future__ import annotations

import signal
import time

#: The probe's CPU time on the reference core, in seconds.
REFERENCE_PROBE_S = 150e-6
#: CPU time between probes, in seconds.
PERIOD_S = 0.01

# Main-thread CPU time.  The process CPU clock does not advance inside a
# SIGPROF handler on Linux, so it cannot time the probe.
_cpu = time.thread_time


def _probe() -> None:
    table = {}
    for i in range(3000):
        table[i & 255] = i


class ReferenceClock:
    """Reference CPU seconds of this process's main thread; a context manager."""

    def __init__(self) -> None:
        self._total = 0.0
        self._scale = 1.0
        self._since = 0.0

    def _measure(self) -> None:
        began = _cpu()
        _probe()
        self._since = _cpu()
        self._scale = REFERENCE_PROBE_S / max(self._since - began, 1e-9)

    def _tick(self, *_: object) -> None:
        self._total += (_cpu() - self._since) * self._scale
        self._measure()

    def now(self) -> float:
        """Reference CPU seconds since the clock started."""
        return self._total + (_cpu() - self._since) * self._scale

    def __enter__(self) -> "ReferenceClock":
        signal.signal(signal.SIGPROF, self._tick)
        self._measure()
        signal.setitimer(signal.ITIMER_PROF, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
