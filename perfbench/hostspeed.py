"""Host speed, sampled while the benchmark runs.

On the shared 2-CPU host this benchmark was built on, each CPU switched
between a fast and a slow state every second or so, and the share of slow
time drifted over minutes.  A period map of the program took up to 1.7
times longer in the slow state, so the same operation took from 1x to 1.7x
as long, depending on when it ran.

Sampler takes a reading every PERIOD_S seconds of wall time, from a SIGALRM
handler, so on the thread that runs the operations and at the moments it
runs them.  A reading times one pass of a short interpreted kernel that
uses none of the program's code; on the build machine its time tracked the
time of the program's period maps through both states.  Its speed is REF_S
over that time: about 1 in the fast state and lower in the slow one.  The
mean speed over an interval is the work the host did in it, in seconds of
the fast state, per second of wall time.  So wall time times mean speed is
the interval's length on a host that stays fast.  A change to the program
moves it; a change of host state mostly does not.  The readings cost about
0.5% of the time they cover.

window_speed reads the speed back to back for a short window instead, for
a child process that times its own import (run.measure_setup).  This
module imports only time and signal, so loading it first takes well under
a millisecond from what the child measures.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.2
REF_S = 0.0005   # the kernel's time in the fast state of the build machine


def kernel_seconds() -> float:
    """Time one pass of the reference kernel: interpreted float arithmetic
    over a short list, as in a stencil.  It holds the GIL throughout, so
    threads of the program cannot stretch it."""
    t0 = time.perf_counter()
    xs = [0.5 * i for i in range(64)]
    acc = 0.0
    for _ in range(84):
        for j in range(1, 63):
            acc += xs[j - 1] * 0.25 - xs[j] * 0.5 + xs[j + 1] * 0.25
        xs = [x * 0.999 + 1e-3 for x in xs]
    return time.perf_counter() - t0


def _mean(values) -> float:
    return sum(values) / len(values)


def window_speed(seconds: float) -> float:
    """Mean speed of back-to-back readings over about `seconds`."""
    speeds = []
    t_end = time.perf_counter() + seconds
    while not speeds or time.perf_counter() < t_end:
        speeds.append(REF_S / kernel_seconds())
    return _mean(speeds)


class Sampler:
    """Context manager: readings of the host speed every PERIOD_S seconds."""

    def __init__(self):
        self.speeds = []
        self._previous = None

    def _read(self, signum, frame):
        self.speeds.append(REF_S / kernel_seconds())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._read)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        return len(self.speeds)

    def mean_since(self, mark: int) -> float:
        """Mean speed of the readings after mark; an interval too short to
        hold one takes the latest reading, or a fresh one."""
        readings = (self.speeds[mark:] or self.speeds[-1:]
                    or [REF_S / kernel_seconds()])
        return _mean(readings)
