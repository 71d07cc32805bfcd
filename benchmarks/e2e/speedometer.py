"""Host-speed normalization: a fixed kernel, sampled while the bench runs.

The recording box is a 2-vCPU VM whose effective speed wanders by +-20%
over seconds to minutes: an identical CPU-bound loop took 1.33 to 1.96 s,
and eight identical ``saturate`` drains gave 323 to 449 events/s.  The
wander outlasts any window the driver's time cap allows, so repeating or
lengthening the window does not average it out, and a ledger that cannot
tell a 10% change from the weather is no ledger.

So the bench carries a speedometer.  Every ``INTERVAL_S`` a SIGALRM
handler runs a fixed small kernel (interpreted arithmetic plus numpy
copies and scatters over 100k-element arrays — the program's own mix)
on the main thread and records its *thread CPU time*, which a slow host
stretches as it stretches the program but which waiting for the GIL does
not.  ``speed(a, b)`` is the mean of ``REFERENCE_COST_S / cost`` over
the shots of a phase: 1.0 on a host that runs the kernel in the
reference time, 0.8 on one 20% slower.  A phase whose length the host's
speed decides is reported as it would read on the reference host: its
times multiplied by the speed, its rates divided by it.  On those eight
drains that cut the range of events/s from 39% to 8%.

A timer signal rather than a thread: handlers run between bytecodes of
the main thread, so the shard workload forks with no second thread
alive, and forked workers inherit no timer.
"""

from __future__ import annotations

import signal
import time

import numpy as np

#: Seconds between shots (under 2% duty at the reference cost).
INTERVAL_S = 0.05
#: Kernel cost that defines speed 1.0 — the recording box in its usual
#: phase.  Changing it rescales every normalized ledger entry.
REFERENCE_COST_S = 0.8e-3


class Speedometer:
    def __init__(self) -> None:
        self._array = np.zeros(100_000)
        self._index = np.arange(0, 100_000, 7)
        #: ``(time.monotonic() at the shot, thread CPU seconds it cost)``.
        self.shots: list[tuple[float, float]] = []

    def _kernel(self) -> int:
        x = 0
        for i in range(4000):
            x += i * i % 7
        for _ in range(4):
            copy = self._array.copy()
            copy[self._index] += 1.0
        return x

    def _shot(self, signum=None, frame=None) -> None:
        started = time.thread_time()
        self._kernel()
        cost = time.thread_time() - started
        if cost > 0:  # the VM's thread clock has been seen to stand still
            self.shots.append((time.monotonic(), cost))

    def start(self) -> None:
        self._shot()
        signal.signal(signal.SIGALRM, self._shot)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._shot()

    def speed(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]`` (monotonic clock), 1.0 = reference.

        A phase shorter than the shot interval borrows the nearest shot.
        """
        costs = [cost for at, cost in self.shots if start <= at <= end]
        if not costs:
            middle = (start + end) / 2
            costs = [min(self.shots, key=lambda shot: abs(shot[0] - middle))[1]]
        return float(np.mean(REFERENCE_COST_S / np.asarray(costs)))
