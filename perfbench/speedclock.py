"""A wall clock that discounts the speed of the machine it runs on.

On a shared host the same pure-Python work runs at 0.75 to 1.35 times its
median speed, in phases that last from 10 s to a minute, and CPU time
follows wall time (the host is slow, the process is not descheduled).  A
run of a few seconds lands in one phase, so medians within a run cannot
average the phases out.

While a ``SpeedClock`` runs, a timer signal every ``PERIOD`` seconds runs a
fixed reference block (Fraction arithmetic, dict and list work, as in the
program) in the main thread and records how long it took.  The seconds
of a timed interval are its wall time minus the time spent in reference
blocks, scaled by ``NOMINAL`` over the harmonic mean time of the blocks
run in the interval and right before and after it.  They read as seconds
on a machine where the block takes ``NOMINAL`` seconds.  The block is not
part of the program, so a change to the program scales these seconds as
it scales the wall time.

The harmonic mean: a block's speed is one over its time, the blocks run
at even steps of time, so the mean of their speeds is the machine's mean
speed over the interval, and the program's time is its work over that
speed.  The speed changes in bursts shorter than a second, so one block
says little; a block stretched by a preemption counts as one slow step,
not as a long one.  Garbage collection is held off during a block, so
that a collection of the program's heap is not charged to the machine.
"""

import contextlib
import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD = 0.01  # seconds between reference blocks
NOMINAL = 0.0003  # seconds one reference block takes at the nominal speed


def reference_block():
    acc = Fraction(0)
    counts = {}
    for i in range(1, 45):
        acc += Fraction(i, i + 1)
        counts[i % 97] = counts.get(i % 97, 0) + i
        [j * i for j in range(20)]
    return acc


class Interval:
    seconds = None


class SpeedClock:
    """``interval()`` times a block in nominal seconds; with
    ``scaled=False`` it gives plain wall seconds and runs no reference."""

    def __init__(self, scaled=True):
        self.scaled = scaled
        self.samples = []  # seconds of each reference block run so far
        self._busy = False
        self._old_handler = None

    def sample(self):
        if self._busy:  # the timer fired during a block: skip, not nest
            return
        self._busy = True
        # a collection of the program's heap must not land in the block
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_block()
        self.samples.append(time.perf_counter() - start)
        if collecting:
            gc.enable()
        self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def running(self):
        """Sample the machine's speed every PERIOD seconds inside the block."""
        if not self.scaled:
            yield self
            return
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._old_handler)

    @contextlib.contextmanager
    def interval(self):
        """Yield an Interval whose ``seconds`` is set when the block ends,
        also when it raises."""
        span = Interval()
        if self.scaled:
            self.sample()
        first = len(self.samples)
        start = time.perf_counter()
        try:
            yield span
        finally:
            wall = time.perf_counter() - start
            inside = self.samples[first:]
            if not self.scaled:
                span.seconds = wall
            else:
                self.sample()
                around = self.samples[first - 1 :]
                span.seconds = (wall - sum(inside)) * NOMINAL / statistics.harmonic_mean(around)
