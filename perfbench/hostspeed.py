"""Host speed, sampled with a fixed reference kernel between the timed items.

On a shared host the same pure-Python code runs up to 1.6 times slower in
phases that last from seconds to minutes, and CPU time slows with wall time
(the guest sees no steal), so neither clock can tell a slow host from a slow
program.  The benchmark therefore runs a fixed kernel of its own, which never
calls the package, every 50 ms while it times set-ups and passes, and divides
each item's time by the kernel's speed around it.  Times are reported as seconds at the nominal
host speed, at which one kernel run takes ``NOMINAL_S``.  The kernel's mix of
tuple permutations, dict updates, list comprehensions and big-integer row
operations follows what the package spends its time on; the scale is the same
for every commit, so only ratios between commits carry meaning.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
import time

NOMINAL_S = 0.002  # one kernel run on a quiet 2-vCPU host; only a unit of scale
WINDOW_S = 0.5  # samples this close to an interval describe the host during it
SAMPLE_EVERY_S = 0.05  # one sample per this much wall time while sampling

_STEP = tuple((5 * i + 3) % 12 for i in range(12))
_ROWS = tuple(tuple((i * j + 7) ** 3 for j in range(8)) for i in range(8))


def kernel():
    """A fixed amount of pure-Python work of the package's kinds."""
    seen = {}
    acc = 0
    perm = tuple(range(12))
    for _ in range(400):
        perm = tuple(_STEP[i] for i in perm)
        seen[perm] = seen.get(perm, 0) + 1
        acc += sum([(a * b) % 97 for a, b in zip(perm, _STEP)])
    big = 3 ** 200
    for k in range(200):
        acc ^= (big * (k + 7)) // (k + 13)
    rows = [list(row) for row in _ROWS]
    for k in range(60):
        row, other = rows[k % 8], rows[(k + 3) % 8]
        pivot = row[0] + 1
        rows[k % 8] = [(a * pivot - 3 * b) // 7 for a, b in zip(row, other)]
        acc += sum(x.bit_length() for x in rows[k % 8])
    return acc + len(seen)


class HostClock:
    """Timed kernel runs, and the host-speed factor of any interval between them."""

    def __init__(self):
        self.times = []  # midpoint of each sample, increasing
        self.seconds = []  # kernel time of each sample
        self.prefix = [0.0]  # running sum of self.seconds

    def sample(self, count=1):
        # Garbage collection stays off inside the kernel, so that its
        # allocations neither run nor are charged the program's collections.
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                start = time.perf_counter()
                kernel()
                end = time.perf_counter()
                self.times.append((start + end) / 2.0)
                self.seconds.append(end - start)
                self.prefix.append(self.prefix[-1] + end - start)
        finally:
            if enabled:
                gc.enable()

    @contextlib.contextmanager
    def sampling(self):
        """Sample every SAMPLE_EVERY_S of wall time while the block runs.

        A SIGALRM handler runs the kernel between two bytecodes of whatever the
        block is doing, so that long calls are sampled inside, not only at their
        ends; ``net`` takes the sampling back out of their time.
        """
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def _span(self, start, end):
        return bisect.bisect_left(self.times, start), bisect.bisect_right(self.times, end)

    def net(self, start, end):
        """Wall seconds of [start, end] less the samples taken within it."""
        lo, hi = self._span(start, end)
        return end - start - (self.prefix[hi] - self.prefix[lo])

    def factor(self, start, end):
        """NOMINAL_S over the mean kernel time within WINDOW_S of [start, end].

        The mean, not the median: the host slows this process in bursts of
        milliseconds, which cost the program its share of time too.  Falls back
        to the two samples nearest the interval when fewer are that close.
        """
        lo, hi = self._span(start - WINDOW_S, end + WINDOW_S)
        if hi - lo < 2:
            lo, hi = max(0, lo - 1), min(len(self.times), hi + 1)
        return NOMINAL_S / statistics.fmean(self.seconds[lo:hi])

    def scaled(self, start, end):
        """Net seconds of [start, end] at the nominal host speed."""
        return self.net(start, end) * self.factor(start, end)
