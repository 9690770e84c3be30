"""Host correction: a fixed pure-Python reference spin.

On a shared host the same Python work can run 25% slower for seconds at
a time.  Timing a fixed reference next to every measured segment and
scaling the segment by (nominal reference time / measured reference
time) takes most of that drift out; the raw numbers are kept beside the
corrected ones so that a noisy host stays visible.

A reading has two phases, because the host slows arithmetic and memory
access by different amounts and the workloads mix both: an integer loop
with a tiny working set, and membership tests of tuples in a frozenset
of about 35 MB, well beyond the per-core cache.  Each phase is the
fastest of a few back-to-back runs, so that one preempted run does not
skew the seconds of work around the reading.  Over eight processes per
workload, one pass each, the spread (IQR over median) of pass time went
from 21% raw to 12% with the loop alone and 6% with both phases on
oracle-loops, from 28% to 13% and 5% on functor-moves, and from 24% to
8% either way on moduli-highgenus.
"""

from __future__ import annotations

import bisect
import random
import time

SPIN_ROUNDS = 65_000
LOOKUP_ENTRIES = 200_000
LOOKUP_PROBES = 10_000
RUNS_PER_PHASE = 3
# Corrected times read as if every reading had taken exactly this long
# (about one reading on a 2-core x86-64 VM with Python 3.11).  Fixed, so
# corrected times from different runs and commits share one scale.
NOMINAL_REF_MS = 10.0
# Inside a pass, readings are at least this far apart, so that they cost
# a few percent of the run; a pass always has one before and one after.
READ_EVERY_S = 0.25


def _key(i: int) -> tuple:
    return (i % 97, i % 89, i // 7, i)


def spin() -> float:
    """The arithmetic phase once; returns its wall time in milliseconds."""
    t0 = time.perf_counter()
    x = 0
    for i in range(SPIN_ROUNDS):
        x = (x * 31 + i) & 0xFFFFF
    return (time.perf_counter() - t0) * 1e3


def lookup(table: frozenset, probes: list) -> float:
    """The memory phase once; returns its wall time in milliseconds."""
    t0 = time.perf_counter()
    hits = 0
    for key in probes:
        if key in table:
            hits += 1
    return (time.perf_counter() - t0) * 1e3


class HostClock:
    """Timeline of reference readings and of the segments timed between them."""

    def __init__(self):
        self._table = frozenset(_key(i) for i in range(LOOKUP_ENTRIES))
        picks = random.Random(LOOKUP_PROBES).sample(range(LOOKUP_ENTRIES), LOOKUP_PROBES)
        self._probes = [_key(i) for i in picks]
        self.ref_times = []  # when each reading ended, in order
        self.ref_ms = []
        self.segments = []  # (start, end, tag)

    def _measure(self) -> float:
        return (min(spin() for _ in range(RUNS_PER_PHASE))
                + min(lookup(self._table, self._probes) for _ in range(RUNS_PER_PHASE)))

    def read(self):
        """Take a reading and put it on the timeline."""
        ms = self._measure()
        self.ref_times.append(time.perf_counter())
        self.ref_ms.append(ms)

    def maybe_read(self):
        if not self.ref_times or time.perf_counter() - self.ref_times[-1] >= READ_EVERY_S:
            self.read()

    def timed(self, tag, fn, *args):
        """Run fn(*args) as one segment, recorded even if it raises."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.segments.append((t0, time.perf_counter(), tag))

    def factor(self, start: float, end: float) -> float:
        """Nominal reading time over the mean of the last reading before
        the segment and the first reading after it."""
        i = bisect.bisect_right(self.ref_times, start)
        j = bisect.bisect_left(self.ref_times, end)
        near = self.ref_ms[max(i - 1, 0):i] + self.ref_ms[j:j + 1]
        if not near:
            return 1.0
        return NOMINAL_REF_MS * len(near) / sum(near)

    def corrected(self, segments):
        """[(raw_s, corrected_s, tag)] for the given segments."""
        return [(b - a, (b - a) * self.factor(a, b), tag) for a, b, tag in segments]
