"""Host-speed correction for timings on a shared machine.

The benchmark runs on a few cores of a shared host, whose speed drifts
by tens of percent over seconds and minutes as other tenants come and
go (CPU time drifts with wall time, so it is not a way out).  A fixed
reference kernel, which never changes with the program, is run in short
slices interleaved with the measured work: while a :class:`Calibrator`
is running, a real-time interval timer interrupts the program every
``INTERVAL_S`` and the signal handler runs one slice.  The slices give
the host's speed over time, relative to ``REF_SLICE_S``, the slice time
on a quiet host.

:meth:`Calibrator.corrected` turns a raw interval into *reference
seconds*: the slices inside it are removed, and each stretch of work
between two slices is divided by the median relative slowness of the
slices around it.  A pass that takes 6 s on a quiet host reads about 6 s
however loaded the host is, as far as the reference kernel tracks the
program.  Raw times are kept next to the corrected ones in the record.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import signal
import statistics
import time
from typing import List, Optional

#: Seconds between slices, and the slice time on an idle 2-vCPU Intel
#: Xeon 2.0 GHz virtual machine with Python 3.11.7.
INTERVAL_S = 0.05
REF_SLICE_S = 0.0028
#: Events in one slice of the reference kernel.  Its working set is a
#: few kilobytes on purpose: a kernel that reads a large buffer tracked
#: memory contention better, but its time then depended on how much of
#: the cache the program between two slices had evicted, so a change to
#: the program's memory use would have moved the correction.
SLICE_EVENTS = 2000
#: Slices on each side of a gap whose median slowness corrects it: a
#: single slice can be slowed by an interrupt, so one slice is too few.
WINDOW = 3


class _Event:
    __slots__ = ("t", "hop")

    def __init__(self, t: float, hop: int) -> None:
        self.t = t
        self.hop = hop

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def reference_kernel() -> float:
    """One slice of fixed work: a tiny discrete-event loop in the
    simulator's style, with a heap of slotted event objects, method
    dispatch, dict counters and float arithmetic.  Returns a checksum."""
    queue = [_Event(0.0, 0)]
    seen = {}
    acc = 0.0
    for n in range(SLICE_EVENTS):
        ev = heapq.heappop(queue)
        acc += ev.t * 0.5
        seen[ev.hop % 31] = seen.get(ev.hop % 31, 0) + 1
        heapq.heappush(queue, _Event(ev.t + (n * 2654435761 % 997) / 997.0,
                                     ev.hop + 1))
        if n % 3 == 0:
            heapq.heappush(queue, _Event(ev.t + 1.5, ev.hop))
    return acc + len(seen)


def slowness_now(slices: int = 10) -> float:
    """The host's current slowness (1.0 = quiet host): the median of a
    few back-to-back slices."""
    times = []
    for _ in range(slices):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / REF_SLICE_S


class Calibrator:
    """Interleaves reference slices with the program while running.

    Use as a context manager around the measured work; afterwards
    :meth:`corrected` converts any interval inside it.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.slowness: List[float] = []
        self._smooth: List[float] = []
        self._previous: Optional[object] = None

    def _slice(self, _signum: int, _frame: object) -> None:
        # A collection here would time the program's heap, not the host.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        if enabled:
            gc.enable()

    def __enter__(self) -> "Calibrator":
        self._slice(0, None)
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)  # type: ignore
        self._slice(0, None)
        self.slowness = [(e - s) / REF_SLICE_S
                         for s, e in zip(self.starts, self.ends)]
        # Gap i, between slices i and i + 1, is corrected by _smooth[i].
        self._smooth = [
            statistics.median(self.slowness[max(i - WINDOW + 1, 0):
                                            i + WINDOW + 1])
            for i in range(len(self.slowness))]

    def corrected(self, start: float, end: float) -> float:
        """Reference seconds of work in ``[start, end]`` (perf_counter
        times): slices excluded, each gap divided by the median slowness
        of the ``2 * WINDOW`` slices nearest to it."""
        starts, ends, smooth = self.starts, self.ends, self._smooth
        total = 0.0
        i = max(bisect.bisect_right(ends, start) - 1, 0)
        while i < len(ends):
            gap_start = ends[i]
            gap_end = starts[i + 1] if i + 1 < len(starts) else float("inf")
            if gap_start >= end:
                break
            overlap = min(gap_end, end) - max(gap_start, start)
            if overlap > 0:
                total += overlap / smooth[i]
            i += 1
        return total
