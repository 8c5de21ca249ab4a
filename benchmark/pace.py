"""The host's pace, sampled all through a run, so that times can be given
at one fixed pace.

The cores this benchmark runs on are shared, and their speed changes
from one second to the next as well as over many minutes: a fixed piece
of Python work took from 0.75 to 1.5 ms, in process CPU time as much as
in wall time, so the same run of the same code could read up to 1.5
times slower. A run therefore samples the pace while it works: every
`PERIOD_S` seconds a signal handler, in the one thread the run has,
times a fixed probe (a small Dijkstra search: dicts, tuples and a heap,
the same kind of work as the solver's, and no code of the program) in
process CPU time. A span of work is reported in *paced seconds*, the
time it would take where the probe takes `REF_PROBE_S` (see `paced`).
The probes' own time is taken out of every span.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time

PERIOD_S = 0.02  # wall time between two probes
REF_PROBE_S = 0.25e-3  # the probe's time at the reference pace
WINDOW_S = 0.1  # CPU time either side of a probe that smooths it
MIN_PROBES = 5  # probes that price a span, at the least
_SIDE = 12


def _probe() -> float:
    """A fixed Dijkstra on a small weighted 4-grid; returns its cost sum."""
    cost = {(x, y): 1 + (x * 7 + y * 13) % 5 for x in range(_SIDE) for y in range(_SIDE)}
    dist = {(0, 0): 0}
    heap = [(0, (0, 0))]
    while heap:
        d, (x, y) = heapq.heappop(heap)
        if d > dist[(x, y)]:
            continue
        for cell in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            step = cost.get(cell)
            if step is not None and d + step < dist.get(cell, 1 << 30):
                dist[cell] = d + step
                heapq.heappush(heap, (d + step, cell))
    return sum(dist.values())


class Pace:
    """Probe samples of one run and the CPU clock they price."""

    def __init__(self):
        self.samples = []  # (CPU time at the probe's start, probe CPU time)
        self.spent = 0.0  # CPU time of every probe so far
        self._times, self._local = [], []  # probe times and smoothed paces
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        start = time.process_time()
        _probe()
        took = time.process_time() - start
        self.samples.append((start, took))
        self.spent += took

    def mark(self) -> tuple:
        """A point in the run: (process CPU time, probe CPU time so far)."""
        while True:  # read both between two probes
            spent = self.spent
            now = time.process_time()
            if spent == self.spent:
                return now, spent

    def paced(self, start: tuple, end: tuple) -> float:
        """The work done between two marks, less the probes, in seconds at
        the reference pace.

        Each probe is first smoothed to the median of the probes within
        `WINDOW_S` of it, which drops a probe that a page fault or a
        collection slowed. Work done at pace `p` for CPU time `dt` is
        `dt / p` at the reference pace, so a span's CPU time is scaled by
        the mean of `1 / p` over the probes taken during it (or the
        `MIN_PROBES` nearest to its middle, for a short span)."""
        cpu_s = (end[0] - start[0]) - (end[1] - start[1])
        times, local = self._smoothed()
        i, j = bisect.bisect_left(times, start[0]), bisect.bisect_right(times, end[0])
        if j - i < MIN_PROBES:
            middle = bisect.bisect_left(times, (start[0] + end[0]) / 2)
            i = max(0, min(middle - MIN_PROBES // 2, len(times) - MIN_PROBES))
            j = i + MIN_PROBES
        if j > len(times):
            raise RuntimeError(f"{len(times)} pace probes in the run; need {MIN_PROBES}")
        return cpu_s * REF_PROBE_S * statistics.fmean(1 / p for p in local[i:j])

    def _smoothed(self) -> tuple:
        """Probe times and the smoothed pace at each, computed again only
        when probes were added."""
        if len(self._local) != len(self.samples):
            self._times = [t for t, _ in self.samples]
            self._local = []
            for t in self._times:
                lo = bisect.bisect_left(self._times, t - WINDOW_S)
                hi = bisect.bisect_right(self._times, t + WINDOW_S)
                self._local.append(statistics.median(d for _, d in self.samples[lo:hi]))
        return self._times, self._local
