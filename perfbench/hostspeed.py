"""Host speed: a fixed probe timed between and within measured phases.

On a shared virtual machine the speed of a core shifts by up to half,
within a second and for minutes at a time, for reasons outside the
benchmark: the same pure-Python loop took 12.7 ms in one minute and
18.8 ms in the next, in process CPU time as much as in wall time, and
the same 1500-request burst served at 700 to 1500 requests per second.
Phases of minutes are longer than a run, so medians within a run
cannot remove them.

The benchmark therefore times a fixed probe next to the measured work
(between training iterations, every 50 open-loop requests and every
100 burst requests) and scales each measured duration by
``REFERENCE_S / probe wall``, the probe wall being the mean of the
probes just before, within and just after the duration: the figure is
the one the run would give on a host whose probe takes
``REFERENCE_S``.  The probe calls no ``repro`` code, so a change to the
program under test moves the scaled figures as much as the unscaled
ones.  Unscaled figures are printed beside the scaled ones.

The probe mixes the kinds of work the workloads do (interpreter
arithmetic, many small array operations, row gathers with a matrix
product, a sort) and allocates nothing, so it does not depend on the
state of the heap the program leaves behind.  Every thread of a worker
runs on one CPU (``worker.py``), so the probe times the core the work
runs on.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Probe wall on one 2-core VM (Python 3.11, numpy 2.4) in a fast
#: phase.  Any constant works; it sets only the scale of the figures.
REFERENCE_S = 0.0065

#: ``tick`` probes when the last probe is at least this old.
INTERVAL_S = 0.1


class HostSpeed:
    """Probes taken during a run, as (perf_counter time, probe wall)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.random((2000, 64), dtype=np.float32)
        self._rows = rng.integers(0, 2000, 4000)
        self._weight = rng.random((64, 64), dtype=np.float32)
        self._gathered = np.empty((4000, 64), dtype=np.float32)
        self._product = np.empty((4000, 64), dtype=np.float32)
        self._small = [rng.random(32, dtype=np.float32) for _ in range(50)]
        self._scratch = np.empty(32, dtype=np.float32)
        self._ids = rng.integers(0, 5000, 12000)
        self._sorted = np.empty_like(self._ids)
        self.times: list[float] = []
        self.walls: list[float] = []
        # The first probe is slow (cold code and data); drop it.
        self.probe()
        self.times.clear()
        self.walls.clear()

    def probe(self) -> None:
        """Time the probe once: interpreter arithmetic, many small array
        operations, row gathers with a matrix product, and a sort.  It
        allocates no memory, so the heap the program leaves behind
        (page faults, trimming) does not change its wall."""
        start = time.perf_counter()
        total = 0
        for i in range(12000):
            total += i * i % 7
        scratch = self._scratch
        for _ in range(4):
            for row in self._small:
                np.multiply(row, 2.0, out=scratch)
                np.add(scratch, 1.0, out=scratch)
                total += scratch.argmax()
            np.take(self._table, self._rows, axis=0, out=self._gathered)
            np.matmul(self._gathered, self._weight, out=self._product)
        self._sorted[:] = self._ids
        self._sorted.sort(kind="stable")
        end = time.perf_counter()
        self.times.append(end)
        self.walls.append(end - start)

    def tick(self) -> None:
        """Probe unless the last probe is under ``INTERVAL_S`` old."""
        if not self.times or (
                time.perf_counter() - self.times[-1] >= INTERVAL_S):
            self.probe()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the mean probe wall around [start, end]:
        the last probe before ``start``, every probe inside, and the
        first probe after ``end``."""
        first = bisect.bisect_right(self.times, start) - 1
        last = bisect.bisect_left(self.times, end)
        walls = self.walls[max(first, 0):last + 1]
        return REFERENCE_S / statistics.fmean(walls)
