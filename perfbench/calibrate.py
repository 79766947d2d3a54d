"""Same-run calibration kernel that turns wall times into reference times.

On a host shared with other tenants the core runs at different speeds for
stretches of seconds, and wall times move with it by up to about 1.7x.  The
calibration kernel is fixed interpreter and BLAS work (a dict-lookup loop
and three 64x64 products) that stays in cache.  It is timed right next to
every measured operation, and a time is reported as

    wall time x REF_NS / (mean of the calibrations just before and after)

which is the wall time the operation takes when the kernel runs in
``REF_NS``.  The kernel is part of the benchmark, not of the program, so a
change to the program moves reported times as it moves wall times.  Long
operations are cut into segments at calibration points (``SegmentClock``),
so a speed change inside the operation is tracked too.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import numpy as np

#: The kernel's time on an uncontended 2-vCPU Intel Xeon host.
REF_NS = 250_000


class Calibrator:
    """The fixed calibration kernel; its inputs come from a fixed seed."""

    def __init__(self) -> None:
        self._mat = np.random.default_rng(12345).random((64, 64))
        self._table = {i: i for i in range(256)}

    def _kernel(self) -> None:
        table, acc = self._table, 0
        for i in range(4000):
            acc += table[i & 255]
        for _ in range(3):
            self._mat @ self._mat

    def sample(self) -> int:
        """One run of the kernel, in ns, right after an untimed run.

        The untimed run brings the kernel's code and data back into cache,
        so the timed run does not depend on what the program left there.
        """
        self._kernel()
        t0 = time.perf_counter_ns()
        self._kernel()
        return time.perf_counter_ns() - t0


def reference_ns(wall: float, before: float, after: float) -> float:
    """``wall`` at the reference speed, by the calibrations taken just
    before and just after it."""
    return wall * 2 * REF_NS / (before + after)


class SegmentClock:
    """Times one long operation as segments cut by calibration samples.

    ``start`` and ``stop`` bracket the operation; every ``split`` inside it
    takes one calibration sample, which is left out of the operation's time.
    With an active span recorder each inner sample is a ``bench.calibration``
    span, so no layer's self time includes it.
    """

    def __init__(self, cal: Calibrator, rec=None) -> None:
        self.cal = cal
        self.rec = rec
        self._segments: List[int] = []
        self._cals: List[int] = []
        self._mark = 0

    def start(self) -> None:
        self._segments, self._cals = [], [self.cal.sample()]
        self._mark = time.perf_counter_ns()

    def split(self) -> None:
        self._segments.append(time.perf_counter_ns() - self._mark)
        if self.rec is not None and self.rec.active:
            idx = self.rec.open("bench.calibration")
            self._cals.append(self.cal.sample())
            self.rec.close(idx)
        else:
            self._cals.append(self.cal.sample())
        self._mark = time.perf_counter_ns()

    def stop(self) -> Tuple[int, float]:
        """``(wall ns, reference ns)`` of the operation, samples excluded."""
        self._segments.append(time.perf_counter_ns() - self._mark)
        self._cals.append(self.cal.sample())
        ref = sum(reference_ns(w, before, after) for w, before, after
                  in zip(self._segments, self._cals, self._cals[1:]))
        return sum(self._segments), ref
