"""Index-matrix window gather for :meth:`repro.stream.StreamPool.tick`.

Before the ring carried a mirror, ``tick()`` gathered every due window
through a ``(rows, length)`` matrix of ``% capacity`` column indices into
the first ``capacity`` ring slots.  The mirrored gather must hand the
backend exactly these matrices, in this order.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.stream import StreamPool


def gather_reference(pool: StreamPool) -> List[Tuple[np.ndarray, np.ndarray]]:
    """``(window rows, window matrix)`` per distinct due window length,
    ascending, as the next :meth:`~repro.stream.StreamPool.tick` would
    score them; leaves the pool untouched."""
    counts = pool.due_counts()
    total = int(counts.sum())
    sidx = np.repeat(np.arange(pool.n_streams, dtype=np.int64), counts)
    first = np.repeat(np.cumsum(counts) - counts, counts)
    kidx = np.repeat(pool.emitted, counts) + (np.arange(total, dtype=np.int64) - first)
    starts = kidx * pool.spec.hops[sidx]
    lengths = pool.spec.windows[sidx]
    c = pool.spec.capacity
    out = []
    for length in np.unique(lengths):
        rows = np.nonzero(lengths == length)[0]
        cols = (starts[rows, None] + np.arange(int(length))[None, :]) % c
        out.append((rows, pool._ring[sidx[rows, None], cols]))
    return out
