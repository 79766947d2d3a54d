"""Per-stream scalar twin of the struct-of-arrays stream pool.

This is the pre-SoA deployment shape kept alive as an executable
specification: one Python ring buffer per stream, per-sample appends,
and one scalar scoring pass (``backend.score_window``) per due window —
no ndarray state anywhere on the hot path.  The perf harness times it
against :class:`~repro.stream.engine.StreamPool` for the tracked
``streaming.speedup`` ratio, and :func:`repro.exact.identical` (in
canonical window order) holds the SoA engine to the twin's results
bit-for-bit (scores, decisions, window sequencing, and every
backpressure counter).

The twin applies the *same* accounting order as the pool: non-finite
samples are rejected first, then ``drop_new`` backpressure drops what no
longer fits, then ``skip_stale`` advances past windows whose samples the
write cursor has evicted.  Both skip accounting forms telescope, so
per-sample application here equals the pool's per-block application.
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.stream.engine import (
    BACKPRESSURE_POLICIES,
    StreamRunResult,
    StreamSpec,
    TickResult,
)


class ScalarStreamTwin:
    """Scalar reference implementation of the multi-stream pool."""

    def __init__(
        self,
        spec: StreamSpec,
        backend: Any,
        policy: str = "skip_stale",
    ) -> None:
        if policy not in BACKPRESSURE_POLICIES:
            raise ConfigurationError(
                f"unknown backpressure policy {policy!r}; "
                f"available: {BACKPRESSURE_POLICIES}"
            )
        backend.validate_spec(spec)
        self.spec = spec
        self.backend = backend
        self.policy = policy
        n = spec.n_streams
        self._bufs: List[List[float]] = [
            [0.0] * spec.capacity for _ in range(n)
        ]
        self.written = [0] * n
        self.emitted = [0] * n
        self.accepted_samples = [0] * n
        self.rejected_samples = [0] * n
        self.dropped_samples = [0] * n
        self.skipped_windows = [0] * n
        self.ticks = 0

    @property
    def n_streams(self) -> int:
        """Concurrent streams in the twin."""
        return self.spec.n_streams

    def _skip_stale(self, stream: int) -> None:
        hop = int(self.spec.hops[stream])
        min_start = self.written[stream] - self.spec.capacity
        if min_start <= 0:
            return
        fresh = max(self.emitted[stream], -((-min_start) // hop))
        self.skipped_windows[stream] += fresh - self.emitted[stream]
        self.emitted[stream] = fresh

    def append(self, stream: int, value: float) -> bool:
        """Accept one sample for one stream; ``False`` if rejected/dropped."""
        x = float(value)
        if not math.isfinite(x):
            self.rejected_samples[stream] += 1
            return False
        if self.policy == "drop_new":
            pending = self.written[stream] - self.emitted[stream] * int(
                self.spec.hops[stream]
            )
            if pending >= self.spec.capacity:
                self.dropped_samples[stream] += 1
                return False
        self._bufs[stream][self.written[stream] % self.spec.capacity] = x
        self.written[stream] += 1
        self.accepted_samples[stream] += 1
        if self.policy == "skip_stale":
            self._skip_stale(stream)
        return True

    def extend(self, stream: int, chunk: Sequence[float]) -> int:
        """Accept a burst one sample at a time; returns accepted count."""
        return sum(1 for x in np.asarray(chunk).ravel()
                   if self.append(stream, x))

    def tick(self) -> TickResult:
        """Score every due window, one stream and one window at a time."""
        self.ticks += 1
        streams: List[int] = []
        indices: List[int] = []
        end_seq: List[int] = []
        scores: List[float] = []
        decisions: List[int] = []
        c = self.spec.capacity
        for s in range(self.n_streams):
            w = int(self.spec.windows[s])
            h = int(self.spec.hops[s])
            if self.written[s] < w:
                continue
            formed = (self.written[s] - w) // h + 1
            for k in range(self.emitted[s], formed):
                start = k * h
                window = [self._bufs[s][(start + i) % c] for i in range(w)]
                score, decision = self.backend.score_window(
                    window, float(self.spec.levels[s])
                )
                streams.append(s)
                indices.append(k)
                end_seq.append(start + w)
                scores.append(score)
                decisions.append(decision)
            self.emitted[s] = max(self.emitted[s], formed)
        return TickResult(
            np.asarray(streams, dtype=np.int64),
            np.asarray(indices, dtype=np.int64),
            np.asarray(end_seq, dtype=np.int64),
            np.asarray(scores, dtype=np.float64),
            np.asarray(decisions, dtype=np.int64),
        )

    def result_from(self, tick_results: Sequence[TickResult]) -> StreamRunResult:
        """Assemble a :class:`StreamRunResult` from collected tick outputs."""
        if tick_results:
            streams = np.concatenate([t.streams for t in tick_results])
            indices = np.concatenate([t.indices for t in tick_results])
            end_seq = np.concatenate([t.end_seq for t in tick_results])
            scores = np.concatenate([t.scores for t in tick_results])
            decisions = np.concatenate([t.decisions for t in tick_results])
        else:
            streams = indices = end_seq = decisions = np.zeros(0, dtype=np.int64)
            scores = np.zeros(0)
        return StreamRunResult(
            streams=streams,
            indices=indices,
            end_seq=end_seq,
            scores=scores,
            decisions=decisions,
            accepted_samples=np.asarray(self.accepted_samples, dtype=np.int64),
            rejected_samples=np.asarray(self.rejected_samples, dtype=np.int64),
            dropped_samples=np.asarray(self.dropped_samples, dtype=np.int64),
            skipped_windows=np.asarray(self.skipped_windows, dtype=np.int64),
            ticks=self.ticks,
        )


def run_twin(
    spec: StreamSpec,
    backend: Any,
    samples: np.ndarray,
    tick_samples: int,
    policy: str = "skip_stale",
) -> StreamRunResult:
    """Scalar mirror of :func:`~repro.stream.engine.run_stream_pool`.

    The same ``(n_streams, T)`` sample matrix, the same tick cadence —
    but every sample goes through :meth:`ScalarStreamTwin.append` and
    every window through ``backend.score_window``.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != spec.n_streams:
        raise ConfigurationError(
            f"samples must be ({spec.n_streams}, T), got {x.shape}"
        )
    if tick_samples < 1:
        raise ConfigurationError("tick_samples must be >= 1")
    twin = ScalarStreamTwin(spec, backend, policy=policy)
    outputs: List[TickResult] = []
    for t0 in range(0, x.shape[1], tick_samples):
        for j in range(t0, min(t0 + tick_samples, x.shape[1])):
            for s in range(spec.n_streams):
                twin.append(s, x[s, j])
        outputs.append(twin.tick())
    return twin.result_from(outputs)
