"""Struct-of-arrays multi-stream ingestion engine.

Every batch hot path of the pipeline is vectorised, but the *streaming*
deployment shape — thousands of concurrent live wearable streams, each a
trickle of samples — still processed one sample of one stream at a time
through per-object accumulators.  This module flips the layout the same
way :mod:`repro.sim.fleetsoa` did for fleets: **one ring-buffer ndarray
block across all streams** (per-stream write cursors, window/hop grids,
tenant ids, window sequence counters), batched appends, and one batched
scoring call per tick instead of N scalar pipelines.

Model: sliding windows on per-stream (window, hop) grids
--------------------------------------------------------

Stream ``s`` accepts samples ``0, 1, 2, ...`` (its *sample sequence*).
Window ``k`` of stream ``s`` covers samples ``[k*hop_s, k*hop_s +
window_s)`` and becomes *due* once sample ``k*hop_s + window_s - 1`` has
been accepted.  ``hop < window`` gives overlapping windows, ``hop >
window`` skips samples between windows — both legal (the AdaSense-style
per-stream adaptive knobs).  Windows are emitted on :meth:`StreamPool.
tick`, all due windows across all streams gathered into one matrix per
distinct window length and scored through the backend in one batched
call.

Backpressure
------------

The ring holds the last ``capacity`` accepted samples per stream.  When
appends outpace ticks the pool must either refuse new samples or abandon
stale windows; both policies are explicit and accounted:

- ``"skip_stale"`` (default): always accept the freshest samples; windows
  whose samples have been overwritten are skipped and counted in
  ``skipped_windows`` (late-data drop accounting);
- ``"drop_new"``: never lose a pending window; incoming samples beyond
  the per-stream bound are dropped and counted in ``dropped_samples``.

Non-finite samples are rejected at the boundary (``rejected_samples``),
mirroring :class:`~repro.dsp.streaming.StreamingMoments`'s refusal to
accumulate them — so gathered windows are always NaN-free.

Equivalence contract
--------------------

:class:`~repro.stream.twin.ScalarStreamTwin` is the per-stream scalar
reference — Python ring buffers, per-sample appends, one
:class:`~repro.dsp.streaming.StreamingMoments` /
:class:`~repro.dsp.streaming.CrossingCounter` pass per window.  The SoA
engine replicates its arithmetic exactly (window sums via a sequential
row ``cumsum`` whose ``+ 0.0`` restores the zero seed's sign), so
:func:`stream_results_identical` asserts **bit-identical** per-window
scores and decisions, NaN-aware, plus equal drop/late counters — the
contract the ``streaming`` perf stage and CI gate hold the fast path to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.dsp.features import crossing_counts
from repro.errors import ConfigurationError

#: Backpressure policies accepted by :class:`StreamPool`.
BACKPRESSURE_POLICIES = ("skip_stale", "drop_new")


class StreamSpec:
    """Immutable struct-of-arrays layout of one stream population.

    Per-stream columns (length ``n_streams``):

    - ``windows``: window length in samples (``>= 1``);
    - ``hops``: hop between consecutive window starts (``>= 1``);
    - ``levels``: crossing-detector reference level per stream;
    - ``tenants``: owning tenant id per stream (integrity accounting
      aggregates per tenant).

    ``capacity`` is the ring-buffer depth shared by every stream; it must
    cover the largest window so a due window is always gatherable.
    """

    def __init__(
        self,
        *,
        windows: Sequence[int],
        hops: Sequence[int],
        levels: Optional[Sequence[float]] = None,
        tenants: Optional[Sequence[int]] = None,
        capacity: Optional[int] = None,
    ) -> None:
        self.windows = np.asarray(windows, dtype=np.int64).copy()
        if self.windows.ndim != 1 or self.windows.size == 0:
            raise ConfigurationError("windows must be a non-empty 1-D column")
        n = self.windows.size
        self.hops = np.asarray(hops, dtype=np.int64).copy()
        if self.hops.shape != (n,):
            raise ConfigurationError(
                f"hops must match windows' length {n}, got {self.hops.shape}"
            )
        if int(self.windows.min()) < 1:
            raise ConfigurationError("every window must be >= 1 sample")
        if int(self.hops.min()) < 1:
            raise ConfigurationError("every hop must be >= 1 sample")
        if levels is None:
            self.levels = np.zeros(n, dtype=np.float64)
        else:
            self.levels = np.asarray(levels, dtype=np.float64).copy()
        if self.levels.shape != (n,) or not np.isfinite(self.levels).all():
            raise ConfigurationError(
                f"levels must be {n} finite floats, got {self.levels.shape}"
            )
        if tenants is None:
            self.tenants = np.arange(n, dtype=np.int64)
        else:
            self.tenants = np.asarray(tenants, dtype=np.int64).copy()
        if self.tenants.shape != (n,) or (n and int(self.tenants.min()) < 0):
            raise ConfigurationError(
                f"tenants must be {n} non-negative ids, got {self.tenants.shape}"
            )
        max_window = int(self.windows.max())
        self.capacity = int(capacity) if capacity is not None else 2 * max_window
        if self.capacity < max_window:
            raise ConfigurationError(
                f"capacity {self.capacity} cannot hold the largest window "
                f"({max_window} samples)"
            )
        for arr in (self.windows, self.hops, self.levels, self.tenants):
            arr.setflags(write=False)

    @property
    def n_streams(self) -> int:
        """Concurrent streams in the population."""
        return int(self.windows.size)

    @classmethod
    def homogeneous(
        cls,
        n_streams: int,
        window: int,
        hop: int,
        *,
        level: float = 0.0,
        tenants: Optional[Sequence[int]] = None,
        capacity: Optional[int] = None,
    ) -> "StreamSpec":
        """A population of ``n_streams`` identical streams."""
        if n_streams < 1:
            raise ConfigurationError("n_streams must be >= 1")
        return cls(
            windows=np.full(n_streams, window, dtype=np.int64),
            hops=np.full(n_streams, hop, dtype=np.int64),
            levels=np.full(n_streams, level, dtype=np.float64),
            tenants=tenants,
            capacity=capacity,
        )

    def slice_streams(self, lo: int, hi: int) -> "StreamSpec":
        """The sub-population of streams ``[lo, hi)``, columns preserved.

        Streams are mutually independent, so feeding a slice the matching
        sample rows reproduces exactly the parent pool's windows for those
        streams — the property :func:`repro.sim.parallel.
        stream_soa_windows` relies on for sharded fan-out.
        """
        if not 0 <= lo <= hi <= self.n_streams:
            raise ConfigurationError(
                f"stream slice [{lo}, {hi}) out of range for "
                f"{self.n_streams} streams"
            )
        if hi == lo:
            raise ConfigurationError("stream slice must be non-empty")
        return StreamSpec(
            windows=self.windows[lo:hi],
            hops=self.hops[lo:hi],
            levels=self.levels[lo:hi],
            tenants=self.tenants[lo:hi],
            capacity=self.capacity,
        )


def _fuse_score(backend: "MomentsBackend", mean, std, rng_, crossings):
    """The fusion expression shared by the scalar and batched moments
    paths — one definition so both sides run the identical float ops."""
    return (
        backend.w_mean * mean
        + backend.w_std * std
        + backend.w_range * rng_
        + backend.w_cross * crossings
        + backend.bias
    )


@dataclass(frozen=True)
class MomentsBackend:
    """Window scorer over single-pass statistical features.

    The scalar path (:meth:`score_window`) feeds each window through
    :class:`~repro.dsp.streaming.StreamingMoments` and
    :class:`~repro.dsp.streaming.CrossingCounter` one sample at a time —
    the true pre-SoA streaming shape.  The batched path
    (:meth:`score_matrix`) computes the same raw power sums for every
    window row with a sequential row ``cumsum`` (plus ``+ 0.0`` for the
    zero seed's sign, so an all-``-0.0`` row sums to ``+0.0`` as in the
    loop), the same degenerate-variance guard, and counts crossings with
    :func:`~repro.dsp.features.crossing_counts`, whose zero-carry rule is
    the counter's — so scores and decisions are bit-identical to the
    scalar path, the sign of a zero score included.

    The decision rule is a fixed linear fusion of ``mean``, ``std``,
    ``max - min`` and the crossing count: ``decision = 1`` iff the fused
    score is positive.
    """

    w_mean: float = 1.0
    w_std: float = 1.0
    w_range: float = 0.25
    w_cross: float = -0.05
    bias: float = -1.0

    def validate_spec(self, spec: StreamSpec) -> None:
        """Moments scoring accepts any window/hop grid."""

    def score_window(
        self, window: Sequence[float], level: float
    ) -> Tuple[float, int]:
        """Score one window the scalar way: per-sample accumulators."""
        from repro.dsp.streaming import CrossingCounter, StreamingMoments

        moments = StreamingMoments()
        crossings = CrossingCounter(level)
        for x in window:
            moments.update(x)
            crossings.update(x)
        feats = moments.finalize()
        score = _fuse_score(
            self,
            feats["mean"],
            feats["std"],
            feats["max"] - feats["min"],
            crossings.crossings,
        )
        return float(score), int(score > 0.0)

    def score_matrix(
        self, matrix: np.ndarray, levels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Score a ``(n_windows, length)`` batch in one vectorised pass."""
        n = matrix.shape[1]
        # Row cumsums add in the scalar update loop's order.  The loop
        # starts from +0.0, so an all-(-0.0) row sums to +0.0 there; `+ 0.0`
        # maps the cumsum's -0.0 to it and leaves every other sum as is.
        # Squares are never -0.0, so s2 needs no such step.
        acc = np.cumsum(matrix, axis=1)
        s1 = acc[:, -1] + 0.0
        s2 = np.cumsum(np.multiply(matrix, matrix, out=acc), axis=1, out=acc)[:, -1]
        mean = s1 / n
        e2 = s2 / n
        var = e2 - mean * mean
        # StreamingMoments.finalize's degeneracy guard, elementwise.
        noise_floor = np.maximum(1e-12, 1e-12 * n * np.abs(e2))
        var = np.where(var <= noise_floor, 0.0, var)
        std = np.sqrt(np.maximum(var, 0.0))
        mx = matrix.max(axis=1)
        mn = matrix.min(axis=1)
        crossings = crossing_counts(matrix - levels[:, None])
        score = _fuse_score(self, mean, std, mx - mn, crossings)
        return score, (score > 0.0).astype(np.int64)


@dataclass(frozen=True)
class EngineBackend:
    """Window scorer running the full trained classification pipeline.

    The batched path is :meth:`~repro.core.pipeline.TrainedAnalyticEngine.
    predict_batch` — batched feature extraction, batched DWT, one Gram
    matrix per base classifier — and the scalar path is
    :meth:`~repro.core.pipeline.TrainedAnalyticEngine.predict_segment`,
    decision-identical by the pipeline's existing guarantees.  Every
    stream's window must equal the engine layout's segment length.
    """

    engine: Any

    def validate_spec(self, spec: StreamSpec) -> None:
        """Reject grids whose windows don't fit the trained layout."""
        expected = int(self.engine.layout.segment_length)
        if not (spec.windows == expected).all():
            raise ConfigurationError(
                f"EngineBackend needs every window == segment_length "
                f"{expected}; got windows in "
                f"[{int(spec.windows.min())}, {int(spec.windows.max())}]"
            )

    def score_window(
        self, window: Sequence[float], level: float
    ) -> Tuple[float, int]:
        """Classify one window through the scalar reference pipeline."""
        decision = int(self.engine.predict_segment(np.asarray(window)))
        return float(decision), decision

    def score_matrix(
        self, matrix: np.ndarray, levels: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Classify a window batch in one ``predict_batch`` call."""
        decisions = np.asarray(self.engine.predict_batch(matrix), dtype=np.int64)
        return decisions.astype(np.float64), decisions


@dataclass
class TickResult:
    """Windows emitted by one :meth:`StreamPool.tick`.

    Rows are ordered stream-major, window-index-minor (the canonical
    within-tick order both the SoA engine and the scalar twin obey).
    """

    streams: np.ndarray
    indices: np.ndarray
    end_seq: np.ndarray
    scores: np.ndarray
    decisions: np.ndarray

    def __len__(self) -> int:
        return int(self.streams.size)


@dataclass
class StreamRunResult:
    """Accumulated windows and accounting of one pool run.

    Window columns (one row per emitted window, emission order):
    ``streams``, ``indices`` (per-stream window sequence number),
    ``end_seq`` (sample sequence just past the window), ``scores``,
    ``decisions``.  Per-stream accounting columns: ``accepted_samples``,
    ``rejected_samples`` (non-finite), ``dropped_samples`` (backpressure,
    ``drop_new``), ``skipped_windows`` (late windows, ``skip_stale``).
    """

    streams: np.ndarray
    indices: np.ndarray
    end_seq: np.ndarray
    scores: np.ndarray
    decisions: np.ndarray
    accepted_samples: np.ndarray
    rejected_samples: np.ndarray
    dropped_samples: np.ndarray
    skipped_windows: np.ndarray
    ticks: int = 0

    @property
    def n_windows(self) -> int:
        """Windows emitted over the whole run."""
        return int(self.streams.size)


#: Float columns of :class:`StreamRunResult` (NaN-aware comparison).
_RESULT_FLOAT_FIELDS = ("scores",)
#: Integer window/accounting columns (exact comparison).
_RESULT_INT_FIELDS = (
    "streams",
    "indices",
    "end_seq",
    "decisions",
    "accepted_samples",
    "rejected_samples",
    "dropped_samples",
    "skipped_windows",
)


def _canonical_order(result: StreamRunResult) -> np.ndarray:
    """Sort permutation by (stream, window index): emission order differs
    between paths only in inter-tick interleaving, never within a
    stream, so this order is unique and comparable."""
    return np.lexsort((result.indices, result.streams))


def stream_results_identical(a: StreamRunResult, b: StreamRunResult) -> bool:
    """Bit-identity of two stream runs, NaN-aware and order-canonical.

    Window columns are compared in canonical (stream, window index)
    order; float scores with ``np.array_equal(..., equal_nan=True)``,
    integer columns and the per-stream drop/late counters exactly.
    """
    if a.n_windows != b.n_windows or a.ticks != b.ticks:
        return False
    if a.accepted_samples.size != b.accepted_samples.size:
        return False
    oa, ob = _canonical_order(a), _canonical_order(b)
    for name in _RESULT_FLOAT_FIELDS:
        if not np.array_equal(
            getattr(a, name)[oa], getattr(b, name)[ob], equal_nan=True
        ):
            return False
    for name in ("streams", "indices", "end_seq", "decisions"):
        if not np.array_equal(getattr(a, name)[oa], getattr(b, name)[ob]):
            return False
    for name in (
        "accepted_samples",
        "rejected_samples",
        "dropped_samples",
        "skipped_windows",
    ):
        if not np.array_equal(getattr(a, name), getattr(b, name)):
            return False
    return True


def concat_stream_results(
    parts: Sequence[StreamRunResult], offsets: Sequence[int]
) -> StreamRunResult:
    """Stitch per-shard results back into one canonical-order run.

    ``offsets[i]`` is the first global stream index of shard ``i``;
    window rows are re-sorted into canonical (stream, window index)
    order, so the stitched result compares identical to an unsharded run
    under :func:`stream_results_identical`.
    """
    if not parts:
        raise ConfigurationError("need at least one result to concatenate")
    if len(offsets) != len(parts):
        raise ConfigurationError("offsets must match the shard count")
    ticks = parts[0].ticks
    if any(p.ticks != ticks for p in parts):
        raise ConfigurationError("shards disagree on tick count")
    streams = np.concatenate(
        [p.streams + int(off) for p, off in zip(parts, offsets)]
    )
    merged = StreamRunResult(
        streams=streams,
        indices=np.concatenate([p.indices for p in parts]),
        end_seq=np.concatenate([p.end_seq for p in parts]),
        scores=np.concatenate([p.scores for p in parts]),
        decisions=np.concatenate([p.decisions for p in parts]),
        accepted_samples=np.concatenate([p.accepted_samples for p in parts]),
        rejected_samples=np.concatenate([p.rejected_samples for p in parts]),
        dropped_samples=np.concatenate([p.dropped_samples for p in parts]),
        skipped_windows=np.concatenate([p.skipped_windows for p in parts]),
        ticks=ticks,
    )
    order = _canonical_order(merged)
    for name in _RESULT_FLOAT_FIELDS + ("streams", "indices", "end_seq",
                                        "decisions"):
        setattr(merged, name, getattr(merged, name)[order])
    return merged


def _ceil_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise ceiling division, correct for negative numerators."""
    return -((-a) // b)


class StreamPool:
    """The struct-of-arrays multi-stream pool.

    One ``(n_streams, capacity + max_window - 1)`` ring block (the last
    ``max_window - 1`` columns mirror the first, see :meth:`_write`) plus
    per-stream cursor and accounting columns; appends are vectorised, and
    :meth:`tick` gathers *all* due windows across *all* streams into one
    matrix per distinct window length for one batched scoring call each.

    Args:
        spec: The stream population layout.
        backend: Window scorer (:class:`MomentsBackend` or
            :class:`EngineBackend`).
        policy: Backpressure policy, one of
            :data:`BACKPRESSURE_POLICIES`.
    """

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
        # Mirror slots past `capacity`, so every window is one contiguous
        # run of its row.
        self._mirror = int(spec.windows.max()) - 1
        self._ring = np.zeros((n, spec.capacity + self._mirror), dtype=np.float64)
        self.written = np.zeros(n, dtype=np.int64)
        self.emitted = np.zeros(n, dtype=np.int64)
        self.accepted_samples = np.zeros(n, dtype=np.int64)
        self.rejected_samples = np.zeros(n, dtype=np.int64)
        self.dropped_samples = np.zeros(n, dtype=np.int64)
        self.skipped_windows = np.zeros(n, dtype=np.int64)
        self.ticks = 0

    @property
    def n_streams(self) -> int:
        """Concurrent streams in the pool."""
        return self.spec.n_streams

    # -- appends -------------------------------------------------------------

    def _pending(self, stream: int) -> int:
        """Samples written past the next unemitted window's start.

        Negative when that window starts in the future (``hop`` can
        exceed the ring depth): the gap is extra room — new samples can
        overwrite freely until the write cursor reaches the start.
        """
        oldest_needed = int(self.emitted[stream]) * int(self.spec.hops[stream])
        return int(self.written[stream]) - oldest_needed

    def _skip_stale(self, stream: int) -> None:
        """Advance ``emitted`` past windows whose samples were evicted."""
        c = self.spec.capacity
        hop = int(self.spec.hops[stream])
        min_start = int(self.written[stream]) - c
        if min_start <= 0:
            return
        fresh = max(int(self.emitted[stream]), -((-min_start) // hop))
        self.skipped_windows[stream] += fresh - int(self.emitted[stream])
        self.emitted[stream] = fresh

    def append(self, stream: int, value: float) -> bool:
        """Accept one sample for one stream; ``False`` if rejected/dropped."""
        return self.extend(stream, [float(value)]) == 1

    def extend(self, stream: int, chunk: Sequence[float]) -> int:
        """Accept a burst of samples for one stream; returns accepted count.

        Non-finite samples are rejected (counted), samples beyond the
        backpressure bound dropped (counted, ``drop_new``); the rest are
        written to the ring in order with one vectorised scatter.
        """
        x = np.asarray(chunk, dtype=np.float64).ravel()
        if x.size == 0:
            return 0
        finite = np.isfinite(x)
        self.rejected_samples[stream] += int(x.size - np.count_nonzero(finite))
        vals = x[finite]
        if self.policy == "drop_new":
            room = self.spec.capacity - self._pending(stream)
            if vals.size > room:
                self.dropped_samples[stream] += int(vals.size - room)
                vals = vals[:room]
        if vals.size == 0:
            return 0
        c = self.spec.capacity
        n_new = int(vals.size)
        # Only the freshest `capacity` samples survive the wrap.
        kept = min(n_new, c)
        pos = (int(self.written[stream]) + n_new - kept + np.arange(kept)) % c
        self._write(np.full(kept, stream), pos, vals[-kept:])
        self.written[stream] += n_new
        self.accepted_samples[stream] += n_new
        if self.policy == "skip_stale":
            self._skip_stale(stream)
        return n_new

    def extend_block(self, block: np.ndarray) -> int:
        """Accept one aligned chunk for every stream at once.

        ``block`` is ``(n_streams, k)``: sample column ``j`` arrives at
        every stream before column ``j + 1`` (the fixed-rate fan-in
        shape).  The all-finite, capacity-clean case is one vectorised
        ring scatter; anything else is one :meth:`extend_ragged` call.
        Both are identical to per-stream :meth:`extend` calls.
        """
        x = np.asarray(block, dtype=np.float64)
        if x.ndim != 2 or x.shape[0] != self.n_streams:
            raise ConfigurationError(
                f"block must be ({self.n_streams}, k), got {x.shape}"
            )
        k = x.shape[1]
        if k == 0:
            return 0
        c = self.spec.capacity
        clean = bool(np.isfinite(x).all()) and k <= c
        if clean and self.policy == "drop_new":
            pending = self.written - self.emitted * self.spec.hops
            clean = bool((c - pending >= k).all())
        if not clean:
            counts = np.full(self.n_streams, k, dtype=np.int64)
            return int(self.extend_ragged(counts, x.ravel()).sum())
        cols = (self.written[:, None] + np.arange(k)[None, :]) % c
        self._write(np.repeat(np.arange(self.n_streams), k), cols.ravel(), x.ravel())
        self.written += k
        self.accepted_samples += k
        if self.policy == "skip_stale":
            self._advance_stale()
        return int(self.n_streams) * k

    def extend_ragged(self, counts: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Accept one chunk per stream, of any lengths, in one pass.

        ``values`` is the stream-major concatenation of the chunks and
        ``counts[s]`` the length of stream ``s``'s chunk (``0`` for none).
        The results — ring contents, cursors and every accounting column —
        equal :meth:`extend` applied to each stream's chunk, in order,
        split into any number of consecutive calls: non-finite samples
        are rejected; under ``drop_new`` each stream keeps the prefix that
        fits its room (``capacity`` minus pending samples) and drops the
        rest; only the last ``capacity`` accepted samples per stream reach
        the ring; under ``skip_stale`` evicted windows are skipped.

        Returns:
            Accepted samples per stream, shape ``(n_streams,)``.
        """
        n = self.n_streams
        counts = np.asarray(counts, dtype=np.int64)
        x = np.asarray(values, dtype=np.float64).ravel()
        if counts.shape != (n,) or (n and int(counts.min()) < 0):
            raise ConfigurationError(
                f"counts must be {n} non-negative chunk lengths, "
                f"got shape {counts.shape}"
            )
        if int(counts.sum()) != x.size:
            raise ConfigurationError(
                f"counts sum to {int(counts.sum())} but {x.size} values given"
            )
        owner = np.repeat(np.arange(n, dtype=np.int64), counts)
        finite = np.isfinite(x)
        owner, x = owner[finite], x[finite]
        offered = np.bincount(owner, minlength=n)
        self.rejected_samples += counts - offered
        c = self.spec.capacity
        if self.policy == "drop_new":
            room = c - (self.written - self.emitted * self.spec.hops)
            taken = np.minimum(offered, np.maximum(room, 0))
            self.dropped_samples += offered - taken
        else:
            taken = offered
        # Rank of each sample in its stream's finite run; keep the accepted
        # prefix, and of that only the last `capacity` (earlier ones would
        # be overwritten in the ring anyway).
        rank = np.arange(x.size) - np.repeat(np.cumsum(offered) - offered, offered)
        keep = (rank < taken[owner]) & (rank >= taken[owner] - c)
        owner, rank = owner[keep], rank[keep]
        self._write(owner, (self.written[owner] + rank) % c, x[keep])
        self.written += taken
        self.accepted_samples += taken
        if self.policy == "skip_stale":
            self._advance_stale()
        return taken

    def _write(self, rows: np.ndarray, cols: np.ndarray, values: np.ndarray) -> None:
        """Store ``values`` at ring slots ``(rows, cols)``, ``cols`` in
        ``[0, capacity)``, and at the mirror copy of each slot below
        ``m``: the ring then holds ``_ring[:, c:] == _ring[:, :m]``."""
        self._ring[rows, cols] = values
        low = cols < self._mirror
        self._ring[rows[low], cols[low] + self.spec.capacity] = values[low]

    def _advance_stale(self) -> None:
        """:meth:`_skip_stale` for every stream at once."""
        fresh = np.maximum(
            self.emitted,
            _ceil_div(self.written - self.spec.capacity, self.spec.hops),
        )
        self.skipped_windows += fresh - self.emitted
        self.emitted = fresh

    # -- scoring -------------------------------------------------------------

    def due_counts(self) -> np.ndarray:
        """Due windows per stream if :meth:`tick` ran now."""
        formed = (self.written - self.spec.windows) // self.spec.hops + 1
        return np.clip(
            np.where(self.written >= self.spec.windows, formed, 0)
            - self.emitted,
            0,
            None,
        )

    def tick(self) -> TickResult:
        """Gather and score every due window across every stream.

        One matrix gather plus one batched backend call per distinct due
        window length; rows come back in canonical stream-major,
        window-index-minor order.  Thanks to the ring's mirror, a window
        starting at ring slot ``p`` is the contiguous run ``[p, p +
        length)`` of its stream's row, so the gather takes whole rows of a
        sliding-window view and builds no index matrix.
        """
        counts = self.due_counts()
        total = int(counts.sum())
        self.ticks += 1
        if total == 0:
            empty_i = np.zeros(0, dtype=np.int64)
            return TickResult(empty_i, empty_i.copy(), empty_i.copy(),
                              np.zeros(0), empty_i.copy())
        sidx = np.repeat(np.arange(self.n_streams, dtype=np.int64), counts)
        first = np.repeat(np.cumsum(counts) - counts, counts)
        kidx = np.repeat(self.emitted, counts) + (
            np.arange(total, dtype=np.int64) - first
        )
        hops = self.spec.hops[sidx]
        lengths = self.spec.windows[sidx]
        starts = kidx * hops
        scores = np.zeros(total, dtype=np.float64)
        decisions = np.zeros(total, dtype=np.int64)
        slots = starts % self.spec.capacity
        for length in np.unique(lengths):
            rows = np.nonzero(lengths == length)[0]
            view = sliding_window_view(self._ring, int(length), axis=1)
            matrix = view[sidx[rows], slots[rows]]
            sc, dec = self.backend.score_matrix(
                matrix, self.spec.levels[sidx[rows]]
            )
            scores[rows] = sc
            decisions[rows] = dec
        self.emitted += counts
        return TickResult(sidx, kidx, starts + lengths, scores, decisions)

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
            accepted_samples=self.accepted_samples.copy(),
            rejected_samples=self.rejected_samples.copy(),
            dropped_samples=self.dropped_samples.copy(),
            skipped_windows=self.skipped_windows.copy(),
            ticks=self.ticks,
        )


def run_stream_pool(
    spec: StreamSpec,
    backend: Any,
    samples: np.ndarray,
    tick_samples: int,
    policy: str = "skip_stale",
) -> StreamRunResult:
    """Feed a ``(n_streams, T)`` sample matrix through a pool in ticks.

    Every ``tick_samples`` columns are appended with one
    :meth:`StreamPool.extend_block` and scored with one
    :meth:`StreamPool.tick` — the batch shape the ``streaming`` perf
    stage times against the scalar twin.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != spec.n_streams:
        raise ConfigurationError(
            f"samples must be ({spec.n_streams}, T), got {x.shape}"
        )
    if tick_samples < 1:
        raise ConfigurationError("tick_samples must be >= 1")
    pool = StreamPool(spec, backend, policy=policy)
    outputs: List[TickResult] = []
    for t0 in range(0, x.shape[1], tick_samples):
        pool.extend_block(x[:, t0 : t0 + tick_samples])
        outputs.append(pool.tick())
    return pool.result_from(outputs)
