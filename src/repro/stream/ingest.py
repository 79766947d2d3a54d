"""Framed-wire ingestion into the multi-stream pool, accounted per tenant.

Live subscriber traffic arrives as wire frames (:mod:`repro.hw.framing`:
versioned header, 16-bit sequence number, Q16.16 payload, CRC-16
trailer), not clean ndarrays.  :class:`FrameIngestor` is the boundary:
it decodes frame batches with the vectorised batch codec
(:func:`~repro.hw.framing.decode_frames`), enforces per-stream sequence
discipline in the modular space of :data:`~repro.hw.framing.SEQ_MODULUS`
(duplicates discarded, gaps counted with their implied missing frames),
deserialises every accepted payload in one call, and writes them with
one :meth:`~repro.stream.engine.StreamPool.extend_ragged` — where the
pool's own non-finite rejection and backpressure accounting take over.

Integrity columns are struct-of-arrays like the pool itself: one int64
column per counter across all streams, aggregated to per-tenant
:class:`~repro.hw.framing.IntegrityCounters` on demand — the
multi-subscriber gateway bookkeeping the fog-assisted wIoT shape needs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.dsp.fixedpoint import FixedPointFormat, Q16_16
from repro.errors import ConfigurationError
from repro.hw.framing import (
    SEQ_MODULUS,
    FramingConfig,
    IntegrityCounters,
    decode_frames,
    decode_values,
    serial_width,
)
from repro.stream.engine import StreamPool


class FrameIngestor:
    """Decode, sequence-check and ingest wire frames for a stream pool.

    Sequence discipline per stream: the first verified frame synchronises
    the expected counter; afterwards ``delta = (seq - expected) mod
    SEQ_MODULUS`` classifies each frame — ``0`` in-order, a small forward
    delta a gap (accepted, with ``delta`` missing frames charged), and a
    large delta (≥ half the modular space) a duplicate or stale reorder
    (discarded).  Corrupt frames (failed CRC/structure, or a payload that
    is not whole Q16.16 words) never reach the pool.

    Args:
        pool: Destination :class:`~repro.stream.engine.StreamPool`.
        config: Wire-format parameters (must match the sender's).
        fmt: Fixed-point payload format (Q16.16 by default).
    """

    def __init__(
        self,
        pool: StreamPool,
        config: Optional[FramingConfig] = None,
        fmt: FixedPointFormat = Q16_16,
    ) -> None:
        self.pool = pool
        self.config = config if config is not None else FramingConfig()
        self.fmt = fmt
        n = pool.n_streams
        self._expected = np.zeros(n, dtype=np.int64)
        self._synced = np.zeros(n, dtype=bool)
        self.frames_ok = np.zeros(n, dtype=np.int64)
        self.frames_corrupt = np.zeros(n, dtype=np.int64)
        self.frames_duplicate = np.zeros(n, dtype=np.int64)
        self.sequence_gaps = np.zeros(n, dtype=np.int64)
        self.frames_missing = np.zeros(n, dtype=np.int64)
        self.payloads_ok = np.zeros(n, dtype=np.int64)
        self.samples_in = np.zeros(n, dtype=np.int64)

    def push_frames(
        self,
        stream_ids: Sequence[int],
        frames: Union[np.ndarray, Sequence[bytes]],
        lengths: Optional[np.ndarray] = None,
    ) -> int:
        """Ingest a batch of frames; returns samples accepted by the pool.

        ``stream_ids[i]`` owns ``frames[i]``; frames are processed in
        batch order, which is arrival order per stream.  Decoding and CRC
        verification run once for the whole batch through the vectorised
        codec.  Verified frames are stable-sorted by stream and the
        sequence state machine runs vectorised across streams, one round
        per frame position within a stream; every accepted payload is
        then deserialised with one :func:`decode_values` call and written
        with one :meth:`~repro.stream.engine.StreamPool.extend_ragged`.

        Per frame the checks run in a fixed order: corrupt (failed
        CRC/structure), then duplicate/stale, then gap accounting, then
        payload width (a payload that is not whole words is corrupt and
        does not consume its sequence number), then accept.

        Raises:
            ConfigurationError: On malformed batches, stream ids outside
                the pool, or — once any frame verifies — a payload format
                that is not byte-aligned.
        """
        sids = np.asarray(stream_ids, dtype=np.int64)
        batch = decode_frames(frames, self.config, lengths)
        if sids.shape != (len(batch),):
            raise ConfigurationError(
                f"stream_ids must be a length-{len(batch)} vector, "
                f"got shape {sids.shape}"
            )
        n = self.pool.n_streams
        if len(batch) and not (0 <= int(sids.min()) and int(sids.max()) < n):
            raise ConfigurationError(f"stream ids must lie in [0, {n})")
        self.frames_corrupt += np.bincount(sids[~batch.ok], minlength=n)
        # Verified frames only, stable-sorted by stream: arrival order is
        # kept within each stream, and corrupt frames never touch state.
        live = np.flatnonzero(batch.ok)
        if live.size == 0:
            return 0
        width = serial_width(self.fmt)
        live = live[np.argsort(sids[live], kind="stable")]
        s = sids[live]
        seq = batch.seq[live].astype(np.int64)
        nbytes = np.fromiter(
            (len(batch.payloads[i]) for i in live), dtype=np.int64, count=live.size
        )
        per_stream = np.bincount(s, minlength=n)
        position = np.arange(live.size) - np.repeat(
            np.cumsum(per_stream) - per_stream, per_stream
        )
        delta = np.zeros(live.size, dtype=np.int64)
        duplicate = np.zeros(live.size, dtype=bool)
        accept = np.zeros(live.size, dtype=bool)
        misaligned = nbytes % width != 0
        half = SEQ_MODULUS // 2
        # Round r takes the r-th verified frame of every stream that has
        # one; streams are distinct within a round, so per-stream state
        # updates are plain fancy-index writes.
        by_round = np.argsort(position, kind="stable")
        bounds = np.cumsum(np.bincount(position))
        for lo, hi in zip(np.r_[0, bounds[:-1]], bounds):
            k = by_round[lo:hi]
            st = s[k]
            d = np.where(
                self._synced[st], (seq[k] - self._expected[st]) % SEQ_MODULUS, 0
            )
            dup = d >= half
            took = ~dup & ~misaligned[k]
            delta[k] = d
            duplicate[k] = dup
            accept[k] = took
            self._expected[st[took]] = (seq[k[took]] + 1) % SEQ_MODULUS
            self._synced[st[took]] = True
        gap = (delta > 0) & ~duplicate
        self.frames_duplicate += np.bincount(s[duplicate], minlength=n)
        self.sequence_gaps += np.bincount(s[gap], minlength=n)
        self.frames_missing += np.bincount(
            s[gap], weights=delta[gap], minlength=n
        ).astype(np.int64)
        self.frames_corrupt += np.bincount(s[~duplicate & misaligned], minlength=n)
        self.frames_ok += np.bincount(s[accept], minlength=n)
        self.payloads_ok += np.bincount(
            s[accept & batch.last[live]], minlength=n
        )
        taken = live[accept]
        values = decode_values(b"".join([batch.payloads[i] for i in taken]), self.fmt)
        counts = np.bincount(
            s[accept], weights=nbytes[accept] // width, minlength=n
        ).astype(np.int64)
        got = self.pool.extend_ragged(counts, values)
        self.samples_in += got
        return int(got.sum())

    def stream_counters(self, stream: int) -> IntegrityCounters:
        """One stream's integrity bookkeeping as scalar counters."""
        return IntegrityCounters(
            frames_ok=int(self.frames_ok[stream]),
            frames_corrupt=int(self.frames_corrupt[stream]),
            frames_duplicate=int(self.frames_duplicate[stream]),
            sequence_gaps=int(self.sequence_gaps[stream]),
            frames_missing=int(self.frames_missing[stream]),
            payloads_ok=int(self.payloads_ok[stream]),
        )

    def tenant_stats(self) -> Dict[int, IntegrityCounters]:
        """Integrity counters aggregated per tenant id.

        Sums each struct-of-arrays counter column over the streams owned
        by each tenant (``spec.tenants``) — the per-subscriber view a
        multi-tenant gateway reports.
        """
        tenants = self.pool.spec.tenants
        size = int(tenants.max()) + 1 if tenants.size else 0
        sums = {
            name: np.bincount(tenants, weights=getattr(self, name),
                              minlength=size).astype(np.int64)
            for name in (
                "frames_ok",
                "frames_corrupt",
                "frames_duplicate",
                "sequence_gaps",
                "frames_missing",
                "payloads_ok",
            )
        }
        return {
            int(t): IntegrityCounters(
                frames_ok=int(sums["frames_ok"][t]),
                frames_corrupt=int(sums["frames_corrupt"][t]),
                frames_duplicate=int(sums["frames_duplicate"][t]),
                sequence_gaps=int(sums["sequence_gaps"][t]),
                frames_missing=int(sums["frames_missing"][t]),
                payloads_ok=int(sums["payloads_ok"][t]),
            )
            for t in np.unique(tenants)
        }
