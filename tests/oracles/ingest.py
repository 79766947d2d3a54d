"""Per-frame reference for :meth:`repro.stream.FrameIngestor.push_frames`.

The loop below is the original ingest path: one sequence check, one
:func:`~repro.hw.framing.decode_values` call and one
:meth:`~repro.stream.StreamPool.extend` per frame, in batch order.  The
batched ingestor must leave every counter column, the pool and the return
value exactly as this loop does.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError, IntegrityError
from repro.hw.framing import SEQ_MODULUS, decode_frames, decode_values
from repro.stream import FrameIngestor


def push_frames_reference(
    ingestor: FrameIngestor,
    stream_ids: Sequence[int],
    frames: Union[np.ndarray, Sequence[bytes]],
    lengths: Optional[np.ndarray] = None,
) -> int:
    """Ingest a batch into ``ingestor`` one frame at a time."""
    pool = ingestor.pool
    sids = np.asarray(stream_ids, dtype=np.int64)
    batch = decode_frames(frames, ingestor.config, lengths)
    if sids.shape != (len(batch),):
        raise ConfigurationError(
            f"stream_ids must be a length-{len(batch)} vector, "
            f"got shape {sids.shape}"
        )
    if len(batch) and not (0 <= int(sids.min()) and int(sids.max()) < pool.n_streams):
        raise ConfigurationError(f"stream ids must lie in [0, {pool.n_streams})")
    accepted = 0
    half = SEQ_MODULUS // 2
    for i in range(len(batch)):
        s = int(sids[i])
        if not batch.ok[i]:
            ingestor.frames_corrupt[s] += 1
            continue
        seq = int(batch.seq[i])
        if ingestor._synced[s]:
            delta = (seq - int(ingestor._expected[s])) % SEQ_MODULUS
            if delta == 0:
                pass
            elif delta < half:
                ingestor.sequence_gaps[s] += 1
                ingestor.frames_missing[s] += delta
            else:
                ingestor.frames_duplicate[s] += 1
                continue
        try:
            values = decode_values(batch.payloads[i], ingestor.fmt)
        except IntegrityError:
            # Structurally valid frame, but the payload is not whole
            # fixed-point words — corrupt at the payload layer.
            ingestor.frames_corrupt[s] += 1
            continue
        ingestor._expected[s] = (seq + 1) % SEQ_MODULUS
        ingestor._synced[s] = True
        ingestor.frames_ok[s] += 1
        if bool(batch.last[i]):
            ingestor.payloads_ok[s] += 1
        got = pool.extend(s, values)
        ingestor.samples_in[s] += got
        accepted += got
    return accepted
