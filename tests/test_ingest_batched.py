"""Bit-identity of the batched frame ingestor against its per-frame oracle.

:meth:`repro.stream.FrameIngestor.push_frames` runs the sequence state
machine vectorised across streams and writes every accepted sample with one
:meth:`repro.stream.StreamPool.extend_ragged`.  The oracle
(:func:`tests.oracles.ingest.push_frames_reference`) is the original
per-frame loop.  Hypothesis drives impaired multi-batch traffic — drops,
duplicates, stale replays, reorders, bit flips, payloads that are not whole
words, 16-bit sequence wraps, bursts past the ring, hop > capacity — under
both backpressure policies, and every counter column, return value,
per-tenant rollup and pool array must match exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp.fixedpoint import Q16_16, FixedPointFormat
from repro.errors import ConfigurationError
from repro.hw.framing import SEQ_MODULUS, FramingConfig, encode_frames, encode_values
from repro.stream import (
    BACKPRESSURE_POLICIES,
    FrameIngestor,
    MomentsBackend,
    StreamPool,
    StreamSpec,
)
from tests.oracles.ingest import push_frames_reference

#: Byte-aligned payload formats: the int64 fast path (4-byte words) and an
#: odd 3-byte width.
FORMATS = (Q16_16, FixedPointFormat(12, 12))

COUNTER_COLUMNS = (
    "frames_ok",
    "frames_corrupt",
    "frames_duplicate",
    "sequence_gaps",
    "frames_missing",
    "payloads_ok",
    "samples_in",
)
POOL_COLUMNS = (
    "_ring",
    "written",
    "emitted",
    "accepted_samples",
    "rejected_samples",
    "dropped_samples",
    "skipped_windows",
)


def _spec(rng, n_streams):
    capacity = int(rng.integers(6, 20))
    return StreamSpec(
        windows=rng.integers(2, capacity + 1, n_streams),
        hops=rng.integers(1, 2 * capacity, n_streams),  # hop > capacity too
        tenants=rng.integers(0, 3, n_streams),
        capacity=capacity,
    )


def _stream_frames(rng, next_seq, fmt):
    """One stream's frames for one batch as ``(seq, payload, last)``
    entries, impaired in arrival order."""
    n_frames = int(rng.integers(0, 4))
    if rng.random() < 0.2:
        n_frames += int(rng.integers(4, 10))  # a burst past the ring depth
    entries = []
    for _ in range(n_frames):
        seq = next_seq
        next_seq = (next_seq + 1) % SEQ_MODULUS
        if rng.random() < 0.1:
            continue  # dropped in flight
        payload = encode_values(rng.normal(0.0, 50.0, int(rng.integers(0, 6))), fmt)
        if rng.random() < 0.08:
            payload += b"\x01"  # not whole words
        last = bool(rng.random() < 0.7)
        entries.append((seq, payload, last))
        if rng.random() < 0.08:
            entries.append((seq, payload, last))  # duplicate
        if rng.random() < 0.05:
            stale = (seq - int(rng.integers(1, 5))) % SEQ_MODULUS
            entries.append((stale, payload, last))  # stale replay
    for j in range(len(entries) - 1):
        if rng.random() < 0.1:  # adjacent reorder
            entries[j], entries[j + 1] = entries[j + 1], entries[j]
    return entries, next_seq


def _batch(rng, next_seqs, fmt, config):
    """One interleaved, impaired frame batch across all streams."""
    queues = []
    for s in range(len(next_seqs)):
        entries, next_seqs[s] = _stream_frames(rng, next_seqs[s], fmt)
        queues.append(entries)
    # Random interleaving across streams, arrival order kept per stream.
    labels = np.concatenate(
        [np.full(len(q), s, dtype=np.int64) for s, q in enumerate(queues)]
    )
    rng.shuffle(labels)
    heads = [0] * len(queues)
    sids, seqs, payloads, lasts = [], [], [], []
    for s in labels.tolist():
        seq, payload, last = queues[s][heads[s]]
        heads[s] += 1
        sids.append(s)
        seqs.append(seq)
        payloads.append(payload)
        lasts.append(last)
    if not sids:
        return np.zeros(0, dtype=np.int64), np.zeros((0, 8), np.uint8), np.zeros(0, np.int64)
    matrix, lengths = encode_frames(payloads, seqs, config, last=lasts)
    for row in np.nonzero(rng.random(len(sids)) < 0.06)[0]:
        byte = int(rng.integers(0, lengths[row]))
        matrix[row, byte] ^= np.uint8(1 << int(rng.integers(0, 8)))  # bit flip
    return np.asarray(sids, dtype=np.int64), matrix, lengths


def _assert_same(batched, oracle):
    for name in COUNTER_COLUMNS + ("_expected", "_synced"):
        assert np.array_equal(getattr(batched, name), getattr(oracle, name)), name
    assert batched.tenant_stats() == oracle.tenant_stats()
    for name in POOL_COLUMNS:
        assert np.array_equal(
            getattr(batched.pool, name), getattr(oracle.pool, name)
        ), name


class TestBatchedIngestMatchesOracle:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(BACKPRESSURE_POLICIES),
        fmt_index=st.integers(0, len(FORMATS) - 1),
        n_streams=st.integers(1, 6),
    )
    def test_counters_pool_and_return_value(self, seed, policy, fmt_index, n_streams):
        rng = np.random.default_rng(seed)
        fmt = FORMATS[fmt_index]
        config = FramingConfig()
        spec = _spec(rng, n_streams)
        batched = FrameIngestor(StreamPool(spec, MomentsBackend(), policy), config, fmt)
        oracle = FrameIngestor(StreamPool(spec, MomentsBackend(), policy), config, fmt)
        # Some streams start just below the 65535 -> 0 wrap.
        next_seqs = [
            int(SEQ_MODULUS - rng.integers(1, 4)) if rng.random() < 0.4
            else int(rng.integers(0, SEQ_MODULUS))
            for _ in range(n_streams)
        ]
        for _ in range(int(rng.integers(1, 5))):
            sids, matrix, lengths = _batch(rng, next_seqs, fmt, config)
            got = batched.push_frames(sids, matrix.copy(), lengths)
            want = push_frames_reference(oracle, sids, matrix.copy(), lengths)
            assert got == want
            _assert_same(batched, oracle)
            if rng.random() < 0.5:
                a, b = batched.pool.tick(), oracle.pool.tick()
                assert np.array_equal(a.streams, b.streams)
                assert np.array_equal(a.scores, b.scores)

    def test_wrap_is_in_order(self):
        """65534, 65535, 0, 1 is one in-order run: no gaps, no duplicates."""
        spec = StreamSpec.homogeneous(1, window=4, hop=2, capacity=16)
        ingestor = FrameIngestor(StreamPool(spec, MomentsBackend()))
        payloads = [encode_values([float(k)]) for k in range(4)]
        matrix, lengths = encode_frames(payloads, [65534, 65535, 0, 1], FramingConfig())
        assert ingestor.push_frames([0] * 4, matrix, lengths) == 4
        counters = ingestor.stream_counters(0)
        assert (counters.frames_ok, counters.sequence_gaps, counters.frames_duplicate) == (
            4, 0, 0
        )

    def test_non_byte_aligned_format_raises(self):
        spec = StreamSpec.homogeneous(1, window=4, hop=2, capacity=16)
        ingestor = FrameIngestor(
            StreamPool(spec, MomentsBackend()), fmt=FixedPointFormat(5, 6)
        )
        matrix, lengths = encode_frames([b"\x00\x01"], [0], FramingConfig())
        with pytest.raises(ConfigurationError, match="byte-aligned"):
            ingestor.push_frames([0], matrix, lengths)


class TestExtendRagged:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(BACKPRESSURE_POLICIES),
        n_streams=st.integers(1, 5),
    )
    def test_matches_per_stream_extend_calls(self, seed, policy, n_streams):
        """One ragged write == each stream's chunk fed through extend in
        several consecutive calls, non-finite samples included."""
        rng = np.random.default_rng(seed)
        spec = _spec(rng, n_streams)
        fast = StreamPool(spec, MomentsBackend(), policy)
        ref = StreamPool(spec, MomentsBackend(), policy)
        for _ in range(int(rng.integers(1, 5))):
            counts = rng.integers(0, 3 * spec.capacity, n_streams)
            values = rng.normal(0.0, 1.0, int(counts.sum()))
            values[rng.random(values.size) < 0.1] = np.nan
            values[rng.random(values.size) < 0.05] = np.inf
            got = fast.extend_ragged(counts, values)
            chunks = np.split(values, np.cumsum(counts)[:-1])
            want = np.zeros(n_streams, dtype=np.int64)
            for s, chunk in enumerate(chunks):
                for part in np.array_split(chunk, int(rng.integers(1, 4))):
                    want[s] += ref.extend(s, part)
            assert np.array_equal(got, want)
            for name in POOL_COLUMNS:
                assert np.array_equal(getattr(fast, name), getattr(ref, name)), name
            if rng.random() < 0.5:
                fast.tick()
                ref.tick()

    def test_validation(self):
        pool = StreamPool(StreamSpec.homogeneous(2, window=4, hop=2), MomentsBackend())
        with pytest.raises(ConfigurationError, match="counts"):
            pool.extend_ragged([1], [0.0])
        with pytest.raises(ConfigurationError, match="counts"):
            pool.extend_ragged([-1, 2], [0.0])
        with pytest.raises(ConfigurationError, match="values given"):
            pool.extend_ragged([1, 1], [0.0])
