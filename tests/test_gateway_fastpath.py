"""Bit-identity of the gateway fast paths against their references.

- :meth:`repro.stream.StreamPool.tick` gathers windows as contiguous runs
  of a mirrored ring; it must hand the backend exactly the matrices of the
  old ``% capacity`` index gather (:func:`tests.oracles.stream.
  gather_reference`), and every extend path must keep the mirror equal to
  the slots it copies.
- :func:`repro.dsp.features.crossing_counts` skips the zero-carry
  propagation on rows without a zero or NaN; its counts must equal the
  propagated signs' for every row.
- :class:`repro.stream.MomentsBackend` sums rows without a zero seed; an
  all-``-0.0`` window must still score with the scalar path's sign.
- :meth:`repro.hw.framing.FrameBatch.concat_payloads` must equal joining
  the per-frame payloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.dsp.features import (
    _propagate_signs,
    batch_feature_matrix,
    crossing_counts,
    zero_crossings,
)
from repro.hw.framing import FrameBatch, FramingConfig, decode_frames, encode_frames
from repro.stream import BACKPRESSURE_POLICIES, MomentsBackend, StreamPool, StreamSpec
from tests.oracles.stream import gather_reference

EXTEND_PATHS = ("extend", "extend_block", "extend_ragged")


class RecordingBackend(MomentsBackend):
    """Moments scorer that keeps a copy of every matrix it is handed."""

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "calls", [])

    def score_matrix(self, matrix, levels):
        self.calls.append(np.array(matrix, copy=True))
        return super().score_matrix(matrix, levels)


def _mirror_ok(pool):
    c, m = pool.spec.capacity, int(pool.spec.windows.max()) - 1
    ring = pool._ring
    return ring.shape[1] == c + m and np.array_equal(ring[:, c:], ring[:, :m])


def _chunk(rng, size):
    x = rng.normal(0.0, 3.0, size)
    x[rng.random(size) < 0.05] = np.nan  # rejected at the boundary
    return x


class TestMirroredRingGather:
    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        policy=st.sampled_from(BACKPRESSURE_POLICIES),
        n_streams=st.integers(1, 6),
    )
    def test_tick_matches_index_gather(self, seed, policy, n_streams):
        rng = np.random.default_rng(seed)
        capacity = int(rng.integers(2, 24))
        spec = StreamSpec(
            windows=rng.integers(1, capacity + 1, n_streams),
            hops=rng.integers(1, 2 * capacity + 2, n_streams),  # hop > capacity too
            levels=rng.normal(0.0, 1.0, n_streams),
            capacity=capacity,
        )
        backend = RecordingBackend()
        pool = StreamPool(spec, backend, policy)
        assert _mirror_ok(pool)
        for _ in range(int(rng.integers(1, 12))):
            path = EXTEND_PATHS[int(rng.integers(0, 3))]
            if path == "extend":
                size = int(rng.integers(0, 3 * capacity))  # bursts past the ring
                pool.extend(int(rng.integers(0, n_streams)), _chunk(rng, size))
            elif path == "extend_block":
                k = int(rng.integers(0, 2 * capacity))
                block = _chunk(rng, n_streams * k).reshape(n_streams, k)
                if rng.random() < 0.5:
                    block = np.nan_to_num(block)  # the clean scatter
                pool.extend_block(block)
            else:
                counts = rng.integers(0, 2 * capacity, n_streams)
                pool.extend_ragged(counts, _chunk(rng, int(counts.sum())))
            assert _mirror_ok(pool), path
            if rng.random() < 0.6:
                want = gather_reference(pool)
                backend.calls.clear()
                result = pool.tick()
                assert len(backend.calls) == len(want)
                for got, (rows, matrix) in zip(backend.calls, want):
                    assert np.array_equal(got, matrix)
                    assert np.array_equal(
                        result.end_seq[rows] - spec.windows[result.streams[rows]],
                        result.indices[rows] * spec.hops[result.streams[rows]],
                    )

    def test_wrapping_window_is_contiguous(self):
        # capacity 8, window 5: the second window [4, 9) wraps the ring.
        spec = StreamSpec.homogeneous(1, window=5, hop=4, capacity=8)
        backend = RecordingBackend()
        pool = StreamPool(spec, backend)
        pool.extend(0, np.arange(8.0))
        pool.tick()
        pool.extend(0, [8.0])
        pool.tick()
        assert [m.tolist() for m in backend.calls] == [
            [[0.0, 1.0, 2.0, 3.0, 4.0]], [[4.0, 5.0, 6.0, 7.0, 8.0]]
        ]
        assert pool._ring[0].tolist() == [8.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0,
                                          8.0, 1.0, 2.0, 3.0]


CROSSING_VALUES = st.sampled_from(
    [0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 1e-300, -1e-300, np.inf, -np.inf, np.nan]
)


def _propagated_counts(x):
    signs = _propagate_signs(np.sign(x))
    return np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1)


class TestCrossingCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.integers(1, 12)),
            elements=CROSSING_VALUES,
        ),
        st.integers(0, 12),
    )
    def test_matches_propagated_signs(self, x, lead):
        x = x.copy()
        x[0, : min(lead, x.shape[1])] = 0.0  # a leading zero run
        got = crossing_counts(x)
        assert got.dtype.kind == "i"
        assert np.array_equal(got, _propagated_counts(x))

    def test_edge_rows(self):
        x = np.array(
            [
                [0.0, 0.0, 0.0, 0.0],  # all zero: no crossing
                [-0.0, -0.0, -0.0, -0.0],
                [0.0, 0.0, -1.0, 1.0],  # leading run counts as positive
                [1.0, 0.0, 0.0, -1.0],  # a zero carries the previous sign
                [-1.0, 0.0, -1.0, 0.0],
                [1.0, np.nan, 1.0, -1.0],  # NaN differs from both neighbours
                [1.0, -1.0, 1.0, -1.0],
            ]
        )
        assert crossing_counts(x).tolist() == [0, 0, 2, 1, 0, 3, 3]
        assert np.array_equal(crossing_counts(x), _propagated_counts(x))

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 6), st.integers(2, 40)),
            elements=st.sampled_from([0.0, 1.0, 2.0, -1.0, 0.25, 3.0]),
        )
    )
    def test_czero_column_bitwise(self, segments):
        # Small grids put samples exactly on the mean, the zero-carry case.
        czero = batch_feature_matrix(segments, ["czero"])[:, 0]
        centered = segments - segments.mean(axis=1)[:, None]
        assert np.array_equal(czero, _propagated_counts(centered).astype(np.float64))
        assert czero.tolist() == [zero_crossings(row) for row in segments]


class TestMomentsSignOfZero:
    # Every weight but the mean's is -0.0, so the score is the mean plus
    # -0.0 terms: it keeps the sign of the mean's zero.
    BACKEND = MomentsBackend(w_mean=1.0, w_std=-0.0, w_range=-0.0, w_cross=-0.0,
                             bias=-0.0)

    def test_all_negative_zero_window(self):
        matrix = np.array([[-0.0] * 6, [-0.0, 0.0, -0.0, -0.0, -0.0, -0.0],
                           [-0.0, -0.0, 1.0, -1.0, -0.0, -0.0]])
        levels = np.zeros(3)
        scores, decisions = self.BACKEND.score_matrix(matrix, levels)
        for row, score, decision in zip(matrix, scores, decisions):
            want, want_decision = self.BACKEND.score_window(row, 0.0)
            assert score == want and decision == want_decision
            assert np.signbit(score) == np.signbit(want)
        assert not np.signbit(scores[0])

    @settings(max_examples=60, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(1, 5), st.integers(1, 20)),
            elements=st.sampled_from([-0.0, 0.0, -0.0, 1.5, -2.0, 1e-3]),
        )
    )
    def test_batch_equals_scalar_bitwise(self, matrix):
        levels = np.zeros(len(matrix))
        scores, decisions = self.BACKEND.score_matrix(matrix, levels)
        for row, score, decision in zip(matrix, scores, decisions):
            want, want_decision = self.BACKEND.score_window(row, 0.0)
            assert np.array_equal([score], [want]) and decision == want_decision
            assert np.signbit(score) == np.signbit(want)


class TestPayloadGather:
    @settings(max_examples=80, deadline=None)
    @given(
        payloads=st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_concat_matches_join(self, payloads, seed):
        rng = np.random.default_rng(seed)
        config = FramingConfig()
        matrix, lengths = encode_frames(payloads, np.arange(len(payloads)), config)
        for row in np.nonzero(rng.random(len(payloads)) < 0.3)[0]:
            if rng.random() < 0.5:
                matrix[row, int(rng.integers(0, lengths[row]))] ^= 0x10  # bit flip
            else:
                lengths[row] = int(rng.integers(0, lengths[row]))  # truncated
        batch = decode_frames(matrix, config, lengths)
        ok_rows = np.flatnonzero(batch.ok)
        assert batch.payload_lengths.tolist() == [
            len(batch.payloads[i]) if batch.ok[i] else 0 for i in range(len(batch))
        ]
        rows = rng.permutation(np.repeat(ok_rows, rng.integers(0, 3, ok_rows.size)))
        assert batch.concat_payloads(rows) == b"".join(batch.payloads[i] for i in rows)
        # Rejected frames contribute nothing.
        everything = rng.permutation(len(batch))
        assert batch.concat_payloads(everything) == b"".join(
            batch.payloads[i] for i in everything if batch.ok[i]
        )
        for i in ok_rows:
            assert batch.payloads[i] == payloads[i]

    def test_batch_does_not_alias_the_frame_matrix(self):
        config = FramingConfig()
        matrix, lengths = encode_frames([b"abcd"], [0], config)
        batch = decode_frames(matrix, config, lengths)
        matrix[:] = 0
        assert batch.payloads[0] == b"abcd"

    def test_list_payloads_are_packed(self):
        batch = FrameBatch(
            ok=np.array([True, False, True]),
            seq=np.arange(3),
            last=np.ones(3, dtype=bool),
            crc_protected=np.ones(3, dtype=bool),
            payloads=[b"ab", None, b"xyz"],
            errors=[None, "bad", None],
        )
        assert list(batch.payloads) == [b"ab", None, b"xyz"]
        assert batch.payload_lengths.tolist() == [2, 0, 3]
        assert batch.concat_payloads([2, 1, 0]) == b"xyzab"
        assert batch.frame(2).payload == b"xyz"
        with pytest.raises(IndexError):
            batch.payloads[3]
