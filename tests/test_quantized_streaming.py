"""Tests for fixed-point-faithful execution and streaming features."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.quantized import (
    classify_quantized,
    execute_quantized,
    quantization_agreement,
)
from repro.dsp.features import (
    crossing_count,
    feature_vector,
    kurtosis,
    maximum,
    mean,
    minimum,
    skewness,
    standard_deviation,
    variance,
)
from repro.dsp.fixedpoint import FixedPointFormat, Q16_16
from repro.dsp.streaming import CrossingCounter, StreamingMoments
from repro.errors import ConfigurationError

SEGMENTS = arrays(
    np.float64,
    st.integers(4, 100),
    elements=st.floats(min_value=-30, max_value=30, allow_nan=False, width=64),
)


class TestQuantizedExecution:
    def test_values_lie_on_grid(self, tiny_topology, tiny_dataset):
        values = execute_quantized(tiny_topology, tiny_dataset.segments[0])
        for arr in values.values():
            raw = arr * Q16_16.scale
            assert np.allclose(raw, np.round(raw), atol=1e-6)

    def test_decisions_survive_q16_16(self, tiny_topology, tiny_dataset):
        agreement = quantization_agreement(
            tiny_topology, tiny_dataset.segments[:30]
        )
        assert agreement >= 0.9

    def test_coarse_format_degrades(self, tiny_topology, tiny_dataset):
        # A brutal 4-fraction-bit grid should agree no better than Q16.16.
        coarse = FixedPointFormat(integer_bits=16, fraction_bits=4)
        fine = quantization_agreement(tiny_topology, tiny_dataset.segments[:20])
        rough = quantization_agreement(
            tiny_topology, tiny_dataset.segments[:20], fmt=coarse
        )
        assert rough <= fine + 1e-9

    def test_classify_quantized_binary(self, tiny_topology, tiny_dataset):
        assert classify_quantized(tiny_topology, tiny_dataset.segments[0]) in (0, 1)

    def test_invalid_segment_rejected(self, tiny_topology):
        with pytest.raises(ConfigurationError):
            execute_quantized(tiny_topology, np.zeros(5))
        with pytest.raises(ConfigurationError):
            quantization_agreement(tiny_topology, np.zeros(7))


class TestStreamingMoments:
    @given(SEGMENTS)
    @settings(max_examples=80)
    # Near-constant rows with an offset: raw third/fourth power sums cancel
    # here (kurtosis 3.2514 vs 3.25; skew -5.4803 vs -5.4801, kurtosis
    # 36.19 vs 31.03) where sums about a pivot do not.
    @example(np.array([13.65625] + [13.625] * 4))
    @example(np.array([13.6796875] + [13.6875] * 32))
    def test_matches_batch_reference(self, seg):
        acc = StreamingMoments()
        acc.extend(seg)
        out = acc.finalize()
        assert out["max"] == maximum(seg)
        assert out["min"] == minimum(seg)
        assert out["mean"] == pytest.approx(mean(seg), abs=1e-9)
        assert out["var"] == pytest.approx(variance(seg), abs=1e-6)
        assert out["std"] == pytest.approx(standard_deviation(seg), abs=1e-6)
        assert out["skew"] == pytest.approx(skewness(seg), abs=1e-4)
        assert out["kurt"] == pytest.approx(kurtosis(seg), abs=1e-4)

    @given(SEGMENTS, st.integers(1, 99))
    @settings(max_examples=60)
    def test_merge_equals_sequential(self, seg, cut_raw):
        cut = cut_raw % len(seg) or 1
        left = StreamingMoments()
        left.extend(seg[:cut])
        right = StreamingMoments()
        right.extend(seg[cut:]) if cut < len(seg) else None
        if right.count == 0:
            return
        merged = left.merge(right).finalize()
        whole = StreamingMoments()
        whole.extend(seg)
        expected = whole.finalize()
        for key, value in expected.items():
            # Partial sums round differently than one sequential sum; the
            # normalised ratios (skew/kurt) amplify that, so compare with a
            # relative tolerance as well.
            assert merged[key] == pytest.approx(value, rel=1e-3, abs=1e-6)

    def test_incremental_count(self):
        acc = StreamingMoments()
        assert acc.count == 0
        acc.update(1.0)
        acc.update(2.0)
        assert acc.count == 2

    def test_empty_finalize_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingMoments().finalize()

    def test_nan_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamingMoments().update(float("nan"))

    def test_inf_rejected(self):
        # An inf saturates the power sums and extrema as irrecoverably as
        # a NaN poisons them; both are rejected at the update boundary.
        with pytest.raises(ConfigurationError):
            StreamingMoments().update(float("inf"))
        with pytest.raises(ConfigurationError):
            StreamingMoments().update(float("-inf"))

    def test_merge_with_empty_side_keeps_finite_extrema(self):
        filled = StreamingMoments()
        filled.extend([1.0, 5.0, -2.0])
        for merged in (
            filled.merge(StreamingMoments()),
            StreamingMoments().merge(filled),
        ):
            out = merged.finalize()
            assert out["max"] == 5.0
            assert out["min"] == -2.0
            assert math.isfinite(out["max"]) and math.isfinite(out["min"])

    def test_merge_of_two_empties_still_rejects_finalize(self):
        merged = StreamingMoments().merge(StreamingMoments())
        assert merged.count == 0
        with pytest.raises(ConfigurationError):
            merged.finalize()

    def test_constant_stream_degenerate_moments(self):
        acc = StreamingMoments()
        acc.extend([3.5] * 20)
        out = acc.finalize()
        assert out["var"] == pytest.approx(0.0, abs=1e-9)
        assert out["skew"] == 0.0 and out["kurt"] == 0.0

    @given(SEGMENTS, st.integers(0, 99))
    @settings(max_examples=60)
    def test_ndarray_extend_bit_identical_to_loop(self, seg, cut_raw):
        """The vectorized extend path must match per-sample updates
        bit-for-bit, including on a pre-warmed accumulator."""
        cut = cut_raw % (len(seg) + 1)
        loop = StreamingMoments()
        for x in seg:
            loop.update(x)
        fast = StreamingMoments()
        fast.extend(seg[:cut])
        fast.extend(seg[cut:])
        assert fast.count == loop.count
        assert fast.finalize() == loop.finalize()

    def test_int_array_and_empty_extend(self):
        fast = StreamingMoments()
        fast.extend(np.array([], dtype=np.float64))
        assert fast.count == 0
        fast.extend(np.arange(-3, 4))  # int dtype takes the fast path too
        loop = StreamingMoments()
        for x in range(-3, 4):
            loop.update(float(x))
        assert fast.finalize() == loop.finalize()

    def test_non_finite_array_raises_with_loop_state(self):
        """A non-finite burst falls back to the loop: partial state up to
        the poisoned sample is kept and the same error is raised."""
        burst = np.array([1.0, 2.0, float("nan"), 4.0])
        fast = StreamingMoments()
        with pytest.raises(ConfigurationError):
            fast.extend(burst)
        loop = StreamingMoments()
        with pytest.raises(ConfigurationError):
            for x in burst:
                loop.update(x)
        assert fast.count == loop.count == 2
        assert fast.finalize() == loop.finalize()


class TestCrossingCounter:
    @given(SEGMENTS, st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=60)
    def test_matches_batch_for_fixed_level(self, seg, level):
        counter = CrossingCounter(level)
        counter.extend(seg)
        assert counter.crossings == crossing_count(seg, level)

    def test_incremental_updates(self):
        counter = CrossingCounter(0.0)
        for x in [1.0, -1.0, 1.0]:
            counter.update(x)
        assert counter.crossings == 2

    @given(SEGMENTS, st.integers(0, 99))
    @settings(max_examples=60)
    def test_ndarray_extend_matches_loop(self, seg, cut_raw):
        cut = cut_raw % (len(seg) + 1)
        loop = CrossingCounter(0.5)
        for x in seg:
            loop.update(x)
        fast = CrossingCounter(0.5)
        fast.extend(seg[:cut])
        fast.extend(seg[cut:])
        assert fast.crossings == loop.crossings
        assert fast._last_sign == loop._last_sign

    def test_on_level_ties_inherit_sign(self):
        """Samples exactly on the level inherit the previous sign — in the
        vectorized path via forward-fill, including leading ties at stream
        start and a tie carried across extend() calls."""
        seq = np.array([0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 1.0])
        loop = CrossingCounter(0.0)
        for x in seq:
            loop.update(x)
        fast = CrossingCounter(0.0)
        fast.extend(seq[:4])
        fast.extend(seq[4:])
        assert fast.crossings == loop.crossings == 2
        assert fast._last_sign == loop._last_sign


class TestExtendEdgeCases:
    """Pins for the audited extend() edge cases: empty chunks,
    single-sample chunks, and all-NaN chunks (the boundary shapes the
    multi-stream ingestion engine feeds through these accumulators)."""

    def test_moments_empty_ndarray_extend_is_noop(self):
        acc = StreamingMoments()
        acc.extend(np.asarray([1.0, 2.0]))
        before = (acc.count, acc._s1, acc._s2, acc._pivot, acc._d1, acc._d2,
                  acc._d3, acc._d4, acc._max, acc._min)
        acc.extend(np.empty(0))
        acc.extend([])
        assert (acc.count, acc._s1, acc._s2, acc._pivot, acc._d1, acc._d2,
                acc._d3, acc._d4, acc._max, acc._min) == before

    def test_moments_empty_extend_on_fresh_accumulator(self):
        acc = StreamingMoments()
        acc.extend(np.empty(0))
        assert acc.count == 0
        with pytest.raises(ConfigurationError):
            acc.finalize()  # still no samples: extrema sentinels protected

    def test_moments_single_sample_extend_matches_update(self):
        fast = StreamingMoments()
        fast.extend(np.asarray([-2.5]))
        loop = StreamingMoments()
        loop.update(-2.5)
        assert fast.finalize() == loop.finalize()

    def test_moments_all_nan_chunk_raises_and_preserves_state(self):
        acc = StreamingMoments()
        acc.extend(np.asarray([1.0, 2.0]))
        before = acc.finalize()
        with pytest.raises(ConfigurationError):
            acc.extend(np.asarray([math.nan, math.nan]))
        # The burst fell back to the loop and raised on its first sample,
        # so no partial NaN state leaked into the sums.
        assert acc.count == 2
        assert acc.finalize() == before

    def test_moments_mixed_nan_chunk_keeps_prefix_like_the_loop(self):
        fast = StreamingMoments()
        with pytest.raises(ConfigurationError):
            fast.extend(np.asarray([3.0, math.nan, 5.0]))
        loop = StreamingMoments()
        loop.update(3.0)
        # The loop consumed the finite prefix before raising; the
        # vectorized path must land in the identical partial state.
        assert fast.count == loop.count == 1
        assert fast.finalize() == loop.finalize()

    def test_crossing_empty_extend_is_noop(self):
        counter = CrossingCounter(0.0)
        counter.extend(np.asarray([1.0, -1.0]))
        counter.extend(np.empty(0))
        counter.extend([])
        assert counter.crossings == 1
        assert counter._n == 2

    def test_crossing_single_sample_extend_matches_update(self):
        for first in (-1.0, 0.0, 1.0):
            fast = CrossingCounter(0.0)
            fast.extend(np.asarray([first]))
            loop = CrossingCounter(0.0)
            loop.update(first)
            assert fast.crossings == loop.crossings == 0
            assert fast._last_sign == loop._last_sign
            assert fast._n == loop._n == 1

    def test_crossing_all_nan_chunk_matches_loop(self):
        """NaN compares False both ways, so an all-NaN chunk inherits the
        previous sign sample-by-sample: zero crossings, but the sample
        count still advances — identically in both paths."""
        for warm in ([], [-1.0]):
            fast = CrossingCounter(0.0)
            fast.extend(np.asarray(warm, dtype=np.float64))
            fast.extend(np.asarray([math.nan, math.nan, math.nan]))
            loop = CrossingCounter(0.0)
            for x in warm + [math.nan] * 3:
                loop.update(x)
            assert fast.crossings == loop.crossings == 0
            assert fast._last_sign == loop._last_sign
            assert fast._n == loop._n == len(warm) + 3

    def test_crossing_nan_bridge_hides_a_crossing_in_both_paths(self):
        seq = np.asarray([1.0, math.nan, -1.0, math.nan, -2.0])
        loop = CrossingCounter(0.0)
        for x in seq:
            loop.update(x)
        fast = CrossingCounter(0.0)
        fast.extend(seq)
        assert fast.crossings == loop.crossings == 1
        assert fast._last_sign == loop._last_sign
