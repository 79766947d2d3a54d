"""Single-pass (streaming) statistical feature extraction.

The in-sensor feature cells are single-pass datapaths: they consume the
segment sample by sample, maintaining power sums plus running max/min, and
produce the statistical features at segment end — exactly the hardware
structure behind the op counts in
:func:`repro.dsp.features.operation_counts`.  Mean and variance come from
the raw sums ``S1 = sum x`` and ``S2 = sum x^2``; skew and kurtosis from
the sums of ``d^k = (x - p)^k``, ``k = 1..4``, about a pivot ``p`` latched
from the first sample.  Raw third and fourth power sums cancel
catastrophically on near-constant segments with an offset; about a pivot
inside the data the cancellation depends on the segment length, not on
the offset.  This module provides that accumulator as a software
object, so streaming deployments (see
``examples/ecg_monitor.py``) can compute features without buffering a
whole segment, and so the tests can verify the single-pass formulation is
algebraically identical to the batch reference.

The zero-crossing feature (Czero) is deliberately absent: it counts
crossings of the *segment mean*, which requires a second pass over a
buffered segment — which is precisely why the hardware Czero cell carries
a buffer (Fig. 3) and the highest comparator count of the feature set.
"""

from __future__ import annotations

import copy
import math
from typing import Dict, Iterable

import numpy as np

from repro.errors import ConfigurationError


def _vectorizable(samples: Iterable[float]) -> bool:
    """Whether ``samples`` qualifies for the ndarray extend fast paths."""
    return (
        isinstance(samples, np.ndarray)
        and samples.ndim == 1
        and samples.dtype.kind in "fiu"
    )

#: Features the single-pass accumulator produces, in canonical order.
STREAMING_FEATURES = ("max", "min", "mean", "var", "std", "skew", "kurt")


class StreamingMoments:
    """Single-pass accumulator of power sums and extrema.

    >>> acc = StreamingMoments()
    >>> acc.extend([1.0, 2.0, 3.0])
    >>> acc.finalize()["mean"]
    2.0
    """

    def __init__(self) -> None:
        self._n = 0
        self._s1 = 0.0
        self._s2 = 0.0
        # Power sums of d = x - pivot; the pivot is the first sample.
        self._pivot = 0.0
        self._d1 = 0.0
        self._d2 = 0.0
        self._d3 = 0.0
        self._d4 = 0.0
        self._max = -math.inf
        self._min = math.inf

    @property
    def count(self) -> int:
        """Samples consumed so far."""
        return self._n

    def update(self, sample: float) -> None:
        """Consume one sample (one clock of the hardware datapath).

        Rejects *any* non-finite sample: a NaN poisons every raw sum, and
        a single ``inf`` saturates max/min and the power sums just as
        irrecoverably — a real ADC cannot produce either.
        """
        x = float(sample)
        if not math.isfinite(x):
            raise ConfigurationError(
                f"cannot accumulate non-finite sample {x!r}"
            )
        if self._n == 0:
            self._pivot = x
        self._n += 1
        self._s1 += x
        self._s2 += x * x
        d = x - self._pivot
        d2 = d * d
        self._d1 += d
        self._d2 += d2
        self._d3 += d2 * d
        self._d4 += d2 * d2
        if x > self._max:
            self._max = x
        if x < self._min:
            self._min = x

    def extend(self, samples: Iterable[float]) -> None:
        """Consume a burst of samples.

        A one-dimensional numeric ndarray takes a vectorized merge path
        whose result matches the per-sample loop bit-for-bit: ``cumsum``
        reproduces the loop's sequential accumulation order exactly, and
        the elementwise powers are the same products the loop forms.  Any
        other input — and any burst containing a non-finite sample, which
        must leave the partial state and raise exactly where the loop
        would — falls back to per-sample updates.
        """
        if _vectorizable(samples):
            x = samples.astype(np.float64, copy=False)
            if x.size == 0:
                return
            if np.isfinite(x).all():
                if self._n == 0:
                    self._pivot = float(x[0])
                d = x - self._pivot
                d2 = d * d
                for name, terms in (("_s1", x), ("_s2", x * x), ("_d1", d),
                                    ("_d2", d2), ("_d3", d2 * d),
                                    ("_d4", d2 * d2)):
                    seeded = np.concatenate(([getattr(self, name)], terms))
                    setattr(self, name, float(np.cumsum(seeded)[-1]))
                self._n += x.size
                top = float(x.max())
                bot = float(x.min())
                if top > self._max:
                    self._max = top
                if bot < self._min:
                    self._min = bot
                return
        for sample in samples:
            self.update(sample)

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Combine two accumulators (parallel sub-segment datapaths).

        An empty side contributes nothing: its ``±inf`` extrema sentinels
        are never allowed to leak into the merged max/min.
        """
        if self._n == 0 or other._n == 0:
            return copy.copy(other if self._n == 0 else self)
        out = StreamingMoments()
        out._n = self._n + other._n
        out._s1 = self._s1 + other._s1
        out._s2 = self._s2 + other._s2
        out._max = max(self._max, other._max)
        out._min = min(self._min, other._min)
        out._pivot = self._pivot
        # Re-centre the other side's sums on this pivot: its samples sit
        # at d + t about it, t = other pivot - this pivot (binomial sums).
        t, m = other._pivot - self._pivot, other._n
        d1, d2, d3, d4 = other._d1, other._d2, other._d3, other._d4
        out._d1 = self._d1 + (d1 + m * t)
        out._d2 = self._d2 + (d2 + 2 * t * d1 + m * t**2)
        out._d3 = self._d3 + (d3 + 3 * t * d2 + 3 * t**2 * d1 + m * t**3)
        out._d4 = self._d4 + (
            d4 + 4 * t * d3 + 6 * t**2 * d2 + 4 * t**3 * d1 + m * t**4
        )
        return out

    def finalize(self) -> Dict[str, float]:
        """Compute the features from the accumulated sums.

        Uses the population-moment conventions of
        :mod:`repro.dsp.features`: ``var = E[x^2] - E[x]^2``,
        ``skew = m3 / m2^1.5``, ``kurt = m4 / m2^2``, with the central
        moments ``m2..m4`` expanded from the pivot sums.
        """
        if self._n == 0:
            # Refuse rather than leak the ±inf extrema sentinels (and a
            # division by zero) into downstream features.
            raise ConfigurationError("finalize() before any samples")
        n = self._n
        mean = self._s1 / n
        e2 = self._s2 / n
        var = e2 - mean * mean
        # Central moments from the pivot moments (binomial expansion).
        u = self._d1 / n
        q2, q3, q4 = self._d2 / n, self._d3 / n, self._d4 / n
        m2 = q2 - u * u
        m3 = q3 - 3 * u * q2 + 2 * u**3
        m4 = q4 - 4 * u * q3 + 6 * u**2 * q2 - 3 * u**4
        # Degeneracy guard: the raw-sum formulation (what the hardware
        # datapath computes) cancels catastrophically on (near-)constant
        # inputs, leaving O(n * eps * E[x^2]) garbage in `var`.  Treat any
        # variance below that noise floor as zero, scale-aware.
        noise_floor = max(1e-12, 1e-12 * n * abs(e2))
        if var <= noise_floor:
            var = 0.0
            skew = 0.0
            kurt = 0.0
        else:
            skew = m3 / m2**1.5
            kurt = m4 / m2**2
        return {
            "max": self._max,
            "min": self._min,
            "mean": mean,
            "var": var,
            "std": math.sqrt(max(var, 0.0)),
            "skew": skew,
            "kurt": kurt,
        }


class CrossingCounter:
    """Streaming crossing counter about a *fixed* level.

    Matches :func:`repro.dsp.features.crossing_count` for a known level
    (e.g. a calibrated baseline); the mean-referenced Czero of the generic
    feature set needs the buffered two-pass cell instead.
    """

    def __init__(self, level: float = 0.0) -> None:
        self.level = float(level)
        self._last_sign = 0
        self._crossings = 0
        self._n = 0

    @property
    def crossings(self) -> int:
        """Crossings counted so far."""
        return self._crossings

    def update(self, sample: float) -> None:
        """Consume one sample."""
        x = float(sample) - self.level
        sign = 1 if x > 0 else (-1 if x < 0 else self._last_sign or 1)
        if self._n > 0 and sign != self._last_sign:
            self._crossings += 1
        self._last_sign = sign
        self._n += 1

    def extend(self, samples: Iterable[float]) -> None:
        """Consume a burst of samples.

        A one-dimensional numeric ndarray takes a vectorized path that
        matches the per-sample loop exactly: on-level (and NaN) samples
        inherit the preceding sign via an index forward-fill, leading
        ties inherit the pre-burst sign (or +1 at stream start), and
        sign changes are counted against the shifted sign sequence.
        """
        if _vectorizable(samples):
            x = samples.astype(np.float64, copy=False) - self.level
            n = x.size
            if n == 0:
                return
            # NaN compares False on both sides, so it lands in the
            # "inherit previous sign" bucket — same as the scalar update.
            raw = np.where(x > 0, 1, np.where(x < 0, -1, 0))
            nonzero_at = np.where(raw != 0, np.arange(n), -1)
            last_nonzero = np.maximum.accumulate(nonzero_at)
            seed = self._last_sign or 1
            signs = np.where(
                last_nonzero >= 0, raw[np.clip(last_nonzero, 0, None)], seed
            )
            changed = signs != np.concatenate(([self._last_sign], signs[:-1]))
            if self._n == 0:
                changed[0] = False
            self._crossings += int(np.count_nonzero(changed))
            self._last_sign = int(signs[-1])
            self._n += n
            return
        for sample in samples:
            self.update(sample)
