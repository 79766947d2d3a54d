"""Digital signal processing substrate for the XPro generic classification.

This package provides everything the generic classification framework
computes on a signal segment before it reaches the classifier:

- :mod:`repro.dsp.fixedpoint` -- the Q16.16 32-bit fixed-point number system
  used by the in-sensor functional cells (Section 4.4 of the paper).
- :mod:`repro.dsp.wavelet` -- multi-level discrete wavelet transform.
- :mod:`repro.dsp.features` -- the eight hardware-friendly statistical
  features (Max, Min, Mean, Var, Std, Czero, Skew, Kurt).
- :mod:`repro.dsp.normalize` -- the [0, 1] feature normalisation applied
  before classification.
"""

from repro.dsp.features import (
    FEATURE_NAMES,
    FeatureExtractor,
    batch_feature_matrix,
    crossing_count,
    crossing_counts,
    feature_vector,
    kurtosis,
    maximum,
    mean,
    minimum,
    skewness,
    standard_deviation,
    variance,
)
from repro.dsp.fixedpoint import FixedPoint, FixedPointFormat, Q16_16
from repro.dsp.normalize import MinMaxNormalizer
from repro.dsp.streaming import CrossingCounter, StreamingMoments
from repro.dsp.wavelet import (
    WaveletFilter,
    dwt_multilevel,
    dwt_multilevel_batch,
    dwt_single_level,
    dwt_single_level_batch,
)

__all__ = [
    "CrossingCounter",
    "FEATURE_NAMES",
    "StreamingMoments",
    "FeatureExtractor",
    "FixedPoint",
    "FixedPointFormat",
    "MinMaxNormalizer",
    "Q16_16",
    "WaveletFilter",
    "batch_feature_matrix",
    "crossing_count",
    "crossing_counts",
    "dwt_multilevel",
    "dwt_multilevel_batch",
    "dwt_single_level",
    "dwt_single_level_batch",
    "feature_vector",
    "kurtosis",
    "maximum",
    "mean",
    "minimum",
    "skewness",
    "standard_deviation",
    "variance",
]
