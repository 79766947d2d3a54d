"""The eight hardware-friendly statistical features of XPro.

Section 2.1 of the paper fixes the generic feature set to: maximal value
(Max), minimal value (Min), mean value (Mean), variance (Var), standard
deviation (Std), zero-crossing count (Czero), skewness (Skew) and kurtosis
(Kurt), extracted on the time-domain segment and on every DWT sub-band.

Each feature has:

- a batch reference implementation operating on a whole segment (used by the
  classifier training pipeline and the aggregator-side software cells), and
- an operation-count model (:func:`operation_counts`) describing what the
  in-sensor S-ALU executes, which drives the energy/delay characterisation
  of the corresponding functional cell (Figure 4).

The statistical definitions follow the population (biased) moment
conventions, which is what a single-pass hardware datapath computes:
``var = E[x^2] - E[x]^2``, ``skew = m3 / m2^{3/2}``, ``kurt = m4 / m2^2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: Canonical feature ordering used across the whole library (feature-vector
#: layout, functional-cell naming, random-subspace indexing).
FEATURE_NAMES: Tuple[str, ...] = (
    "max",
    "min",
    "mean",
    "var",
    "std",
    "czero",
    "skew",
    "kurt",
)


def _as_segment(segment: Sequence[float]) -> np.ndarray:
    arr = np.asarray(segment, dtype=np.float64)
    if arr.ndim != 1:
        raise ConfigurationError("feature input must be one-dimensional")
    if arr.size == 0:
        raise ConfigurationError("feature input must be non-empty")
    return arr


def maximum(segment: Sequence[float]) -> float:
    """Maximal sample value of the segment."""
    return float(np.max(_as_segment(segment)))


def minimum(segment: Sequence[float]) -> float:
    """Minimal sample value of the segment."""
    return float(np.min(_as_segment(segment)))


def mean(segment: Sequence[float]) -> float:
    """Arithmetic mean of the segment."""
    return float(np.mean(_as_segment(segment)))


def variance(segment: Sequence[float]) -> float:
    """Population variance ``E[x^2] - E[x]^2`` (single-pass hardware form)."""
    arr = _as_segment(segment)
    mu = arr.mean()
    return float(np.mean(arr * arr) - mu * mu)


def standard_deviation(segment: Sequence[float]) -> float:
    """Population standard deviation (square root of :func:`variance`).

    In hardware the Std cell *reuses* the Var cell and adds only a square
    root (Figure 5) — the software definition mirrors that composition.
    """
    return float(np.sqrt(max(variance(segment), 0.0)))


def _propagate_signs(signs: np.ndarray) -> np.ndarray:
    """Carry the last non-zero sign through exact zeros, row-wise.

    Equivalent to the sequential rule "an equal-to-level sample keeps the
    previous sign; a leading flat run counts as positive", but computed with
    a single ``maximum.accumulate`` pass instead of a per-element loop:
    every position looks up the index of the most recent non-zero sign and
    gathers it, and positions before the first non-zero (which gather a
    zero) default to +1.

    Takes a ``(rows, n)`` sign array.
    """
    positions = np.arange(signs.shape[1])[None, :]
    last_nonzero = np.where(signs != 0, positions, 0)
    np.maximum.accumulate(last_nonzero, axis=1, out=last_nonzero)
    filled = np.take_along_axis(signs, last_nonzero, axis=1)
    filled[filled == 0] = 1.0
    return filled


def crossing_counts(x: np.ndarray) -> np.ndarray:
    """Sign changes per row of a level-shifted ``(rows, n)`` batch.

    Row ``i`` counts the neighbouring pairs of ``np.sign(x[i])`` that
    differ, after :func:`_propagate_signs` has carried the previous sign
    through every exact zero (a leading zero run counts as positive).  A
    row holding neither a zero nor a NaN has signs ``±1`` only, so its
    pairs are compared as ``x > 0`` masks, and the carry propagation runs
    only on the rows that hold one.  The counts are integers, so the result
    is exact whichever way a row is counted.
    """
    positive = x > 0
    counts = np.count_nonzero(positive[:, 1:] != positive[:, :-1], axis=1)
    tied = np.flatnonzero(~(positive | (x < 0)).all(axis=1))
    if tied.size:
        signs = _propagate_signs(np.sign(x[tied]))
        counts[tied] = np.count_nonzero(signs[:, 1:] != signs[:, :-1], axis=1)
    return counts


def crossing_count(segment: Sequence[float], level: float = 0.0) -> float:
    """Number of crossings of ``level`` (Czero uses the mean as level).

    The hardware Czero cell counts sign changes of ``x[i] - level`` between
    consecutive samples; equal-to-level samples carry the previous sign so a
    flat run is not counted repeatedly.
    """
    arr = _as_segment(segment)
    return float(crossing_counts((arr - level)[None, :])[0])


def zero_crossings(segment: Sequence[float]) -> float:
    """Czero as the paper uses it: crossings of the segment mean."""
    arr = _as_segment(segment)
    return crossing_count(arr, level=float(arr.mean()))


def skewness(segment: Sequence[float]) -> float:
    """Population skewness ``m3 / m2^{3/2}`` (0 for constant segments)."""
    arr = _as_segment(segment)
    mu = arr.mean()
    centered = arr - mu
    m2 = float(np.mean(centered**2))
    if m2 <= 1e-12:
        return 0.0
    m3 = float(np.mean(centered**3))
    return m3 / (m2**1.5)


def kurtosis(segment: Sequence[float]) -> float:
    """Population kurtosis ``m4 / m2^2`` (non-excess; 0 for constants)."""
    arr = _as_segment(segment)
    mu = arr.mean()
    centered = arr - mu
    m2 = float(np.mean(centered**2))
    if m2 <= 1e-12:
        return 0.0
    m4 = float(np.mean(centered**4))
    return m4 / (m2**2)


#: name -> batch implementation
_FEATURE_FUNCS: Dict[str, Callable[[Sequence[float]], float]] = {
    "max": maximum,
    "min": minimum,
    "mean": mean,
    "var": variance,
    "std": standard_deviation,
    "czero": zero_crossings,
    "skew": skewness,
    "kurt": kurtosis,
}


def compute_feature(name: str, segment: Sequence[float]) -> float:
    """Compute one named feature on a segment."""
    try:
        func = _FEATURE_FUNCS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown feature {name!r}; available: {list(FEATURE_NAMES)}"
        ) from None
    return func(segment)


def feature_vector(
    segment: Sequence[float], names: Sequence[str] = FEATURE_NAMES
) -> np.ndarray:
    """Compute a vector of features in the given order."""
    return np.asarray([compute_feature(n, segment) for n in names])


def batch_feature_matrix(
    segments: Sequence[Sequence[float]], names: Sequence[str] = FEATURE_NAMES
) -> np.ndarray:
    """All requested features of a ``(n_segments, n_samples)`` batch at once.

    The batched analogue of :func:`feature_vector`: row ``i`` of the result
    is ``feature_vector(segments[i], names)``, but every feature is computed
    for the whole batch in single NumPy passes (one reduction per moment,
    one :func:`crossing_counts` call for Czero) instead of a Python
    loop over segments.  Values match the scalar reference to float
    precision (within 1 ulp; the reductions are the same up to summation
    blocking), which the equivalence tests pin down to ``atol=1e-9``.

    Args:
        segments: Two-dimensional batch; every row is one segment.
        names: Features to compute, in output-column order.

    Returns:
        ``(n_segments, len(names))`` feature matrix.
    """
    X = np.asarray(segments, dtype=np.float64)
    if X.ndim != 2:
        raise ConfigurationError("segments must be a 2-D batch")
    if X.shape[0] == 0 or X.shape[1] == 0:
        raise ConfigurationError("segments batch must be non-empty")
    unknown = [n for n in names if n not in _FEATURE_FUNCS]
    if unknown:
        raise ConfigurationError(f"unknown features: {unknown}")

    need = set(names)
    columns: Dict[str, np.ndarray] = {}
    if "max" in need:
        columns["max"] = X.max(axis=1)
    if "min" in need:
        columns["min"] = X.min(axis=1)
    if need - {"max", "min"}:
        mu = X.mean(axis=1)
        columns["mean"] = mu
        if need & {"var", "std"}:
            var = (X * X).mean(axis=1) - mu * mu
            columns["var"] = var
            columns["std"] = np.sqrt(np.maximum(var, 0.0))
        if need & {"czero", "skew", "kurt"}:
            centered = X - mu[:, None]
            if "czero" in need:
                columns["czero"] = crossing_counts(centered).astype(np.float64)
            if need & {"skew", "kurt"}:
                m2 = (centered**2).mean(axis=1)
                degenerate = m2 <= 1e-12
                safe_m2 = np.where(degenerate, 1.0, m2)
                if "skew" in need:
                    m3 = (centered**3).mean(axis=1)
                    columns["skew"] = np.where(degenerate, 0.0, m3 / safe_m2**1.5)
                if "kurt" in need:
                    m4 = (centered**4).mean(axis=1)
                    columns["kurt"] = np.where(degenerate, 0.0, m4 / safe_m2**2)
    return np.column_stack([columns[n] for n in names])


def operation_counts(name: str, segment_length: int) -> Mapping[str, int]:
    """S-ALU operation counts for one feature cell over an N-sample segment.

    These counts are the bridge between the algorithmic definition of a
    feature and its hardware cost: the energy library multiplies them by
    per-operation energies, and the delay model by per-operation cycle
    counts.  ``cmp`` is a comparator operation, ``super`` is one use of the
    S-ALU super-computation unit (sqrt/exp/reciprocal, Section 3.1.1).

    The Std entry deliberately counts only the *additional* square root on
    top of Var, reflecting the cell-level reuse rule (Figure 5); topology
    construction adds the Var cell explicitly as its predecessor.
    """
    n = int(segment_length)
    if n <= 0:
        raise ConfigurationError("segment_length must be positive")
    counts: Dict[str, Mapping[str, int]] = {
        "max": {"cmp": n - 1},
        "min": {"cmp": n - 1},
        "mean": {"add": n - 1, "div": 1},
        # sum, sum of squares, one division each, one multiply + subtract.
        "var": {"add": 2 * (n - 1), "mul": n + 1, "div": 2, "sub": 1},
        "std": {"super": 1},
        "czero": {"add": n - 1, "div": 1, "sub": n, "cmp": 2 * n},
        # centered third moment: subtract mean (n), cube (2n mul), sum, then
        # normalisation m2^{3/2} = m2 * sqrt(m2) -> 1 super + 1 mul + 1 div.
        "skew": {
            "add": 2 * (n - 1),
            "sub": n + 1,
            "mul": 3 * n + 2,
            "div": 3,
            "super": 1,
        },
        # centered fourth moment: subtract mean (n), 4th power (3n mul or 2n
        # with squaring reuse), sum, normalisation m2^2 -> 1 mul + 1 div.
        "kurt": {"add": 2 * (n - 1), "sub": n + 1, "mul": 3 * n + 2, "div": 3},
    }
    if name not in counts:
        raise ConfigurationError(
            f"unknown feature {name!r}; available: {list(FEATURE_NAMES)}"
        )
    return dict(counts[name])


@dataclass
class FeatureExtractor:
    """Batch feature extraction over time-domain + DWT sub-band segments.

    This is the software reference for the full feature front of the generic
    classification: given the list of domain segments (time segment first,
    then DWT sub-bands, as produced by the pipeline builder), it emits one
    concatenated feature vector whose layout matches the functional-cell
    topology ordering.

    Attributes:
        feature_names: Which of the eight features to extract per segment.
    """

    feature_names: Sequence[str] = FEATURE_NAMES

    def __post_init__(self) -> None:
        unknown = [n for n in self.feature_names if n not in _FEATURE_FUNCS]
        if unknown:
            raise ConfigurationError(f"unknown features: {unknown}")

    def extract(self, domain_segments: Sequence[Sequence[float]]) -> np.ndarray:
        """Concatenated feature vector across all domain segments."""
        if not domain_segments:
            raise ConfigurationError("need at least one domain segment")
        parts = [feature_vector(seg, self.feature_names) for seg in domain_segments]
        return np.concatenate(parts)

    def extract_batch(
        self, domain_segments: Sequence[Sequence[Sequence[float]]] | np.ndarray
    ) -> np.ndarray:
        """Batched :meth:`extract`: one feature matrix for many events.

        Args:
            domain_segments: Either a single ``(n_events, n_samples)`` array
                (one domain segment per event) or a sequence of such
                batches, one per domain, all with the same number of rows —
                the batched counterpart of the per-event domain-segment
                list :meth:`extract` consumes.

        Returns:
            ``(n_events, n_domains * len(feature_names))`` matrix whose row
            ``i`` equals ``extract([batch[i] for batch in domain_segments])``.
        """
        if isinstance(domain_segments, np.ndarray) and domain_segments.ndim == 2:
            domain_segments = [domain_segments]
        if len(domain_segments) == 0:
            raise ConfigurationError("need at least one domain segment batch")
        batches = [np.asarray(b, dtype=np.float64) for b in domain_segments]
        n_events = {b.shape[0] for b in batches if b.ndim == 2}
        if any(b.ndim != 2 for b in batches) or len(n_events) != 1:
            raise ConfigurationError(
                "domain batches must all be 2-D with the same row count"
            )
        parts = [batch_feature_matrix(b, self.feature_names) for b in batches]
        return np.concatenate(parts, axis=1)

    def labels(self, n_segments: int) -> List[str]:
        """Human-readable labels ``<feature>@seg<k>`` matching :meth:`extract`."""
        return [
            f"{name}@seg{k}"
            for k in range(n_segments)
            for name in self.feature_names
        ]

    def dimension(self, n_segments: int) -> int:
        """Length of the vector :meth:`extract` returns for N segments."""
        return n_segments * len(self.feature_names)
