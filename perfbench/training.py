"""Training workload: the Section 4.4 protocol shape on C1.

12-feature random subspaces, 100 draws, 10-fold cross-validated member
selection, keep the top 10%, on Table 1's C1 rows, as many as make one
``train_analytic_engine`` call take several seconds, under the default
protocol seed.  The inputs do not depend on the benchmark seed: the SMO
work is set by the data and by the protocol seed, and changing either moves
the cost of a call by 8-20%, more than the bound on the metric.

The checks compare every call's held-out accuracy and a digest of its
held-out predictions with the values the program gives at the commit that
introduced this benchmark (``EXPECTED``), and every call's reported test
accuracy with the accuracy of the returned engine's own predictions on the
held-out rows.

A call lasts several seconds, longer than the host keeps one speed, so the
benchmark cuts it at every subspace draw (it wraps
``repro.ml.subspace.fit_subspace_draw``) to take a calibration sample there;
the samples are left out of the call's time.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

import repro.core.pipeline as pipeline
import repro.ml.subspace as subspace
from calibrate import SegmentClock
from repro.core.pipeline import TrainingConfig
from repro.ml.metrics import accuracy
from repro.ml.validation import stratified_train_test_split
from repro.signals.datasets import BiosignalDataset, load_case

#: (rows, draws, folds) per size.
SIZES: Dict[str, Tuple[int, int, int]] = {
    "full": (100, 100, 10),
    "tiny": (40, 6, 3),
}
#: Held-out test accuracy and SHA-256 of the held-out predictions (int64)
#: per size, as the program computed them when this benchmark was added.
EXPECTED: Dict[str, Tuple[float, str]] = {
    "full": (0.7083333333333334,
             "05579c8bbfb038031f0871a3ece4c661d6b65ed7d847cf0b447fc80c75af900f"),
    "tiny": (0.8, "ba61a20b7065f5eaa0259f2476cdb49f74dd01cc9b9103e8c875be564a8d6cbc"),
}


@dataclass
class TrainCase:
    dataset: BiosignalDataset
    config: TrainingConfig
    test_idx: np.ndarray  # the held-out rows of the protocol's split
    expected: Tuple[float, str]  # held-out accuracy and prediction digest


@dataclass
class TrainStats:
    wall_ns: List[int] = field(default_factory=list)  # calibration samples left out
    ref_ns: List[float] = field(default_factory=list)  # reference time of each call
    outer_ns: List[int] = field(default_factory=list)  # around the call, samples included
    trace_ids: List[int] = field(default_factory=list)  # span trace id of each call


def build_case(size: str) -> TrainCase:
    """The C1 rows and the protocol's config."""
    rows, draws, folds = SIZES[size]
    dataset = load_case("C1", rows)
    config = TrainingConfig(subspace_dim=12, n_draws=draws, keep_fraction=0.10,
                            cv_folds=folds)
    # The protocol's single split: rng(config.seed), stratified 75/25.
    _, test_idx = stratified_train_test_split(
        dataset.labels, np.random.default_rng(config.seed), config.test_fraction)
    return TrainCase(dataset, config, test_idx, EXPECTED[size])


def _digest(decisions: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(decisions, dtype=np.int64).tobytes()).hexdigest()


@contextlib.contextmanager
def _split_at_draws(clock: SegmentClock):
    """Cut every training call into segments at its subspace draws."""
    original = subspace.fit_subspace_draw

    def split_then_draw(*args, **kwargs):
        clock.split()
        return original(*args, **kwargs)

    subspace.fit_subspace_draw = split_then_draw
    try:
        yield
    finally:
        subspace.fit_subspace_draw = original


def train_phase(case: TrainCase, checks, stats: TrainStats, seconds: float,
                cal, rec=None) -> None:
    """Train until ``seconds`` have elapsed (at least one call), checking
    every returned engine."""
    deadline = time.perf_counter() + seconds
    clock = SegmentClock(cal, rec)
    with _split_at_draws(clock):
        while True:
            root = None
            if rec is not None:
                rec.trace_id += 1
                rec.active = True
                stats.trace_ids.append(rec.trace_id)
            clock.start()
            t0 = time.perf_counter_ns()
            if rec is not None:
                root = rec.open("bench.train")
            engine = pipeline.train_analytic_engine(case.dataset, case.config)
            if root is not None:
                rec.close(root)
            stats.outer_ns.append(time.perf_counter_ns() - t0)
            wall, ref = clock.stop()
            stats.wall_ns.append(wall)
            stats.ref_ns.append(ref)
            if rec is not None:
                rec.active = False
            _check(case, checks, engine)
            if time.perf_counter() >= deadline:
                return


def _check(case: TrainCase, checks, engine) -> None:
    """Expected accuracy and prediction digest, and the engine's accuracy
    consistency."""
    held = case.dataset.segments[case.test_idx]
    decisions = np.asarray(engine.predict_batch(held))
    test_accuracy = engine.test_accuracy
    if checks.tamper == "decision":
        decisions = decisions.copy()
        decisions[0] ^= 1
        checks.tamper = None
    elif checks.tamper == "counter":
        test_accuracy += 1.0 / len(held)
        checks.tamper = None
    checks.count(test_accuracy == case.expected[0])
    checks.count(_digest(decisions) == case.expected[1])
    checks.count(accuracy(case.dataset.labels[case.test_idx], decisions)
                 == test_accuracy)
