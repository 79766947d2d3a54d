"""Batched ensemble inference: one Gram-matrix call per base classifier.

The scalar evaluation path scores events one at a time: every call to
:meth:`~repro.ml.subspace.RandomSubspaceClassifier.predict` on a single
event computes one tiny ``(n_sv, 1)`` Gram matrix per member, so sweeping a
campaign of N events costs ``N * n_members`` kernel calls plus all the
per-call Python overhead.

:class:`EnsembleBatchScorer` restructures the same computation for a whole
``(n_events, n_features)`` matrix: per member it projects the batch onto
the member's feature subspace once and evaluates a single ``(n_sv,
n_events)`` Gram matrix, then fuses all member score columns with one
matrix-vector product.  The arithmetic is the scalar path's — the same
kernel, the same dual coefficients, the same fusion weights — so scores
are bitwise those of :meth:`~repro.ml.subspace.RandomSubspaceClassifier.
decision_function` on the same batch.  The kernel's BLAS cross-Gram may
round a single event's score differently in the last ulps than a batch's;
decisions agree with the per-event path.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.ml.subspace import RandomSubspaceClassifier


class EnsembleBatchScorer:
    """Precompiled batch scorer for a fitted random-subspace ensemble.

    Construction snapshots everything inference needs — per-member feature
    index arrays, support vectors, dual coefficients, biases, kernels and
    the fusion weights — so scoring a batch touches no ensemble internals
    and performs exactly one Gram-matrix evaluation per member.

    Args:
        ensemble: A fitted :class:`RandomSubspaceClassifier`.
    """

    def __init__(self, ensemble: RandomSubspaceClassifier) -> None:
        if not ensemble.is_fitted:
            raise ConfigurationError("ensemble must be fitted before batch scoring")
        self.n_features = ensemble.n_features
        self._members: List[Tuple[np.ndarray, object]] = [
            (np.asarray(member.feature_indices, dtype=np.intp), member.classifier)
            for member in ensemble.members
        ]
        fusion = ensemble.fusion
        self._weights = np.asarray(fusion.weights, dtype=np.float64)
        self._intercept = float(fusion.intercept)

    @property
    def n_members(self) -> int:
        """Number of base classifiers in the compiled ensemble."""
        return len(self._members)

    def _validate(self, features: np.ndarray) -> np.ndarray:
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ConfigurationError(
                f"features must be (n_events, {self.n_features}), got {X.shape}"
            )
        return X

    def member_scores(self, features: np.ndarray) -> np.ndarray:
        """Per-member decision scores, shape ``(n_events, n_members)``.

        One Gram-matrix call per member over the whole batch.
        """
        X = self._validate(features)
        return np.column_stack(
            [
                classifier.decision_function(X[:, indices])
                for indices, classifier in self._members
            ]
        )

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        """Fused real-valued ensemble scores for the batch."""
        return self.member_scores(features) @ self._weights + self._intercept

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Binary {0, 1} decisions for the batch."""
        return (self.decision_function(features) > 0).astype(int)
