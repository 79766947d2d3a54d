"""Property and identity tests for the training fast path.

The fast training engine (fold-sliced shared Grams + the cached-error
screened SMO) promises *bitwise* identity to the pinned reference
protocol.  These tests pin that contract at every layer: single-SVM
fast-vs-reference identity, Gram slice stability, serial-vs-parallel
ensemble identity on all six Table-1 cases, the legacy seed streams and the
degenerate edges of the fast path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TrainingError
from repro.exact import identical
from repro.ml.kernels import LinearKernel, RBFKernel
from repro.ml.subspace import RandomSubspaceClassifier
from repro.ml.svm import SVMClassifier
from repro.ml.validation import repeated_protocol
from repro.sim.parallel import ParallelConfig
from repro.signals.datasets import CASE_ORDER, load_case


def _fitted_state(svm: SVMClassifier):
    return (
        svm._support_vectors,
        svm._dual_coef,
        svm._bias,
        svm._support_index,
    )


def _ensemble_state(ensemble):
    return (
        [
            (m.feature_indices, _fitted_state(m.classifier), m.validation_accuracy)
            for m in ensemble.members
        ],
        ensemble.used_feature_indices(),
    )


def _separable_data(rng: np.random.Generator, n: int, d: int):
    y = rng.integers(0, 2, size=n)
    if len(np.unique(y)) < 2:
        y[0] = 1 - y[0]
    X = rng.normal(size=(n, d))
    X[:, : max(1, d // 3)] += 1.5 * y[:, None]
    return X, y


class TestFastSMOIdentity:
    @settings(max_examples=25, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        n=st.integers(8, 80),
        d=st.integers(2, 12),
        c_val=st.floats(0.1, 5.0),
        rbf=st.booleans(),
    )
    def test_fast_matches_reference(self, data_seed, n, d, c_val, rbf):
        """fit() is bitwise identical to fit_reference() on random data."""
        rng = np.random.default_rng(data_seed)
        X, y = _separable_data(rng, n, d)
        kernel = RBFKernel(gamma=0.7) if rbf else LinearKernel()
        seed = int(rng.integers(0, 10_000))
        ref = SVMClassifier(kernel=kernel, C=c_val, seed=seed).fit_reference(X, y)
        fast = SVMClassifier(kernel=kernel, C=c_val, seed=seed).fit(X, y)
        assert identical(_fitted_state(ref), _fitted_state(fast))

    @settings(max_examples=15, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1))
    def test_injected_gram_matches_internal(self, data_seed):
        """fit(gram=...) with the kernel's own training Gram changes nothing."""
        rng = np.random.default_rng(data_seed)
        X, y = _separable_data(rng, 40, 6)
        kernel = RBFKernel(gamma=0.5)
        plain = SVMClassifier(kernel=kernel, C=1.0, seed=3).fit(X, y)
        injected = SVMClassifier(kernel=kernel, C=1.0, seed=3).fit(
            X, y, gram=kernel.training_gram(X, X)
        )
        assert identical(_fitted_state(plain), _fitted_state(injected))

    def test_injected_gram_shape_validated(self):
        rng = np.random.default_rng(0)
        X, y = _separable_data(rng, 20, 4)
        with pytest.raises(ConfigurationError):
            SVMClassifier().fit(X, y, gram=np.eye(19))

    def test_single_class_raises_on_fast_path(self):
        X = np.random.default_rng(1).normal(size=(10, 3))
        with pytest.raises(TrainingError):
            SVMClassifier().fit(X, np.zeros(10, dtype=int))

    def test_no_support_vector_degenerate_edge(self):
        """Identical rows with mixed labels: no usable update exists, so
        both paths fall back to the bias-only constant classifier."""
        X = np.zeros((6, 3))
        y = np.array([0, 1, 0, 1, 0, 1])
        ref = SVMClassifier(seed=9).fit_reference(X, y)
        fast = SVMClassifier(seed=9).fit(X, y)
        assert identical(_fitted_state(ref), _fitted_state(fast))
        assert fast.n_support_vectors == 1
        assert fast.predict(np.zeros((2, 3))) is not None

    def test_decision_function_shapes(self):
        """Scalar for a 1-D query, 1-D array for a 2-D query batch."""
        rng = np.random.default_rng(4)
        X, y = _separable_data(rng, 30, 5)
        svm = SVMClassifier().fit(X, y)
        single = svm.decision_function(X[0])
        batch = svm.decision_function(X[:7])
        assert np.ndim(single) == 0
        assert batch.shape == (7,)
        assert float(single) == float(batch[0])
        assert isinstance(svm.predict(X[0]), int)
        assert svm.predict(X[:7]).shape == (7,)


class TestGramSliceStability:
    @settings(max_examples=20, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        rbf=st.booleans(),
    )
    def test_slice_of_full_equals_fresh(self, data_seed, rbf):
        """kernel(X, X)[ix_(f, f)] == kernel(X[f], X[f]) bitwise."""
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(24, 10))
        kernel = RBFKernel(gamma=1.1) if rbf else LinearKernel()
        full = kernel(X, X)
        rows = rng.permutation(24)[:13]
        assert np.array_equal(
            full[np.ix_(rows, rows)], kernel(X[rows], X[rows])
        )

    @settings(max_examples=20, deadline=None)
    @given(data_seed=st.integers(0, 2**32 - 1))
    def test_subspace_gram_matches_direct(self, data_seed):
        """subspace_gram (with and without precompute) == the directly
        built training Gram on the column slice, despite the F-order
        layout of ``X[:, subset]``."""
        rng = np.random.default_rng(data_seed)
        X = rng.normal(size=(20, 14))
        sub = np.sort(rng.permutation(14)[:5])
        kernel = RBFKernel(gamma=0.5)
        direct = kernel.training_gram(X[:, sub], X[:, sub])
        assert np.array_equal(kernel.subspace_gram(X, sub), direct)
        pre = kernel.gram_precompute(X)
        assert np.array_equal(kernel.subspace_gram(X, sub, pre), direct)

    def test_sliced_scores_match_stable_decision_function(self):
        """Validation scores sliced from the shared full-row Gram are the
        SVM's training-Gram scores, bitwise."""
        from repro.ml.subspace import _sliced_scores

        rng = np.random.default_rng(9)
        X, y = _separable_data(rng, 40, 8)
        sub = np.array([0, 2, 3, 6])
        train, val = np.arange(0, 40, 2), np.arange(1, 40, 2)
        kernel = RBFKernel(gamma=0.5)
        full = kernel.subspace_gram(X, sub)
        svm = SVMClassifier(kernel=kernel, seed=3).fit(
            X[np.ix_(train, sub)], y[train], gram=full[np.ix_(train, train)]
        )
        assert np.array_equal(
            _sliced_scores(svm, full, train, val),
            svm.decision_function(X[np.ix_(val, sub)], stable=True),
        )

    def test_layout_independence(self):
        """F-ordered and C-ordered copies of the same rows give the same bits."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(16, 9))
        kernel = RBFKernel(gamma=0.9)
        c_order = np.ascontiguousarray(X)
        f_order = np.asfortranarray(X)
        assert np.array_equal(kernel(c_order, c_order), kernel(f_order, f_order))


class TestInferenceGramContract:
    """``kernel(lhs, rhs)`` is the BLAS inference cross-Gram: not
    slice-stable, but within rounding of the training Gram."""

    @settings(max_examples=30, deadline=None)
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        rbf=st.booleans(),
        n_lhs=st.integers(1, 40),
        n_rhs=st.integers(1, 40),
        dim=st.integers(1, 16),
    )
    def test_call_matches_training_gram(self, data_seed, rbf, n_lhs, n_rhs, dim):
        """Entrywise |call - training| <= 1e-12 relative: to the Gram
        value for RBF (in (0, 1]), to the row-norm product for the linear
        kernel (a dot product's own scale, immune to cancellation)."""
        rng = np.random.default_rng(data_seed)
        A = rng.uniform(0.0, 1.0, size=(n_lhs, dim))  # min-max scaled rows
        B = rng.uniform(0.0, 1.0, size=(n_rhs, dim))
        kernel = RBFKernel(gamma=0.5) if rbf else LinearKernel()
        fast, stable = kernel(A, B), kernel.training_gram(A, B)
        assert fast.shape == stable.shape == (n_lhs, n_rhs)
        if rbf:
            scale = np.abs(stable)
        else:
            scale = np.outer(np.linalg.norm(A, axis=1), np.linalg.norm(B, axis=1))
        assert (np.abs(fast - stable) <= 1e-12 * scale).all()

    def test_vector_operands_return_scalars(self):
        x, z = np.array([0.1, 0.4, 0.2]), np.array([0.3, 0.0, 0.5])
        for kernel in (RBFKernel(gamma=0.7), LinearKernel()):
            assert np.ndim(kernel(x, z)) == 0
            assert np.ndim(kernel.training_gram(x, z)) == 0

    def test_fusion_is_fitted_on_training_gram_scores(self):
        """Trained fusion weights come from slice-stable member scores, so
        a trained ensemble never depends on BLAS blocking."""
        from repro.ml.fusion import WeightedVotingFusion

        rng = np.random.default_rng(4)
        X = rng.uniform(0.0, 1.0, size=(60, 10))
        y = (X[:, 0] + 0.2 * rng.normal(size=60) > 0.5).astype(int)
        ens = RandomSubspaceClassifier(
            n_features=10, subspace_dim=4, n_draws=4, keep_fraction=0.5, seed=2
        ).fit(X, y)
        stable = np.column_stack([m.scores(X, stable=True) for m in ens.members])
        refit = WeightedVotingFusion().fit(stable, y)
        assert np.array_equal(refit.weights, ens.fusion.weights)
        assert refit.intercept == ens.fusion.intercept

    def test_batch_scorer_matches_per_event_predict_segment(
        self, tiny_engine, tiny_dataset
    ):
        """One BLAS cross-Gram per member over the whole batch decides
        every event exactly as the per-event path does."""
        from repro.dsp.batch import batch_extract_matrix
        from repro.ml.inference import EnsembleBatchScorer

        segments = tiny_dataset.segments
        features = tiny_engine.normalizer.transform(
            batch_extract_matrix(segments, tiny_engine.layout)
        )
        batched = EnsembleBatchScorer(tiny_engine.ensemble).predict(features)
        per_event = [tiny_engine.predict_segment(seg) for seg in segments]
        assert np.array_equal(batched, per_event)


@pytest.fixture(scope="module")
def case_features():
    """Small normalised feature matrices for all six Table-1 cases."""
    from repro.core.layout import FeatureLayout
    from repro.dsp.batch import batch_extract_matrix
    from repro.dsp.normalize import MinMaxNormalizer

    out = {}
    for symbol in CASE_ORDER:
        ds = load_case(symbol, n_segments=64)
        layout = FeatureLayout(segment_length=ds.segment_length)
        F = batch_extract_matrix(ds.segments, layout)
        out[symbol] = (
            MinMaxNormalizer().fit(F).transform(F),
            np.asarray(ds.labels),
        )
    return out


class TestEnsembleIdentity:
    @pytest.mark.parametrize("symbol", CASE_ORDER)
    def test_fast_matches_reference_all_cases(self, case_features, symbol):
        """Fast fold-sliced protocol == pinned reference on every case."""
        X, y = case_features[symbol]

        def make():
            return RandomSubspaceClassifier(
                n_features=X.shape[1],
                subspace_dim=8,
                n_draws=3,
                keep_fraction=0.5,
                seed=11,
                cv_folds=3,
            )

        ref = make().fit(X, y, fast=False)
        fast = make().fit(X, y)
        assert identical(_ensemble_state(ref), _ensemble_state(fast))
        assert np.array_equal(ref.predict(X), fast.predict(X))

    @pytest.mark.parametrize("symbol", CASE_ORDER)
    def test_serial_matches_parallel_all_cases(self, case_features, symbol):
        """Process fan-out of the draws is bit-identical to serial."""
        X, y = case_features[symbol]

        def make():
            return RandomSubspaceClassifier(
                n_features=X.shape[1],
                subspace_dim=8,
                n_draws=4,
                keep_fraction=0.5,
                seed=23,
                cv_folds=3,
            )

        serial = make().fit(X, y)
        parallel = make().fit(
            X, y, parallel=ParallelConfig(max_workers=2, chunksize=2)
        )
        assert identical(_ensemble_state(serial), _ensemble_state(parallel))
        assert np.array_equal(serial.predict(X), parallel.predict(X))

    def test_holdout_protocol_identity(self, case_features):
        """The non-CV (single holdout split) protocol is twinned too."""
        X, y = case_features["C1"]

        def make():
            return RandomSubspaceClassifier(
                n_features=X.shape[1],
                subspace_dim=8,
                n_draws=4,
                keep_fraction=0.5,
                seed=31,
            )

        assert identical(
            _ensemble_state(make().fit(X, y, fast=False)),
            _ensemble_state(make().fit(X, y)),
        )

    def test_parallel_requires_fast_path(self, case_features):
        X, y = case_features["C1"]
        clf = RandomSubspaceClassifier(n_features=X.shape[1], n_draws=2)
        with pytest.raises(ConfigurationError):
            clf.fit(X, y, parallel=ParallelConfig(), fast=False)


class TestSeedModes:
    def test_legacy_streams_collide(self):
        """The documented legacy collision: draw 31's member seed equals
        draw 1's fold seed (kept for stream compatibility)."""
        clf = RandomSubspaceClassifier(n_features=20, n_draws=32, seed=42)
        seeds = clf._draw_seeds()
        assert seeds[31][0] == seeds[1][1]


class TestRepeatedProtocol:
    def test_selects_best_repeat(self, case_features):
        X, y = case_features["C1"]
        result = repeated_protocol(
            X,
            y,
            n_repeats=3,
            params={"subspace_dim": 6, "n_draws": 3, "keep_fraction": 0.5},
            seed=2,
        )
        assert result.best_classifier.is_fitted
        assert len(result.test_accuracies) == 3
        assert result.best_accuracy == max(result.test_accuracies)
        assert result.test_accuracies[result.best_repeat] == result.best_accuracy
        assert result.failed_repeats == []

    def test_reproducible(self, case_features):
        X, y = case_features["C1"]
        kwargs = dict(
            n_repeats=2,
            params={"subspace_dim": 6, "n_draws": 2, "keep_fraction": 0.5},
            seed=9,
        )
        a = repeated_protocol(X, y, **kwargs)
        b = repeated_protocol(X, y, **kwargs)
        assert a.test_accuracies == b.test_accuracies
        assert a.best_repeat == b.best_repeat

    def test_validation(self, case_features):
        X, y = case_features["C1"]
        with pytest.raises(ConfigurationError):
            repeated_protocol(X, y, n_repeats=0)
        with pytest.raises(ConfigurationError):
            repeated_protocol(np.zeros(5), y[:5])
