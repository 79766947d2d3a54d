"""Kernel functions for the SVM base classifiers.

The paper uses an RBF-kernel binary SVM as the random-subspace base
classifier (Section 4.4) and cites linear-kernel SVM as the limit of what a
pure in-sensor design affords (Section 1).  Both kernels are provided, with
an operation-count model so the SVM functional cell's energy cost can be
derived from its support-vector count and input dimensionality.

Two Gram paths
--------------

``kernel(lhs, rhs)`` is the *inference* cross-Gram: the cross-product term
is one BLAS ``lhs @ rhs.T`` on C-ordered operands, the fast path for
scoring batches against support vectors.

The *training Gram protocol* — :meth:`Kernel.training_gram`,
:meth:`Kernel.gram_precompute` and :meth:`Kernel.subspace_gram` — is
*slice-stable*: every entry is a fixed-order reduction over the two input
rows alone, never a function of which other rows share the call.
Concretely, for any row subset ``f``::

    kernel.training_gram(X, X)[np.ix_(f, f)]
        ==  kernel.training_gram(X[f], X[f])     # bitwise

This is what lets the training fast path build **one** full-row Gram per
subspace draw and slice it across all CV folds and the final refit with
bit-identical entries (see :meth:`Kernel.subspace_gram`).  A plain BLAS
``lhs @ rhs.T`` does *not* guarantee this — its blocking (and therefore
its summation order) varies with the matrix shape and the thread count —
so the protocol accumulates the cross-product term one rank-1 feature
column at a time instead (:func:`_cross_dot`).  Trained models therefore
never depend on BLAS blocking; only inference scores do, by at most a few
ulps.

Memory layout matters too: NumPy's axis reductions pick their summation
order from the operand's strides (pairwise for a contiguous inner axis,
sequential otherwise), and mixed basic/advanced indexing like
``X[:, subset]`` yields an F-ordered array while ``X[np.ix_(rows,
subset)]`` yields a C-ordered one.  Both paths therefore normalise their
operands to C order before reducing, so the same row contents always
produce the same bits regardless of how the caller sliced them out.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

#: A cross-product routine: ``(lhs_m, rhs_m) -> lhs_m @ rhs_m.T``.
CrossProduct = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _cross_dot(lhs_m: np.ndarray, rhs_m: np.ndarray) -> np.ndarray:
    """Slice-stable ``lhs_m @ rhs_m.T`` over 2-D float64 inputs.

    Accumulates one rank-1 term per feature column, so entry ``(i, j)`` is
    the fixed-order sum ``sum_f lhs_m[i, f] * rhs_m[j, f]`` — a function of
    the two rows only, independent of the matrix shapes.
    """
    out = np.zeros((lhs_m.shape[0], rhs_m.shape[0]))
    for f in range(lhs_m.shape[1]):
        out += lhs_m[:, f, None] * rhs_m[None, :, f]
    return out


def _blas_dot(lhs_m: np.ndarray, rhs_m: np.ndarray) -> np.ndarray:
    """BLAS ``lhs_m @ rhs_m.T``: the inference cross-product."""
    return lhs_m @ rhs_m.T


def _operands(lhs, rhs) -> Tuple[np.ndarray, np.ndarray]:
    """Both operands as 2-D C-ordered float64 matrices of equal width."""
    lhs_m = np.ascontiguousarray(np.atleast_2d(np.asarray(lhs, dtype=np.float64)))
    rhs_m = np.ascontiguousarray(np.atleast_2d(np.asarray(rhs, dtype=np.float64)))
    if lhs_m.shape[1] != rhs_m.shape[1]:
        raise ConfigurationError(
            f"dimension mismatch: {lhs_m.shape[1]} vs {rhs_m.shape[1]}"
        )
    return lhs_m, rhs_m


class Kernel(ABC):
    """A positive-definite kernel ``k(x, z)`` with a hardware cost model."""

    @abstractmethod
    def __call__(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Inference Gram matrix between row-sample matrices ``lhs`` and
        ``rhs`` (BLAS cross-product; not slice-stable).

        Both arguments may also be single vectors; the result broadcasts to
        ``(len(lhs), len(rhs))`` for matrices and a scalar for two vectors.
        """

    @abstractmethod
    def _gram(
        self, lhs_m: np.ndarray, rhs_m: np.ndarray, cross: CrossProduct
    ) -> np.ndarray:
        """Gram of two 2-D C-ordered operands, cross term from ``cross``."""

    @abstractmethod
    def operation_counts(self, dimension: int) -> Dict[str, int]:
        """S-ALU operations for one kernel evaluation on d-dim inputs."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short kernel name for reports ("linear", "rbf")."""

    def _evaluate(self, lhs, rhs, cross: CrossProduct):
        gram = self._gram(*_operands(lhs, rhs), cross)
        if np.ndim(lhs) == 1 and np.ndim(rhs) == 1:
            return gram[0, 0]
        return gram

    # -- training Gram protocol (slice-stable) -------------------------------

    def training_gram(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Slice-stable Gram matrix: same shapes and values as ``self(lhs,
        rhs)`` to within rounding, but every entry is a function of its
        two rows alone (see the module docstring)."""
        return self._evaluate(lhs, rhs, _cross_dot)

    def gram_precompute(self, features: np.ndarray) -> Optional[np.ndarray]:
        """Per-column precomputation reusable across subspace draws.

        Returns ``None`` when the kernel has nothing to share; the RBF
        kernel returns the squared feature columns so per-draw row norms
        reduce to a column-slice sum.
        """
        return None

    def subspace_gram(
        self,
        features: np.ndarray,
        subset,
        pre: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Full-row Gram over a feature subset, bitwise equal to
        ``self.training_gram(features[:, subset], features[:, subset])``.

        Args:
            features: Full ``(n, d)`` feature matrix.
            subset: Feature indices of the subspace draw.
            pre: Optional result of :meth:`gram_precompute` on the same
                matrix, shared across draws.
        """
        X = np.asarray(features, dtype=np.float64)
        Xs = np.ascontiguousarray(X[:, np.asarray(subset, dtype=np.intp)])
        return self._gram(Xs, Xs, _cross_dot)


class LinearKernel(Kernel):
    """The inner-product kernel ``k(x, z) = x . z``."""

    @property
    def name(self) -> str:
        return "linear"

    def __call__(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self._evaluate(lhs, rhs, _blas_dot)

    def _gram(self, lhs_m, rhs_m, cross: CrossProduct) -> np.ndarray:
        return cross(lhs_m, rhs_m)

    def operation_counts(self, dimension: int) -> Dict[str, int]:
        if dimension <= 0:
            raise ConfigurationError("dimension must be positive")
        return {"mul": dimension, "add": dimension - 1}


class RBFKernel(Kernel):
    """Gaussian kernel ``k(x, z) = exp(-gamma * ||x - z||^2)``.

    Args:
        gamma: Width parameter; must be positive.
    """

    def __init__(self, gamma: float = 0.5) -> None:
        if gamma <= 0:
            raise ConfigurationError("gamma must be positive")
        self.gamma = float(gamma)

    @property
    def name(self) -> str:
        return "rbf"

    def __call__(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        return self._evaluate(lhs, rhs, _blas_dot)

    def _gram(self, lhs_m, rhs_m, cross: CrossProduct) -> np.ndarray:
        return self._assemble(
            (lhs_m**2).sum(axis=1), (rhs_m**2).sum(axis=1), cross(lhs_m, rhs_m)
        )

    def _assemble(
        self, lhs_sq: np.ndarray, rhs_sq: np.ndarray, cross: np.ndarray
    ) -> np.ndarray:
        sq = lhs_sq[:, None] + rhs_sq[None, :] - 2.0 * cross
        return np.exp(-self.gamma * np.maximum(sq, 0.0))

    def gram_precompute(self, features: np.ndarray) -> np.ndarray:
        """Squared feature columns; ``pre[:, subset].sum(axis=1)`` is
        bitwise equal to ``(features[:, subset]**2).sum(axis=1)``."""
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise ConfigurationError("features must be 2-D")
        return X**2

    def subspace_gram(
        self,
        features: np.ndarray,
        subset,
        pre: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        X = np.asarray(features, dtype=np.float64)
        if X.ndim != 2:
            raise ConfigurationError("features must be 2-D")
        sub = np.asarray(subset, dtype=np.intp)
        col_sq = self.gram_precompute(X) if pre is None else np.asarray(pre)
        if col_sq.shape != X.shape:
            raise ConfigurationError(
                f"precompute shape {col_sq.shape} != features {X.shape}"
            )
        # C-order before reducing/accumulating: column-subset indexing
        # yields F-ordered arrays, whose axis reductions sum in a
        # different order (see the module docstring).
        Xs = np.ascontiguousarray(X[:, sub])
        norms = np.ascontiguousarray(col_sq[:, sub]).sum(axis=1)
        return self._assemble(norms, norms, _cross_dot(Xs, Xs))

    def operation_counts(self, dimension: int) -> Dict[str, int]:
        if dimension <= 0:
            raise ConfigurationError("dimension must be positive")
        # d subtractions, d squarings, d-1 adds, one gamma multiply, one exp.
        return {"sub": dimension, "mul": dimension + 1, "add": dimension - 1, "super": 1}
