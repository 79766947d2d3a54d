"""Timing spans around the public callables of every layer, kept in memory.

The traced run replaces each layer's public entry point with a shim that
opens a span (name, start, end, parent, trace id, work count), calls the
original and closes the span.  The shims live here, in the benchmark; the
program under test is not edited.  A span's parent is the innermost span
still open when it started, and every span of one tick or one training call
carries that operation's trace id.  Spans are stored in flat ``array``
columns, so a run of several hundred thousand spans stays small, and are
written out once when the run ends.

Self time is a span's duration minus the durations of its direct children;
over one operation the self times sum to its root span.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np


class Total(NamedTuple):
    """One span name's totals: calls, summed time, summed self time (ns,
    scaled) and summed work count."""

    calls: int
    ns: float
    self_ns: float
    work: int


class SpanRecorder:
    """Flat, append-only span store with an open-span stack."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self.work = array("q")
        self._stack: List[int] = []
        self.trace_id = -1
        self.active = False

    def open(self, name: str, work: int = 0) -> int:
        """Open a span under the innermost open one; returns its index."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trace.append(self.trace_id)
        self.work.append(int(work))
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        """Close span ``idx``, which must be the innermost open span."""
        self.end[idx] = time.perf_counter_ns()
        if self._stack.pop() != idx:
            raise RuntimeError("spans closed out of nesting order")

    def columns(self) -> Dict[str, np.ndarray]:
        """All spans as int64 columns, plus each span's self time."""
        cols = {
            "name_id": np.frombuffer(self.name_id, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "trace": np.frombuffer(self.trace, dtype=np.int64).copy(),
            "work": np.frombuffer(self.work, dtype=np.int64).copy(),
        }
        dur = cols["end"] - cols["start"]
        child = cols["parent"] >= 0
        covered = np.bincount(
            cols["parent"][child], weights=dur[child], minlength=dur.size
        ).astype(np.int64)
        cols["dur"] = dur
        cols["self"] = dur - covered
        return cols

    def nesting_ok(self, cols: Dict[str, np.ndarray]) -> bool:
        """Every child lies inside its parent and no self time is negative."""
        child = np.nonzero(cols["parent"] >= 0)[0]
        par = cols["parent"][child]
        inside = (cols["start"][child] >= cols["start"][par]) & (
            cols["end"][child] <= cols["end"][par]
        )
        return bool(inside.all() and (cols["self"] >= 0).all())

    def totals(self, cols: Dict[str, np.ndarray], scale: np.ndarray) -> Dict[str, Total]:
        """Per span name totals, each span's times multiplied by its
        ``scale`` entry."""
        n = len(self.names)
        ids = cols["name_id"]
        calls = np.bincount(ids, minlength=n)
        dur = np.bincount(ids, weights=cols["dur"] * scale, minlength=n)
        own = np.bincount(ids, weights=cols["self"] * scale, minlength=n)
        work = np.bincount(ids, weights=cols["work"], minlength=n)
        return {
            name: Total(int(calls[i]), float(dur[i]), float(own[i]), int(work[i]))
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path, cols: Dict[str, np.ndarray]) -> None:
        """Write every span to one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **cols)


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _madds(args) -> int:
    """Multiply-adds of one Gram call, from operand shapes: rows x rows x dim."""
    lhs = np.atleast_2d(np.asarray(args[1]))
    rhs = np.atleast_2d(np.asarray(args[2]))
    return int(lhs.shape[0] * rhs.shape[0] * lhs.shape[1])


def _shim(rec: SpanRecorder, name: str, fn: Callable,
          work: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def shim(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(name, work(args) if work is not None else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return shim


def _targets():
    """``(owner, attribute, span name, work counter)`` for every shimmed
    public callable, named by the layer that owns it."""
    import repro.core.pipeline as pipeline
    import repro.dsp.batch as dsp_batch
    import repro.ml.subspace as subspace
    import repro.stream.ingest as ingest
    from repro.core.pipeline import TrainedAnalyticEngine
    from repro.dsp.normalize import MinMaxNormalizer
    from repro.ml.inference import EnsembleBatchScorer
    from repro.ml.kernels import Kernel, LinearKernel, RBFKernel
    from repro.ml.svm import SVMClassifier
    from repro.stream.engine import EngineBackend, MomentsBackend, StreamPool

    return [
        (ingest.FrameIngestor, "push_frames", "stream.ingest.push_frames",
         lambda a: len(a[1])),
        (ingest, "decode_frames", "hw.framing.decode_frames",
         lambda a: len(a[0])),
        (ingest, "decode_values", "hw.framing.decode_values", None),
        (StreamPool, "extend", "stream.engine.extend", lambda a: len(a[2])),
        (StreamPool, "tick", "stream.engine.tick", None),
        (EngineBackend, "score_matrix", "stream.engine.score_matrix",
         lambda a: len(a[1])),
        (MomentsBackend, "score_matrix", "stream.engine.score_matrix",
         lambda a: len(a[1])),
        (TrainedAnalyticEngine, "predict_batch", "core.pipeline.predict_batch",
         lambda a: len(a[1])),
        (pipeline, "train_analytic_engine", "core.pipeline.train_analytic_engine",
         None),
        (dsp_batch, "batch_extract_matrix", "dsp.batch.extract",
         lambda a: _rows(a[0])),
        (MinMaxNormalizer, "transform", "dsp.normalize.transform",
         lambda a: _rows(a[1])),
        (EnsembleBatchScorer, "__init__", "ml.inference.scorer_build", None),
        (EnsembleBatchScorer, "predict", "ml.inference.predict",
         lambda a: _rows(a[1])),
        (RBFKernel, "__call__", "ml.kernels.cross_gram", _madds),
        (LinearKernel, "__call__", "ml.kernels.cross_gram", _madds),
        (RBFKernel, "subspace_gram", "ml.kernels.subspace_gram", None),
        (Kernel, "subspace_gram", "ml.kernels.subspace_gram", None),
        (SVMClassifier, "fit", "ml.svm.fit", None),
        (SVMClassifier, "decision_function", "ml.svm.decision_function", None),
        (subspace, "fit_subspace_draw", "ml.subspace.draw", None),
    ]


class Shims:
    """Context manager installing the span shims and restoring the originals."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Shims":
        for owner, attr, name, work in _targets():
            original = owner.__dict__.get(attr)
            if original is None:
                # A moved or renamed callable would read as a layer costing
                # nothing; fail the run instead.
                self.__exit__()
                raise RuntimeError(f"no {attr} on {owner!r} to trace as {name}")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _shim(self.rec, name, original, work))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
