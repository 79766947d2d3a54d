"""Frame-to-decision benchmark of the XPro reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_ensemble --seed 1 --seconds 25 --trace 0

Workloads (see ``perfbench/README.md`` for shapes and the layer map):

- ``serve_ensemble``: 1024 clean framed E1 streams scored by the trained
  random-subspace ensemble;
- ``serve_gateway``: 4096 impaired framed streams on a mixed window/hop
  grid, one flooding tenant, scored by the moments backend;
- ``train_paper``: ``train_analytic_engine`` with the Section 4.4 protocol
  shape on C1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps every
layer's public callables in timing spans and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries run details (sample counts, tail percentile, thread pinning).
BLAS/OpenMP threads are pinned to 1 before NumPy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("serve_ensemble", "serve_gateway", "train_paper")
#: Full set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Largest tolerated gap between the summed span self times and the
#: harness-timed traced operations, as a share of the latter.
SELF_SUM_TOLERANCE = 0.01
#: Largest tolerated self time of the harness root spans (``bench.tick``,
#: ``bench.train``), i.e. traced time that no layer span covers, as a share
#: of the traced operations.  Losing a layer's shim pushes it far past this.
UNCOVERED_TOLERANCE = 0.01


def _median_setup(build, cal):
    """Run ``build`` ``SETUP_REPEATS`` times; returns the last result and
    the median set-up time in reference seconds."""
    from calibrate import SegmentClock

    clock, times, result = SegmentClock(cal), [], None
    for _ in range(SETUP_REPEATS):
        result = None  # release the previous set-up before timing the next
        clock.start()
        result = build()
        times.append(clock.stop()[1])
    return result, statistics.median(times) / 1e9


def _tail(values):
    """Value at the highest percentile with at least 10 samples beyond it,
    and that percentile; the maximum when that percentile would not lie
    above the median (fewer than 21 samples)."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals, ticks: int, windows: int, calls: int, draws: int,
                  counts, overhead: float):
    """Per-layer metrics from span totals (``spans.Total`` per span name).

    Per-tick and per-window figures divide by the traced timed ticks and
    the windows they decided, per-call figures by the span's own calls,
    per-frame and per-row figures by the span's work count.  A layer the
    workload does not exercise reports 0.
    """
    from spans import Total

    def t(name):
        return totals.get(name, Total(0, 0.0, 0.0, 0))

    def us(ns):
        return ns / 1e3

    dfr, dv = t("hw.framing.decode_frames"), t("hw.framing.decode_values")
    push, ext = t("stream.ingest.push_frames"), t("stream.engine.extend")
    tick, score = t("stream.engine.tick"), t("stream.engine.score_matrix")
    extract, norm = t("dsp.batch.extract"), t("dsp.normalize.transform")
    build, pred = t("ml.inference.scorer_build"), t("ml.inference.predict")
    cg, sg = t("ml.kernels.cross_gram"), t("ml.kernels.subspace_gram")
    fit, dfn, draw = t("ml.svm.fit"), t("ml.svm.decision_function"), t("ml.subspace.draw")
    pb, train = t("core.pipeline.predict_batch"), t("core.pipeline.train_analytic_engine")
    frames_in, frames_ok = counts.get("frames_in", 0), counts.get("frames_ok", 0)
    emitted, skipped = counts.get("emitted", 0), counts.get("skipped", 0)
    return {
        "hw.framing.decode_frames_us_per_frame": (_per(us(dfr.ns), dfr.work), "us"),
        "hw.framing.decode_values_us_per_call": (_per(us(dv.ns), dv.calls), "us"),
        "hw.framing.decode_values_calls_per_tick": (_per(dv.calls, ticks), "count"),
        "stream.ingest.self_us_per_frame": (_per(us(push.self_ns), push.work), "us"),
        "stream.ingest.frames_in": (frames_in, "count"),
        "stream.ingest.frames_ok": (frames_ok, "count"),
        "stream.ingest.frames_corrupt": (counts.get("frames_corrupt", 0), "count"),
        "stream.ingest.frames_duplicate": (counts.get("frames_duplicate", 0), "count"),
        "stream.ingest.frames_missing": (counts.get("frames_missing", 0), "count"),
        "stream.ingest.accept_ratio": (_per(frames_ok, frames_in), "ratio"),
        "stream.engine.extend_us_per_call": (_per(us(ext.ns), ext.calls), "us"),
        "stream.engine.extend_calls_per_tick": (_per(ext.calls, ticks), "count"),
        "stream.engine.gather_self_us_per_window": (_per(us(tick.self_ns), windows), "us"),
        "stream.engine.score_us_per_window": (_per(us(score.ns), windows), "us"),
        "stream.engine.windows_per_tick": (_per(windows, ticks), "count"),
        "stream.engine.emit_ratio": (_per(emitted, emitted + skipped), "ratio"),
        "stream.engine.skipped_windows": (skipped, "count"),
        "stream.engine.dropped_samples": (counts.get("dropped_samples", 0), "count"),
        "dsp.batch.extract_us_per_window": (_per(us(extract.ns), extract.work), "us"),
        "dsp.normalize.transform_us_per_window": (_per(us(norm.ns), norm.work), "us"),
        "ml.inference.scorer_build_us_per_tick": (_per(us(build.ns), ticks), "us"),
        "ml.inference.predict_us_per_window": (_per(us(pred.ns), pred.work), "us"),
        "ml.kernels.cross_gram_calls_per_tick": (_per(cg.calls, ticks), "count"),
        "ml.kernels.cross_gram_us_per_call": (_per(us(cg.ns), cg.calls), "us"),
        "ml.kernels.madds_per_window": (_per(cg.work, windows), "madd_computed"),
        "ml.kernels.subspace_gram_us_per_draw": (_per(us(sg.ns), draws), "us"),
        "ml.svm.fit_calls": (_per(fit.calls, calls), "count"),
        "ml.svm.fit_us_per_call": (_per(us(fit.ns), fit.calls), "us"),
        "ml.subspace.draw_us": (_per(us(draw.ns), draw.calls), "us"),
        "ml.svm.decision_function_us_per_call": (_per(us(dfn.ns), dfn.calls), "us"),
        "core.pipeline.predict_batch_self_us_per_tick": (_per(us(pb.self_ns), ticks), "us"),
        "core.pipeline.train_self_s": (_per(train.self_ns / 1e9, calls), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }


def _end_to_end(ref_ns, wall_ns, work, info):
    """Throughput and latency metrics of one timed phase, in reference time;
    the same figures in wall time go to ``info``."""
    tail, pct = _tail(ref_ns)
    info.update(samples=len(ref_ns), tail_percentile=round(pct, 2),
                wall_throughput_per_s=work / (sum(wall_ns) / 1e9),
                wall_p50_ms=statistics.median(wall_ns) / 1e6,
                wall_tail_ms=_tail(wall_ns)[0] / 1e6)
    return {
        "throughput_per_s": (work / (sum(ref_ns) / 1e9), "1/s"),
        "latency_p50_ms": (statistics.median(ref_ns) / 1e6, "ms"),
        "latency_tail_ms": (tail / 1e6, "ms"),
    }


def _traced(args, checks, info, rec, traced, plain_ref):
    """Check the spans of a traced phase and total them per name in
    reference time; returns ``(totals, overhead ratio)``.

    ``traced`` carries per operation its reference and wall times, the
    harness time around it (``outer_ns``) and its span trace id.
    """
    import numpy as np

    cols = rec.columns()
    checks.count(rec.nesting_ok(cols))
    outer = sum(traced.outer_ns)
    own = int(cols["self"].sum())
    checks.count(abs(own - outer) <= SELF_SUM_TOLERANCE * outer)
    uncovered = int(cols["self"][cols["parent"] < 0].sum())
    checks.count(uncovered <= UNCOVERED_TOLERANCE * outer)
    op_scale = np.asarray(traced.ref_ns) / np.asarray(traced.wall_ns)
    op_of_trace = np.zeros(max(traced.trace_ids) + 1, dtype=np.int64)
    op_of_trace[traced.trace_ids] = np.arange(len(traced.trace_ids))
    overhead = statistics.fmean(traced.ref_ns) / statistics.fmean(plain_ref)
    rec.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz", cols)
    info.update(samples=len(traced.ref_ns), spans=int(cols["dur"].size),
                self_sum_ns=own, traced_ns=outer, uncovered_ns=uncovered)
    return rec.totals(cols, op_scale[op_of_trace[cols["trace"]]]), overhead


def _run_serve(args, checks, info, cal):
    import serving
    from spans import Shims, SpanRecorder

    trace, setup_s = _median_setup(
        lambda: serving.build_trace(args.workload, args.size, args.seed), cal)
    info.update(streams=trace.spec.n_streams, ticks_per_pass=len(trace.ticks),
                warmup_ticks=trace.warmup, windows_per_pass=int(trace.formed.sum()))
    serving.replay(trace, checks, serving.PassStats())  # warm caches, untimed
    if not args.trace:
        stats = serving.serve_phase(trace, checks, args.seconds, cal)
        return _end_to_end(stats.ref_ns, stats.wall_ns, stats.windows, info), setup_s
    plain = serving.serve_phase(trace, checks, args.seconds / 2, cal)
    rec = SpanRecorder()
    with Shims(rec):
        traced = serving.serve_phase(trace, checks, args.seconds / 2, cal, rec=rec)
    totals, overhead = _traced(args, checks, info, rec, traced, plain.ref_ns)
    return layer_metrics(totals, len(traced.wall_ns), traced.windows, 0, 0,
                         traced.counts, overhead), setup_s


def _run_train(args, checks, info, cal):
    import training
    from spans import Shims, SpanRecorder

    case, setup_s = _median_setup(lambda: training.build_case(args.size), cal)
    draws = case.config.n_draws
    info.update(rows=len(case.dataset.labels), n_draws=draws,
                cv_folds=case.config.cv_folds)
    if not args.trace:
        stats = training.TrainStats()
        training.train_phase(case, checks, stats, args.seconds, cal)
        return _end_to_end(stats.ref_ns, stats.wall_ns, draws * len(stats.ref_ns),
                           info), setup_s
    plain, traced = training.TrainStats(), training.TrainStats()
    training.train_phase(case, checks, plain, args.seconds / 2, cal)
    rec = SpanRecorder()
    with Shims(rec):
        training.train_phase(case, checks, traced, args.seconds / 2, cal, rec=rec)
    totals, overhead = _traced(args, checks, info, rec, traced, plain.ref_ns)
    calls = len(traced.ref_ns)
    return layer_metrics(totals, 0, 0, calls, calls * draws, {}, overhead), setup_s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test scale of the benchmark's own tests")
    parser.add_argument("--tamper", choices=("decision", "counter"),
                        help="corrupt one output before its check (tests only)")
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: program sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np
    from calibrate import REF_NS, Calibrator
    from serving import Checks

    checks = Checks(tamper=args.tamper)
    cal = Calibrator()
    info = {"workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "numpy": np.__version__, "calibration_ref_ms": REF_NS / 1e6}
    runner = _run_train if args.workload == "train_paper" else _run_serve
    metrics, setup_s = runner(args, checks, info, cal)
    if not args.trace:
        metrics["setup_s"] = (setup_s, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    info.update(setup_s=setup_s, failed_ratio=checks.failed / max(checks.attempted, 1))
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
