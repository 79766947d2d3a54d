"""Scalar-vs-batch performance benchmark and regression gate.

Times the vectorized hot paths against their scalar references — feature
extraction, multi-level DWT, ensemble inference, the end-to-end segment
pipeline, the warm-started generator fast path, the batch wire data
plane (framing/CRC/Q16.16 codec), the struct-of-arrays fleet engine
(vs its per-object scalar twin), the struct-of-arrays multi-stream
ingestion engine (vs its per-stream scalar twin) and the fold-sliced
subspace training fast path (vs the pinned reference SMO protocol) —
and writes the machine-readable report to
``benchmarks/results/BENCH_perf.json`` (``results-fast/`` under
``XPRO_BENCH_FAST=1``).  See ``docs/PERFORMANCE.md`` for the report
schema and the gate semantics.

The regression gate compares the fresh report against the committed
baseline: any tracked speedup ratio falling more than 25% below the
baseline's gate floor fails.  Ratios of two timings on the same machine
are compared (never absolute throughput), so the gate is portable across
runner hardware.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.eval.perf import (
    SCHEMA,
    collect_perf_report,
    compare_reports,
    load_perf_report,
    perf_rows,
    write_perf_report,
)
from repro.eval.tables import format_table

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
FAST_MODE = os.environ.get("XPRO_BENCH_FAST", "") not in ("", "0")

#: The committed full-mode baseline the gate compares against.
BASELINE_PATH = RESULTS_DIR / "BENCH_perf.json"


@pytest.fixture(scope="module")
def perf_report():
    """One benchmark sweep per session, written to the results directory."""
    report = collect_perf_report(fast=FAST_MODE)
    out_dir = RESULTS_DIR.with_name("results-fast") if FAST_MODE else RESULTS_DIR
    out_dir.mkdir(exist_ok=True)
    write_perf_report(report, out_dir / "BENCH_perf.json")
    return report


def test_report_schema(perf_report, save_table):
    assert perf_report["schema"] == SCHEMA
    assert perf_report["tracked"], "no tracked metrics collected"
    for name in perf_report["tracked"]:
        assert name in perf_report["metrics"]
        assert name in perf_report["gate"]
    save_table("perf", format_table(perf_rows(perf_report), title="Batch speedups"))


def test_batch_paths_equivalent(perf_report):
    """Every timed batch path must agree with its scalar reference."""
    disagreements = [
        name
        for name, case in perf_report["cases"].items()
        if not case["equivalent"]
    ]
    assert not disagreements, f"scalar/batch mismatch in: {disagreements}"


def test_extraction_speedup_floor(perf_report):
    """Acceptance: >= 5x batch feature extraction at 256 segments."""
    case = perf_report["cases"]["extraction"]
    assert case["n_items"] >= 256
    assert case["speedup"] >= 5.0, f"extraction speedup {case['speedup']:.2f} < 5"


def test_generator_speedup_floor(perf_report):
    """Acceptance: >= 5x delay-constrained generate() on the warm fast path.

    The generator stage runs a delay-limit ladder that forces the full
    Lagrangian bisection at every point; the warm path shares one s-t
    graph template, residual warm starts and the evaluation memo across
    the ladder, vs a cold rebuild-per-solve generator.
    """
    case = perf_report["cases"]["generator"]
    assert case["equivalent"], "warm and cold generator paths disagreed"
    assert case["speedup"] >= 5.0, f"generator speedup {case['speedup']:.2f} < 5"


def test_wire_speedup_floor(perf_report):
    """Acceptance: >= 8x on the batch wire data plane at 512 payloads.

    The wire case's equivalence flag also covers the seeded
    scalar-vs-fast campaign replay, so this floor doubles as the
    bit-identity acceptance check for the campaign fast path.
    """
    case = perf_report["cases"]["wire"]
    assert case["n_items"] >= 512
    assert case["equivalent"], "batch wire plane diverged from the scalar path"
    assert case["speedup"] >= 8.0, f"wire speedup {case['speedup']:.2f} < 8"


def test_fleet_speedup_floor(perf_report):
    """Acceptance: >= 8x struct-of-arrays fleet engine over the scalar twin.

    Both paths run single-core, so the ratio is portable across runner
    hardware (unlike the retired absolute networks-per-second floor).
    The equivalence flag asserts full bit-identity — counters, energies,
    latencies, NaN-sentinel availability and final channel states — via
    ``repro.exact.identical``, under the shared per-network RNG
    draw-order contract.  Full mode sizes the fleet at 10^4 devices.
    """
    case = perf_report["cases"].get("fleet")
    if case is None:
        pytest.skip("fleet stage not collected in this run")
    assert case["equivalent"], "SoA fleet engine diverged from the scalar twin"
    if not FAST_MODE:
        assert case["n_items"] >= 10_000
    assert case["speedup"] >= 8.0, f"fleet speedup {case['speedup']:.2f} < 8"


def test_streaming_speedup_floor(perf_report):
    """Acceptance: >= 8x SoA multi-stream engine over the scalar twin.

    Full mode runs >= 1000 concurrent streams on a heterogeneous
    window/hop grid.  The equivalence flag asserts full bit-identity —
    per-window scores, decisions, window sequencing and every
    backpressure/rejection counter — via ``repro.exact.identical``,
    and the case carries p50/p99 per-window tick-latency extras in the
    written report.
    """
    case = perf_report["cases"].get("streaming")
    if case is None:
        pytest.skip("streaming stage not collected in this run")
    assert case["equivalent"], "SoA stream engine diverged from the scalar twin"
    assert case["p50_window_latency_ms"] > 0.0
    assert case["p99_window_latency_ms"] >= case["p50_window_latency_ms"]
    if not FAST_MODE:
        assert case["n_streams"] >= 1000
        assert case["speedup"] >= 8.0, (
            f"streaming speedup {case['speedup']:.2f} < 8"
        )


def test_training_speedup_floor(perf_report):
    """Acceptance: >= 5x fold-sliced training fast path at paper scale.

    Full mode runs the §4.4 protocol end to end — 100 subspace draws ×
    10-fold CV plus final refits — on the C1 case; fast mode trims the
    draw count but keeps the per-draw work, so the ratio carries.  The
    equivalence flag asserts decision-identical ensembles (same retained
    subsets, bitwise-equal dual coefficients/biases, same
    ``used_feature_indices``, identical predictions), in full mode
    across all six Table-1 cases.
    """
    case = perf_report["cases"].get("training")
    if case is None:
        pytest.skip("training stage not collected in this run")
    assert case["equivalent"], "fast training path diverged from the reference"
    assert case["cv_folds"] >= 10
    if not FAST_MODE:
        assert case["n_items"] >= 100
        assert case["cases_checked"] >= 6
    assert case["speedup"] >= 5.0, f"training speedup {case['speedup']:.2f} < 5"


def test_regression_gate(perf_report):
    """Fresh tracked ratios must stay within 25% of the committed baseline."""
    if not BASELINE_PATH.exists():
        pytest.skip("no committed baseline yet (benchmarks/results/BENCH_perf.json)")
    baseline = load_perf_report(BASELINE_PATH)
    failures = compare_reports(perf_report, baseline)
    assert not failures, "perf regression gate failed:\n" + "\n".join(failures)
