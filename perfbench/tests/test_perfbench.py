"""Smoke tests of the benchmark itself, at the tiny scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import serving  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*extra, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--size", "tiny",
         "--seconds", "0.3", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    info, result = _bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert info["threads"]["OPENBLAS_NUM_THREADS"] == "1"


@pytest.mark.parametrize("tamper", ["decision", "counter"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tampered_output_is_counted_as_failed(workload, tamper):
    info, result = _bench("--workload", workload, "--seed", "3", "--tamper", tamper)
    assert result["failed"] > 0 and not result["correct"]
    assert info["failed_ratio"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_nests_and_sums(workload):
    info, result = _bench("--workload", workload, "--seed", "4", "--trace", "1")
    assert result["correct"], info
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    spans = np.load(BENCH / "out" / f"spans-{workload}-seed4.npz")
    parent = spans["parent"]
    child = np.nonzero(parent >= 0)[0]
    assert (spans["start"][child] >= spans["start"][parent[child]]).all()
    assert (spans["end"][child] <= spans["end"][parent[child]]).all()
    assert abs(info["self_sum_ns"] - info["traced_ns"]) <= (
        run.SELF_SUM_TOLERANCE * info["traced_ns"])
    # Layer spans cover the traced operations: the harness roots keep
    # almost no self time.
    roots = parent < 0
    assert spans["self"][roots].sum() == info["uncovered_ns"]
    assert info["uncovered_ns"] <= run.UNCOVERED_TOLERANCE * info["traced_ns"]
    # Every span of an operation carries its root's trace id.
    assert (spans["trace"][child] == spans["trace"][parent[child]]).all()


def test_same_seed_reproduces_frames_and_integrity_counts():
    a = serving.build_trace("serve_gateway", "tiny", 9)
    b = serving.build_trace("serve_gateway", "tiny", 9)
    for (sa, fa, la), (sb, fb, lb) in zip(a.ticks, b.ticks):
        assert np.array_equal(sa, sb) and np.array_equal(fa, fb) and np.array_equal(la, lb)
    for name, col in a.ledger.items():
        assert np.array_equal(col, b.ledger[name])
    assert np.array_equal(a.reference, b.reference)
    c = serving.build_trace("serve_gateway", "tiny", 10)
    assert not np.array_equal(a.ticks[1][1], c.ticks[1][1])
    # The traced run's integrity counts repeat exactly for one seed.
    counts = [
        {k: v["value"] for k, v in _bench("--workload", "serve_gateway", "--seed", "9",
                                          "--trace", "1")[1]["metrics"].items()
         if k.startswith("stream.ingest.frames")}
        for _ in range(2)
    ]
    assert counts[0] == counts[1] and counts[0]["stream.ingest.frames_corrupt"] > 0


def test_gateway_ledger_sees_every_impairment():
    trace = serving.build_trace("serve_gateway", "tiny", 5)
    led = trace.ledger
    assert led["frames_corrupt"].sum() and led["frames_duplicate"].sum()
    assert led["frames_missing"].sum() and led["sequence_gaps"].sum()
    assert (led["frames_in"] == led["frames_ok"] + led["frames_corrupt"]
            + led["frames_duplicate"]).all()


def test_missing_layer_callable_fails_the_traced_run(monkeypatch):
    import repro.stream.ingest as ingest
    from spans import Shims, SpanRecorder

    monkeypatch.delattr(ingest, "decode_values")
    saved = ingest.FrameIngestor.push_frames
    with pytest.raises(RuntimeError, match="decode_values"):
        with Shims(SpanRecorder()):
            pass
    assert ingest.FrameIngestor.push_frames is saved  # shims already set are undone


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "serve_gateway", "--seed", "1", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
