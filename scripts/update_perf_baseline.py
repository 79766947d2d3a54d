#!/usr/bin/env python
"""Regenerate the committed perf baseline (benchmarks/results/BENCH_perf.json).

Usage::

    python scripts/update_perf_baseline.py [--runs 3] [--out PATH]
        [--allow-lower REASON]

Runs the full benchmark sweep ``--runs`` times plus one fast-mode run,
keeps the first full run as the reported measurement, and sets each gate
floor to ``GATE_MARGIN`` times the *minimum* tracked ratio observed across
all runs.  Ratcheting the floors from a multi-run minimum keeps the 25%
regression gate green under timer noise (single-run ratios vary ~±40% on
busy runners) while a real regression — losing vectorization collapses
every tracked ratio to ~1x — still fails by an order of magnitude.

Floors only ratchet up: a floor the new runs would put below the one
already committed at ``--out`` keeps its committed value.  Lowering it
takes ``--allow-lower REASON``; the reason and the lowered floors are
stored in the JSON (``gate_lowered``) and printed by
``check_perf_regression.py`` on every gate run.

Run this after intentionally changing hot-path performance — or after
adding a tracked stage (the gate script rejects baselines missing one,
e.g. ``fleet.speedup`` / ``streaming.speedup``, the SoA-vs-scalar-twin
gates, or ``training.speedup``, the fold-sliced-SMO-vs-reference gate) —
and commit the refreshed JSON with the change.

The training stage dominates full-run wall time: its scalar side is the
pinned reference SMO at paper scale (100 draws x 10-fold CV), minutes
per run by design.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.eval.perf import (
    GATE_MARGIN,
    TRACKED_METRICS,
    collect_perf_report,
    load_perf_report,
    ratchet_gate,
    write_perf_report,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--runs", type=int, default=3, help="full benchmark runs (default 3)"
    )
    parser.add_argument(
        "--out",
        default="benchmarks/results/BENCH_perf.json",
        help="output path (default %(default)s)",
    )
    parser.add_argument(
        "--allow-lower",
        metavar="REASON",
        help="let floors fall below the committed ones; REASON is recorded",
    )
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.allow_lower is not None and not args.allow_lower.strip():
        parser.error("--allow-lower needs a non-empty REASON")
    out = Path(args.out)
    previous = load_perf_report(out).get("gate", {}) if out.exists() else {}

    # Every run includes the fleet and streaming stages: their speedups
    # are tracked, so the multi-run minimum must observe them alongside
    # the other ratios (each scalar-twin-vs-SoA bench runs in ~1 s,
    # unlike the retired process-pool sweep that earned a first-run-only
    # exemption).
    reports = []
    for i in range(args.runs):
        print(f"full run {i + 1}/{args.runs} ...", flush=True)
        reports.append(collect_perf_report(fast=False))
    print("fast-mode run ...", flush=True)
    reports.append(collect_perf_report(fast=True))

    baseline = reports[0]
    missing = [m for m in TRACKED_METRICS if m not in baseline["tracked"]]
    if missing:  # a baseline must cover every gated stage
        parser.error(f"baseline run is missing tracked metrics: {missing}")
    candidate = {
        name: round(min(r["metrics"][name] for r in reports) * GATE_MARGIN, 2)
        for name in baseline["tracked"]
    }
    baseline["gate"], below = ratchet_gate(previous, candidate, args.allow_lower)
    for name in baseline["tracked"]:
        observed = [round(r["metrics"][name], 2) for r in reports]
        line = f"{name}: observed {observed} -> gate floor {baseline['gate'][name]}"
        if name in below and args.allow_lower is None:
            line += f" (kept; refused to lower to {candidate[name]})"
        print(line)
    if below and args.allow_lower is not None:
        baseline["gate_lowered"] = {"reason": args.allow_lower, "floors": below}
    path = write_perf_report(baseline, out)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
