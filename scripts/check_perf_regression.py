#!/usr/bin/env python
"""CI perf-regression gate: compare a fresh BENCH_perf.json to the baseline.

Usage::

    python scripts/check_perf_regression.py FRESH BASELINE [--threshold 0.25]

Exits 0 when every tracked metric in the fresh report stays within the
allowed fraction of the committed baseline's gate floor, 1 otherwise
(printing one line per failed metric).  When the baseline refresh lowered
any floor (``update_perf_baseline.py --allow-lower``), the lowered floors
and the recorded reason are printed first.  See docs/PERFORMANCE.md.
"""

from __future__ import annotations

import argparse
import sys

from repro.eval.perf import (
    DEFAULT_THRESHOLD,
    TRACKED_METRICS,
    compare_reports,
    gate_lowering_note,
    load_perf_report,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="freshly measured BENCH_perf.json")
    parser.add_argument("baseline", help="committed baseline BENCH_perf.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="allowed fractional regression (default %(default)s)",
    )
    args = parser.parse_args(argv)

    fresh = load_perf_report(args.fresh)
    baseline = load_perf_report(args.baseline)
    note = gate_lowering_note(baseline)
    if note:
        print(f"note: {note}")
    # A stale baseline (e.g. missing a newly tracked stage such as
    # fleet.speedup / streaming.speedup, the SoA-vs-scalar-twin gates, or
    # training.speedup, the fold-sliced-SMO-vs-reference gate) would
    # silently shrink the gate's coverage.
    stale = [m for m in TRACKED_METRICS if m not in baseline.get("tracked", [])]
    if stale:
        print("perf regression gate FAILED:")
        for name in stale:
            print(
                f"  {name}: not in the committed baseline — regenerate it "
                "with scripts/update_perf_baseline.py"
            )
        return 1
    failures = compare_reports(fresh, baseline, threshold=args.threshold)
    if failures:
        print("perf regression gate FAILED:")
        for line in failures:
            print(f"  {line}")
        return 1
    tracked = ", ".join(
        f"{name}={fresh['metrics'][name]:.2f}" for name in baseline.get("tracked", [])
    )
    print(f"perf regression gate OK ({tracked})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
