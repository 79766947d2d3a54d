"""Checks that reference times move one for one with the program's cost.

Reference times divide wall times by a calibration kernel timed next to
each operation (``calibrate.py``).  If the program's own cache or clock
state leaked into the kernel's time, part of a real program change would be
absorbed by the divisor.  This script injects a known extra cost into the
measured operation from the benchmark side, on every other operation, and
compares injected with plain operations:

- ``compute``: 128x128 BLAS products on in-cache operands;
- ``memory``: read-modify-write sweeps over an 8 MB buffer, past the L2
  cache, which leave the caches full of the buffer.

On the serve workloads the cost is added after ``StreamPool.tick`` returns,
right before the calibration sample that closes the tick; on ``train_paper``
it is added after every subspace draw, right before the sample that cuts
the call there.  It reports the wall ratio W and the reference ratio R of
injected over plain operations, the slope (R - 1) / (W - 1), 1 when the
reference time rises by the same factor as the wall time, and the ratio of
the calibration samples themselves (1 when the injected cost leaves the
kernel alone)::

    python3 perfbench/calcheck.py --workload serve_gateway --kind memory --seconds 60

Plain and injected operations alternate, so both see the same host speed
phases.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Injected wall time per tick (serve workloads, about the tick itself) and
#: per subspace draw (train_paper, about the draw itself).
EXTRA_MS_PER_TICK = 120.0
EXTRA_MS_PER_DRAW = 60.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class Injector:
    """A fixed extra cost, in units sized so that ``per_op_ms`` of wall time
    is added per operation."""

    def __init__(self, kind: str, per_op_ms: float) -> None:
        import numpy as np

        rng = np.random.default_rng(7)
        self.kind = kind
        self._mat = rng.random((128, 128))
        self._buf = rng.random(8 * 2**20 // 8)  # 8 MB of float64
        self.units = 1
        unit_ns = statistics.median(self._timed(1) for _ in range(21))
        self.units = max(1, round(per_op_ms * 1e6 / unit_ns))
        self.unit_ms = unit_ns / 1e6

    def _timed(self, units: int) -> int:
        t0 = time.perf_counter_ns()
        self.run(units)
        return time.perf_counter_ns() - t0

    def run(self, units: int = 0) -> None:
        import numpy as np

        for _ in range(units or self.units):
            if self.kind == "compute":
                for _ in range(4):
                    self._mat @ self._mat
            else:
                np.add(self._buf, 1.0, out=self._buf)


def _alternating_ticks(trace, inj: Injector):
    """Wraps ``StreamPool.tick``: injects on every other tick, with the
    parity flipped on each new pool (pass), so every tick index is measured
    both ways.  Returns the per-tick flags and the restore function."""
    from repro.stream.engine import StreamPool

    original = StreamPool.tick
    flags, state = [], {"pool": None, "n": 0, "passes": 0}

    def tick(self, *args, **kwargs):
        if self is not state["pool"]:
            state.update(pool=self, n=0, passes=state["passes"] + 1)
        on = (state["n"] + state["passes"]) % 2 == 1
        state["n"] += 1
        flags.append(on)
        res = original(self, *args, **kwargs)
        if on:
            inj.run()
        return res

    StreamPool.tick = tick
    return flags, lambda: setattr(StreamPool, "tick", original)


def _serve(args, inj, cal):
    import numpy as np
    import serving

    trace = serving.build_trace(args.workload, "full", 1)
    checks = serving.Checks()
    serving.replay(trace, checks, serving.PassStats())  # warm caches, untimed
    flags, restore = _alternating_ticks(trace, inj)
    try:
        stats = serving.serve_phase(trace, checks, args.seconds, cal)
    finally:
        restore()
    per_pass = len(trace.ticks)
    on = np.asarray(flags).reshape(-1, per_pass)[:, trace.warmup:].ravel()
    return np.asarray(stats.wall_ns, float), np.asarray(stats.ref_ns), on, checks


def _train(args, inj, cal):
    """Injects after every other subspace draw, with the parity flipped on
    each call, and returns one entry per draw segment (the time between two
    calibration cuts that holds exactly one draw)."""
    import numpy as np
    import repro.ml.subspace as subspace
    import training
    from calibrate import SegmentClock, reference_ns
    from serving import Checks

    state = {"call": 0, "draw": 0}
    wall, ref, on = [], [], []

    class RecordingClock(SegmentClock):
        def start(self):
            state.update(call=state["call"] + 1, draw=0)
            super().start()

        def stop(self):
            out = super().stop()
            # Segment k >= 1 is draw k - 1; the last one also holds the
            # work after the final draw, so it is left out.
            for k in range(1, len(self._segments) - 1):
                wall.append(self._segments[k])
                ref.append(reference_ns(self._segments[k], self._cals[k],
                                        self._cals[k + 1]))
                on.append((k - 1 + state["call"]) % 2 == 1)
            return out

    draw = subspace.fit_subspace_draw

    def injected_draw(*a, **kw):
        out = draw(*a, **kw)
        if (state["draw"] + state["call"]) % 2 == 1:
            inj.run()
        state["draw"] += 1
        return out

    case = training.build_case("full")
    checks = Checks()
    subspace.fit_subspace_draw, training.SegmentClock = injected_draw, RecordingClock
    try:
        training.train_phase(case, checks, training.TrainStats(), args.seconds, cal)
    finally:
        subspace.fit_subspace_draw, training.SegmentClock = draw, SegmentClock
    calls = state["call"] - state["call"] % 2  # even: each draw measured both ways
    keep = len(wall) // state["call"] * calls
    return (np.asarray(wall[:keep], float), np.asarray(ref[:keep]),
            np.asarray(on[:keep]), checks)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("serve_ensemble", "serve_gateway", "train_paper"))
    parser.add_argument("--kind", required=True, choices=("compute", "memory"))
    parser.add_argument("--seconds", type=float, default=60.0)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

    import numpy as np
    from calibrate import Calibrator

    train = args.workload == "train_paper"
    inj = Injector(args.kind, EXTRA_MS_PER_DRAW if train else EXTRA_MS_PER_TICK)
    cal = Calibrator()
    wall, ref, on, checks = (_train if train else _serve)(args, inj, cal)
    # Every tick index or draw index is measured both ways equally often,
    # so the sums compare.
    wall_ratio = float(wall[on].sum() / wall[~on].sum() * (~on).sum() / on.sum())
    ref_ratio = float(ref[on].sum() / ref[~on].sum() * (~on).sum() / on.sum())
    # wall / ref is the mean calibration sample over the reference time.
    cal_ratio = float(np.median(wall[on] / ref[on]) / np.median(wall[~on] / ref[~on]))
    print(json.dumps({
        "workload": args.workload, "kind": args.kind,
        "operations": int(on.size), "injected": int(on.sum()),
        "unit_ms": inj.unit_ms, "units_per_injection": inj.units,
        "wall_ratio": wall_ratio, "ref_ratio": ref_ratio,
        "slope": (ref_ratio - 1) / (wall_ratio - 1),
        "calibration_ratio": cal_ratio, "failed": checks.failed,
    }))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
