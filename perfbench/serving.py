"""Serving workloads: many tenants' framed streams feeding one aggregator.

A trace is one recorded gateway session, generated from the seed: every
stream's source signal, the Q16.16 frames its sender encoded with
:func:`repro.hw.framing.encode_frames`, the channel impairments applied to
them, and the arrival order of each tick's frame batch.  The generator keeps
a ledger of what it did, and from that ledger alone derives what a correct
receiver must report: the per-stream integrity counters, the accepted sample
sequence, and the decision of every window formed on it.

A pass replays the trace through a fresh ``FrameIngestor`` + ``StreamPool``
in a closed loop: hand one tick's frames to ``push_frames``, call ``tick()``,
check its decisions, then send the next tick.  Ticks before every stream
holds a full window are warm-up and are not timed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from calibrate import reference_ns
from repro.core.pipeline import TrainingConfig, train_analytic_engine
from repro.dsp.fixedpoint import Q16_16
from repro.hw.framing import (
    HEADER_BYTES,
    SEQ_MODULUS,
    FramingConfig,
    encode_frames,
    encode_values,
    quantize_raw,
)
from repro.signals.datasets import TABLE1_CASES, load_case
from repro.stream.engine import EngineBackend, MomentsBackend, StreamPool, StreamSpec
from repro.stream.ingest import FrameIngestor

#: Q16.16 words per frame: 16 x 4 bytes fills the 64-byte payload limit.
SAMPLES_PER_FRAME = 16
#: Frames each stream sends per tick (32 samples).
FRAMES_PER_TICK = 2
#: Streams per tenant.
TENANT_SIZE = 64
#: Channel events per (stream, tick) group, in ledger code order.
EVENTS = ("clean", "drop", "duplicate", "reorder", "flip")
#: Integrity counter columns of ``FrameIngestor`` checked against the ledger.
COUNTERS = ("frames_ok", "frames_corrupt", "frames_duplicate",
            "sequence_gaps", "frames_missing", "payloads_ok")


@dataclass(frozen=True)
class ServeShape:
    """Size and traffic mix of one serving workload."""

    n_streams: int
    windows: Tuple[int, ...]
    hops: Tuple[int, ...]
    ticks: int  # per pass, warm-up included
    backend: str  # "engine" or "moments"
    train_segments: int = 0  # E1 rows the engine is trained on
    n_draws: int = 100
    impair: Tuple[float, ...] = (0.0, 0.0, 0.0, 0.0)  # drop, dup, reorder, flip
    flood_burst: int = 0  # extra frames in one flooding stream's burst
    flood_period: int = 8  # each flooding stream bursts once per period


SHAPES: Dict[Tuple[str, str], ServeShape] = {
    ("serve_ensemble", "full"): ServeShape(
        n_streams=1024, windows=(128,), hops=(32,), ticks=19,
        backend="engine", train_segments=400, n_draws=100),
    ("serve_ensemble", "tiny"): ServeShape(
        n_streams=128, windows=(128,), hops=(32,), ticks=7,
        backend="engine", train_segments=80, n_draws=8),
    ("serve_gateway", "full"): ServeShape(
        n_streams=4096, windows=(64, 96, 128), hops=(16, 24, 32), ticks=20,
        backend="moments", impair=(0.01, 0.01, 0.01, 0.01),
        flood_burst=20, flood_period=8),
    ("serve_gateway", "tiny"): ServeShape(
        n_streams=256, windows=(64, 96, 128), hops=(16, 24, 32), ticks=10,
        backend="moments", impair=(0.03, 0.03, 0.03, 0.03),
        flood_burst=20, flood_period=4),
}


@dataclass
class Trace:
    """One generated gateway session plus everything needed to check it."""

    spec: StreamSpec
    backend: object
    ticks: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]  # sids, frames, lengths
    warmup: int  # ticks before every stream holds a full window
    ledger: Dict[str, np.ndarray]  # expected per-stream counters, frames_in
    formed: np.ndarray  # windows formed per stream over the pass
    offsets: np.ndarray  # start of each stream's windows in ``reference``
    reference: np.ndarray  # expected decision of every formed window


# -- generation -------------------------------------------------------------


def _engine(shape: ServeShape):
    """Train the deployed E1 engine the ensemble workload scores with.

    The engine is the same for every seed (Table 1's E1 rows, the default
    protocol seed): its support-vector count sets the cost of every
    decision, so the seed varies the traffic, not the model.
    """
    config = TrainingConfig(n_draws=shape.n_draws)
    return train_analytic_engine(load_case("E1", shape.train_segments), config)


def _signals(shape: ServeShape, rng: np.random.Generator, length: int) -> np.ndarray:
    """Per-stream source signals, ``(n_streams, length)`` float64."""
    n = shape.n_streams
    if shape.backend == "engine":
        seg = TABLE1_CASES["E1"].segment_length
        per = -(-length // seg)
        segs, _ = TABLE1_CASES["E1"].make_generator().generate_batch(rng, n * per)
        return segs.reshape(n, per * seg)[:, :length]
    t = np.arange(length)[None, :]
    amp = rng.uniform(0.2, 1.5, (n, 1))
    freq = rng.uniform(0.005, 0.08, (n, 1))
    phase = rng.uniform(0, 2 * np.pi, (n, 1))
    offset = rng.normal(0.0, 0.5, (n, 1))
    noise = rng.normal(0.0, 0.2, (n, length))
    return amp * np.sin(2 * np.pi * freq * t + phase) + offset + noise


def _sent_frames(shape: ServeShape, rng: np.random.Generator,
                 tenants: np.ndarray) -> np.ndarray:
    """Frames each stream sends at each tick, ``(n_streams, ticks)``."""
    sent = np.full((shape.n_streams, shape.ticks), FRAMES_PER_TICK, dtype=np.int64)
    if shape.flood_burst:
        flood = np.nonzero(tenants == rng.integers(int(tenants.max()) + 1))[0]
        phase = rng.integers(shape.flood_period, size=flood.size)
        for t in range(1, shape.ticks):
            sent[flood[phase == t % shape.flood_period], t] += shape.flood_burst
    return sent


def _channel(shape: ServeShape, rng: np.random.Generator, sent: np.ndarray):
    """Arrivals per tick after the seeded impairment mix.

    Each (stream, tick) group suffers at most one event, at a recorded
    position: a dropped frame, a duplicated frame (the copy right behind
    it), two adjacent frames swapped, or one bit flipped in a payload.
    Tick 0 is clean so every stream synchronises.  Returns per tick the
    ``(stream, frame number, arrival slot, flipped)`` columns.
    """
    n, ticks = sent.shape
    p = np.asarray(shape.impair, dtype=np.float64)
    event = rng.choice(len(EVENTS), size=(n, ticks), p=np.concatenate([[1 - p.sum()], p]))
    event[:, 0] = 0
    pos = rng.integers(0, np.iinfo(np.int64).max, size=(n, ticks))
    first = np.cumsum(sent, axis=1) - sent
    per_tick = []
    for t in range(ticks):
        sids, fids, slots, flips = [], [], [], []
        for s in range(n):
            m = int(sent[s, t])
            frames = list(range(int(first[s, t]), int(first[s, t]) + m))
            flip = [False] * m
            code = EVENTS[event[s, t]]
            j = int(pos[s, t] % (m - 1 if code == "reorder" else m))
            if code == "drop":
                del frames[j], flip[j]
            elif code == "duplicate":
                frames.insert(j + 1, frames[j])
                flip.insert(j + 1, False)
            elif code == "reorder":
                frames[j], frames[j + 1] = frames[j + 1], frames[j]
            elif code == "flip":
                flip[j] = True
            sids.extend([s] * len(frames))
            fids.extend(frames)
            slots.extend(range(len(frames)))
            flips.extend(flip)
        per_tick.append(tuple(np.asarray(c) for c in (sids, fids, slots, flips)))
    return per_tick


def _ledger(seq0: np.ndarray, per_tick, n: int, ticks: int):
    """What a correct receiver reports, from the generator's own record.

    The sequence rule of the wire protocol: the first intact frame
    synchronises a stream; then ``(seq - expected) mod 2**16`` is 0 in
    order, a small forward step a gap (its size charged as missing), and
    anything at or past half the space a duplicate or stale reorder.
    Flipped frames are corrupt.  Returns the counters, each stream's
    accepted frame numbers, and the tick each was accepted at.
    """
    cols = {name: np.zeros(n, dtype=np.int64) for name in COUNTERS + ("frames_in",)}
    synced = np.zeros(n, dtype=bool)
    expected = np.zeros(n, dtype=np.int64)
    accepted: List[List[int]] = [[] for _ in range(n)]
    accepted_at: List[List[int]] = [[] for _ in range(n)]
    half = SEQ_MODULUS // 2
    for t in range(ticks):
        sids, fids, _, flips = per_tick[t]
        for s, f, flipped in zip(sids.tolist(), fids.tolist(), flips.tolist()):
            cols["frames_in"][s] += 1
            if flipped:
                cols["frames_corrupt"][s] += 1
                continue
            seq = (int(seq0[s]) + f) % SEQ_MODULUS
            if synced[s]:
                delta = (seq - int(expected[s])) % SEQ_MODULUS
                if delta >= half:
                    cols["frames_duplicate"][s] += 1
                    continue
                if delta:
                    cols["sequence_gaps"][s] += 1
                    cols["frames_missing"][s] += delta
            synced[s] = True
            expected[s] = (seq + 1) % SEQ_MODULUS
            cols["frames_ok"][s] += 1
            cols["payloads_ok"][s] += 1
            accepted[s].append(f)
            accepted_at[s].append(t)
    return cols, accepted, accepted_at


def _reference(spec: StreamSpec, backend, clean: np.ndarray, accepted,
               accepted_at, ticks: int):
    """Expected decision of every window of every expected sequence.

    Windows are scored tick by tick in the order ``tick()`` emits them
    (stream-major, one batch per window length), so while no window is
    skipped a scorer whose arithmetic depends on batch composition sees the
    same batches here as in the pool.
    """
    n = spec.n_streams
    k = SAMPLES_PER_FRAME
    counts = np.array([len(a) for a in accepted], dtype=np.int64)
    frame_idx = np.zeros((n, int(counts.max())), dtype=np.int64)
    done = np.zeros((n, ticks), dtype=np.int64)
    for s in range(n):
        frame_idx[s, : counts[s]] = accepted[s]
        np.add.at(done[s], accepted_at[s], k)
    frames = clean.reshape(n, -1, k)
    expected_seq = frames[np.arange(n)[:, None], frame_idx].reshape(n, -1)
    held = np.cumsum(done, axis=1)  # accepted samples after each tick
    w, h = spec.windows[:, None], spec.hops[:, None]
    formed = np.where(held >= w, (held - w) // h + 1, 0)
    offsets = np.concatenate([[0], np.cumsum(formed[:, -1])[:-1]])
    reference = np.zeros(int(formed[:, -1].sum()), dtype=np.int64)
    prev = np.zeros(n, dtype=np.int64)
    for t in range(ticks):
        due = formed[:, t] - prev
        sidx = np.repeat(np.arange(n), due)
        kidx = np.repeat(prev, due) + (
            np.arange(sidx.size) - np.repeat(np.cumsum(due) - due, due))
        lengths = spec.windows[sidx]
        for length in np.unique(lengths):
            rows = np.nonzero(lengths == length)[0]
            cols = (kidx[rows] * spec.hops[sidx[rows]])[:, None] + np.arange(length)
            matrix = expected_seq[sidx[rows, None], cols]
            _, dec = backend.score_matrix(matrix, spec.levels[sidx[rows]])
            reference[offsets[sidx[rows]] + kidx[rows]] = dec
        prev = formed[:, t]
    warm = int(np.argmax((formed > 0).all(axis=0)))
    if not (formed[:, warm] > 0).all():
        raise RuntimeError("trace too short: some stream never fills a window")
    return formed[:, -1].copy(), offsets, reference, warm


def build_trace(workload: str, size: str, seed: int) -> Trace:
    """Generate one workload's trace and its expected outputs from ``seed``."""
    shape = SHAPES[(workload, size)]
    rng = np.random.default_rng(seed)
    n = shape.n_streams
    tenants = np.arange(n, dtype=np.int64) // TENANT_SIZE
    spec = StreamSpec(
        windows=rng.choice(shape.windows, n),
        hops=rng.choice(shape.hops, n),
        levels=rng.normal(0.0, 0.1, n) if shape.backend == "moments" else None,
        tenants=tenants,
    )
    backend = EngineBackend(_engine(shape)) if shape.backend == "engine" \
        else MomentsBackend()
    sent = _sent_frames(shape, rng, tenants)
    length = int(sent.sum(axis=1).max()) * SAMPLES_PER_FRAME
    # The wire carries Q16.16 words: the clean source is the signal on
    # that grid, exactly what the receiver decodes from an intact frame.
    clean = quantize_raw(_signals(shape, rng, length), Q16_16) / Q16_16.scale
    seq0 = rng.integers(0, SEQ_MODULUS, n)
    per_tick = _channel(shape, rng, sent)

    config = FramingConfig()
    payload_bytes = SAMPLES_PER_FRAME * 4
    wire = [encode_values(row) for row in clean]
    ticks = []
    for sids, fids, slots, flips in per_tick:
        order = np.lexsort((sids, slots))  # round-robin across streams
        sids, fids, flips = sids[order], fids[order], flips[order]
        payloads = [wire[s][f * payload_bytes:(f + 1) * payload_bytes]
                    for s, f in zip(sids.tolist(), fids.tolist())]
        matrix, lengths = encode_frames(payloads, seq0[sids] + fids, config)
        bad = np.nonzero(flips)[0]
        byte = HEADER_BYTES + rng.integers(0, payload_bytes, bad.size)
        matrix[bad, byte] ^= (1 << rng.integers(0, 8, bad.size)).astype(np.uint8)
        ticks.append((sids.astype(np.int64), matrix, lengths))

    ledger, accepted, accepted_at = _ledger(seq0, per_tick, n, shape.ticks)
    formed, offsets, reference, warm = _reference(
        spec, backend, clean, accepted, accepted_at, shape.ticks)
    return Trace(
        spec=spec, backend=backend, ticks=ticks, warmup=warm, ledger=ledger,
        formed=formed, offsets=offsets, reference=reference,
    )


# -- replay and checks ------------------------------------------------------


@dataclass
class Checks:
    """Outputs checked and outputs that failed their check."""

    attempted: int = 0
    failed: int = 0
    tamper: Optional[str] = None  # "decision" or "counter": test hook

    def count(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


@dataclass
class PassStats:
    """Timed-tick latencies and per-pass accounting of one serving phase."""

    wall_ns: List[int] = field(default_factory=list)
    ref_ns: List[float] = field(default_factory=list)  # reference time of each timed tick
    trace_ids: List[int] = field(default_factory=list)  # span trace id of each timed tick
    windows: int = 0
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def outer_ns(self) -> List[int]:
        """Harness time around each timed tick: no calibration runs inside."""
        return self.wall_ns


def _check_tick(trace: Trace, res, checks: Checks, emitted: np.ndarray) -> None:
    """Every emitted window's decision against the reference, one check each."""
    if not len(res):
        return
    decisions = res.decisions
    if checks.tamper == "decision":
        decisions = decisions.copy()
        decisions[0] ^= 1
        checks.tamper = None
    inside = (res.indices >= 0) & (res.indices < trace.formed[res.streams])
    at = trace.offsets[res.streams] + np.where(inside, res.indices, 0)
    good = inside & (decisions == trace.reference[at])
    checks.attempted += int(good.size)
    checks.failed += int(good.size - np.count_nonzero(good))
    emitted += np.bincount(res.streams, minlength=emitted.size)


def _check_pass(trace: Trace, pool: StreamPool, ing: FrameIngestor,
                emitted: np.ndarray, checks: Checks) -> Dict[str, int]:
    """Counters against the ledger, plus the conservation identities."""
    if checks.tamper == "counter":
        ing.frames_ok[0] += 1
        checks.tamper = None
    led = trace.ledger
    for name in COUNTERS:
        checks.count(np.array_equal(getattr(ing, name), led[name]))
    checks.count(np.array_equal(
        led["frames_in"], ing.frames_ok + ing.frames_corrupt + ing.frames_duplicate))
    offered = SAMPLES_PER_FRAME * ing.frames_ok
    checks.count(np.array_equal(
        offered, pool.accepted_samples + pool.rejected_samples + pool.dropped_samples))
    checks.count(np.array_equal(ing.samples_in, pool.accepted_samples))
    rollup = ing.tenant_stats()
    checks.count(all(
        sum(getattr(c, name) for c in rollup.values()) == int(getattr(ing, name).sum())
        for name in COUNTERS))
    checks.count(np.array_equal(emitted + pool.skipped_windows, trace.formed))
    return {
        "frames_in": int(led["frames_in"].sum()),
        "frames_ok": int(ing.frames_ok.sum()),
        "frames_corrupt": int(ing.frames_corrupt.sum()),
        "frames_duplicate": int(ing.frames_duplicate.sum()),
        "frames_missing": int(ing.frames_missing.sum()),
        "emitted": int(emitted.sum()),
        "skipped": int(pool.skipped_windows.sum()),
        "dropped_samples": int(pool.dropped_samples.sum()),
    }


def replay(trace: Trace, checks: Checks, stats: PassStats, cal=None,
           rec=None) -> None:
    """One closed-loop pass over the trace through a fresh ingest path.

    With a calibrator, ticks after warm-up are timed, each between two
    calibration samples.  With a span recorder, each timed tick is one trace
    id under a ``bench.tick`` root span; warm-up ticks record nothing.
    """
    pool = StreamPool(trace.spec, trace.backend)
    ing = FrameIngestor(pool)
    emitted = np.zeros(trace.spec.n_streams, dtype=np.int64)
    for t, (sids, frames, lengths) in enumerate(trace.ticks):
        timing = cal is not None and t >= trace.warmup
        root = None
        if timing:
            before = cal.sample()
        if rec is not None:
            rec.active = timing
            rec.trace_id += 1
            if timing:
                stats.trace_ids.append(rec.trace_id)
        t0 = time.perf_counter_ns()
        if rec is not None and timing:
            root = rec.open("bench.tick")
        ing.push_frames(sids, frames, lengths)
        res = pool.tick()
        if root is not None:
            rec.close(root)
        t1 = time.perf_counter_ns()
        if timing:
            stats.wall_ns.append(t1 - t0)
            stats.ref_ns.append(reference_ns(t1 - t0, before, cal.sample()))
            stats.windows += len(res)
        _check_tick(trace, res, checks, emitted)
    if rec is not None:
        rec.active = False
    stats.counts = _check_pass(trace, pool, ing, emitted, checks)


def serve_phase(trace: Trace, checks: Checks, seconds: float, cal,
                rec=None) -> PassStats:
    """Replay timed passes until ``seconds`` have elapsed (at least one)."""
    stats = PassStats()
    deadline = time.perf_counter() + seconds
    while True:
        replay(trace, checks, stats, cal=cal, rec=rec)
        if time.perf_counter() >= deadline:
            return stats
