"""Composable fault models and seeded fault-injection campaigns.

The discrete-event simulator (:mod:`repro.sim.simulator`) streams events
through an ideal system; this module stresses the same system with the
failure modes a deployed wearable actually sees:

- :class:`LinkOutage` — a hard no-delivery window (the wearer walks behind
  an RF obstacle, the aggregator reboots);
- :class:`BurstLoss` — clustered payload loss from a Gilbert-Elliott chain
  (:mod:`repro.sim.channel`), advanced once per *transmission attempt* so
  retries inside a burst keep failing;
- :class:`PayloadCorruption` — corruption of delivered bits, in two modes:
  abstract *erasure* (a coin flip indistinguishable from loss to the ARQ
  layer, the PR 1 behaviour) and byte-level *bitflip* (real bits of real
  encoded frames are mutated, so a CRC has to earn its detections);
- :class:`SensorBrownout` — battery-sag windows in which the sensor cannot
  acquire or compute at all;
- :class:`AggregatorStall` — back-end service-time inflation (GC pause,
  thermal throttling, a co-scheduled workload).

A :class:`FaultCampaign` composes any number of these under one seed and
replays them bit-for-bit: :meth:`FaultCampaign.run` re-arms every fault
model, the degradation policy and the last-known-good cache before each
run, so two runs of the same campaign produce identical
:class:`ResilienceReport` objects.

Campaigns built purely from the fault models above also have a *fast
path* (``run(..., fast=...)``): loss outcomes and retry decisions are
pre-sampled in blocks (one :meth:`~repro.sim.channel.GilbertElliottChannel.
outcome_block` / ``Generator.random`` block per stochastic fault, served
through a cursor in exactly the scalar consumption order), jitter factors
and payload words are drawn as matrices, and byte-level payloads run
through the batch frame codec of :mod:`repro.hw.framing`.  The report is
bit-identical to the scalar path under the same seed; only the
post-run internal RNG positions of the fault models differ (harmless,
because every ``run()`` starts with :meth:`FaultCampaign.reset`).

The runner injects the faults into a :class:`~repro.sim.simulator.
CrossEndSimulator` configuration (its partition metrics, event period and
jitter model), simulates the bounded-retry ARQ of :mod:`repro.hw.arq`
per transmission attempt, and applies the graceful-degradation policies of
:mod:`repro.core.degrade` when payloads drop.  Pass it metrics evaluated
at ``loss_rate = 0``: retries are simulated here try-by-try, so feeding
expectation-inflated figures would double-count them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.degrade import GracefulDegradationPolicy, LastKnownGoodCache
from repro.dsp.fixedpoint import Q16_16, quantize_array
from repro.errors import ConfigurationError, IntegrityError, SimulationError
from repro.hw.arq import DEFAULT_MAX_SIMULATED_TRIES, ARQConfig, UNBOUNDED_ARQ
from repro.hw.framing import (
    SEQ_MODULUS,
    FramingConfig,
    decode_frame,
    encode_frames,
    encode_values,
    fragment_payload,
    pack_byte_rows,
)
from repro.sim.channel import GilbertElliottChannel, GilbertElliottParams
from repro.sim.evaluate import PartitionMetrics
from repro.sim.simulator import CrossEndSimulator

#: Per-event decision outcomes a campaign can record.
DELIVERED = "delivered"
DEGRADED = "degraded"
DROPPED = "dropped"


class FaultModel:
    """Base class of one composable fault source.

    Subclasses override the hooks they need; the defaults are no-ops, so a
    fault model only has to express the dimension it perturbs.
    """

    def reset(self, rng: np.random.Generator) -> None:
        """Re-arm internal state for a fresh, reproducible campaign run."""

    def try_lost(self, event_index: int, attempt: int) -> bool:
        """Whether transmission ``attempt`` (1-based) of event ``event_index`` is lost."""
        return False

    def sensor_brownout(self, event_index: int) -> bool:
        """Whether the sensor is browned out for this event."""
        return False

    def stall_s(self, event_index: int) -> float:
        """Extra aggregator service time (s) injected into this event."""
        return 0.0

    def corrupt_frame(
        self, event_index: int, attempt: int, frame_index: int, data: bytes
    ) -> bytes:
        """Mutate the on-air bytes of one frame (identity by default)."""
        return data


def _check_window(start_event: int, n_events: int) -> None:
    if start_event < 0:
        raise ConfigurationError("start_event must be >= 0")
    if n_events < 1:
        raise ConfigurationError("n_events must be >= 1")


@dataclass
class LinkOutage(FaultModel):
    """Hard link outage: every transmission in the window is lost.

    Attributes:
        start_event: First affected event index.
        n_events: Number of consecutive affected events.
    """

    start_event: int
    n_events: int

    def __post_init__(self) -> None:
        _check_window(self.start_event, self.n_events)

    def try_lost(self, event_index: int, attempt: int) -> bool:
        """Lose every attempt of every event inside the outage window."""
        return self.start_event <= event_index < self.start_event + self.n_events


@dataclass
class BurstLoss(FaultModel):
    """Bursty loss episodes from a Gilbert-Elliott chain, per attempt.

    The chain advances once per transmission attempt (not per event), so a
    retry fired into an ongoing bad-state episode is likely to fail again —
    the behaviour that makes bounded retries matter.

    Attributes:
        params: Gilbert-Elliott chain parameters.
    """

    params: GilbertElliottParams = field(default_factory=GilbertElliottParams)
    _channel: Optional[GilbertElliottChannel] = field(
        default=None, repr=False, compare=False
    )

    def reset(self, rng: np.random.Generator) -> None:
        """Rebuild the chain from the campaign seed stream."""
        self._channel = GilbertElliottChannel(
            self.params, seed=int(rng.integers(2**31))
        )

    def armed_channel(self) -> GilbertElliottChannel:
        """The chain :meth:`reset` armed; raises before the first reset."""
        if self._channel is None:
            raise ConfigurationError(
                "BurstLoss used outside a campaign: call reset() first"
            )
        return self._channel

    def try_lost(self, event_index: int, attempt: int) -> bool:
        """Advance the chain one attempt; True when that attempt is lost."""
        return self.armed_channel().next_outcome()


@dataclass
class PayloadCorruption(FaultModel):
    """Corruption of delivered bits, abstract or byte-level.

    Two modes:

    - ``"erasure"`` (default, the PR 1 behaviour): an abstract coin flip —
      the payload arrives but is declared unusable, indistinguishable from
      loss to the ARQ layer.  The CRC is *assumed* perfect.
    - ``"bitflip"``: no abstract loss; instead :meth:`corrupt_frame`
      mutates 1..``max_bit_flips`` random bits of the real encoded frame
      bytes with probability ``rate`` per frame.  Detection is then up to
      the receiver's actual integrity checks (:mod:`repro.hw.framing`) —
      without a CRC the corruption is silent by construction.

    A fully-corrupting channel (``rate = 1.0``) is legal in both modes: in
    erasure mode every attempt fails, so an *unbounded* ARQ policy raises
    :class:`~repro.errors.SimulationError` once it hits its simulated-try
    cap, while a bounded policy saturates at ``max_retries + 1`` tries and
    drops the payload — exactly the ``loss_rate = 1.0`` semantics of
    :class:`~repro.hw.arq.ARQConfig` (see
    ``ARQConfig.expected_transmissions``), never an infinite loop.

    Attributes:
        rate: Per-attempt (erasure) or per-frame (bitflip) corruption
            probability in [0, 1].
        mode: ``"erasure"`` or ``"bitflip"``.
        max_bit_flips: Upper bound on flipped bits per corrupted frame
            (bitflip mode); the actual count is uniform in
            ``[1, max_bit_flips]``.
    """

    rate: float = 0.01
    mode: str = "erasure"
    max_bit_flips: int = 4
    _rng: Optional[np.random.Generator] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ConfigurationError("rate must be in [0, 1]")
        if self.mode not in ("erasure", "bitflip"):
            raise ConfigurationError(
                f"mode must be 'erasure' or 'bitflip', got {self.mode!r}"
            )
        if self.max_bit_flips < 1:
            raise ConfigurationError("max_bit_flips must be >= 1")

    def reset(self, rng: np.random.Generator) -> None:
        """Derive a private RNG from the campaign seed stream."""
        self._rng = np.random.default_rng(int(rng.integers(2**31)))

    def _require_rng(self) -> np.random.Generator:
        if self._rng is None:
            raise ConfigurationError(
                "PayloadCorruption used outside a campaign: call reset() first"
            )
        return self._rng

    def try_lost(self, event_index: int, attempt: int) -> bool:
        """Erasure mode: corrupt this attempt with probability ``rate``."""
        if self.mode != "erasure":
            return False
        return bool(self._require_rng().random() < self.rate)

    def corrupt_frame(
        self, event_index: int, attempt: int, frame_index: int, data: bytes
    ) -> bytes:
        """Bitflip mode: flip random bits of the frame with prob ``rate``."""
        if self.mode != "bitflip" or not data:
            return data
        rng = self._require_rng()
        if rng.random() >= self.rate:
            return data
        n_flips = int(rng.integers(1, self.max_bit_flips + 1))
        n_flips = min(n_flips, len(data) * 8)
        positions = rng.choice(len(data) * 8, size=n_flips, replace=False)
        mutated = bytearray(data)
        for pos in positions:
            mutated[int(pos) // 8] ^= 1 << (int(pos) % 8)
        return bytes(mutated)

    def corrupt_frames(
        self,
        event_index: int,
        attempt: int,
        frames: Union[np.ndarray, Sequence[bytes]],
        lengths: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch twin of :meth:`corrupt_frame` over many frames at once.

        The private RNG is consumed in exactly the scalar per-frame order
        (one trigger uniform per non-empty frame, then the flip-count and
        position draws of triggered frames), so row ``i`` of the result is
        byte-identical to ``corrupt_frame(event_index, attempt, i,
        frames[i])``; the flips themselves are applied in one vectorized
        ``bitwise_xor`` scatter instead of a per-bit Python loop.

        Args:
            frames: Padded ``(n, max_len)`` uint8 matrix (with per-frame
                ``lengths``; rows assumed full-width when omitted) or a
                sequence of byte strings.

        Returns:
            ``(matrix, lengths, corrupted)``: the mutated copy of the
            padded frame matrix, per-frame lengths, and the per-frame
            corruption mask (True where any bit was flipped).
        """
        if isinstance(frames, np.ndarray):
            if frames.ndim != 2:
                raise ConfigurationError(
                    f"frames must be a 2-D byte matrix, got shape {frames.shape}"
                )
            matrix = np.array(frames, dtype=np.uint8, copy=True)
            if lengths is None:
                lens = np.full(len(matrix), matrix.shape[1], dtype=np.int64)
            else:
                lens = np.asarray(lengths, dtype=np.int64)
        else:
            matrix, lens = pack_byte_rows(list(frames))
        corrupted = np.zeros(len(matrix), dtype=bool)
        if self.mode != "bitflip":
            return matrix, lens, corrupted
        rng = self._require_rng()
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        flips: List[np.ndarray] = []
        for i in range(len(matrix)):
            n_bits = int(lens[i]) * 8
            if n_bits == 0:
                continue
            if rng.random() >= self.rate:
                continue
            n_flips = min(int(rng.integers(1, self.max_bit_flips + 1)), n_bits)
            positions = rng.choice(n_bits, size=n_flips, replace=False)
            corrupted[i] = True
            rows.append(np.full(n_flips, i, dtype=np.int64))
            cols.append(positions // 8)
            flips.append((1 << (positions % 8)).astype(np.uint8))
        if rows:
            np.bitwise_xor.at(
                matrix,
                (np.concatenate(rows), np.concatenate(cols)),
                np.concatenate(flips),
            )
        return matrix, lens, corrupted


@dataclass
class SensorBrownout(FaultModel):
    """Battery-sag window in which the sensor cannot operate at all.

    Attributes:
        start_event: First affected event index.
        n_events: Number of consecutive affected events.
    """

    start_event: int
    n_events: int

    def __post_init__(self) -> None:
        _check_window(self.start_event, self.n_events)

    def sensor_brownout(self, event_index: int) -> bool:
        """True inside the brownout window."""
        return self.start_event <= event_index < self.start_event + self.n_events


@dataclass
class AggregatorStall(FaultModel):
    """Aggregator-side stall inflating back-end service time.

    Attributes:
        start_event: First affected event index.
        n_events: Number of consecutive affected events.
        extra_delay_s: Service-time inflation per affected event.
    """

    start_event: int
    n_events: int
    extra_delay_s: float = 5e-3

    def __post_init__(self) -> None:
        _check_window(self.start_event, self.n_events)
        if self.extra_delay_s < 0:
            raise ConfigurationError("extra_delay_s must be >= 0")

    def stall_s(self, event_index: int) -> float:
        """The stall inflation inside the window, 0 outside."""
        in_window = (
            self.start_event <= event_index < self.start_event + self.n_events
        )
        return self.extra_delay_s if in_window else 0.0


@dataclass(frozen=True)
class DecisionRecord:
    """Outcome of one event under a fault campaign.

    Attributes:
        index: Event index.
        status: ``"delivered"``, ``"degraded"`` (served from the
            last-known-good cache) or ``"dropped"`` (no decision at all).
        tries: Link transmissions spent on the event (0 during brownout).
        latency_s: Release-to-decision latency; NaN when dropped.
        fallback: Whether the degradation policy had the deployment on the
            in-sensor fallback cut for this event.
        staleness: Age (events) of the served decision; 0 when fresh.
        corrupted: Whether the delivered payload differed from the sent
            one (silent corruption reached the decision layer); only ever
            True in byte-level integrity runs.
    """

    index: int
    status: str
    tries: int
    latency_s: float
    fallback: bool
    staleness: int
    corrupted: bool = False


@dataclass(frozen=True)
class ResilienceReport:
    """Aggregate outcome of one fault-campaign run.

    Attributes:
        records: Per-event decision records.
        sensor_energy_j: Total sensor energy, retries included.
        aggregator_energy_j: Total aggregator energy, retries included.
        retry_energy_j: Radio energy spent on retransmissions alone (the
            overhead the resilience layer pays for availability).
        retransmissions: Total retransmissions across the run.
        fallback_events: Events served while on the fallback cut.
        deadline_misses: Served events whose latency exceeded the period.
        frames_sent: Frames put on the air (byte-level integrity runs only;
            retransmitted frames count every time).
        frames_corrupted: Arrived frames whose bytes were mutated in flight.
        corruptions_detected: Arrived frames the receiver's integrity
            checks rejected (CRC/structural failures).
        corrupted_deliveries: Events delivered with a payload that differed
            from the transmitted one — silent corruption that reached the
            decision layer.
        integrity_discards: Events whose payload a detect-only receiver
            (CRC without retransmission) discarded after delivery.
    """

    records: List[DecisionRecord]
    sensor_energy_j: float
    aggregator_energy_j: float
    retry_energy_j: float
    retransmissions: int
    fallback_events: int
    deadline_misses: int
    frames_sent: int = 0
    frames_corrupted: int = 0
    corruptions_detected: int = 0
    corrupted_deliveries: int = 0
    integrity_discards: int = 0

    @cached_property
    def _status_counts(self) -> Dict[str, int]:
        """Status histogram, computed once per report instance."""
        counts: Dict[str, int] = {}
        for record in self.records:
            counts[record.status] = counts.get(record.status, 0) + 1
        return counts

    @cached_property
    def _served_latency_array(self) -> np.ndarray:
        """Latencies of served (non-dropped) events as one float64 array.

        Cached so the latency statistics below scan ``self.records`` once
        per report instead of once per property access.  Safe on a frozen
        dataclass: ``records`` is set at construction and never mutated.
        """
        return np.asarray(
            [r.latency_s for r in self.records if r.status != DROPPED],
            dtype=np.float64,
        )

    def _count(self, status: str) -> int:
        return self._status_counts.get(status, 0)

    @property
    def n_events(self) -> int:
        """Events simulated."""
        return len(self.records)

    @property
    def n_delivered(self) -> int:
        """Events whose decision arrived end-to-end."""
        return self._count(DELIVERED)

    @property
    def n_degraded(self) -> int:
        """Events served from the last-known-good cache."""
        return self._count(DEGRADED)

    @property
    def n_dropped(self) -> int:
        """Events that produced no decision at all."""
        return self._count(DROPPED)

    @property
    def availability(self) -> float:
        """Fraction of events that produced *some* decision."""
        if not self.records:
            return 1.0
        return (self.n_delivered + self.n_degraded) / self.n_events

    @property
    def dropped_decision_rate(self) -> float:
        """Fraction of events with no decision (1 - availability)."""
        return 1.0 - self.availability

    def _served_latencies(self) -> List[float]:
        return self._served_latency_array.tolist()

    @property
    def mean_latency_s(self) -> float:
        """Mean decision latency over served events.

        NaN when the campaign served nothing (every event dropped): an
        all-dropped run has no latency distribution, and NaN — rather
        than 0.0 or an exception — keeps the statistic honest, propagates
        through downstream arithmetic, and round-trips the canonical
        encoder (:mod:`repro.exact` writes floats as ``float.hex()``).
        Check :attr:`availability` before aggregating.
        """
        served = self._served_latency_array
        return float(np.mean(served)) if served.size else math.nan

    @property
    def max_latency_s(self) -> float:
        """Worst decision latency over served events.

        NaN for an all-dropped campaign, with the same semantics as
        :attr:`mean_latency_s` (no served events means no distribution).
        """
        served = self._served_latency_array
        return float(served.max()) if served.size else math.nan

    @property
    def worst_tries(self) -> int:
        """Largest per-payload transmission count seen in the run."""
        return max((r.tries for r in self.records), default=0)

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile over served events.

        NaN for an all-dropped campaign (guarded before ``np.percentile``,
        which would raise on an empty array); see :attr:`mean_latency_s`
        for the NaN contract.
        """
        if not 0 <= percentile <= 100:
            raise ConfigurationError("percentile must be in [0, 100]")
        served = self._served_latency_array
        return float(np.percentile(served, percentile)) if served.size else math.nan

    # -- integrity (byte-level runs) ----------------------------------------------

    @property
    def corruptions_silent(self) -> int:
        """Mutated frames that slipped past the receiver's checks."""
        return self.frames_corrupted - self.corruptions_detected

    @property
    def corruption_detection_rate(self) -> float:
        """Fraction of mutated arrived frames the receiver rejected.

        NaN when the run saw no corrupted frames (nothing to detect).
        """
        if self.frames_corrupted == 0:
            return math.nan
        return self.corruptions_detected / self.frames_corrupted

    @property
    def corrupted_delivery_rate(self) -> float:
        """Fraction of events whose delivered decision was corrupted."""
        if not self.records:
            return 0.0
        return self.corrupted_deliveries / self.n_events


@dataclass(frozen=True)
class IntegrityConfig:
    """Byte-level data-plane configuration of a campaign run.

    When passed to :meth:`FaultCampaign.run`, every non-browned-out event
    carries a *real* payload: ``values_per_payload`` Q16.16 words are
    serialised, fragmented into frames (:mod:`repro.hw.framing`) and
    pushed through every fault model's :meth:`~FaultModel.corrupt_frame`
    hook on every transmission attempt.  The receiver then has to detect
    the damage with the configured wire format:

    - ``framing.crc = False`` models the unprotected baseline — payload
      bit flips decode fine and reach the decision layer silently;
    - ``framing.crc = True, retransmit_on_corrupt = False`` is a
      detect-only receiver: corrupted payloads are discarded (converted
      from silent corruption into visible unavailability);
    - ``framing.crc = True, retransmit_on_corrupt = True`` additionally
      treats a detected corruption like a lost attempt, so the bounded
      ARQ budget is spent recovering the payload.

    Attributes:
        framing: Wire-format parameters shared by sender and receiver.
        retransmit_on_corrupt: Whether a CRC failure triggers an ARQ
            retransmission (sequence-aware NACK/timeout recovery) instead
            of discarding the payload.
        values_per_payload: Q16.16 words carried per event payload.
    """

    framing: FramingConfig = field(default_factory=FramingConfig)
    retransmit_on_corrupt: bool = True
    values_per_payload: int = 8

    def __post_init__(self) -> None:
        if self.values_per_payload < 1:
            raise ConfigurationError("values_per_payload must be >= 1")


@dataclass
class CampaignResumeState:
    """Mid-run state a checkpointed campaign runner saves and resumes from.

    Attributes:
        cursor: Index of the first event still to simulate.
        clocks: ``(front_free, link_free, back_free)`` resource clocks.
        energies: ``(sensor_j, aggregator_j, retry_j)`` accumulators.
        counters: ``(retransmissions, fallback_events, deadline_misses)``.
        records: Decision records of the already-simulated events.
        wire: Data-plane integrity counters.
        extra: Runner-specific state (RNG snapshots, loss-stream
            remainder); consumed by the runner that wrote it.
    """

    cursor: int
    clocks: Tuple[float, float, float]
    energies: Tuple[float, float, float]
    counters: Tuple[int, int, int]
    records: List[DecisionRecord]
    wire: Dict[str, int]
    extra: Dict[str, Any] = field(default_factory=dict)


class FaultCampaign:
    """A seeded, replayable composition of fault models.

    Args:
        faults: The fault models to inject (evaluated for every event and
            every transmission attempt; their effects compose by OR for
            loss/brownout and by sum for stalls).
        seed: Campaign seed; :meth:`run` re-arms every stochastic fault
            from it, so repeated runs are bit-for-bit identical.
    """

    def __init__(self, faults: Sequence[FaultModel], seed: int = 0) -> None:
        if not faults:
            raise ConfigurationError("a campaign needs at least one fault model")
        for fault in faults:
            if not isinstance(fault, FaultModel):
                raise ConfigurationError(
                    f"not a FaultModel: {fault!r}"
                )
        self.faults = list(faults)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self.reset()

    def reset(self) -> None:
        """Re-arm the campaign RNG and every fault model."""
        self._rng = np.random.default_rng(self.seed)
        for fault in self.faults:
            fault.reset(np.random.default_rng(int(self._rng.integers(2**31))))

    # -- composed per-event queries ---------------------------------------------

    def try_lost(self, event_index: int, attempt: int) -> bool:
        """Whether this transmission attempt is lost under any fault.

        Every fault model is consulted (no short-circuit) so stateful
        sources such as :class:`BurstLoss` advance exactly once per attempt.
        """
        outcomes = [f.try_lost(event_index, attempt) for f in self.faults]
        return any(outcomes)

    def sensor_brownout(self, event_index: int) -> bool:
        """Whether any fault browns out the sensor for this event."""
        outcomes = [f.sensor_brownout(event_index) for f in self.faults]
        return any(outcomes)

    def stall_s(self, event_index: int) -> float:
        """Total aggregator stall injected into this event."""
        return sum(f.stall_s(event_index) for f in self.faults)

    def corrupt_frame(
        self, event_index: int, attempt: int, frame_index: int, data: bytes
    ) -> bytes:
        """Pipe one frame's on-air bytes through every fault model."""
        for fault in self.faults:
            data = fault.corrupt_frame(event_index, attempt, frame_index, data)
        return data

    # -- the runner ---------------------------------------------------------------

    def supports_fast(self) -> bool:
        """Whether every fault model has an exact vectorized fast path.

        The fast path pre-samples each model's random stream in blocks,
        which is only provably bit-identical for the fault models this
        module ships.  Subclassed or third-party models fall back to the
        scalar runner.
        """
        return all(type(fault) in _FAST_PATH_TYPES for fault in self.faults)

    def run(
        self,
        simulator: CrossEndSimulator,
        n_events: int,
        arq: Optional[ARQConfig] = None,
        policy: Optional[GracefulDegradationPolicy] = None,
        fallback_metrics: Optional[PartitionMetrics] = None,
        cache: Optional[LastKnownGoodCache] = None,
        integrity: Optional[IntegrityConfig] = None,
        fast: Optional[bool] = None,
        breaker: Optional[object] = None,
        checkpoint: Optional[object] = None,
        resume: bool = False,
    ) -> ResilienceReport:
        """Stream ``n_events`` through the system with faults injected.

        Args:
            simulator: Supplies the partition metrics (evaluated at
                ``loss_rate = 0`` — retries are simulated here), the event
                period and the jitter model.
            n_events: Events to stream (must be positive).
            arq: Retransmission policy; None selects the legacy unbounded
                stop-and-wait, whose per-payload delay is unbounded — a
                hard outage window then raises
                :class:`~repro.errors.SimulationError` (the divergence
                bounded ARQ exists to fix).
            policy: Optional outage-fallback policy; requires
                ``fallback_metrics``.  While it declares a persistent
                outage, events run on the fallback (in-sensor) metrics.
            fallback_metrics: Clean-link metrics of the in-sensor extreme
                cut used during fallback.
            cache: Optional last-known-good cache; when given, dropped
                payloads are served from it (status ``"degraded"``)
                instead of being dropped outright.
            integrity: Optional byte-level data plane.  When given, every
                event's payload is really serialised, framed and exposed
                to the fault models' ``corrupt_frame`` hooks, and the
                report's integrity counters (frames sent/corrupted,
                detections, silent corrupted deliveries, discards) are
                populated.  Payload *content* is drawn deterministically
                from the campaign seed, so runs stay bit-for-bit
                reproducible.
            fast: Runner selection.  ``None`` (default) picks the
                vectorized fast path when :meth:`supports_fast` allows it;
                ``False`` forces the scalar reference runner; ``True``
                requires the fast path and raises
                :class:`~repro.errors.ConfigurationError` when a fault
                model lacks one.  Both runners produce bit-identical
                reports under the same seed.
            breaker: Optional link circuit breaker
                (:class:`~repro.sim.supervise.LinkCircuitBreaker`); gates
                every non-browned-out event before the ARQ layer.  Blocked
                events keep the radio off (zero attempts, zero retry
                energy) and are served from the cache or dropped; probe
                events run with the breaker's reduced retry budget.
                Requires a bounded ``arq``.
            checkpoint: Optional
                :class:`~repro.sim.supervise.CampaignCheckpointer`;
                snapshots the complete run state (fault RNGs, clocks,
                counters, records) every ``checkpoint.every`` events with
                crash-safe atomic writes.
            resume: Continue from ``checkpoint``'s last snapshot instead
                of starting at event 0.  The resumed run's report is
                bit-identical to an uninterrupted run on the same runner.

        Returns:
            The :class:`ResilienceReport`; bit-for-bit identical across
            repeated calls with the same arguments.
        """
        if n_events <= 0:
            raise ConfigurationError("n_events must be positive")
        if policy is not None and fallback_metrics is None:
            raise ConfigurationError(
                "a degradation policy requires fallback_metrics"
            )
        arq = UNBOUNDED_ARQ if arq is None else arq
        use_fast = self.supports_fast() if fast is None else bool(fast)
        if use_fast and not self.supports_fast():
            raise ConfigurationError(
                "fast=True needs fault models with an exact fast path "
                "(LinkOutage, BurstLoss, PayloadCorruption, SensorBrownout, "
                "AggregatorStall); pass fast=None or fast=False"
            )
        if breaker is not None and arq.max_retries is None:
            raise ConfigurationError(
                "a circuit breaker requires a bounded ARQConfig: its probe "
                "schedule counts whole events, which only terminate when "
                "the per-event retry budget is finite"
            )
        if resume and checkpoint is None:
            raise ConfigurationError("resume=True requires a checkpoint")
        key = ""
        resume_state = None
        if checkpoint is not None:
            key = checkpoint.config_key(
                campaign=self,
                runner="fast" if use_fast else "scalar",
                simulator=simulator,
                n_events=n_events,
                arq=arq,
                policy=policy,
                fallback_metrics=fallback_metrics,
                cache=cache,
                integrity=integrity,
                breaker=breaker,
            )
        if resume:
            resume_state = checkpoint.load(
                key=key, campaign=self, policy=policy, cache=cache, breaker=breaker
            )
        runner = self._run_fast if use_fast else self._run_scalar
        return runner(
            simulator, n_events, arq, policy, fallback_metrics, cache,
            integrity, breaker, checkpoint, key, resume_state
        )

    def _run_scalar(
        self,
        simulator: CrossEndSimulator,
        n_events: int,
        arq: ARQConfig,
        policy: Optional[GracefulDegradationPolicy],
        fallback_metrics: Optional[PartitionMetrics],
        cache: Optional[LastKnownGoodCache],
        integrity: Optional[IntegrityConfig],
        breaker: Optional[object] = None,
        checkpoint: Optional[object] = None,
        checkpoint_key: str = "",
        resume_state: Optional[CampaignResumeState] = None,
    ) -> ResilienceReport:
        """Reference event-by-event runner (see :meth:`run`)."""
        if resume_state is None:
            # A resume skips the resets: checkpoint.load() already re-armed
            # the campaign and restored fault/policy/cache/breaker state.
            self.reset()
            if policy is not None:
                policy.reset()
            if cache is not None:
                cache.reset()
            if breaker is not None:
                breaker.reset()

        period = simulator.period_s
        jitter_rng = (
            np.random.default_rng(simulator.seed)
            if simulator.jitter_sigma > 0
            else None
        )

        front_free = link_free = back_free = 0.0
        records: List[DecisionRecord] = []
        sensor_j = aggregator_j = retry_j = 0.0
        retransmissions = 0
        fallback_events = 0
        misses = 0

        # Byte-level data-plane state (integrity runs only).  The payload
        # generator is seeded from the campaign seed, independently of the
        # fault models' RNG stream, so the same decisions cross the wire in
        # every replay.
        payload_rng = np.random.default_rng([self.seed, 0xF7A3])
        seq_base = 0
        wire = {
            "frames_sent": 0,
            "frames_corrupted": 0,
            "corruptions_detected": 0,
            "corrupted_deliveries": 0,
            "integrity_discards": 0,
        }

        start = 0
        if resume_state is not None:
            start = resume_state.cursor
            front_free, link_free, back_free = resume_state.clocks
            sensor_j, aggregator_j, retry_j = resume_state.energies
            retransmissions, fallback_events, misses = resume_state.counters
            records = list(resume_state.records)
            wire.update(resume_state.wire)
            payload_rng = _restore_rng(resume_state.extra["payload_rng"])
            if jitter_rng is not None:
                jitter_rng = _restore_rng(resume_state.extra["jitter_rng"])
            seq_base = int(resume_state.extra["seq_base"])

        probe_arq = None if breaker is None else breaker.probe_arq(arq)

        for k in range(start, n_events):
            release = k * period
            in_fallback = policy is not None and policy.in_fallback
            if in_fallback:
                fallback_events += 1
            active = (
                fallback_metrics
                if (in_fallback and fallback_metrics is not None)
                else simulator.metrics
            )

            if self.sensor_brownout(k):
                # The sensor is dark: nothing acquired, nothing computed,
                # nothing transmitted.  Only the cache can answer.
                served = cache.serve() if cache is not None else None
                if served is not None:
                    records.append(
                        DecisionRecord(k, DEGRADED, 0, 0.0, in_fallback,
                                       served.staleness)
                    )
                else:
                    records.append(
                        DecisionRecord(k, DROPPED, 0, math.nan, in_fallback, 0)
                    )
            else:
                t_front, t_link, t_back = _jittered(
                    active, simulator.jitter_sigma, jitter_rng
                )

                front_start = max(release, front_free)
                front_end = front_start + t_front
                front_free = front_end
                sensor_j += active.sensor_compute_j

                if integrity is None:
                    sent_payload = None
                    received = [None]
                    discarded = [False]
                    attempt_fn = lambda attempt: self.try_lost(k, attempt)  # noqa: E731
                else:
                    values = quantize_array(
                        payload_rng.uniform(
                            -1000.0, 1000.0, integrity.values_per_payload
                        )
                    )
                    sent_payload = encode_values(values)
                    frames = fragment_payload(
                        sent_payload, seq_base, integrity.framing
                    )
                    seq_base = (seq_base + len(frames)) % SEQ_MODULUS
                    received = [None]
                    discarded = [False]
                    attempt_fn = self._make_wire_attempt(
                        k, frames, integrity, wire, received, discarded
                    )

                decision = "allow" if breaker is None else breaker.decide(k)
                if decision == "block":
                    # Open breaker: the radio stays off.  The decision
                    # layer sees the same drop signal an exhausted ARQ
                    # would give, minus the retries' energy and latency.
                    if policy is not None:
                        policy.observe(False)
                    served = cache.serve() if cache is not None else None
                    if served is not None:
                        latency = front_end - release
                        records.append(
                            DecisionRecord(k, DEGRADED, 0, latency,
                                           in_fallback, served.staleness)
                        )
                    else:
                        latency = math.nan
                        records.append(
                            DecisionRecord(k, DROPPED, 0, math.nan,
                                           in_fallback, 0)
                        )
                else:
                    event_arq = probe_arq if decision == "probe" else arq
                    outcome = event_arq.simulate(attempt_fn, t_link)
                    if breaker is not None:
                        breaker.record(k, outcome.delivered)
                    link_start = max(front_end, link_free)
                    link_end = link_start + outcome.delay_s
                    link_free = link_end

                    per_try_radio = active.sensor_tx_j + active.sensor_rx_j
                    sensor_j += outcome.tries * per_try_radio
                    aggregator_j += outcome.tries * active.aggregator_radio_j
                    retransmissions += outcome.tries - 1
                    retry_j += (outcome.tries - 1) * (
                        per_try_radio + active.aggregator_radio_j
                    )

                    app_delivered = outcome.delivered
                    if app_delivered and discarded[0]:
                        # Detect-only CRC: the link delivered, the
                        # receiver's integrity check rejected the payload
                        # at the app layer.
                        wire["integrity_discards"] += 1
                        app_delivered = False

                    if app_delivered:
                        corrupted = (
                            integrity is not None and received[0] != sent_payload
                        )
                        if corrupted:
                            wire["corrupted_deliveries"] += 1
                        if policy is not None:
                            policy.observe(True)
                        if cache is not None:
                            cache.update(k)
                        back_start = max(link_end, back_free)
                        finish = back_start + t_back + self.stall_s(k)
                        back_free = finish
                        aggregator_j += active.aggregator_cpu_j
                        latency = finish - release
                        records.append(
                            DecisionRecord(k, DELIVERED, outcome.tries,
                                           latency, in_fallback, 0, corrupted)
                        )
                    else:
                        if policy is not None:
                            policy.observe(False)
                        served = cache.serve() if cache is not None else None
                        if served is not None:
                            latency = link_end - release
                            records.append(
                                DecisionRecord(k, DEGRADED, outcome.tries,
                                               latency, in_fallback,
                                               served.staleness)
                            )
                        else:
                            latency = math.nan
                            records.append(
                                DecisionRecord(k, DROPPED, outcome.tries,
                                               math.nan, in_fallback, 0)
                            )

                if not math.isnan(latency):
                    if latency > period:
                        misses += 1
                    if latency > 1000 * period:
                        raise SimulationError(
                            f"event backlog diverges under faults at event "
                            f"{k}: latency {latency:.4f}s >> period "
                            f"{period:.4f}s"
                        )

            if checkpoint is not None and checkpoint.due(k + 1):
                checkpoint.save(
                    key=checkpoint_key,
                    campaign=self,
                    policy=policy,
                    cache=cache,
                    breaker=breaker,
                    state=CampaignResumeState(
                        cursor=k + 1,
                        clocks=(front_free, link_free, back_free),
                        energies=(sensor_j, aggregator_j, retry_j),
                        counters=(retransmissions, fallback_events, misses),
                        records=records,
                        wire=wire,
                        extra={
                            "payload_rng": payload_rng.bit_generator.state,
                            "jitter_rng": (
                                None
                                if jitter_rng is None
                                else jitter_rng.bit_generator.state
                            ),
                            "seq_base": seq_base,
                        },
                    ),
                )

        return ResilienceReport(
            records=records,
            sensor_energy_j=sensor_j,
            aggregator_energy_j=aggregator_j,
            retry_energy_j=retry_j,
            retransmissions=retransmissions,
            fallback_events=fallback_events,
            deadline_misses=misses,
            frames_sent=wire["frames_sent"],
            frames_corrupted=wire["frames_corrupted"],
            corruptions_detected=wire["corruptions_detected"],
            corrupted_deliveries=wire["corrupted_deliveries"],
            integrity_discards=wire["integrity_discards"],
        )

    def _make_wire_attempt(
        self,
        event_index: int,
        frames: List[bytes],
        integrity: IntegrityConfig,
        wire: Dict[str, int],
        received: List[Optional[bytes]],
        discarded: List[bool],
    ) -> Callable[[int], bool]:
        """Build the per-attempt callback of one byte-level transmission.

        Each attempt first consults the loss faults (the frames never
        arrive), then pushes every frame's real bytes through the
        ``corrupt_frame`` hooks and the receiver's frame decoder.  A
        detected corruption either triggers a retransmission (counts as a
        lost attempt) or marks the payload discarded, depending on
        ``integrity.retransmit_on_corrupt``.
        """

        def attempt_fn(attempt: int) -> bool:
            wire["frames_sent"] += len(frames)
            if self.try_lost(event_index, attempt):
                return True
            parts: List[bytes] = []
            detected = 0
            mutated = 0
            for i, raw in enumerate(frames):
                on_air = self.corrupt_frame(event_index, attempt, i, raw)
                if on_air != raw:
                    mutated += 1
                try:
                    parts.append(
                        decode_frame(on_air, integrity.framing).payload
                    )
                except IntegrityError:
                    detected += 1
            wire["frames_corrupted"] += mutated
            wire["corruptions_detected"] += detected
            if detected:
                if integrity.retransmit_on_corrupt:
                    return True
                discarded[0] = True
                received[0] = None
                return False
            discarded[0] = False
            received[0] = b"".join(parts)
            return False

        return attempt_fn

    def _run_fast(
        self,
        simulator: CrossEndSimulator,
        n_events: int,
        arq: ARQConfig,
        policy: Optional[GracefulDegradationPolicy],
        fallback_metrics: Optional[PartitionMetrics],
        cache: Optional[LastKnownGoodCache],
        integrity: Optional[IntegrityConfig],
        breaker: Optional[object] = None,
        checkpoint: Optional[object] = None,
        checkpoint_key: str = "",
        resume_state: Optional[CampaignResumeState] = None,
    ) -> ResilienceReport:
        """Vectorized runner; bit-identical to :meth:`_run_scalar`.

        Loss outcomes are pre-drawn in blocks (one stream per stochastic
        fault, OR-composed, served by a cursor that advances exactly one
        slot per transmission attempt — the scalar consumption order),
        jitter factors and payload words are drawn as matrices, and
        byte-level payloads go through the batch frame codec.  Only the
        bit-flip corruption draws stay per-frame: their stream interleaves
        fixed- and variable-length draws, so block sampling cannot match
        the scalar order; the fast path instead skips the frame decode of
        every untouched frame (an encode/decode round trip it already
        knows succeeds).

        On resume, everything deterministic (masks, jitter factors,
        payload matrices) is recomputed from the seeds; only the
        *consumed-ahead* composed loss outcomes — pre-drawn before the
        snapshot from RNGs that have since advanced — travel through the
        checkpoint as an explicit remainder buffer.
        """
        if resume_state is None:
            # A resume skips the resets: checkpoint.load() already re-armed
            # the campaign and restored fault/policy/cache/breaker state.
            self.reset()
            if policy is not None:
                policy.reset()
            if cache is not None:
                cache.reset()
            if breaker is not None:
                breaker.reset()

        period = simulator.period_s
        sigma = simulator.jitter_sigma
        idx = np.arange(n_events)

        brownout = np.zeros(n_events, dtype=bool)
        outage = np.zeros(n_events, dtype=bool)
        stall = np.zeros(n_events, dtype=np.float64)
        loss_draws: List[Callable[[int], np.ndarray]] = []
        corruptors: List[PayloadCorruption] = []
        for fault in self.faults:
            window = None
            if isinstance(fault, (SensorBrownout, LinkOutage, AggregatorStall)):
                window = (fault.start_event <= idx) & (
                    idx < fault.start_event + fault.n_events
                )
            if isinstance(fault, SensorBrownout):
                brownout |= window
            elif isinstance(fault, LinkOutage):
                outage |= window
            elif isinstance(fault, AggregatorStall):
                stall += np.where(window, fault.extra_delay_s, 0.0)
            elif isinstance(fault, BurstLoss):
                loss_draws.append(fault.armed_channel().outcome_block)
            elif isinstance(fault, PayloadCorruption):
                if fault.mode == "erasure":
                    loss_draws.append(
                        lambda n, rng=fault._require_rng(), rate=fault.rate: (
                            rng.random(n) < rate
                        )
                    )
                else:
                    corruptors.append(fault)
        loss = _LossStream(loss_draws)

        n_active = int(n_events - brownout.sum())
        factors = None
        if sigma > 0:
            jitter_rng = np.random.default_rng(simulator.seed)
            factors = np.exp(
                jitter_rng.normal(-sigma**2 / 2.0, sigma, size=(n_active, 3))
            )

        # Byte-level data plane: payload words and frames for the whole
        # run in one batch.  Without bit-flip corruptors the frame bytes
        # can never differ from what was sent, so only the frame *count*
        # is observable and the codec work is skipped entirely.
        payload_rng = np.random.default_rng([self.seed, 0xF7A3])
        n_frames_per_event = 0
        sent_payloads: List[bytes] = []
        chunk_bytes: List[bytes] = []
        frame_bytes: List[bytes] = []
        if integrity is not None:
            framing = integrity.framing
            payload_len = integrity.values_per_payload * (Q16_16.total_bits // 8)
            n_frames_per_event = -(-payload_len // framing.max_payload_bytes)
            if corruptors and n_active:
                values = quantize_array(
                    payload_rng.uniform(
                        -1000.0, 1000.0,
                        (n_active, integrity.values_per_payload),
                    )
                )
                blob = encode_values(values)
                sent_payloads = [
                    blob[a * payload_len : (a + 1) * payload_len]
                    for a in range(n_active)
                ]
                for payload in sent_payloads:
                    chunk_bytes.extend(
                        payload[i : i + framing.max_payload_bytes]
                        for i in range(0, payload_len, framing.max_payload_bytes)
                    )
                total_frames = n_active * n_frames_per_event
                frame_matrix, frame_lens = encode_frames(
                    chunk_bytes,
                    np.arange(total_frames) % SEQ_MODULUS,
                    framing,
                    last=(np.arange(total_frames) % n_frames_per_event)
                    == n_frames_per_event - 1,
                )
                frame_bytes = [
                    frame_matrix[r, : int(frame_lens[r])].tobytes()
                    for r in range(total_frames)
                ]

        bounded_tries = None if arq.max_retries is None else arq.max_retries + 1
        backoffs = (
            None
            if arq.max_retries is None
            else [0.0] + [arq.backoff_s(r) for r in range(1, arq.max_retries + 1)]
        )

        front_free = link_free = back_free = 0.0
        records: List[DecisionRecord] = []
        sensor_j = aggregator_j = retry_j = 0.0
        retransmissions = 0
        fallback_events = 0
        misses = 0
        wire = {
            "frames_sent": 0,
            "frames_corrupted": 0,
            "corruptions_detected": 0,
            "corrupted_deliveries": 0,
            "integrity_discards": 0,
        }

        att = 0  # global attempt cursor into the loss streams
        a = 0  # active (non-browned-out) event counter
        start = 0
        if resume_state is not None:
            start = resume_state.cursor
            front_free, link_free, back_free = resume_state.clocks
            sensor_j, aggregator_j, retry_j = resume_state.energies
            retransmissions, fallback_events, misses = resume_state.counters
            records = list(resume_state.records)
            wire.update(resume_state.wire)
            a = int(resume_state.extra["a"])
            loss.buf = np.asarray(
                resume_state.extra["loss_remainder"], dtype=bool
            )
        probe_tries = (
            None
            if breaker is None
            else min(breaker.config.probe_retries + 1, bounded_tries)
        )
        for k in range(start, n_events):
            release = k * period
            in_fallback = policy is not None and policy.in_fallback
            if in_fallback:
                fallback_events += 1
            active = (
                fallback_metrics
                if (in_fallback and fallback_metrics is not None)
                else simulator.metrics
            )

            if brownout[k]:
                served = cache.serve() if cache is not None else None
                if served is not None:
                    records.append(
                        DecisionRecord(k, DEGRADED, 0, 0.0, in_fallback,
                                       served.staleness)
                    )
                else:
                    records.append(
                        DecisionRecord(k, DROPPED, 0, math.nan, in_fallback, 0)
                    )
            else:
                if factors is not None:
                    row = factors[a]
                    t_front = active.delay_front_s * row[0]
                    t_link = active.delay_link_s * row[1]
                    t_back = active.delay_back_s * row[2]
                else:
                    t_front = active.delay_front_s
                    t_link = active.delay_link_s
                    t_back = active.delay_back_s

                front_start = max(release, front_free)
                front_end = front_start + t_front
                front_free = front_end
                sensor_j += active.sensor_compute_j

                if integrity is not None and corruptors:
                    base_row = a * n_frames_per_event
                    ev_frames = frame_bytes[
                        base_row : base_row + n_frames_per_event
                    ]
                    ev_chunks = chunk_bytes[
                        base_row : base_row + n_frames_per_event
                    ]
                    sent_payload = sent_payloads[a]
                else:
                    ev_frames = ev_chunks = []
                    sent_payload = None

                decision = "allow" if breaker is None else breaker.decide(k)
                if decision == "block":
                    # Open breaker: no attempts, no loss-slot consumption
                    # (the scalar runner never calls try_lost either).
                    if policy is not None:
                        policy.observe(False)
                    served = cache.serve() if cache is not None else None
                    if served is not None:
                        latency = front_end - release
                        records.append(
                            DecisionRecord(k, DEGRADED, 0, latency,
                                           in_fallback, served.staleness)
                        )
                    else:
                        latency = math.nan
                        records.append(
                            DecisionRecord(k, DROPPED, 0, math.nan,
                                           in_fallback, 0)
                        )
                else:
                    event_cap = (
                        probe_tries if decision == "probe" else bounded_tries
                    )
                    event_out = bool(outage[k])
                    if event_cap is not None:
                        loss.ensure(att + event_cap)
                    tries = 0
                    delay = 0.0
                    delivered = False
                    discarded = False
                    received: Optional[bytes] = None
                    while True:
                        tries += 1
                        delay = delay + t_link
                        if integrity is not None:
                            wire["frames_sent"] += n_frames_per_event
                        if att >= loss.buf.size:
                            loss.ensure(att + 1)
                        lost = event_out or bool(loss.buf[att])
                        att += 1
                        if not lost and ev_frames:
                            mutated = detected = 0
                            parts: List[bytes] = []
                            for j, raw in enumerate(ev_frames):
                                on_air = raw
                                for corruptor in corruptors:
                                    on_air = corruptor.corrupt_frame(
                                        k, tries, j, on_air
                                    )
                                if on_air == raw:
                                    parts.append(ev_chunks[j])
                                    continue
                                mutated += 1
                                try:
                                    parts.append(
                                        decode_frame(
                                            on_air, integrity.framing
                                        ).payload
                                    )
                                except IntegrityError:
                                    detected += 1
                            wire["frames_corrupted"] += mutated
                            wire["corruptions_detected"] += detected
                            if detected:
                                if integrity.retransmit_on_corrupt:
                                    lost = True
                                else:
                                    discarded = True
                                    received = None
                            else:
                                discarded = False
                                received = b"".join(parts)
                        if not lost:
                            delivered = True
                            break
                        if event_cap is not None and tries >= event_cap:
                            break
                        if tries >= DEFAULT_MAX_SIMULATED_TRIES:
                            raise SimulationError(
                                f"unbounded ARQ exceeded "
                                f"{DEFAULT_MAX_SIMULATED_TRIES} "
                                "tries on one payload: the channel never "
                                "recovered (retry storm); use a bounded "
                                "ARQConfig to keep per-payload delay finite"
                            )
                        if backoffs is not None:
                            delay = delay + backoffs[tries]

                    if breaker is not None:
                        breaker.record(k, delivered)
                    link_start = max(front_end, link_free)
                    link_end = link_start + delay
                    link_free = link_end

                    per_try_radio = active.sensor_tx_j + active.sensor_rx_j
                    sensor_j += tries * per_try_radio
                    aggregator_j += tries * active.aggregator_radio_j
                    retransmissions += tries - 1
                    retry_j += (tries - 1) * (
                        per_try_radio + active.aggregator_radio_j
                    )

                    app_delivered = delivered
                    if app_delivered and discarded:
                        wire["integrity_discards"] += 1
                        app_delivered = False

                    if app_delivered:
                        corrupted = bool(ev_frames) and received != sent_payload
                        if corrupted:
                            wire["corrupted_deliveries"] += 1
                        if policy is not None:
                            policy.observe(True)
                        if cache is not None:
                            cache.update(k)
                        back_start = max(link_end, back_free)
                        finish = back_start + t_back + stall[k]
                        back_free = finish
                        aggregator_j += active.aggregator_cpu_j
                        latency = finish - release
                        records.append(
                            DecisionRecord(k, DELIVERED, tries, latency,
                                           in_fallback, 0, corrupted)
                        )
                    else:
                        if policy is not None:
                            policy.observe(False)
                        served = cache.serve() if cache is not None else None
                        if served is not None:
                            latency = link_end - release
                            records.append(
                                DecisionRecord(k, DEGRADED, tries, latency,
                                               in_fallback, served.staleness)
                            )
                        else:
                            latency = math.nan
                            records.append(
                                DecisionRecord(k, DROPPED, tries, math.nan,
                                               in_fallback, 0)
                            )

                if not math.isnan(latency):
                    if latency > period:
                        misses += 1
                    if latency > 1000 * period:
                        raise SimulationError(
                            f"event backlog diverges under faults at event "
                            f"{k}: latency {latency:.4f}s >> period "
                            f"{period:.4f}s"
                        )
                a += 1

            if checkpoint is not None and checkpoint.due(k + 1):
                checkpoint.save(
                    key=checkpoint_key,
                    campaign=self,
                    policy=policy,
                    cache=cache,
                    breaker=breaker,
                    state=CampaignResumeState(
                        cursor=k + 1,
                        clocks=(front_free, link_free, back_free),
                        energies=(sensor_j, aggregator_j, retry_j),
                        counters=(retransmissions, fallback_events, misses),
                        records=records,
                        wire=wire,
                        extra={
                            "a": a,
                            "loss_remainder": loss.buf[att:].astype(int).tolist(),
                        },
                    ),
                )

        return ResilienceReport(
            records=records,
            sensor_energy_j=sensor_j,
            aggregator_energy_j=aggregator_j,
            retry_energy_j=retry_j,
            retransmissions=retransmissions,
            fallback_events=fallback_events,
            deadline_misses=misses,
            frames_sent=wire["frames_sent"],
            frames_corrupted=wire["frames_corrupted"],
            corruptions_detected=wire["corruptions_detected"],
            corrupted_deliveries=wire["corrupted_deliveries"],
            integrity_discards=wire["integrity_discards"],
        )


#: Fault model types the campaign fast path can pre-sample exactly.
_FAST_PATH_TYPES = (
    LinkOutage,
    BurstLoss,
    PayloadCorruption,
    SensorBrownout,
    AggregatorStall,
)


class _LossStream:
    """OR-composed per-attempt loss outcomes, pre-drawn in blocks.

    Each stochastic fault contributes one draw callable; every slot of
    the composed buffer consumes exactly one outcome from each, which is
    the scalar campaign's consumption order (:meth:`FaultCampaign.
    try_lost` consults every fault per attempt, no short-circuit).
    """

    __slots__ = ("_draws", "buf")

    _GROW = 4096

    def __init__(self, draws: Sequence[Callable[[int], np.ndarray]]) -> None:
        self._draws = list(draws)
        self.buf = np.zeros(0, dtype=bool)

    def ensure(self, upto: int) -> None:
        """Extend the buffer to at least ``upto`` composed outcomes."""
        while self.buf.size < upto:
            grow = max(upto - self.buf.size, self._GROW)
            chunk = np.zeros(grow, dtype=bool)
            for draw in self._draws:
                chunk |= draw(grow)
            self.buf = np.concatenate([self.buf, chunk])


def _restore_rng(state: Dict[str, object]) -> np.random.Generator:
    """Rebuild a numpy Generator from a saved bit-generator state dict."""
    generator = np.random.default_rng(0)
    generator.bit_generator.state = dict(state)
    return generator


def _jittered(
    metrics: PartitionMetrics,
    sigma: float,
    rng: Optional[np.random.Generator],
):
    """Stage service times of ``metrics``, with unit-mean lognormal jitter."""
    base = (metrics.delay_front_s, metrics.delay_link_s, metrics.delay_back_s)
    if rng is None:
        return base
    factors = np.exp(rng.normal(-sigma**2 / 2.0, sigma, size=3))
    return tuple(b * f for b, f in zip(base, factors))
