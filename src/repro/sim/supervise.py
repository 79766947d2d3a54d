"""Fleet supervision: health states, circuit breakers, checkpoint/resume.

Long campaigns and population-scale fleets need a supervisory tier above
the per-event machinery of :mod:`repro.sim.faults`:

- a per-device **health state machine** (:class:`DeviceHealth`,
  :class:`FleetSupervisor`): campaign outcomes drive each device through
  ``healthy -> degraded -> quarantined -> recovering``, quarantine removes
  the device from TDMA/MIMO scheduling (:meth:`FleetSupervisor.
  filter_nodes`), and drop/degraded/battery figures are accounted per
  state so operators can see what each state costs;
- a **link circuit breaker** (:class:`LinkCircuitBreaker`): after
  ``failure_threshold`` consecutive exhausted-retry drops the breaker
  opens and the sensor stops burning radio energy on a dead link,
  re-probing on an exponential-backoff schedule of whole events.  The
  breaker is a plain deterministic state machine — campaigns that carry
  one replay bit-for-bit — and composes with
  :class:`~repro.core.degrade.GracefulDegradationPolicy` (a blocked event
  is a drop signal to the policy, so an open breaker drives the
  deployment onto the in-sensor fallback cut);
- **crash-safe checkpoint/resume** for :meth:`~repro.sim.faults.
  FaultCampaign.run` (:class:`CampaignCheckpointer`), :func:`~repro.sim.
  parallel.sweep` (:class:`SweepCheckpointer`) and :func:`~repro.sim.
  chaos.chaos_search` (:class:`ChaosCheckpointer`).  Snapshots carry RNG
  bit-generator state, the campaign cursor, accumulated counters and the
  evaluated-outcome archive as digest-pinned canonical JSON written by
  :mod:`repro.exact` (floats via ``float.hex()``, identifiers via
  SHA-256, never ``hash()``), so a resumed run reproduces the
  uninterrupted run's report **bit-for-bit** on both the fast and scalar
  campaign runners.

Checkpoint files are self-validating: a ``config_key`` digest pins the
exact run configuration (campaign seed, fault signatures, runner, ARQ,
policy, simulator and breaker parameters), and a ``state_digest`` pins
the state payload, so a checkpoint written by a different run — or edited
by hand — is rejected with :class:`~repro.errors.CheckpointError` instead
of silently resuming the wrong campaign.
"""

from __future__ import annotations

import json
import math
import os
import pydoc
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.errors import CheckpointError, ConfigurationError
from repro.exact import decode, encode, stable_digest
from repro.hw.arq import ARQConfig
from repro.sim.chaos import (
    ChaosResumeState,
    _arq_to_dict,
    _integrity_to_dict,
    _metrics_to_dict,
)
from repro.sim.faults import (
    DELIVERED,
    AggregatorStall,
    BurstLoss,
    CampaignResumeState,
    LinkOutage,
    PayloadCorruption,
    ResilienceReport,
    SensorBrownout,
)

#: Schema marker stamped into every checkpoint file.
CHECKPOINT_SCHEMA = "xpro-checkpoint-v2"

#: Health states a supervised device moves through.
HEALTHY = "healthy"
DEGRADED = "degraded"
QUARANTINED = "quarantined"
RECOVERING = "recovering"
HEALTH_STATES = (HEALTHY, DEGRADED, QUARANTINED, RECOVERING)


# -- RNG state -----------------------------------------------------------------


def rng_state(generator: np.random.Generator) -> Dict[str, Any]:
    """JSON-safe snapshot of a numpy ``Generator``'s bit-generator state."""
    return generator.bit_generator.state


def restore_rng(state: Mapping[str, Any]) -> np.random.Generator:
    """Rebuild a numpy ``Generator`` from :func:`rng_state` output."""
    generator = np.random.default_rng(0)
    try:
        generator.bit_generator.state = dict(state)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid RNG state in checkpoint: {exc}") from exc
    return generator


# -- fault signatures and mutable fault state ----------------------------------


def fault_signature(fault: Any) -> Dict[str, Any]:
    """Canonical configuration signature of one checkpointable fault model.

    Enters the checkpoint's ``config_key`` digest, so a resume against a
    campaign with different fault parameters (or order) is rejected.
    Raises :class:`~repro.errors.CheckpointError` for fault types this
    module cannot snapshot (subclassed or third-party models).
    """
    if isinstance(fault, BurstLoss) and type(fault) is BurstLoss:
        return {"type": "BurstLoss", "params": asdict(fault.params)}
    if isinstance(fault, PayloadCorruption) and type(fault) is PayloadCorruption:
        return {
            "type": "PayloadCorruption",
            "rate": float(fault.rate),
            "mode": fault.mode,
            "max_bit_flips": int(fault.max_bit_flips),
        }
    for cls in (LinkOutage, SensorBrownout, AggregatorStall):
        if type(fault) is cls:
            data: Dict[str, Any] = {
                "type": cls.__name__,
                "start_event": int(fault.start_event),
                "n_events": int(fault.n_events),
            }
            if cls is AggregatorStall:
                data["extra_delay_s"] = float(fault.extra_delay_s)
            return data
    raise CheckpointError(
        f"cannot checkpoint campaigns containing {type(fault).__name__}: "
        "only the fault models shipped by repro.sim.faults have exact "
        "state snapshots"
    )


def fault_state(fault: Any) -> Dict[str, Any]:
    """Snapshot the mutable (RNG/chain) state of one armed fault model."""
    if type(fault) is BurstLoss:
        channel = fault._channel
        if channel is None:
            raise CheckpointError(
                "BurstLoss has no armed channel: reset the campaign first"
            )
        return {
            "kind": "burst",
            "rng": rng_state(channel._rng),
            "bad": bool(channel._bad),
        }
    if type(fault) is PayloadCorruption:
        return {"kind": "corruption", "rng": rng_state(fault._require_rng())}
    fault_signature(fault)  # reject unknown types with the clearer message
    return {"kind": "window"}


def load_fault_state(fault: Any, state: Mapping[str, Any]) -> None:
    """Restore :func:`fault_state` output into an armed fault model."""
    if type(fault) is BurstLoss:
        channel = fault._channel
        if channel is None or state.get("kind") != "burst":
            raise CheckpointError("checkpoint fault state mismatch (BurstLoss)")
        channel._rng = restore_rng(state["rng"])
        channel._bad = bool(state["bad"])
        return
    if type(fault) is PayloadCorruption:
        if state.get("kind") != "corruption":
            raise CheckpointError(
                "checkpoint fault state mismatch (PayloadCorruption)"
            )
        fault._rng = restore_rng(state["rng"])
        return
    if state.get("kind") != "window":
        raise CheckpointError(
            f"checkpoint fault state mismatch ({type(fault).__name__})"
        )


# -- the checkpoint store ------------------------------------------------------


def save_checkpoint(
    path: str | Path, kind: str, config_key: str, state: Dict[str, Any]
) -> Path:
    """Atomically write one digest-pinned checkpoint document.

    The file carries the schema marker, the run's ``config_key`` and a
    ``state_digest`` (SHA-256 of the canonical state JSON), so
    :func:`load_checkpoint` can reject stale, foreign or hand-edited
    checkpoints.  The write goes through a temporary file plus
    ``os.replace`` — a crash mid-save leaves the previous checkpoint
    intact instead of a torn file.
    """
    target = Path(path)
    try:
        digest = stable_digest(state)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint state is not canonical-JSON-safe: {exc}"
        ) from exc
    doc = {
        "schema": CHECKPOINT_SCHEMA,
        "kind": kind,
        "config_key": config_key,
        "state_digest": digest,
        "state": state,
    }
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(json.dumps(doc, sort_keys=True) + "\n")
    os.replace(tmp, target)
    return target


def load_checkpoint(
    path: str | Path, kind: str, config_key: str
) -> Dict[str, Any]:
    """Load and validate one checkpoint document, returning its state.

    Raises :class:`~repro.errors.CheckpointError` when the file is
    missing, unparseable, of the wrong kind, written for a different run
    configuration, or fails its state digest (tampering/corruption).
    """
    target = Path(path)
    try:
        data = json.loads(target.read_text())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {target}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{target} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"{target}: not a checkpoint file "
            f"(expected schema {CHECKPOINT_SCHEMA!r})"
        )
    if data.get("kind") != kind:
        raise CheckpointError(
            f"{target}: checkpoint kind {data.get('kind')!r} != expected {kind!r}"
        )
    if data.get("config_key") != config_key:
        raise CheckpointError(
            f"{target}: checkpoint was written for a different run "
            f"configuration (config_key {data.get('config_key')} != "
            f"{config_key}); refusing to resume"
        )
    state = data.get("state")
    if not isinstance(state, dict):
        raise CheckpointError(f"{target}: checkpoint misses its state payload")
    if stable_digest(state) != data.get("state_digest"):
        raise CheckpointError(
            f"{target}: state digest mismatch — the checkpoint was edited "
            "or corrupted"
        )
    return state


# -- the link circuit breaker --------------------------------------------------


@dataclass(frozen=True)
class BreakerConfig:
    """Tuning knobs of a :class:`LinkCircuitBreaker`.

    Attributes:
        failure_threshold: Consecutive exhausted-retry drops that open the
            breaker.
        probe_backoff_events: Events to wait (blocking the link) before
            the first half-open probe after opening.
        backoff_factor: Multiplicative growth of the probe wait after each
            failed probe.
        max_backoff_events: Upper bound on the probe wait.
        probe_retries: ARQ retries granted to one probe transmission
            (``0`` = single-shot probe); always capped by the campaign's
            own ARQ budget.
    """

    failure_threshold: int = 3
    probe_backoff_events: int = 8
    backoff_factor: float = 2.0
    max_backoff_events: int = 256
    probe_retries: int = 0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ConfigurationError("failure_threshold must be >= 1")
        if self.probe_backoff_events < 1:
            raise ConfigurationError("probe_backoff_events must be >= 1")
        if self.backoff_factor < 1.0:
            raise ConfigurationError("backoff_factor must be >= 1")
        if self.max_backoff_events < self.probe_backoff_events:
            raise ConfigurationError(
                "max_backoff_events must be >= probe_backoff_events"
            )
        if self.probe_retries < 0:
            raise ConfigurationError("probe_retries must be >= 0")


class LinkCircuitBreaker:
    """Deterministic circuit breaker over the wireless link's ARQ layer.

    States:

    - **closed** — traffic flows; ``failure_threshold`` consecutive
      exhausted-retry drops open the breaker;
    - **open** — events are blocked (the radio stays off; the decision
      layer serves the last-known-good cache or drops) until the probe
      schedule fires;
    - **half-open** — one probe transmission with a reduced retry budget;
      a delivered probe closes the breaker, a failed probe re-opens it
      with the probe wait grown by ``backoff_factor`` (capped).

    The breaker holds no RNG: given the same sequence of
    ``decide``/``record`` calls it follows the same trajectory, which is
    what keeps breaker-wrapped campaigns bit-identical across the scalar
    and fast runners and across checkpoint resumes.
    """

    def __init__(self, config: Optional[BreakerConfig] = None) -> None:
        self.config = config or BreakerConfig()
        self.reset()

    def reset(self) -> None:
        """Return to the initial closed state and zero the counters."""
        self._open = False
        self._probing = False
        self._failures = 0
        self._backoff = self.config.probe_backoff_events
        self._probe_at = 0
        self.blocked_events = 0
        self.probes = 0
        self.probe_successes = 0
        self.opens = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (probe in flight)."""
        if not self._open:
            return "closed"
        return "half_open" if self._probing else "open"

    def probe_arq(self, arq: ARQConfig) -> ARQConfig:
        """The reduced-budget ARQ policy of one half-open probe.

        Shares the campaign ARQ's timeout/backoff/jitter (so per-retry
        backoff waits are identical — :meth:`~repro.hw.arq.ARQConfig.
        backoff_s` does not depend on ``max_retries``) with the retry
        budget cut to ``probe_retries``.
        """
        if arq.max_retries is None:
            raise ConfigurationError(
                "a circuit breaker requires a bounded ARQConfig"
            )
        return ARQConfig(
            max_retries=min(self.config.probe_retries, arq.max_retries),
            timeout_s=arq.timeout_s,
            backoff_factor=arq.backoff_factor,
            jitter_fraction=arq.jitter_fraction,
        )

    def decide(self, event_index: int) -> str:
        """Gate one event: ``"allow"``, ``"block"`` or ``"probe"``.

        Call exactly once per non-browned-out event, in event order;
        follow every ``"allow"``/``"probe"`` with :meth:`record`.
        """
        if not self._open:
            return "allow"
        if event_index >= self._probe_at:
            self._probing = True
            self.probes += 1
            return "probe"
        self.blocked_events += 1
        return "block"

    def record(self, event_index: int, delivered: bool) -> None:
        """Fold the link-level outcome of one allowed/probed event in."""
        probing = self._probing
        self._probing = False
        if delivered:
            if probing:
                self.probe_successes += 1
            self._open = False
            self._failures = 0
            self._backoff = self.config.probe_backoff_events
            return
        if probing:
            self._backoff = min(
                int(math.ceil(self._backoff * self.config.backoff_factor)),
                self.config.max_backoff_events,
            )
            self._probe_at = event_index + self._backoff
            return
        self._failures += 1
        if self._failures >= self.config.failure_threshold:
            self._open = True
            self.opens += 1
            self._failures = 0
            self._backoff = self.config.probe_backoff_events
            self._probe_at = event_index + self._backoff

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the mutable breaker state (config pinned separately)."""
        return {
            "open": self._open,
            "probing": self._probing,
            "failures": self._failures,
            "backoff": self._backoff,
            "probe_at": self._probe_at,
            "blocked_events": self.blocked_events,
            "probes": self.probes,
            "probe_successes": self.probe_successes,
            "opens": self.opens,
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        self._open = bool(state["open"])
        self._probing = bool(state["probing"])
        self._failures = int(state["failures"])
        self._backoff = int(state["backoff"])
        self._probe_at = int(state["probe_at"])
        self.blocked_events = int(state["blocked_events"])
        self.probes = int(state["probes"])
        self.probe_successes = int(state["probe_successes"])
        self.opens = int(state["opens"])


def wasted_radio_j(
    report: ResilienceReport,
    metrics: Any,
    fallback_metrics: Optional[Any] = None,
) -> float:
    """Radio energy (J) spent on events that produced no fresh decision.

    Sums, over every non-delivered record with at least one transmission,
    ``tries * (sensor_tx_j + sensor_rx_j + aggregator_radio_j)`` of the
    metrics active for that event (the fallback cut's when the record ran
    in fallback).  This is precisely the energy a circuit breaker can
    save: retries that bought a delivery are *not* wasted, and blocked
    events (``tries == 0``) cost nothing.
    """
    total = 0.0
    for record in report.records:
        if record.status == DELIVERED or record.tries == 0:
            continue
        active = (
            fallback_metrics
            if (record.fallback and fallback_metrics is not None)
            else metrics
        )
        total += record.tries * (
            active.sensor_tx_j + active.sensor_rx_j + active.aggregator_radio_j
        )
    return total


# -- checkpointers -------------------------------------------------------------


class _Checkpointer:
    """Snapshot cadence and save count shared by the three checkpointers.

    Each subclass names its document ``kind``, its default cadence
    ``default_every`` and the ``config_key`` digest that pins its run; the
    run digests that key once and hands it to every ``save``/``load``.
    """

    kind = ""
    default_every = 1

    def __init__(self, path: str | Path, every: Optional[int] = None) -> None:
        every = self.default_every if every is None else every
        if every < 1:
            raise ConfigurationError("every must be >= 1")
        self.path = Path(path)
        self.every = int(every)
        self.saves = 0

    def due(self, done: int) -> bool:
        """Whether a snapshot is due after ``done`` steps (events, runs)."""
        return done > 0 and done % self.every == 0

    def _write(self, key: str, state: Dict[str, Any]) -> Path:
        path = save_checkpoint(self.path, self.kind, key, state)
        self.saves += 1
        return path

    def _read(self, key: str) -> Dict[str, Any]:
        return load_checkpoint(self.path, self.kind, key)


class CampaignCheckpointer(_Checkpointer):
    """Periodic crash-safe snapshots of one :meth:`FaultCampaign.run`.

    Pass one to ``FaultCampaign.run(..., checkpoint=...)`` to snapshot
    every ``every`` events (default 200), and ``resume=True`` to continue
    from the last snapshot: the resumed run's report is bit-identical to
    an uninterrupted run on the same runner.  The config key pins
    campaign seed, fault signatures, runner, ARQ, simulator, policy,
    cache, integrity and breaker configuration, so a checkpoint can never
    resume a different run.
    """

    kind = "campaign"
    default_every = 200

    @staticmethod
    def config_key(
        *,
        campaign: Any,
        runner: str,
        simulator: Any,
        n_events: int,
        arq: ARQConfig,
        policy: Optional[Any],
        fallback_metrics: Optional[Any],
        cache: Optional[Any],
        integrity: Optional[Any],
        breaker: Optional[LinkCircuitBreaker],
    ) -> str:
        """Digest pinning the complete run configuration."""
        payload = {
            "campaign": {
                "seed": int(campaign.seed),
                "faults": [fault_signature(f) for f in campaign.faults],
            },
            "runner": runner,
            "n_events": int(n_events),
            "simulator": {
                "period_s": float(simulator.period_s),
                "jitter_sigma": float(simulator.jitter_sigma),
                "seed": int(simulator.seed),
                "metrics": _metrics_to_dict(simulator.metrics),
            },
            "arq": _arq_to_dict(arq),
            "policy": (
                None
                if policy is None
                else {
                    "outage_threshold": int(policy.outage_threshold),
                    "recovery_hysteresis": int(policy.recovery_hysteresis),
                }
            ),
            "fallback_metrics": (
                None
                if fallback_metrics is None
                else _metrics_to_dict(fallback_metrics)
            ),
            "cache": (
                None if cache is None else {"max_staleness": cache.max_staleness}
            ),
            "integrity": _integrity_to_dict(integrity),
            "breaker": None if breaker is None else asdict(breaker.config),
        }
        return stable_digest(payload)

    def save(
        self,
        *,
        key: str,
        campaign: Any,
        policy: Optional[Any],
        cache: Optional[Any],
        breaker: Optional[LinkCircuitBreaker],
        state: CampaignResumeState,
    ) -> Path:
        """Write one snapshot of the running campaign (atomic replace)."""
        return self._write(
            key,
            {
                **encode(state),
                "faults": [fault_state(f) for f in campaign.faults],
                "policy": None if policy is None else policy.state_dict(),
                "cache": None if cache is None else cache.state_dict(),
                "breaker": None if breaker is None else breaker.state_dict(),
            },
        )

    def load(
        self,
        *,
        key: str,
        campaign: Any,
        policy: Optional[Any],
        cache: Optional[Any],
        breaker: Optional[LinkCircuitBreaker],
    ) -> CampaignResumeState:
        """Validate, restore in-place fault/policy/cache/breaker state.

        Re-arms the campaign (``campaign.reset()``), overwrites every
        stochastic fault's RNG position with the snapshot, restores the
        degradation policy, cache and breaker, and returns the decoded
        :class:`~repro.sim.faults.CampaignResumeState` for the runner to
        continue from.
        """
        state = self._read(key)
        campaign.reset()
        for fault, fstate in zip(campaign.faults, state["faults"]):
            load_fault_state(fault, fstate)
        if policy is not None:
            policy.load_state(state["policy"])
        if cache is not None:
            cache.load_state(state["cache"])
        if breaker is not None:
            breaker.load_state(state["breaker"])
        return decode(CampaignResumeState, state)


#: Scalar sweep values a checkpoint can restore from their type alone.
_SWEEP_SCALARS = (bool, int, float, str, type(None))


class SweepCheckpointer(_Checkpointer):
    """Periodic snapshots of a :func:`~repro.sim.parallel.sweep`.

    The sweep evaluates its pending grid points in batches of ``every``
    (default 1) and saves the accumulated ``point index -> value`` map
    after each batch; on ``resume=True`` the completed points are skipped
    and only the remainder is re-evaluated.  Because every point is an
    independent seeded task, the stitched result is bit-identical to an
    uninterrupted sweep.  The config key pins the function identity, the
    grid (names and value reprs) and the shared-kwarg names.

    Values must be dataclasses or scalars: each is stored with its type's
    import path, written with :func:`repro.exact.encode` and decoded from
    that type.  Any other value is rejected with
    :class:`~repro.errors.CheckpointError` at save time.
    """

    kind = "sweep"

    @staticmethod
    def config_key(
        *,
        func: Callable[..., Any],
        grid: Mapping[str, Sequence[Any]],
        shared: Optional[Mapping[str, Any]],
    ) -> str:
        """Digest pinning the sweep's function, grid and shared names."""
        payload = {
            "func": f"{func.__module__}.{func.__qualname__}",
            "grid": {
                name: [repr(v) for v in values] for name, values in grid.items()
            },
            "grid_order": list(grid.keys()),
            "shared": sorted(shared or {}),
        }
        return stable_digest(payload)

    def save(self, *, key: str, done: Mapping[int, Any]) -> Path:
        """Write the completed-point map (atomic replace)."""
        entries: Dict[str, Any] = {}
        for index, value in done.items():
            if isinstance(value, np.generic):
                value = value.item()
            cls = type(value)
            try:
                if not (is_dataclass(value) or isinstance(value, _SWEEP_SCALARS)):
                    raise TypeError(f"{cls.__name__} is not a dataclass or a scalar")
                data = encode(value)
            except TypeError as exc:
                raise CheckpointError(
                    f"sweep value is not checkpoint-safe: {exc}"
                ) from exc
            entries[str(index)] = [f"{cls.__module__}.{cls.__qualname__}", data]
        return self._write(key, {"done": entries})

    def load(self, *, key: str) -> Dict[int, Any]:
        """Validate and decode the completed-point map."""
        state = self._read(key)
        done: Dict[int, Any] = {}
        for index, (name, data) in state["done"].items():
            cls = pydoc.locate(name)
            if data is not None and not isinstance(cls, type):
                raise CheckpointError(f"sweep value type {name} cannot be imported")
            done[int(index)] = decode(cls, data)
        return done


class ChaosCheckpointer(_Checkpointer):
    """Periodic snapshots of one :func:`~repro.sim.chaos.chaos_search`.

    Snapshots fire every ``every`` campaign evaluations (default 8) and
    carry the strategist's RNG bit-generator state, the generation
    cursor, the candidate population and the full evaluated-outcome
    archive (scores and reports hex-float encoded), so a resumed search
    retraces the uninterrupted search exactly — same proposals, same
    Pareto frontier, same worst-case digest.
    """

    kind = "chaos"
    default_every = 8

    @staticmethod
    def config_key(*, run_config: Any, search: Any, bounds: Any, judge: Any) -> str:
        """Digest pinning harness, search shape, bounds and judge."""
        payload = {
            "run": run_config.to_dict(),
            "search": asdict(search),
            "bounds": asdict(bounds),
            "judge": {
                "period_s": float(judge.period_s),
                "clean_sensor_j": float(judge.clean_sensor_j),
                "weights": asdict(judge.weights),
            },
        }
        return stable_digest(payload)

    def save(self, *, key: str, strategist: Any, state: ChaosResumeState) -> Path:
        """Write one snapshot of the running search (atomic replace)."""
        return self._write(
            key, {**encode(state), "strategist": strategist.state_dict()}
        )

    def load(self, *, key: str, strategist: Any) -> ChaosResumeState:
        """Validate, restore the strategist RNG, return the decoded state."""
        state = self._read(key)
        strategist.load_state(state["strategist"])
        return decode(ChaosResumeState, state)


# -- per-device health state machine -------------------------------------------


@dataclass(frozen=True)
class HealthPolicy:
    """Thresholds driving the per-device health state machine.

    A campaign round is classified by its availability: *ok* at or above
    ``degraded_availability``, *poor* below it, *bad* below
    ``quarantine_availability``.

    Attributes:
        degraded_availability: Round availability below which the round
            counts against the device.
        quarantine_availability: Round availability below which a single
            round quarantines the device immediately.
        quarantine_rounds: Consecutive poor rounds that quarantine the
            device.
        recovery_rounds: Unscheduled rest rounds a quarantined device sits
            out before re-entering service as recovering.
        probation_rounds: Consecutive ok rounds a recovering device must
            deliver before it counts as healthy again.
    """

    degraded_availability: float = 0.98
    quarantine_availability: float = 0.90
    quarantine_rounds: int = 2
    recovery_rounds: int = 2
    probation_rounds: int = 3

    def __post_init__(self) -> None:
        if not 0.0 <= self.quarantine_availability <= 1.0:
            raise ConfigurationError(
                "quarantine_availability must be in [0, 1]"
            )
        if not self.quarantine_availability <= self.degraded_availability <= 1.0:
            raise ConfigurationError(
                "degraded_availability must be in "
                "[quarantine_availability, 1]"
            )
        for name in ("quarantine_rounds", "recovery_rounds", "probation_rounds"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1")


def _state_bucket() -> Dict[str, Any]:
    return {
        "rounds": 0,
        "events": 0,
        "delivered": 0,
        "degraded": 0,
        "dropped": 0,
        "sensor_j": 0.0,
    }


class DeviceHealth:
    """Health state machine of one supervised device.

    Campaign-round outcomes (:class:`~repro.sim.faults.ResilienceReport`)
    drive the device through ``healthy -> degraded -> quarantined ->
    recovering``; per-state accounting tracks how many events, drops,
    degraded serves and joules each state absorbed, so the cost of a
    sick device is visible per state rather than smeared over the fleet.
    """

    def __init__(self, name: str, policy: Optional[HealthPolicy] = None) -> None:
        self.name = str(name)
        self.policy = policy or HealthPolicy()
        self._state = HEALTHY
        self._bad_streak = 0
        self._ok_streak = 0
        self._rest = 0
        self.quarantines = 0
        self.accounting: Dict[str, Dict[str, Any]] = {
            state: _state_bucket() for state in HEALTH_STATES
        }

    @property
    def state(self) -> str:
        """Current health state (one of :data:`HEALTH_STATES`)."""
        return self._state

    @property
    def schedulable(self) -> bool:
        """Whether the device may be scheduled (not quarantined)."""
        return self._state != QUARANTINED

    def observe(self, report: ResilienceReport) -> str:
        """Fold one scheduled round's report in; returns the new state.

        Raises :class:`~repro.errors.ConfigurationError` when called on a
        quarantined device — quarantine removes the device from
        scheduling, so it cannot produce campaign rounds.
        """
        return self.observe_counts(
            events=report.n_events,
            delivered=report.n_delivered,
            degraded=report.n_degraded,
            dropped=report.n_dropped,
            sensor_j=report.sensor_energy_j,
            availability=report.availability,
        )

    def observe_counts(
        self,
        events: int,
        delivered: int,
        degraded: int,
        dropped: int,
        sensor_j: float,
        availability: float,
    ) -> str:
        """Fold one scheduled round in from raw counts; returns the state.

        The column-oriented entry point used by the struct-of-arrays
        fleet engine (:mod:`repro.sim.fleetsoa`): no per-round report
        object has to exist, the round's numbers are enough.  Semantics
        are exactly :meth:`observe`'s.
        """
        if self._state == QUARANTINED:
            raise ConfigurationError(
                f"device {self.name!r} is quarantined and was not scheduled; "
                "tick() it instead"
            )
        bucket = self.accounting[self._state]
        bucket["rounds"] += 1
        bucket["events"] += events
        bucket["delivered"] += delivered
        bucket["degraded"] += degraded
        bucket["dropped"] += dropped
        bucket["sensor_j"] += sensor_j

        poor = availability < self.policy.degraded_availability
        bad = availability < self.policy.quarantine_availability

        if self._state == RECOVERING:
            if poor:
                self._quarantine()
            else:
                self._ok_streak += 1
                if self._ok_streak >= self.policy.probation_rounds:
                    self._state = HEALTHY
                    self._bad_streak = 0
            return self._state

        if not poor:
            self._state = HEALTHY
            self._bad_streak = 0
            return self._state
        self._bad_streak += 1
        if bad or self._bad_streak >= self.policy.quarantine_rounds:
            self._quarantine()
        else:
            self._state = DEGRADED
        return self._state

    def _quarantine(self) -> None:
        self._state = QUARANTINED
        self._rest = self.policy.recovery_rounds
        self._bad_streak = 0
        self._ok_streak = 0
        self.quarantines += 1

    def tick(self) -> str:
        """One unscheduled rest round of a quarantined device."""
        if self._state != QUARANTINED:
            raise ConfigurationError(
                f"device {self.name!r} is {self._state}, not quarantined"
            )
        self.accounting[QUARANTINED]["rounds"] += 1
        self._rest -= 1
        if self._rest <= 0:
            self._state = RECOVERING
            self._ok_streak = 0
        return self._state

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot the mutable device state as a JSON-safe dict."""
        return {
            "state": self._state,
            "bad_streak": self._bad_streak,
            "ok_streak": self._ok_streak,
            "rest": self._rest,
            "quarantines": self.quarantines,
            "accounting": {
                state: dict(bucket)
                for state, bucket in self.accounting.items()
            },
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        if state["state"] not in HEALTH_STATES:
            raise CheckpointError(f"unknown health state {state['state']!r}")
        self._state = state["state"]
        self._bad_streak = int(state["bad_streak"])
        self._ok_streak = int(state["ok_streak"])
        self._rest = int(state["rest"])
        self.quarantines = int(state["quarantines"])
        self.accounting = {
            s: dict(bucket) for s, bucket in state["accounting"].items()
        }


class FleetSupervisor:
    """Round-based health supervision of a named device fleet.

    Each supervision round, the scheduler asks :meth:`schedulable` (or
    :meth:`filter_nodes` for TDMA/MIMO node lists) which devices may run,
    executes their campaigns, and feeds the per-device reports back
    through :meth:`observe_round` — which also ages every quarantined
    device toward recovery.  All state is deterministic and
    snapshot-able, so fleet supervision survives checkpoint/resume.
    """

    def __init__(
        self,
        names: Sequence[str],
        policy: Optional[HealthPolicy] = None,
    ) -> None:
        if not names:
            raise ConfigurationError("a fleet needs at least one device")
        if len(set(names)) != len(names):
            raise ConfigurationError("device names must be unique")
        self.policy = policy or HealthPolicy()
        self._devices: Dict[str, DeviceHealth] = {
            name: DeviceHealth(name, self.policy) for name in names
        }

    def device(self, name: str) -> DeviceHealth:
        """The :class:`DeviceHealth` of one named device."""
        try:
            return self._devices[name]
        except KeyError:
            raise ConfigurationError(f"unknown device {name!r}") from None

    def schedulable(self) -> List[str]:
        """Names of the devices currently allowed to run, fleet order."""
        return [d.name for d in self._devices.values() if d.schedulable]

    def filter_nodes(self, nodes: Sequence[Any]) -> List[Any]:
        """Drop quarantined devices from a TDMA/MIMO node list.

        Filters by each node's ``.name`` (e.g. :class:`~repro.sim.
        multinode.BSNNode`); unknown names pass through untouched so
        unsupervised infrastructure nodes keep their slots.
        """
        return [
            node
            for node in nodes
            if node.name not in self._devices
            or self._devices[node.name].schedulable
        ]

    def schedulable_mask(self, names: Sequence[str]) -> np.ndarray:
        """Boolean schedulability column for a device-name ordering.

        The struct-of-arrays fleet engine (:mod:`repro.sim.fleetsoa`)
        asks once per round with its fleet-order name column; the mask is
        ANDed with the battery-alive column to form the round's schedule.
        """
        return np.fromiter(
            (self.device(name).schedulable for name in names),
            dtype=bool,
            count=len(names),
        )

    def observe_availability_round(
        self,
        names: Sequence[str],
        scheduled: np.ndarray,
        events: int,
        delivered: np.ndarray,
        dropped: np.ndarray,
        sensor_j: np.ndarray,
    ) -> None:
        """Fold one SoA fleet round in from its per-device columns.

        The column counterpart of :meth:`observe_round`: ``scheduled`` is
        the round's schedule mask and the remaining columns are that
        round's per-device counters in the same fleet order as ``names``.
        Scheduled devices are observed (availability =
        ``delivered / events``, fleet rounds have no degraded serves);
        every device quarantined at the start of the round is ticked one
        rest round instead — exactly :meth:`observe_round`'s semantics,
        without per-round report objects existing.
        """
        resting = [
            d for d in self._devices.values() if d.state == QUARANTINED
        ]
        for i in np.flatnonzero(np.asarray(scheduled, dtype=bool)):
            n_delivered = int(delivered[i])
            self.device(names[i]).observe_counts(
                events=int(events),
                delivered=n_delivered,
                degraded=0,
                dropped=int(dropped[i]),
                sensor_j=float(sensor_j[i]),
                availability=n_delivered / float(events),
            )
        for dev in resting:
            dev.tick()

    def observe_round(self, reports: Mapping[str, ResilienceReport]) -> None:
        """Fold one supervision round in.

        ``reports`` maps device name to that round's campaign report for
        every *scheduled* device; every device quarantined at the start
        of the round is ticked one rest round instead.
        """
        resting = [
            d for d in self._devices.values() if d.state == QUARANTINED
        ]
        for name, report in reports.items():
            self.device(name).observe(report)
        for dev in resting:
            dev.tick()

    def states(self) -> Dict[str, str]:
        """Device name -> current health state, fleet order."""
        return {name: d.state for name, d in self._devices.items()}

    def state_counts(self) -> Dict[str, int]:
        """Health-state histogram over the fleet."""
        counts = {state: 0 for state in HEALTH_STATES}
        for dev in self._devices.values():
            counts[dev.state] += 1
        return counts

    def state_dict(self) -> Dict[str, Any]:
        """Snapshot every device's mutable state as a JSON-safe dict."""
        return {
            "devices": {
                name: dev.state_dict() for name, dev in self._devices.items()
            }
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`state_dict`."""
        devices = state["devices"]
        missing = set(self._devices) - set(devices)
        if missing:
            raise CheckpointError(
                f"fleet snapshot misses devices: {sorted(missing)}"
            )
        for name, dev in self._devices.items():
            dev.load_state(devices[name])


__all__ = [
    "CHECKPOINT_SCHEMA",
    "HEALTH_STATES",
    "HEALTHY",
    "DEGRADED",
    "QUARANTINED",
    "RECOVERING",
    "BreakerConfig",
    "CampaignCheckpointer",
    "ChaosCheckpointer",
    "DeviceHealth",
    "FleetSupervisor",
    "HealthPolicy",
    "LinkCircuitBreaker",
    "SweepCheckpointer",
    "fault_signature",
    "fault_state",
    "load_checkpoint",
    "load_fault_state",
    "restore_rng",
    "rng_state",
    "save_checkpoint",
    "wasted_radio_j",
]
