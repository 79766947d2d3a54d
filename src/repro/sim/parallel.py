"""Fleet-scale parallel simulation driver.

The evaluation layers run large numbers of *independent* simulations: one
:class:`~repro.sim.multinode.MultiNodeBSN` report per body-sensor-network
configuration, one seeded :class:`~repro.sim.faults.FaultCampaign` per
scenario, one partition evaluation per design-space point.  Each task is
self-contained and carries its own seed, so the sweep is embarrassingly
parallel — this module fans it across worker processes.  Population-scale
fleets go through :func:`fleet_soa_rounds`, which shards the network axis
of a struct-of-arrays :class:`~repro.sim.fleetsoa.FleetSpec` and ships the
shared read-only columns once per worker; live stream populations go
through :func:`stream_soa_windows`, which shards the stream axis of a
:class:`~repro.stream.engine.StreamSpec` the same way.

Determinism contract
--------------------

Parallel execution is **bit-identical** to serial execution:

- no task ever shares RNG state — every stochastic task derives its own
  generator from an explicit seed (campaigns re-arm from ``campaign.seed``
  inside :meth:`~repro.sim.faults.FaultCampaign.run`; fan-outs of seeded
  replicas use :func:`derive_seeds`, which spawns independent
  ``SeedSequence`` children from one master seed);
- results are returned in task-submission order, never completion order;
- worker count and backend choice affect wall-clock only, never values.

One comparison caveat: results carrying NaN sentinels (e.g. the
``latency_s`` of a dropped event) are bit-identical across backends but
compare unequal under naive ``==`` because ``nan != nan`` — assert
cross-backend identity with :func:`repro.exact.identical`.

The ``"serial"`` backend runs the identical task list in-process, which is
both the reference for the bit-identity tests and the fallback for
environments where process pools are unavailable.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from itertools import product
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.sim.faults import FaultCampaign, ResilienceReport
from repro.sim.multinode import BSNReport, MultiNodeBSN
from repro.sim.simulator import CrossEndSimulator

#: Supported execution backends.
BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class ParallelConfig:
    """How a task fan-out executes.

    Attributes:
        backend: ``"process"`` fans tasks across worker processes;
            ``"serial"`` runs them in-process (reference semantics).
        max_workers: Worker-process count; ``None`` uses the CPU count.
        chunksize: Tasks handed to a worker per dispatch; raise it for
            many cheap tasks to amortise pickling overhead.
    """

    backend: str = "process"
    max_workers: Optional[int] = None
    chunksize: int = 1

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; available: {BACKENDS}"
            )
        if self.max_workers is not None and self.max_workers < 1:
            raise ConfigurationError("max_workers must be >= 1 when given")
        if self.chunksize < 1:
            raise ConfigurationError("chunksize must be >= 1")

    def resolved_workers(self) -> int:
        """The actual worker count this configuration resolves to."""
        return self.max_workers or max(1, os.cpu_count() or 1)


#: In-process reference configuration (bit-identity baseline).
SERIAL = ParallelConfig(backend="serial")


def derive_seeds(master_seed: int, n_tasks: int) -> List[int]:
    """Independent per-task seeds from one master seed.

    Spawns ``n_tasks`` children of ``SeedSequence(master_seed)`` and
    collapses each to a 64-bit integer seed.  The derivation depends only
    on ``(master_seed, task_index)`` — never on worker assignment or
    completion order — so per-task RNG streams are identical however the
    tasks are scheduled.
    """
    if n_tasks < 0:
        raise ConfigurationError("n_tasks must be >= 0")
    root = np.random.SeedSequence(int(master_seed))
    return [
        int(child.generate_state(1, np.uint64)[0]) for child in root.spawn(n_tasks)
    ]


def parallel_map(
    func: Callable[[Any], Any],
    items: Sequence[Any],
    config: Optional[ParallelConfig] = None,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
) -> List[Any]:
    """Apply ``func`` to every item, preserving item order in the result.

    Args:
        func: A module-level callable (worker processes import it by
            qualified name, so lambdas and closures are rejected by the
            pickle layer).
        items: Task inputs; each must be picklable under the process
            backend.
        config: Execution configuration; defaults to the process backend
            with one worker per CPU.
        initializer: Optional module-level callable run once per worker
            before any task (and once in-process under the serial
            backend).  Use it to install per-run shared state so heavy
            invariants cross the process boundary once per worker rather
            than once per task.
        initargs: Arguments for ``initializer`` (picklable).

    Worker-death recovery: a worker process that dies mid-task (OOM
    kill, segfault, ``os._exit``) no longer poisons the whole fan-out
    with an opaque ``BrokenProcessPool``.  Because every task is
    self-contained and carries its own derived seed, the chunks lost with
    the dead worker are simply re-executed serially in-process — with
    bit-identical results.  A task that then fails *again* raises a
    :class:`~repro.errors.SimulationError` naming its index.  Ordinary
    exceptions raised by ``func`` inside a healthy worker propagate
    unchanged.

    Returns:
        ``[func(item) for item in items]`` — same values, any backend.
    """
    config = config or ParallelConfig()
    items = list(items)
    if not items:
        return []
    if config.backend == "serial":
        if initializer is not None:
            initializer(*initargs)
        return [func(item) for item in items]
    workers = min(config.resolved_workers(), len(items))
    chunks = [
        items[i : i + config.chunksize]
        for i in range(0, len(items), config.chunksize)
    ]
    chunk_results: List[Optional[List[Any]]] = [None] * len(chunks)
    broken: List[int] = []
    with ProcessPoolExecutor(
        max_workers=workers, initializer=initializer, initargs=initargs
    ) as pool:
        futures = [
            pool.submit(_run_item_chunk, (func, chunk)) for chunk in chunks
        ]
        for ci, future in enumerate(futures):
            try:
                chunk_results[ci] = future.result()
            except BrokenProcessPool:
                broken.append(ci)
    if broken:
        if initializer is not None:
            initializer(*initargs)
        for ci in broken:
            base = ci * config.chunksize
            retried: List[Any] = []
            for offset, item in enumerate(chunks[ci]):
                try:
                    retried.append(func(item))
                except Exception as exc:
                    raise SimulationError(
                        f"task {base + offset} failed in a worker process "
                        f"and again on the serial retry: {exc}"
                    ) from exc
            chunk_results[ci] = retried
    return [value for chunk in chunk_results for value in chunk]


def _run_item_chunk(
    payload: Tuple[Callable[[Any], Any], List[Any]]
) -> List[Any]:
    """Worker: evaluate one contiguous chunk of task items in order."""
    func, chunk = payload
    return [func(item) for item in chunk]


#: Per-process shared read-only state of the running :func:`shared_map`:
#: heavy invariants (spec columns, sample matrices, training data) cross
#: the process boundary once per worker instead of once per task.
_SHARED: Dict[str, Any] = {}


def _init_shared(shared: Dict[str, Any]) -> None:
    """Worker initializer: install the fan-out's shared state."""
    global _SHARED
    _SHARED = shared


def shared_map(
    shared: Dict[str, Any],
    func: Callable[[Any], Any],
    items: Sequence[Any],
    config: Optional[ParallelConfig] = None,
) -> List[Any]:
    """:func:`parallel_map` with ``shared`` installed for ``func`` to read.

    ``func`` reads the state from the module-level ``_SHARED`` slot.  The
    slot is restored afterwards, so serial-backend state never leaks past
    the call and a nested fan-out cannot clobber its caller's state.
    """
    global _SHARED
    outer = _SHARED
    try:
        return parallel_map(
            func, items, config, initializer=_init_shared, initargs=(shared,)
        )
    finally:
        _SHARED = outer


# -- fleet drivers (module-level workers so the process backend can pickle) --


def _bsn_report(bsn: MultiNodeBSN) -> BSNReport:
    """Worker: closed-form system report of one BSN configuration."""
    return bsn.report()


def _bsn_simulate(task: Tuple[MultiNodeBSN, int]) -> Dict[str, float]:
    """Worker: event-driven medium simulation of one BSN configuration."""
    bsn, n_events = task
    return bsn.simulate(n_events)


def fleet_reports(
    bsns: Sequence[MultiNodeBSN], config: Optional[ParallelConfig] = None
) -> List[BSNReport]:
    """Closed-form :class:`BSNReport` of every BSN in the fleet.

    The reports are pure functions of each BSN's configuration, so the
    parallel fan-out is trivially bit-identical to the serial one.
    """
    return parallel_map(_bsn_report, bsns, config)


def fleet_simulations(
    bsns: Sequence[MultiNodeBSN],
    n_events: int,
    config: Optional[ParallelConfig] = None,
) -> List[Dict[str, float]]:
    """Event-driven medium simulation of every BSN in the fleet.

    Args:
        bsns: The fleet; each network is simulated independently.
        n_events: Events per node streamed through each simulation.
        config: Execution configuration.

    Returns:
        Per-BSN mean-latency dictionaries, in fleet order.
    """
    if n_events <= 0:
        raise ConfigurationError("n_events must be positive")
    return parallel_map(_bsn_simulate, [(bsn, n_events) for bsn in bsns], config)


def _fleet_soa_shard(bounds: Tuple[int, int]) -> Any:
    """Worker: simulate one contiguous network range of the shared fleet."""
    from repro.sim.fleetsoa import simulate_fleet_soa

    lo, hi = bounds
    shared = _SHARED
    return simulate_fleet_soa(
        shared["spec"].slice_networks(lo, hi),
        shared["n_rounds"],
        policy=shared["policy"],
    )


def fleet_soa_rounds(
    spec: Any,
    n_rounds: int,
    policy: Any = None,
    config: Optional[ParallelConfig] = None,
    shards: Optional[int] = None,
) -> Any:
    """Process-parallel struct-of-arrays fleet simulation.

    Shards the network axis of a :class:`~repro.sim.fleetsoa.FleetSpec`
    into contiguous ranges (one per worker by default), hands the shared
    read-only spec columns to each worker once via the pool initializer,
    simulates every range with :func:`~repro.sim.fleetsoa.
    simulate_fleet_soa` and stitches the shards back into fleet order.

    Every network owns an independent seeded stream
    (:func:`derive_seeds`), every supervised device an independent health
    machine, so the sharded result is **bit-identical** to the unsharded
    one — and the serial backend to the process backend — by
    construction.

    Args:
        spec: The fleet layout (:class:`~repro.sim.fleetsoa.FleetSpec`).
        n_rounds: Supervision rounds to simulate.
        policy: Optional :class:`~repro.sim.supervise.HealthPolicy`.
        config: Execution configuration.
        shards: Shard count override (default: resolved worker count).

    Returns:
        One stitched :class:`~repro.sim.fleetsoa.FleetResult`.
    """
    from repro.sim.fleetsoa import concat_fleet_results, simulate_fleet_soa

    if n_rounds < 1:
        raise ConfigurationError("n_rounds must be >= 1")
    if shards is not None and shards < 1:
        raise ConfigurationError("shards must be >= 1 when given")
    config = config or ParallelConfig()
    n_networks = spec.n_networks
    if n_networks == 0:
        return simulate_fleet_soa(spec, n_rounds, policy=policy)
    n_shards = min(shards or config.resolved_workers(), n_networks)
    bounds = [
        (
            (s * n_networks) // n_shards,
            ((s + 1) * n_networks) // n_shards,
        )
        for s in range(n_shards)
    ]
    parts = shared_map(
        {"spec": spec, "n_rounds": n_rounds, "policy": policy},
        _fleet_soa_shard,
        bounds,
        config,
    )
    return concat_fleet_results(parts)


def _stream_soa_shard(bounds: Tuple[int, int]) -> Any:
    """Worker: run one contiguous stream range of the shared pool."""
    from repro.stream.engine import run_stream_pool

    lo, hi = bounds
    shared = _SHARED
    return run_stream_pool(
        shared["spec"].slice_streams(lo, hi),
        shared["backend"],
        shared["samples"][lo:hi],
        shared["tick_samples"],
        policy=shared["policy"],
    )


def stream_soa_windows(
    spec: Any,
    backend: Any,
    samples: Any,
    tick_samples: int,
    policy: str = "skip_stale",
    config: Optional[ParallelConfig] = None,
    shards: Optional[int] = None,
) -> Any:
    """Process-parallel struct-of-arrays multi-stream window scoring.

    Shards the stream axis of a :class:`~repro.stream.engine.StreamSpec`
    into contiguous ranges (one per worker by default), ships the shared
    read-only spec columns, backend and sample matrix to each worker once
    via the pool initializer, runs every range with
    :func:`~repro.stream.engine.run_stream_pool` and stitches the shards
    back into canonical stream order.

    Streams are mutually independent — each consumes only its own sample
    row and ring buffer — so the sharded result is **bit-identical** to
    the unsharded one (and the serial backend to the process backend)
    under :func:`repro.exact.identical` in canonical order.

    Args:
        spec: The stream population (:class:`~repro.stream.engine.
            StreamSpec`).
        backend: Picklable window scorer (e.g. :class:`~repro.stream.
            engine.MomentsBackend`).
        samples: ``(n_streams, T)`` sample matrix.
        tick_samples: Samples ingested between scoring ticks.
        policy: Backpressure policy (see :class:`~repro.stream.engine.
            StreamPool`).
        config: Execution configuration.
        shards: Shard count override (default: resolved worker count).

    Returns:
        One stitched :class:`~repro.stream.engine.StreamRunResult`.
    """
    import numpy as _np

    from repro.stream.engine import concat_stream_results, run_stream_pool

    if tick_samples < 1:
        raise ConfigurationError("tick_samples must be >= 1")
    if shards is not None and shards < 1:
        raise ConfigurationError("shards must be >= 1 when given")
    config = config or ParallelConfig()
    x = _np.asarray(samples, dtype=_np.float64)
    if x.ndim != 2 or x.shape[0] != spec.n_streams:
        raise ConfigurationError(
            f"samples must be ({spec.n_streams}, T), got {x.shape}"
        )
    n_streams = spec.n_streams
    n_shards = min(shards or config.resolved_workers(), n_streams)
    if n_shards <= 1:
        return run_stream_pool(spec, backend, x, tick_samples, policy=policy)
    bounds = [
        (
            (s * n_streams) // n_shards,
            ((s + 1) * n_streams) // n_shards,
        )
        for s in range(n_shards)
    ]
    shared = {
        "spec": spec,
        "backend": backend,
        "samples": x,
        "tick_samples": tick_samples,
        "policy": policy,
    }
    parts = shared_map(shared, _stream_soa_shard, bounds, config)
    return concat_stream_results(parts, [lo for lo, _ in bounds])


def _subspace_draw_task(task: Tuple[Any, int, int]) -> Any:
    """Worker: train and score one subspace draw on the shared state."""
    from repro.ml.subspace import fit_subspace_draw

    subset, member_seed, fold_seed = task
    shared = _SHARED
    return fit_subspace_draw(
        shared["X"],
        shared["y"],
        subset,
        shared["kernel"],
        shared["C"],
        member_seed,
        fold_seed,
        shared["cv_folds"],
        shared["fit_idx"],
        shared["val_idx"],
        shared["pre"],
    )


def subspace_draws(
    X: Any,
    y: Any,
    subsets: Sequence[Any],
    seeds: Sequence[Tuple[int, int]],
    kernel: Any,
    C: float,
    cv_folds: Optional[int],
    fit_idx: Any,
    val_idx: Any,
    config: Optional[ParallelConfig] = None,
) -> List[Any]:
    """Process-parallel training of the random-subspace draws.

    Ships ``(X, y, kernel, split indices)`` and the kernel's shared
    per-column Gram precompute to each worker once via the pool
    initializer, then fans one
    :func:`~repro.ml.subspace.fit_subspace_draw` task per draw.  Every
    draw carries its own ``(member_seed, fold_seed)`` pair and never
    touches shared RNG state, so the member list is **bit-identical** to
    the serial path — results come back in draw order, never completion
    order.

    Args:
        X: Full ``(n, d)`` normalised feature matrix.
        y: Binary {0, 1} labels.
        subsets: Pre-drawn feature-index tuples, one per draw.
        seeds: Per-draw ``(member_seed, fold_seed)`` pairs.
        kernel: Kernel instance shared by every draw (picklable).
        C: Soft-margin penalty.
        cv_folds: ``None`` for the holdout protocol, else the CV fold count.
        fit_idx: Holdout training rows.
        val_idx: Holdout validation rows.
        config: Execution configuration.

    Returns:
        One :class:`~repro.ml.subspace.SubspaceMember` (or ``None`` for an
        untrainable draw) per subset, in draw order.
    """
    if len(subsets) != len(seeds):
        raise ConfigurationError("subsets and seeds must pair up one per draw")
    payload = {
        "X": X,
        "y": y,
        "kernel": kernel,
        "C": C,
        "cv_folds": cv_folds,
        "fit_idx": fit_idx,
        "val_idx": val_idx,
        "pre": kernel.gram_precompute(X),
    }
    tasks = [
        (subsets[d], seeds[d][0], seeds[d][1]) for d in range(len(subsets))
    ]
    return shared_map(payload, _subspace_draw_task, tasks, config)


@dataclass(frozen=True)
class CampaignTask:
    """One seeded fault-injection campaign to run against one simulator.

    The campaign re-arms every fault model from its own seed inside
    :meth:`~repro.sim.faults.FaultCampaign.run`, so the task produces the
    same :class:`~repro.sim.faults.ResilienceReport` wherever it executes.

    Attributes:
        label: Task name carried through to the result ordering.
        campaign: The seeded fault campaign.
        simulator: Supplies partition metrics and the event period.
        n_events: Events streamed through the campaign.
        run_kwargs: Extra keyword arguments forwarded to
            :meth:`FaultCampaign.run` (ARQ config, degradation policy,
            integrity config, ...).  Must be picklable.
    """

    label: str
    campaign: FaultCampaign
    simulator: CrossEndSimulator
    n_events: int
    run_kwargs: Tuple[Tuple[str, Any], ...] = ()

    def run(self) -> ResilienceReport:
        """Execute the campaign exactly as the serial path would."""
        return self.campaign.run(
            self.simulator, self.n_events, **dict(self.run_kwargs)
        )


def _run_campaign(task: CampaignTask) -> ResilienceReport:
    """Worker: one fault campaign, reset-from-seed semantics."""
    return task.run()


def run_campaigns(
    tasks: Sequence[CampaignTask], config: Optional[ParallelConfig] = None
) -> List[ResilienceReport]:
    """Run every fault campaign, in task order, on the configured backend."""
    return parallel_map(_run_campaign, tasks, config)


def _call_with_params(
    task: Tuple[Callable[..., Any], Tuple[Tuple[str, Any], ...]]
) -> Any:
    """Worker: evaluate one design-space point."""
    func, params = task
    kwargs = dict(_SHARED)
    kwargs.update(params)
    return func(**kwargs)


def sweep(
    func: Callable[..., Any],
    grid: Mapping[str, Sequence[Any]],
    config: Optional[ParallelConfig] = None,
    shared: Optional[Mapping[str, Any]] = None,
    checkpoint: Optional[object] = None,
    resume: bool = False,
) -> List[Tuple[Dict[str, Any], Any]]:
    """Evaluate ``func`` over the cartesian product of a parameter grid.

    The design-space sweep primitive: ``grid`` maps parameter names to the
    values each may take; every combination is evaluated as one task.

    Args:
        func: Module-level callable accepting the grid's keys as keyword
            arguments.
        grid: Parameter name -> candidate values.  Iteration order of the
            mapping fixes the product order (first key varies slowest).
        config: Execution configuration.
        shared: Extra keyword arguments passed to *every* point, shipped
            once per worker (pool initializer) instead of once per task.
            Use it for heavyweight sweep-invariant state — e.g. an
            :class:`~repro.graph.stgraph.STGraphTemplate` or a
            :class:`~repro.sim.evaluate.PartitionEvaluationCache` when the
            topology does not vary across the grid.  Names must not
            collide with grid keys.  Each worker operates on its own copy, so
            mutations (accumulated warm states, memo entries) speed up
            that worker without feeding back to the caller — results stay
            bit-identical to the serial backend either way.
        checkpoint: Optional
            :class:`~repro.sim.supervise.SweepCheckpointer`; the grid is
            evaluated in batches of ``checkpoint.every`` points and the
            completed ``index -> value`` map is snapshot after each batch
            (crash-safe atomic writes).
        resume: Skip the points recorded in ``checkpoint``'s last
            snapshot and evaluate only the remainder.  Every point is an
            independent seeded task, so the stitched result is
            bit-identical to an uninterrupted sweep.

    Returns:
        ``(params, value)`` pairs in deterministic product order, where
        ``params`` is the keyword dictionary of that point.
    """
    if not grid:
        raise ConfigurationError("sweep grid must name at least one parameter")
    if resume and checkpoint is None:
        raise ConfigurationError("resume=True requires a checkpoint")
    names = list(grid.keys())
    overlap = set(names) & set(shared or {})
    if overlap:
        raise ConfigurationError(
            f"sweep grid and shared kwargs overlap: {sorted(overlap)}"
        )
    combos = [
        tuple(zip(names, values)) for values in product(*(grid[n] for n in names))
    ]
    if checkpoint is None:
        results = shared_map(
            dict(shared or {}),
            _call_with_params,
            [(func, c) for c in combos],
            config,
        )
        return [(dict(c), r) for c, r in zip(combos, results)]
    key = checkpoint.config_key(func=func, grid=grid, shared=shared)
    done: Dict[int, Any] = checkpoint.load(key=key) if resume else {}
    pending = [i for i in range(len(combos)) if i not in done]
    for lo in range(0, len(pending), checkpoint.every):
        batch = pending[lo : lo + checkpoint.every]
        values = shared_map(
            dict(shared or {}),
            _call_with_params,
            [(func, combos[i]) for i in batch],
            config,
        )
        for i, value in zip(batch, values):
            done[i] = value
        checkpoint.save(key=key, done=done)
    return [(dict(combos[i]), done[i]) for i in range(len(combos))]
