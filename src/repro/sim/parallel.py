"""Parallel replication engine: fan independent replications over processes.

Every experiment in this reproduction reports means over independent
replications of a stochastic DES.  Replications share nothing — each builds
its own :class:`~repro.des.environment.Environment` from a config whose
seed fully determines the run — so they parallelise embarrassingly well.

:class:`ReplicationExecutor` wraps a :class:`concurrent.futures.
ProcessPoolExecutor` with the guarantees the experiment layer needs:

* **Bit-identical results.**  Work is partitioned *after* every
  replication's seed is fixed, and results come back in submission order,
  so ``jobs=4`` produces exactly the same samples as ``jobs=1`` — the
  common-random-numbers pairing in ``compare_policies`` survives
  parallelisation (pinned by tests).
* **Serial fallback.**  ``jobs=1``, non-picklable work (e.g. configs
  carrying closures), daemonic worker contexts (no nested pools), and
  pool start-up failures (restricted sandboxes) all degrade to an in-process
  loop with identical semantics.
* **No hidden defaults.**  ``jobs`` is whatever the caller passes
  (``None`` is serial).  The sweep engine
  (:class:`~repro.sim.sweep.SweepExecutor`) holds a run's ``jobs`` and
  node backend; the CLI builds one from ``--jobs``, ``--node-backend``
  and ``--node-workers``.
"""

from __future__ import annotations

import os
import pickle
import warnings
from dataclasses import dataclass
from typing import Any, Callable, Sequence, TypeVar

__all__ = [
    "ReplicationExecutor",
    "resolve_jobs",
    # parallel node backend
    "NodePartition",
    "NodeShardPayload",
    "plan_node_partition",
    "cap_node_workers",
    "effective_node_workers",
    "run_node_shards",
]

T = TypeVar("T")
R = TypeVar("R")

#: Pool construction/submission failures that demote to the serial path.
#: Only consulted *before* any user function result is awaited, so a
#: simulation raising one of these (e.g. FileNotFoundError) is never
#: mistaken for a broken pool.
_POOL_SETUP_FAILURES = (OSError, PermissionError)


def resolve_jobs(jobs: int | None = None) -> int:
    """Normalise a ``jobs`` value: None → 1 (serial), ≤0 → all cores."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def _picklable(*objects: Any) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


class ReplicationExecutor:
    """Order-preserving map of a pure function over independent work items.

    Parameters
    ----------
    jobs:
        Worker processes: ``None`` or ``1`` → serial, ``≤0`` → one per
        core.

    Notes
    -----
    ``map`` returns results in input order regardless of completion order,
    which is what makes parallel replication bit-identical to serial: seeds
    are assigned to items before dispatch (seed-stable partitioning), so
    worker scheduling cannot reshuffle which seed produced which sample.
    """

    def __init__(self, jobs: int | None = None) -> None:
        self.jobs = resolve_jobs(jobs)

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
        """Apply ``fn`` to every item, preserving order.

        Falls back to an in-process loop whenever parallelism is
        impossible or pointless; exceptions raised by ``fn`` propagate
        unchanged on both paths.
        """
        items = list(items)
        jobs = min(self.jobs, len(items))
        if jobs <= 1:
            return [fn(item) for item in items]
        # Imported here: a serial run never loads the pool modules.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if multiprocessing.current_process().daemon:
            # Daemonic workers (e.g. inside another pool) cannot fork.
            return [fn(item) for item in items]
        if not _picklable(fn, items):
            return [fn(item) for item in items]
        # Contiguous chunks: ceil(n/jobs) items per worker keeps IPC low
        # without affecting results (ordering is restored by pool.map).
        chunksize = -(-len(items) // jobs)
        try:
            pool = ProcessPoolExecutor(max_workers=jobs)
        except _POOL_SETUP_FAILURES:
            # Restricted environments may refuse process/semaphore creation.
            return [fn(item) for item in items]
        try:
            # Submission failures (fork limits) also precede any user code.
            results = pool.map(fn, items, chunksize=chunksize)
        except _POOL_SETUP_FAILURES:
            pool.shutdown(wait=False, cancel_futures=True)
            return [fn(item) for item in items]
        try:
            with pool:
                # Exceptions surfacing here come from ``fn`` itself (they
                # propagate unchanged, as on the serial path) — except a
                # worker dying abruptly, which is a pool failure.
                return list(results)
        except BrokenProcessPool:
            return [fn(item) for item in items]


# ======================================================================
# Parallel node backend
# ======================================================================
#
# ``node_backend="parallel"`` splits one simulation's proxy tier into
# *shard groups* and runs each group's event loop to completion in a
# worker process.  The contract is the one :class:`ReplicationExecutor`
# and the aggregated client backend pin: **bit-identical output** for
# every topology and cooperation mode.  That contract shapes the
# partition two ways:
#
# * **Decoupled tiers parallelise fully.**  Client-affinity routing
#   without cooperation (and without the shared-state couplings below)
#   makes each proxy an independent copy of the paper's system: its
#   clients, caches, link and metrics shard form a closed subsystem, and
#   name-keyed RNG streams (``RandomStreams.get("client{c}/...")``
#   derives from seed+name, not draw order) mean a worker building only
#   its node's clients draws the identical randomness.  The per-node
#   event sequence of the serial global heap *projects* exactly onto an
#   isolated per-node heap — relative insertion order of one node's
#   events is preserved and no state is shared — so each node is its own
#   group, runs ``env.run(until=duration)`` exactly like a serial run,
#   and yields bitwise the serial result.
# * **Couplings stay on one loop.**  Cooperative probes read the
#   holder's cache state at the probe instant and resolve misses at the
#   prober in the same instant; item-hash routing submits fetches on
#   remote uplinks with zero latency; fault schedules mutate the shared
#   ring at instants every shard must observe; stochastic lazily-sampled
#   item sizes share one origin RNG whose draw order is global; trace
#   replay drives every shard from one merged recorded stream.
#   :func:`plan_node_partition` keeps such a tier in a single group —
#   the serial loop — with a warning naming each coupling, rather than
#   ship answers that drift from serial.


@dataclass(frozen=True)
class NodePartition:
    """How a config's proxy tier splits into independently-runnable groups.

    ``groups`` are tuples of node ids in ascending order; ``reasons`` is
    non-empty exactly when the tier could not be split (one coupled
    group) and names every coupling so the fallback warning — and the
    docs — can say *why*.
    """

    groups: tuple[tuple[int, ...], ...]
    reasons: tuple[str, ...] = ()

    @property
    def parallel(self) -> bool:
        """True when there is more than one group to fan out."""
        return len(self.groups) > 1


def plan_node_partition(config) -> NodePartition:
    """Partition a config's proxy tier for the parallel node backend.

    Applies the bit-identity analysis documented at the top of this
    section: nodes whose subsystems are provably closed (client-affinity
    routing, no cooperation, no faults, deterministic item sizes,
    synthetic arrivals) each form their own singleton group, in node
    order; any coupling collapses the tier into one group, and the
    ``reasons`` name each coupling.
    """
    from repro.workload.sizes import FixedSize

    topo = config.topology
    spec = config.workload
    reasons: list[str] = []
    if topo.num_proxies == 1:
        reasons.append("the tier has a single proxy (nothing to shard)")
    if config.trace_path is not None:
        reasons.append(
            "trace replay drives every shard from one merged recorded stream"
        )
    if topo.num_proxies > 1 and topo.routing == "item-hash":
        reasons.append(
            "item-hash routing submits fetches on remote-owned uplinks at "
            "the request instant (zero-lookahead channel), and prefetch "
            "planners read tier-wide offered load"
        )
    if topo.num_proxies > 1 and topo.cooperation.enabled:
        reasons.append(
            "cooperative probes read peer cache state when the probe lands "
            "and probe misses resolve at the prober in the same instant "
            "(zero-lookahead channels)"
        )
    if getattr(config, "faults", None):
        reasons.append(
            "fault-injection schedules mutate the shared ring and drain "
            "nodes at absolute instants every shard must observe "
            "(zero-lookahead coupling)"
        )
    sizes = spec.size_distribution
    if sizes is not None and not isinstance(sizes, FixedSize):
        reasons.append(
            "stochastic item sizes are sampled lazily from one shared "
            "origin RNG stream whose draw order is global (first touch "
            "anywhere fixes the size everywhere)"
        )
    if reasons:
        groups: tuple[tuple[int, ...], ...] = (tuple(range(topo.num_proxies)),)
    else:
        groups = tuple((node,) for node in range(topo.num_proxies))
    return NodePartition(groups=groups, reasons=tuple(reasons))


def cap_node_workers(requested: int | None, jobs: int) -> int:
    """Node workers for one run while ``jobs`` runs execute at once.

    The guard against oversubscription: node workers multiply with the
    replication workers that run them, so each run gets at most
    ``os.cpu_count() // jobs`` (at least 1).  ``requested=None`` takes
    that whole share; an explicit request above it is cut, with a
    warning.
    """
    cpus = os.cpu_count() or 1
    cap = max(1, cpus // jobs)
    if requested is None:
        return cap
    if requested > cap:
        warnings.warn(
            f"node_workers={requested} x jobs={jobs} would oversubscribe "
            f"{cpus} CPU core(s); capping node workers at {cap} "
            f"(results are identical, only wall-clock changes)",
            RuntimeWarning,
            stacklevel=3,
        )
        return cap
    return int(requested)


def effective_node_workers(requested: int | None, num_groups: int) -> int:
    """Worker processes for a parallel run's ``num_groups`` shard groups.

    At most one per group, and at most :func:`cap_node_workers` allows a
    lone run: ``requested=None`` gives one worker per group up to the
    core count.  A config dispatched by a multi-worker
    :class:`~repro.sim.sweep.SweepExecutor` arrives with its request
    already cut to the engine's share of the cores.  Results are
    identical for every worker count, so capping is purely a throughput
    decision.
    """
    return max(1, min(cap_node_workers(requested, 1), num_groups))


@dataclass(frozen=True)
class NodeShardPayload:
    """One proxy node's complete share of a run.

    Everything the output reads off a node after the event loop ends, in
    picklable form: the metrics snapshot (exact aggregation input), the
    KPI shard, link/peer accounting, and the per-entity stats lists
    aligned with ``clients``.  A ``clients`` entry is the entity's key:
    a client id, or a class representative on the aggregated backend.
    Keys ascend in build order on both backends, so merging every
    node's lists by key reproduces the serial output's list order.
    """

    node_id: int
    clients: tuple[int, ...]
    snapshot: Any  # MetricsSnapshot
    kpi: Any  # KPIShard
    bandwidth: float
    link_demand_fetches: int
    link_prefetch_fetches: int
    link_prefetch_bytes: float
    link_demand_bytes: float
    peer_fetches: int
    peer_bytes: float
    #: cache and controller stats of each entity, aligned with ``clients``
    cache_stats: list
    controller_stats: list
    #: ClientClassStats rows of this node's classes (aggregated backend)
    class_rows: tuple = ()


def _run_shard_group(task) -> list[NodeShardPayload]:
    """Worker entry point: build and run one shard group to completion.

    Top-level (picklable) on purpose.  The import is deferred — this
    module must stay importable without dragging the whole simulation
    stack into every consumer of :class:`ReplicationExecutor`.
    """
    config, group = task
    from repro.sim.simulation import Simulation

    return Simulation(config, only_nodes=group).run_shard()


def run_node_shards(
    config, plan: NodePartition, *, workers: int | None = None
) -> list[NodeShardPayload]:
    """Fan a partitioned simulation's shard groups over worker processes.

    Reuses :class:`ReplicationExecutor` for the pool discipline — order-
    preserving map, serial in-process fallback for ``workers=1`` /
    daemonic contexts / unpicklable configs / restricted sandboxes — so
    the node backend degrades exactly like replication parallelism does,
    and every degradation is still bit-identical.  Payloads come back
    flattened in ascending node order (groups are built that way).
    """
    tasks = [(config, group) for group in plan.groups]
    workers = effective_node_workers(workers, len(tasks))
    grouped = ReplicationExecutor(jobs=workers).map(_run_shard_group, tasks)
    return [payload for payloads in grouped for payload in payloads]
