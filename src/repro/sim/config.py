"""Configuration for the full (cache + predictor + policy) simulation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError
from repro.network.topology import TopologyConfig
from repro.sim.faults import FaultSchedule
from repro.workload.sessions import WorkloadSpec

__all__ = [
    "SimulationConfig",
    "PREDICTOR_NAMES",
    "POLICY_NAMES",
    "CLIENT_BACKENDS",
    "NODE_BACKENDS",
]

PREDICTOR_NAMES = (
    "markov",
    "ppm",
    "dependency-graph",
    "frequency",
    "true-distribution",
)

POLICY_NAMES = (
    "none",
    "threshold-static",
    "threshold-dynamic",
    "fixed-threshold",
    "top-k",
    "all",
    "adaptive",
)

CLIENT_BACKENDS = ("per-client", "aggregated")

NODE_BACKENDS = ("serial", "parallel")


@dataclass
class SimulationConfig:
    """Everything needed to build and run one full-system simulation.

    Attributes
    ----------
    workload:
        Multi-client reference stream parameters.
    bandwidth:
        Shared link capacity ``b``.
    cache_policy, cache_capacity:
        Per-client cache (capacity = ``n̄(C)`` items).
    predictor / predictor_params:
        Access model by name: ``markov`` (order), ``ppm`` (max_order),
        ``dependency-graph`` (window), ``frequency`` (decay), or
        ``true-distribution`` (uses the workload's exact Markov-source
        probabilities — the paper's "known p" setting).
    policy / policy_params:
        Prefetch policy by name (see :data:`POLICY_NAMES`); params are
        forwarded to the policy constructor (e.g. ``{"p0": 0.5}`` for
        ``fixed-threshold``; ``{"k": 2}`` for ``top-k``).
    assumed_hit_ratio:
        ``h′`` used by the *static* threshold policy; ``None`` means use
        the §4 dynamic estimate instead (forces ``threshold-dynamic``).
    duration / warmup / seed:
        Run control.  ``prediction_limit`` caps candidates per request.
    trace_path:
        Optional recorded trace (.csv/.jsonl, see
        :mod:`repro.workload.trace`).  When set, the synthetic Poisson
        arrival machinery is replaced by exact replay of the recorded
        request stream (see :mod:`repro.workload.replay`): client count,
        request timestamps, items and sizes all come from the trace, while
        caches, predictors, policies and link contention still run live.
        The workload spec keeps supplying the catalogue/locality parameters
        predictors and the ``true-distribution`` oracle need.
    topology:
        Proxy-tier shape (:class:`~repro.network.topology.TopologyConfig`).
        The default — one proxy, client-affinity routing, no cooperation —
        reproduces the paper's single-proxy system bit-identically; more
        proxies shard clients (or, with ``item-hash`` routing, the
        catalogue) across per-node uplinks, and the topology's
        :class:`~repro.network.topology.CooperationConfig` lets a miss be
        served from a peer proxy's cache over an inter-proxy link.
        ``bandwidth`` / ``cache_capacity`` above become the per-node
        defaults the topology may override per proxy.
    client_backend:
        How the population is realised inside the DES.  ``per-client``
        (default) builds one arrival stream/cache/controller per client —
        the exact per-client system, bit-identical to every earlier PR.
        ``aggregated`` partitions the population into homogeneous classes
        (see :mod:`repro.workload.aggregate`) and drives each class with
        one arrival process and one shared controller/cache —
        statistically indistinguishable at the class level (bit-identical
        for singleton classes) while scaling a single run to 100k–1M
        clients.  Incompatible with ``trace_path`` (a recorded trace *is*
        an exact per-client schedule; aggregating it would discard the
        recording).
    node_backend:
        How the proxy tier's event loops execute.  ``serial`` (default)
        runs the whole tier on one :class:`~repro.des.environment.
        Environment` — every earlier PR's behaviour.  ``parallel`` runs
        a decoupled tier — several proxies, client-affinity routing, no
        cooperation, no faults, fixed item sizes, synthetic arrivals —
        as one independent event loop per
        :class:`~repro.sim.node.ProxyNode` in worker processes
        (:mod:`repro.sim.parallel`), and is **bit-identical** to serial.
        Any other configuration couples its nodes (item-hash routing,
        cooperative probes, fault schedules, stochastic lazily-sampled
        sizes, trace replay); it is detected at build time and runs on
        the serial loop with a warning naming each coupling.  See
        ARCHITECTURE.md ("Parallel node backend").
    node_workers:
        Worker-process cap for ``node_backend="parallel"``.  ``None``
        (default) uses the session default (CLI ``--node-workers``) or
        one worker per shard group up to the core count; the
        oversubscription guard caps ``node_workers × jobs`` at
        ``os.cpu_count()`` with a warning.  Purely an execution knob —
        results are identical for every value.
    faults:
        Optional :class:`~repro.sim.faults.FaultSchedule` of mid-run
        topology mutations (proxy crash/recovery, elastic ring
        grow/shrink) — see :mod:`repro.sim.faults`.  ``None`` or an
        empty schedule leave the run bit-identical to a fault-free one;
        a non-empty schedule couples every node, so the parallel node
        backend falls back to the serial loop (named
        ``fault-injection`` in the warning).
    """

    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    bandwidth: float = 50.0
    cache_policy: str = "lru"
    cache_capacity: int = 50
    predictor: str = "markov"
    predictor_params: dict[str, Any] = field(default_factory=dict)
    policy: str = "threshold-dynamic"
    policy_params: dict[str, Any] = field(default_factory=dict)
    assumed_hit_ratio: float | None = None
    duration: float = 400.0
    warmup: float = 40.0
    seed: int = 0
    prediction_limit: int = 16
    trace_path: str | None = None
    topology: TopologyConfig = field(default_factory=TopologyConfig)
    client_backend: str = "per-client"
    node_backend: str = "serial"
    node_workers: int | None = None
    faults: FaultSchedule | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.topology, TopologyConfig):
            raise ConfigurationError(
                f"topology must be a TopologyConfig, got "
                f"{type(self.topology).__name__}"
            )
        if self.bandwidth <= 0:
            raise ConfigurationError(f"bandwidth must be > 0, got {self.bandwidth!r}")
        if self.cache_capacity < 1:
            raise ConfigurationError(
                f"cache_capacity must be >= 1, got {self.cache_capacity!r}"
            )
        if self.predictor not in PREDICTOR_NAMES:
            raise ConfigurationError(
                f"unknown predictor {self.predictor!r}; known: {PREDICTOR_NAMES}"
            )
        if self.policy not in POLICY_NAMES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; known: {POLICY_NAMES}"
            )
        if self.duration <= self.warmup:
            raise ConfigurationError("duration must exceed warmup")
        if self.prediction_limit < 1:
            raise ConfigurationError("prediction_limit must be >= 1")
        if self.trace_path is not None:
            self.trace_path = str(self.trace_path)  # accept PathLike
        if self.client_backend not in CLIENT_BACKENDS:
            raise ConfigurationError(
                f"unknown client_backend {self.client_backend!r}; "
                f"known: {CLIENT_BACKENDS}"
            )
        if self.node_backend not in NODE_BACKENDS:
            raise ConfigurationError(
                f"unknown node_backend {self.node_backend!r}; "
                f"known: {NODE_BACKENDS}"
            )
        if self.node_workers is not None and int(self.node_workers) < 1:
            raise ConfigurationError(
                f"node_workers must be >= 1, got {self.node_workers!r}"
            )
        if self.client_backend == "aggregated" and self.trace_path is not None:
            raise ConfigurationError(
                "client_backend='aggregated' cannot replay a trace: a "
                "recorded trace is an exact per-client request schedule "
                "(use the per-client backend for trace_path runs)"
            )
        if self.policy == "threshold-static" and self.assumed_hit_ratio is None:
            raise ConfigurationError(
                "threshold-static needs assumed_hit_ratio (or use threshold-dynamic)"
            )
        if self.faults is not None:
            if not isinstance(self.faults, FaultSchedule):
                raise ConfigurationError(
                    f"faults must be a FaultSchedule, got "
                    f"{type(self.faults).__name__}"
                )
            self.faults.validate(
                topology=self.topology, duration=self.duration
            )
        if self.trace_path is not None and self.workload.phases is not None:
            raise ConfigurationError(
                "trace_path replays a recorded request schedule, which "
                "already fixes all arrival times — workload.phases cannot "
                "reshape it (record the trace from a phased spec instead)"
            )
