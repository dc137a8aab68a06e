"""Full-system simulation: a proxy tier composed from nodes.

Composes every substrate into the system of the paper's Figure-less §2
description — ``num_clients`` users behind a proxy tier, each with a
cache, an access model and a prefetch policy — generalised to *multiple*
proxies.  :class:`Simulation` is a thin orchestrator: it builds the
:class:`~repro.sim.node.ProxyNode` instances the
:class:`~repro.network.topology.TopologyConfig` asks for, homes clients
onto them, wires the shared origin catalogue through per-node links, and
routes fetches (client-affinity or consistent-hash catalogue sharding).
The *request path* itself — cache lookup, fetch joining, prefetch
planning — lives on the node (see :mod:`repro.sim.node`); with the default
single-proxy topology it reproduces the paper's system bit-identically.

Request path (per client, on its home node):

1. Poisson-timed request for the next item of the client's Markov/Zipf
   stream — or, when ``config.trace_path`` attaches a recorded trace, the
   exact recorded timestamp/item sequence (see
   :mod:`repro.workload.replay`): the arrival *driver* is swapped, the
   request path below is shared.
2. Cache lookup (§4 tag discipline applied) → hit costs zero access time.
3. On a miss: if the item is already being fetched — demand, prefetch *or*
   remote, the node's unified :class:`~repro.sim.node.FetchTable` tracks
   all three — *join* the pending fetch (access time = remaining transfer
   time); a joined fetch that fails mid-flight wakes the joiner, which
   falls back to a demand fetch.  Otherwise, with cooperation enabled
   (:class:`~repro.network.topology.CooperationConfig`), probe the item's
   ring owner (or every peer in ``broadcast`` mode) and serve a remote hit
   over the serving node's peer link; on a probe miss — or without
   cooperation — demand-fetch through the routed link.
4. After the request, the controller plans prefetches; the planner sees
   the fetch table, so items already being fetched (either kind) are never
   selected — and a selection that slips through anyway is skipped, not
   duplicated.

Metrics are gated on *issue* time and collected per node: each proxy owns
a shard (its homed clients' requests, its link's utilisation) and
:class:`SimulationOutput` carries the shards plus their exact aggregate.
"""

from __future__ import annotations

import gc
import heapq
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import takewhile
from operator import attrgetter
from typing import Hashable, Iterator, Sequence

from repro.cache.base import CacheStats
from repro.cache.interaction import make_cache
from repro.core.parameters import SystemParameters
from repro.des.environment import Environment
from repro.des.rng import BATCH_CROSSOVER, RandomStreams
from repro.errors import ConfigurationError, SimulationError
from repro.estimation.utilization import ThresholdEstimator
from repro.network.link import SharedLink
from repro.network.server import OriginServer
from repro.predictors import (
    DependencyGraphPredictor,
    FrequencyPredictor,
    MarkovPredictor,
    PPMPredictor,
    Predictor,
)
from repro.prefetch import (
    AdaptiveUtilizationPolicy,
    DynamicThresholdPolicy,
    FixedThresholdPolicy,
    NoPrefetchPolicy,
    PrefetchAllPolicy,
    PrefetchController,
    PrefetchPolicy,
    StaticThresholdPolicy,
    TopKPolicy,
)
from repro.prefetch.controller import ControllerStats
from repro.sim.config import SimulationConfig
from repro.sim.faults import FaultRuntime
from repro.sim.kpis import RunKPIs
from repro.sim.metrics import (
    ClientClassStats,
    MetricsCollector,
    SimulationMetrics,
    aggregate_snapshots,
    finalize_aggregate,  # unused here: perfbench/trace.py wraps it by module attribute
)
from repro.sim.node import ProxyNode, RequestPath
from repro.sim.parallel import NodeShardPayload, plan_node_partition, run_node_shards
from repro.workload.aggregate import AggregateClassSource, partition_client_classes
from repro.workload.markov_source import MarkovChainSource
from repro.workload.phases import PhasedSourceView, arrival_times
from repro.workload.replay import TraceReplaySource
from repro.workload.sessions import entity_stream_names

__all__ = ["Simulation", "run_simulation", "SimulationOutput", "ProxyShardStats"]

#: Expected arrivals in the horizon (rate × mean phase multiplier ×
#: duration) below which a synthetic entity is *screened*: its first
#: arrival is drawn at build time, and an entity with none in the horizon
#: is homed idle instead of built.  Cost model, measured on a 2-vCPU
#: x86-64 host (Python 3.11): screening moves an entity's arrival-stream
#: derivation and first draw from the run into the build, about 8 µs per
#: entity in a batched derivation and 25 µs below the batch crossover
#: (mostly SeedSequence).  It pays back only when the entity turns out
#: idle, with probability exp(-expected arrivals), above 0.37 here: an
#: idle entity skips a stack of about 33 µs and 3.2 KB.  Screening busy
#: entities would only move their first draws into the set-up.  The
#: constant decides only *when* a first draw happens: no output depends
#: on it.
SCREEN_BELOW_ARRIVALS = 1.0

#: Screened entities whose arrival streams one ``derive`` call makes.  A
#: batch's idle entities leave the stream registry before the next batch
#: is derived, so a sparse build holds its built entities' streams plus
#: one batch, not a generator per screened entity.  A tail shorter than
#: ``BATCH_CROSSOVER`` joins the batch before it, so no batch falls below
#: the crossover unless the whole screen does.  Each ``derive`` call has a
#: fixed cost of a few tenths of a millisecond, and the build reuses a
#: batch's freed memory: at the 20 000-client benchmark point, batches of
#: 4 096 peaked 0.3 MB above batches of 1 024, at no measurable derivation
#: cost (1 024: about 6 ms more), and 4.9 MB below one whole-screen
#: batch.  No output depends on it.
SCREEN_BATCH = 16 * BATCH_CROSSOVER

#: ``_build_clients``' mark of a screened entity that never arrives
_IDLE = ()


@contextmanager
def _collector_scope(*, freeze: bool) -> Iterator[None]:
    """Keep CPython's cyclic collector off the simulation's long-lived graph.

    A client build allocates hundreds of thousands of tracked objects
    (caches, controllers, generators), all of which live for the whole
    run; every full collection would rescan them.  ``freeze=False`` pauses
    the collector for the block (a build creates no garbage worth
    collecting).  ``freeze=True`` moves everything tracked so far into
    the permanent generation for the block, so collections during the
    event loop scan only what the run itself allocates.

    The caller's state is restored on exit, also when the block raises:
    a collector the caller disabled stays disabled, and nothing stays
    frozen.  A caller that froze objects itself is left alone (unfreezing
    on exit would thaw its objects too).
    """
    if freeze:
        if gc.get_freeze_count():
            yield
            return
        gc.freeze()
        try:
            yield
        finally:
            gc.unfreeze()
        return
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _TrueDistributionPredictor(Predictor):
    """Adapter exposing the Markov source's exact next-access probabilities.

    This realises the paper's analytical premise — the prefetcher *knows*
    each candidate's probability — inside the full simulation, so observed
    deviations from the analysis are attributable to cache/queue dynamics,
    not to predictor error.
    """

    name = "true-distribution"

    def __init__(self, source: MarkovChainSource, top: int = 16) -> None:
        self._source = source
        self._top = top
        self._last: int | None = None

    def record(self, item: Hashable) -> None:
        self._last = int(item)  # the source's state is the last item

    def predict_above(self, floor: float):
        if self._last is None:
            return []
        # The memoised list is sorted by descending p: the survivors are
        # a prefix of it.
        above = []
        for pair in self._source.true_distribution(self._last, top=self._top):
            if not pair[1] > floor:
                break
            above.append(pair)
        return above

    def reset(self) -> None:
        self._last = None


def _build_predictor(config: SimulationConfig, source: MarkovChainSource) -> Predictor:
    name = config.predictor
    params = dict(config.predictor_params)
    if name == "markov":
        return MarkovPredictor(**params) if params else MarkovPredictor(order=1)
    if name == "ppm":
        return PPMPredictor(**params) if params else PPMPredictor(max_order=2)
    if name == "dependency-graph":
        return DependencyGraphPredictor(**params) if params else DependencyGraphPredictor()
    if name == "frequency":
        return FrequencyPredictor(**params) if params else FrequencyPredictor()
    if name == "true-distribution":
        return _TrueDistributionPredictor(source, top=config.prediction_limit)
    raise ConfigurationError(f"unknown predictor {name!r}")  # pragma: no cover


def _build_policy(
    config: SimulationConfig,
    estimator: ThresholdEstimator,
    *,
    bandwidth: float | None = None,
    cache_capacity: int | None = None,
    request_rate: float | None = None,
) -> PrefetchPolicy:
    name = config.policy
    params = dict(config.policy_params)
    bandwidth = config.bandwidth if bandwidth is None else bandwidth
    cache_capacity = (
        config.cache_capacity if cache_capacity is None else cache_capacity
    )
    request_rate = (
        config.workload.request_rate if request_rate is None else request_rate
    )
    if name == "none":
        return NoPrefetchPolicy()
    if name == "threshold-static":
        sys_params = SystemParameters(
            bandwidth=bandwidth,
            request_rate=request_rate,
            mean_item_size=config.workload.mean_item_size,
            hit_ratio=float(config.assumed_hit_ratio or 0.0),
            cache_size=float(cache_capacity),
        )
        return StaticThresholdPolicy(sys_params, **params)
    if name == "threshold-dynamic":
        return DynamicThresholdPolicy(estimator, **params)
    if name == "fixed-threshold":
        return FixedThresholdPolicy(**params)
    if name == "top-k":
        return TopKPolicy(**params)
    if name == "all":
        return PrefetchAllPolicy()
    if name == "adaptive":
        return AdaptiveUtilizationPolicy(**params)
    raise ConfigurationError(f"unknown policy {name!r}")  # pragma: no cover


@dataclass(frozen=True)
class ProxyShardStats:
    """One proxy's share of a run: its metrics shard + link accounting.

    ``peer_fetches`` / ``peer_bytes`` count the cooperative transfers this
    node *served* over its peer link (zero without cooperation); the
    remote-probe outcomes of this node's own clients live on its
    ``metrics`` shard (``remote_probes`` / ``remote_hits``).
    """

    node_id: int
    clients: tuple[int, ...]
    metrics: SimulationMetrics
    bandwidth: float
    link_demand_fetches: int
    link_prefetch_fetches: int
    link_prefetch_bytes: float
    link_demand_bytes: float
    peer_fetches: int = 0
    peer_bytes: float = 0.0


@dataclass(frozen=True)
class SimulationOutput:
    """Metrics plus component-level statistics of one full-system run.

    ``metrics`` and the ``link_*``/``peer_*`` totals aggregate the whole
    proxy tier exactly (single-proxy runs: the one node's values,
    bit-identical to the pre-topology output); ``per_proxy`` carries each
    node's shard.
    """

    metrics: SimulationMetrics
    cache_stats: list
    controller_stats: list
    link_demand_fetches: int
    link_prefetch_fetches: int
    link_prefetch_bytes: float
    link_demand_bytes: float
    per_proxy: tuple[ProxyShardStats, ...] = ()
    peer_fetches: int = 0
    peer_bytes: float = 0.0
    #: per-class accounting rows of an aggregated-backend run (empty for
    #: the per-client backend); the rows partition the totals exactly.
    client_classes: tuple[ClientClassStats, ...] = ()
    #: the run's KPI scorecard (tail latencies, byte-hit ratio, per-shard
    #: utilization, peer-traffic share); raw sums, so replications pool
    #: exactly via :func:`repro.sim.kpis.aggregate_kpis`.
    kpis: RunKPIs | None = None

    @property
    def prefetch_traffic_share(self) -> float:
        total = self.link_demand_bytes + self.link_prefetch_bytes
        return self.link_prefetch_bytes / total if total > 0 else 0.0

    @property
    def peer_traffic_share(self) -> float:
        """Fraction of all transferred bytes carried by peer links."""
        total = self.link_demand_bytes + self.link_prefetch_bytes + self.peer_bytes
        return self.peer_bytes / total if total > 0 else 0.0


class Simulation:
    """Builder/runner for the full system described by a config.

    Owns the topology: which :class:`~repro.sim.node.ProxyNode` instances
    exist, where each client homes (``topology.home_of``) and which node's
    link carries a fetch (:meth:`route`).  Everything per-node — request
    handling, fetch tables, metric shards — lives on the nodes.
    """

    def __init__(
        self,
        config: SimulationConfig,
        *,
        only_nodes: Sequence[int] | None = None,
    ) -> None:
        self.config = config
        self.streams = RandomStreams(config.seed)
        self.env = Environment()
        #: shard-group restriction of the parallel node backend: a worker
        #: builds the whole tier's *skeleton* (nodes/links/origin views,
        #: so node ids, routing and rate arithmetic match the serial
        #: build exactly) but only the clients homed at these nodes.
        #: ``None`` — the normal full build.
        self.only_nodes: tuple[int, ...] | None = (
            None if only_nodes is None else tuple(sorted(int(n) for n in only_nodes))
        )
        #: the partition driving a parallel-dispatch run (parent process
        #: of a ``node_backend="parallel"`` simulation); None on every
        #: serial/worker path.
        self._plan = None
        spec = config.workload
        self.replay: TraceReplaySource | None = None
        if config.trace_path is not None:
            # Stream the trace from disk: the summary pass gives client
            # count/size map up front, records are demultiplexed lazily.
            self.replay = TraceReplaySource.from_file(config.trace_path, stream=True)
        topo = config.topology
        self.nodes: tuple[ProxyNode, ...] = tuple(
            ProxyNode(
                self,
                node_id,
                bandwidth=topo.node_bandwidth(node_id, config.bandwidth),
                cache_capacity=topo.node_cache_capacity(
                    node_id, config.cache_capacity
                ),
            )
            for node_id in range(topo.num_proxies)
        )
        # One authoritative origin (bound to node 0's link) + per-node
        # views sharing its catalogue state, so lazily-sampled item sizes
        # and per-item counts are global while transfers shard by link.
        if self.replay is not None:
            # Recorded items keep their recorded sizes; prefetch candidates
            # outside the trace fall back to the spec's distribution.
            origin = OriginServer(
                self.nodes[0].link,
                self.replay.size_map(),
                rng=self.streams.get("origin/sizes"),
                fallback=spec.make_sizes(),
            )
        else:
            origin = OriginServer(
                self.nodes[0].link,
                spec.make_sizes(),
                rng=self.streams.get("origin/sizes"),
            )
        self.nodes[0].origin = origin
        for node in self.nodes[1:]:
            node.origin = origin.with_link(node.link)
        if self.only_nodes is not None:
            for node_id in self.only_nodes:
                if not 0 <= node_id < len(self.nodes):
                    raise ConfigurationError(
                        f"only_nodes contains unknown proxy {node_id} "
                        f"(num_proxies={len(self.nodes)})"
                    )
            owned = set(self.only_nodes)
            for node in self.nodes:
                # Foreign skeleton nodes must stay inert: any event that
                # would drive one inside this worker is a partition bug,
                # and the node itself raises on it (see ProxyNode).
                node.shard_local = node.node_id in owned
        self._bind_router()
        #: the fault runtime of a fault-injected run (None otherwise);
        #: installed after the client build so its routing rebinds wrap
        #: the fully-resolved closures.
        self.fault_runtime = None
        #: controllers and caches of the built entities, in build order
        #: (idle entities have none)
        self.clients: list[PrefetchController] = []
        self._caches = []
        #: homogeneous classes of an aggregated-backend run, in build
        #: order, idle classes included (empty per-client)
        self.client_classes = []
        if self.only_nodes is None and config.node_backend == "parallel":
            plan = plan_node_partition(config)
            if plan.parallel:
                # Parent of a parallel run: a dispatcher, not a builder —
                # the workers build (only) their own shard's clients.
                self._plan = plan
                return
            warnings.warn(
                "node_backend='parallel' falls back to the serial event "
                "loop (results are identical): " + "; ".join(plan.reasons),
                RuntimeWarning,
                stacklevel=2,
            )
        with _collector_scope(freeze=False):
            self._build_clients()
        # Fault injection: only a NON-empty schedule installs anything —
        # no events, no rebound closures, no extra ring for empty/None
        # schedules, keeping fault-free runs bit-identical to PR 9.
        # Shard-group worker builds never see faults (plan_node_partition
        # names fault-injection as a serial-fallback coupling).
        if config.faults and self.only_nodes is None:
            self.fault_runtime = FaultRuntime(self, config.faults)
            self.fault_runtime.install()

    # ------------------------------------------------------------------
    # Topology plumbing
    # ------------------------------------------------------------------
    @property
    def origin(self) -> OriginServer:
        """The authoritative catalogue (node 0's origin view).

        Settable: tests substitute instrumented origins, and with a single
        proxy every fetch flows through this object.
        """
        return self.nodes[0].origin

    @origin.setter
    def origin(self, value) -> None:
        # A substituted origin must replace the catalogue for the WHOLE
        # tier: leaving nodes 1+ aliased to the old origin would split
        # the size map/counters and bypass test instrumentation.
        self.nodes[0].origin = value
        if len(self.nodes) > 1:
            if not hasattr(value, "with_link"):
                raise SimulationError(
                    "substituting the origin of a multi-proxy simulation "
                    "needs an origin exposing with_link(link) so every "
                    "node keeps a view onto the same catalogue"
                )
            for node in self.nodes[1:]:
                node.origin = value.with_link(node.link)

    @property
    def link(self):
        """Node 0's uplink (the *only* link with a single-proxy topology)."""
        return self.nodes[0].link

    @property
    def collector(self) -> MetricsCollector:
        """Node 0's metrics shard (the global collector for one proxy)."""
        return self.nodes[0].collector

    def _bind_router(self) -> None:
        """Resolve ``route`` once: per-fetch dispatch must stay cheap."""
        topo = self.config.topology
        nodes = self.nodes
        #: the tier's consistent-hash ring — built once and shared by
        #: item-hash routing and cooperation probes, so the probe target
        #: and the item-hash route always agree; None until someone needs it
        self.ring = None
        if len(nodes) == 1:
            only = nodes[0]
            self.route = lambda client, item: only
        elif topo.routing == "client-affinity":
            count = len(nodes)
            self.route = lambda client, item: nodes[client % count]
        else:  # item-hash catalogue sharding
            self.ring = ring = topo.build_ring()
            node_of = ring.node_of
            self.route = lambda client, item: nodes[node_of(item)]
        # Load estimate fed to prefetch planners.  Client-affinity (and a
        # single proxy): the home node's own link, exactly the paper's
        # rho.  Item-hash: planned prefetches traverse the item OWNERS'
        # links, which the planner cannot know per candidate, so it sees
        # the tier mean offered load instead of the (irrelevant) home
        # link.
        if len(nodes) > 1 and topo.routing == "item-hash":
            count = len(nodes)
            self.planning_load = lambda node: (
                sum(n.link.offered_load() for n in nodes) / count
            )
        else:
            self.planning_load = lambda node: node.link.offered_load()
        self._bind_cooperation()

    def _bind_cooperation(self) -> None:
        """Resolve the cooperative-caching plumbing once per simulation.

        Sets ``self.coop`` (the active
        :class:`~repro.network.topology.CooperationConfig`, or None when
        cooperation is off *or* the tier has a single node — cooperation
        is inter-proxy, a one-node tier has no peers) and
        ``self.probe_targets``.  With cooperation active, every node also
        gets its peer link here.
        """
        coop = self.config.topology.cooperation
        nodes = self.nodes
        if not coop.enabled or len(nodes) == 1:
            self.coop = None
            self.probe_targets = lambda node, item: ()
            return
        self.coop = coop
        for node in nodes:
            node.peer_link = SharedLink(self.env, bandwidth=coop.peer_bandwidth)
        if self.ring is None:
            self.ring = self.config.topology.build_ring()
        node_of = self.ring.node_of
        if coop.mode == "owner-probe":
            def probe_targets(node, item):
                owner = node_of(item)
                if owner == node.node_id:
                    # The requester IS the owner: its local caches already
                    # missed, and cooperation never probes sideways in
                    # owner-probe mode — straight to the origin.
                    return ()
                return (nodes[owner],)
        else:
            # Broadcast: owner first (if it is a peer), then every other
            # peer in id order.  The ordering depends only on (requester,
            # owner) — P×P possibilities — so precompute the tuples once;
            # the per-miss hot path is then a ring bisect + table lookup
            # (same resolve-once discipline as the router binding above).
            def broadcast_order(home: int, owner: int) -> tuple:
                ordered = [] if owner == home else [nodes[owner]]
                ordered.extend(
                    n for n in nodes
                    if n.node_id != owner and n.node_id != home
                )
                return tuple(ordered)

            order = [
                [broadcast_order(home, owner) for owner in range(len(nodes))]
                for home in range(len(nodes))
            ]

            def probe_targets(node, item):
                return order[node.node_id][node_of(item)]
        self.probe_targets = probe_targets

    def probe_targets(self, node, item):  # pragma: no cover - rebound above
        """Peer nodes a miss of ``node`` on ``item`` should probe, in
        probe order (ring owner first).  Rebound per mode at build time;
        this placeholder only documents the contract."""
        raise SimulationError("probe_targets used before _bind_cooperation")

    def fetch(self, item: Hashable, *, kind: str, client: int):
        """Fetch ``item`` through the link of the proxy that serves it."""
        return self.route(client, item).origin.fetch(item, kind=kind, client=client)

    # ------------------------------------------------------------------
    @property
    def num_clients(self) -> int:
        """Client count: from the trace when replaying, else the spec."""
        if self.replay is not None:
            return self.replay.num_clients
        return self.config.workload.num_clients

    def _owns_node(self, node_id: int) -> bool:
        """Whether this build realises the given node's clients.

        Always true for a full build; a shard-group worker realises only
        its own nodes.  Skipping a foreign client is *exact*, not an
        approximation: RNG streams are name-keyed (seed + stream name, not
        draw order), so the owned clients draw identical randomness with
        or without their neighbours, and the per-node event order of the
        serial global heap projects unchanged onto the shard's isolated
        heap (no shared state, relative insertion order preserved).
        """
        return self.only_nodes is None or node_id in self._owned_set

    @property
    def _owned_set(self) -> set[int]:
        owned = self.__dict__.get("_owned_cache")
        if owned is None:
            owned = self.__dict__["_owned_cache"] = set(self.only_nodes or ())
        return owned

    def _eviction_rng(self, label: str):
        """The ``<label>/evictions`` stream, derived only for its consumer.

        Only the ``random`` cache policy draws evictions; every other
        policy gets ``None`` (``make_cache`` ignores it).  Streams are
        name-keyed, so skipping one shifts no other stream.
        """
        if self.config.cache_policy.lower() != "random":
            return None
        return self.streams.get(f"{label}/evictions")

    def _node_rates(self, schedule, rates) -> list[float]:
        """Offered request rate per node, the load a policy plans against.

        A static threshold policy must see the load its *own* uplink
        carries, not the whole tier's — the tier aggregate would inflate
        its rho estimate num_proxies-fold.  One proxy keeps the spec's
        exact aggregate (seed bit-identity); otherwise ``rates``, the
        ``(node id, rate)`` pairs of every entity in build order, are
        summed per node — for singleton classes the per-client
        float-summation order.  Under phases the planner sees the
        *time-averaged* offered load (a stationary spec: exactly its
        rate).
        """
        topo = self.config.topology
        avg_mult = schedule.average_multiplier()
        if topo.num_proxies == 1:
            return [self.config.workload.request_rate * avg_mult]
        node_rates = [0.0] * topo.num_proxies
        for node_id, rate in rates:
            node_rates[node_id] += rate * avg_mult
        return node_rates

    def _attach_entity(
        self, node: ProxyNode, entity_id: int, label: str, source, request_rate: float
    ) -> PrefetchController:
        """Build one entity's controller stack and home it at ``node``.

        An entity is a client, or a client class attached under its
        representative's id; ``label`` names its RNG streams.
        """
        config = self.config
        predictor = _build_predictor(config, source)
        estimator = ThresholdEstimator(
            node.bandwidth, cache_size=float(node.cache_capacity)
        )
        cache = make_cache(
            config.cache_policy,
            node.cache_capacity,
            rng=self._eviction_rng(label),
            value_fn=lambda key, p=predictor: p.probability(key),
        )
        policy = _build_policy(
            config,
            estimator,
            bandwidth=node.bandwidth,
            cache_capacity=node.cache_capacity,
            request_rate=request_rate,
        )
        controller = PrefetchController(
            predictor=predictor,
            policy=policy,
            cache=cache,
            bandwidth=node.bandwidth,
            estimator=estimator,
        )
        table = node.attach_client(entity_id, controller=controller, cache=cache)
        # The planner consults the unified table: items being demand-
        # fetched are as in-flight as the controller's own prefetches.
        controller.attach_fetch_table(table)
        self.clients.append(controller)
        self._caches.append(cache)
        return controller

    def _screens(self) -> bool:
        """Whether this build screens its sparse entities.

        Trace replay builds every client: its merged driver needs a
        handler per client.  Cooperative migration builds every entity
        too: ``FaultRuntime._admit_migrated`` admits items into every
        cache homed at a node, idle entities' included.
        """
        faults = self.config.faults
        return self.replay is None and not (
            faults and faults.migration == "cooperative"
        )

    def _first_arrival(self, schedule, label: str, rate: float):
        """An entity's ``arrival_times`` iterator and its first arrival
        (None when it has none in the horizon)."""
        arrivals = arrival_times(
            schedule,
            rate,
            self.streams.get(f"{label}/arrivals"),
            horizon=self.config.duration,
        )
        return arrivals, next(arrivals, None)

    def _build_clients(self) -> None:
        """Build every entity this run realises, then arm its arrivals.

        An entity is a client (per-client backend) or a homogeneous client
        class (:func:`partition_client_classes`), attached to its node
        under its representative's (lowest member's) id.  A one-member
        entity is built exactly like a client, so a singleton class is
        bit-identical to the per-client backend (pinned by tests).  A
        screened entity (:data:`SCREEN_BELOW_ARRIVALS`) whose first
        arrival falls past the horizon is homed idle: zero stats rows and
        nothing else.
        """
        config = self.config
        spec = config.workload
        topo = config.topology
        streams = self.streams
        schedule = spec.make_schedule()
        if config.client_backend == "aggregated":
            classes = partition_client_classes(spec, topo)
            # A shard worker keeps only its nodes' classes; the *full*
            # class list still feeds the node-rate arithmetic so policies
            # see the same floats as a serial build.
            self.client_classes = [
                cls for cls in classes if self._owns_node(cls.node_id)
            ]
            entities = [
                (
                    cls.node_id,
                    cls.representative,
                    cls.stream_label,
                    cls,
                    spec.rate_of(cls.representative)
                    if cls.singleton
                    else cls.request_rate,
                )
                for cls in self.client_classes
            ]
            rates = ((cls.node_id, cls.request_rate) for cls in classes)
        else:
            n = self.num_clients
            entities = [
                (home, c, f"client{c}", None, spec.rate_of(c))
                for c, home in enumerate(map(topo.home_of, range(n)))
                if self._owns_node(home)
            ]
            rates = ((topo.home_of(c), spec.rate_of(c)) for c in range(n))
        node_rates = self._node_rates(schedule, rates)
        # Per entity: None (first arrival drawn when armed), its screened
        # (arrival iterator, first arrival), or _IDLE.
        drawn: list = [None] * len(entities)
        if self._screens():
            expected = schedule.average_multiplier() * config.duration
            screened = [
                i
                for i, (_, _, _, _, rate) in enumerate(entities)
                if rate * expected < SCREEN_BELOW_ARRIVALS
            ]
            start = 0
            while start < len(screened):
                stop = start + SCREEN_BATCH
                if len(screened) - stop < BATCH_CROSSOVER:
                    stop = len(screened)
                batch = screened[start:stop]
                start = stop
                streams.derive(
                    entity_stream_names(
                        [entities[i][2] for i in batch], schedule, items=False
                    )
                )
                for i in batch:
                    _, _, label, _, rate = entities[i]
                    arrivals, first = self._first_arrival(schedule, label, rate)
                    if first is None:
                        streams.pop(f"{label}/arrivals")
                        drawn[i] = _IDLE
                    else:
                        drawn[i] = arrivals, first
        # Derive every stream the loop below and the arming read, at once
        # (below the batch crossover each is derived on first use); the
        # screened entities' arrival streams are already in the registry.
        streams.derive(
            entity_stream_names(
                [e[2] for e, pre in zip(entities, drawn) if pre is not _IDLE],
                schedule,
                arrivals=self.replay is None,
                evictions=config.cache_policy.lower() == "random",
            )
        )
        # One true-distribution memo per (catalogue, q, shift) in this build
        memos: dict = {}
        paths: dict[int, RequestPath] = {}
        armed = []
        for (node_id, rep, label, cls, rate), pre in zip(entities, drawn):
            node = self.nodes[node_id]
            if pre is _IDLE:
                node.attach_idle(rep, CacheStats(), ControllerStats())
                continue
            if cls is None or cls.singleton:
                sources = spec.make_phase_sources(rep, streams, schedule, memos)
            else:
                # Poisson superposition: k members at rate λ merge into
                # one Poisson(kλ) arrival process, and one merged source
                # per item variant gives the class's references.
                # Per-member chain state is per variant — acceptable,
                # since multi-member item aggregation is already
                # approximate for q > 0.
                catalogs = schedule.variant_catalogs(
                    catalog_size=cls.catalog_size,
                    zipf_exponent=cls.zipf_exponent,
                )
                sources = tuple(
                    AggregateClassSource(
                        catalog,
                        num_members=cls.size,
                        follow_probability=cls.follow_probability,
                        rng=streams.get(name),
                    )
                    for catalog, name in zip(
                        catalogs, schedule.stream_names(f"{label}/items")
                    )
                )
            # The predictor sees one source, or a clock-aware view that
            # delegates to the active item variant.
            source = (
                sources[0]
                if len(sources) == 1
                else PhasedSourceView(sources, schedule, lambda: self.env.now)
            )
            controller = self._attach_entity(
                node, rep, label, source, node_rates[node_id]
            )
            if self.replay is not None:
                paths[rep] = RequestPath(node, rep, controller)
            else:
                armed.append((node, rep, label, rate, controller, sources, pre))
        if self.replay is not None:
            self.env.call_soon(self._start_replay, paths)
            return

        def arm(event):
            # One event at t = 0 arms every built entity in build order;
            # an unscreened one draws its first arrival here, in the run.
            for node, rep, label, rate, controller, sources, pre in armed:
                arrivals, first = pre or self._first_arrival(schedule, label, rate)
                node.start_arrivals(
                    rep, controller, sources, schedule, arrivals, first
                )

        self.env.call_at(0.0, arm)

    def _start_replay(self, event) -> None:
        """Replay driver: walk the merged trace in recorded order (which IS
        time order), running each record's request on its client's
        :class:`RequestPath` at the exact recorded timestamp.

        One merged walk — instead of a per-client demultiplex — is what
        keeps streaming replay constant-memory: only the record in flight
        is ever held, no matter how long any one client goes idle.  Each
        record arms the next before its request runs (open loop, as in
        the synthetic driver).
        """
        paths = event.value
        call_at = self.env.call_at
        duration = self.config.duration
        records = takewhile(
            lambda record: record.time <= duration, self.replay.iter_merged()
        )

        def arrive(event):
            record = event.value
            following = next(records, None)
            if following is not None:
                call_at(following.time, arrive, following)
            paths[record.client].request(record.item)

        first = next(records, None)
        if first is not None:
            call_at(first.time, arrive, first)

    # ------------------------------------------------------------------
    def run(self) -> SimulationOutput:
        if self._plan is not None:
            return self._run_parallel()
        payloads = self.run_shard()
        fault_timeline = (
            self.fault_runtime.finalize()
            if self.fault_runtime is not None
            else ()
        )
        return _assemble(payloads, fault_timeline=fault_timeline)

    def run_shard(self) -> list[NodeShardPayload]:
        """Run the event loop to the horizon; return one payload per owned node.

        The only code that reads a node after the loop: a serial run
        assembles its output from these payloads, and each worker of the
        parallel node backend ships them back to the parent.
        """
        # Armed just before the loop, behind every event the build and the
        # fault runtime queued: a boundary tied with one of them comes
        # after it.
        for node in self.nodes:
            if self._owns_node(node.node_id):
                node.collector.arm_warmup()
        with _collector_scope(freeze=True):
            self.env.run(until=self.config.duration)
        owned = (
            self.only_nodes
            if self.only_nodes is not None
            else range(len(self.nodes))
        )
        node_classes = {node_id: [] for node_id in owned}
        for cls in self.client_classes:
            node_classes[cls.node_id].append(cls)
        payloads = []
        for node_id in owned:
            node = self.nodes[node_id]
            payloads.append(
                NodeShardPayload(
                    node_id=node_id,
                    clients=tuple(node.clients),
                    snapshot=node.collector.snapshot(),
                    kpi=node.collector.kpi_shard(node_id),
                    bandwidth=node.bandwidth,
                    link_demand_fetches=node.link.demand_fetches,
                    link_prefetch_fetches=node.link.prefetch_fetches,
                    link_prefetch_bytes=node.link.prefetch_bytes,
                    link_demand_bytes=node.link.demand_bytes,
                    peer_fetches=(
                        node.peer_link.peer_fetches if node.peer_link else 0
                    ),
                    peer_bytes=(
                        node.peer_link.peer_bytes if node.peer_link else 0.0
                    ),
                    cache_stats=node.cache_stats,
                    controller_stats=node.controller_stats,
                    # A node's classes are its entities, in the same order.
                    class_rows=tuple(
                        ClientClassStats(
                            class_id=cls.class_id,
                            node_id=cls.node_id,
                            num_members=cls.size,
                            representative=cls.representative,
                            request_rate=cls.request_rate,
                            requests=controller.requests,
                            cache_hits=cache.hits,
                            cache_misses=cache.misses,
                            prefetches_issued=controller.prefetches_issued,
                            prefetches_completed=controller.prefetches_completed,
                        )
                        for cls, cache, controller in zip(
                            node_classes[node_id],
                            node.cache_stats,
                            node.controller_stats,
                        )
                    ),
                )
            )
        return payloads

    # ------------------------------------------------------------------
    # Parallel node backend
    # ------------------------------------------------------------------
    def _run_parallel(self) -> SimulationOutput:
        """Dispatch the partitioned tier to workers; assemble their payloads
        exactly as :meth:`run` assembles its own."""
        return _assemble(
            run_node_shards(
                self.config, self._plan, workers=self.config.node_workers
            )
        )


def _assemble(
    payloads: Sequence[NodeShardPayload], *, fault_timeline: tuple = ()
) -> SimulationOutput:
    """The output of a run, from its per-node payloads in node order.

    Serial and parallel runs alike: shards in node order, the tier
    aggregate through :func:`~repro.sim.metrics.aggregate_snapshots`,
    KPIs from the per-node shards.  Entity keys are the global build
    order on both client backends (class ids follow representatives), so
    merging the nodes' stats lists by key gives the build-order lists; a
    one-node run hands its node's lists over as they are.
    """
    shards = tuple(
        ProxyShardStats(
            node_id=p.node_id,
            clients=p.clients,
            metrics=p.snapshot.finalize(),
            bandwidth=p.bandwidth,
            link_demand_fetches=p.link_demand_fetches,
            link_prefetch_fetches=p.link_prefetch_fetches,
            link_prefetch_bytes=p.link_prefetch_bytes,
            link_demand_bytes=p.link_demand_bytes,
            peer_fetches=p.peer_fetches,
            peer_bytes=p.peer_bytes,
        )
        for p in payloads
    )
    if len(payloads) == 1:
        (only,) = payloads
        metrics = shards[0].metrics
        cache_stats, controller_stats = only.cache_stats, only.controller_stats
        class_rows = only.class_rows
    else:
        metrics = aggregate_snapshots([p.snapshot for p in payloads])
        # Keys are unique, so the merge never compares two stats objects.
        rows = list(
            heapq.merge(
                *(
                    zip(p.clients, p.cache_stats, p.controller_stats)
                    for p in payloads
                )
            )
        )
        cache_stats = [row[1] for row in rows]
        controller_stats = [row[2] for row in rows]
        class_rows = tuple(
            heapq.merge(
                *(p.class_rows for p in payloads), key=attrgetter("class_id")
            )
        )
    demand_bytes = sum(s.link_demand_bytes for s in shards)
    prefetch_bytes = sum(s.link_prefetch_bytes for s in shards)
    peer_bytes = sum(s.peer_bytes for s in shards)
    kpis = RunKPIs.from_shards(
        tuple(p.kpi for p in payloads),
        demand_bytes=demand_bytes,
        prefetch_bytes=prefetch_bytes,
        peer_bytes=peer_bytes,
        fault_timeline=fault_timeline,
    )
    return SimulationOutput(
        metrics=metrics,
        cache_stats=cache_stats,
        controller_stats=controller_stats,
        link_demand_fetches=sum(s.link_demand_fetches for s in shards),
        link_prefetch_fetches=sum(s.link_prefetch_fetches for s in shards),
        link_prefetch_bytes=prefetch_bytes,
        link_demand_bytes=demand_bytes,
        per_proxy=shards,
        peer_fetches=sum(s.peer_fetches for s in shards),
        peer_bytes=peer_bytes,
        client_classes=class_rows,
        kpis=kpis,
    )


def run_simulation(config: SimulationConfig) -> SimulationOutput:
    """Build and run the full system once."""
    return Simulation(config).run()
