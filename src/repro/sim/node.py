"""Proxy nodes and the unified fetch table.

This module is the node layer of the simulation: one :class:`ProxyNode`
per proxy in the :class:`~repro.network.topology.TopologyConfig`, each
owning its uplink (:class:`~repro.network.link.SharedLink`), an origin
*view* onto the shared catalogue, the caches of the clients homed at
it, a metrics shard, and — per client — a :class:`FetchTable`.

The fetch table is the fix for a whole bug class (ROADMAP: "demand fetches
are invisible to the controller's in-flight set").  Before it, only
*prefetch* fetches were tracked as pending: a policy could plan a prefetch
for an item a concurrent request of the same client was already
demand-fetching, duplicating the transfer, and a second demand request for
a mid-flight item paid for its own copy.  The table tracks **both** kinds
through one pending map:

* a request that misses on a pending item — demand-, prefetch- *or*
  remote-fetched — *joins* the in-flight transfer instead of issuing
  another;
* the controller's planner sees the table, so an item being demand-fetched
  is never selected for prefetch (and a scripted/buggy policy that selects
  one anyway is skipped by the node, not duplicated);
* completion wakes every joiner; failure wakes them too so they can fall
  back to a demand fetch (the PR-3 recovery protocol, now in one place).

Cooperative caching (PR 5) adds a third fetch kind, ``remote``: with
:class:`~repro.network.topology.CooperationConfig` enabled, a local miss
first probes the item's consistent-hash ring owner (or every peer in
``broadcast`` mode) and, on a remote hit, streams the item over the
serving proxy's *peer link* instead of the origin uplink.  The whole probe
→ transfer (or probe → fallback-to-origin) sequence lives under one
``remote`` pending entry registered *before* the probe departs, so a
concurrent request arriving mid-probe joins the in-flight resolution
exactly like it would join a demand fetch — the probe can never race a
duplicate transfer into existence.

One table serves one client: caches are per client, so joining across
clients would hand a requester a transfer that fills someone else's cache.

Each arriving entity's request path is one :class:`RequestPath` object.
Arrivals reach it through one synthetic driver,
:meth:`ProxyNode.start_arrivals`, for every entity: a client is a
one-member client class, and a stationary workload is one neutral phase.
Trace replay runs through one merged ``Simulation``-level driver instead.
Either driver runs a request inline from its arrival event; a miss that
must wait continues as a process (:meth:`Environment.start
<repro.des.environment.Environment.start>`), and a request's planned
prefetches start together from one URGENT event, each completing in a
callback on its fetch event.  An entity that never arrives in the horizon
may be homed *idle* (:meth:`ProxyNode.attach_idle`): its id and zero stats
rows, nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Hashable, Iterator, KeysView

from repro.des.events import Event
from repro.errors import NodeFailure, SimulationError
from repro.network.link import SharedLink
from repro.sim.metrics import MetricsCollector

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (sim builds nodes)
    from repro.sim.simulation import Simulation

__all__ = ["FetchTable", "FetchTableStats", "PendingFetch", "ProxyNode", "RequestPath"]


@dataclass(slots=True)
class FetchTableStats:
    """Lifetime accounting of one table (fuzz/invariant-test surface)."""

    demand_registered: int = 0
    prefetch_registered: int = 0
    remote_registered: int = 0
    joins: int = 0
    completions: int = 0
    failures: int = 0

    @property
    def registered(self) -> int:
        return (
            self.demand_registered
            + self.prefetch_registered
            + self.remote_registered
        )

    @property
    def resolved(self) -> int:
        return self.completions + self.failures


class PendingFetch:
    """One in-flight transfer: its kind, and its join event once joined."""

    __slots__ = ("item", "kind", "event")

    def __init__(self, item: Hashable, kind: str) -> None:
        self.item = item
        self.kind = kind  # "demand" | "prefetch" | "remote"
        #: created by the first join; a fetch nobody joins has none
        self.event: Event | None = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<PendingFetch {self.item!r} kind={self.kind}>"


class FetchTable:
    """Pending fetches — demand, prefetch *and* remote — of one client.

    Invariants (pinned by the fuzz test):

    * an item has at most one pending entry at a time;
    * every registered entry is resolved exactly once (complete or fail);
    * a resolution wakes every joiner — completion succeeds the join
      event, failure fails it *iff* someone is waiting (an unwaited
      failure would crash the run via the environment's unhandled-failure
      check).  The event is created by the first join, so a fetch nobody
      joins schedules no event when it resolves.

    The invariants are kind-blind: a ``remote`` entry (cooperative probe +
    peer transfer, or its origin fallback) joins, completes and fails
    exactly like the other two kinds, so everything the planner and the
    request path know about pending items extends to cooperation for free.
    """

    __slots__ = ("env", "_pending", "stats")

    def __init__(self, env) -> None:
        self.env = env
        self._pending: dict[Hashable, PendingFetch] = {}
        self.stats = FetchTableStats()

    # ------------------------------------------------------------------
    def __contains__(self, item: Hashable) -> bool:
        return item in self._pending

    def __len__(self) -> int:
        return len(self._pending)

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._pending)

    def pending_items(self) -> KeysView:
        """Live view of the items currently being fetched."""
        return self._pending.keys()

    def get(self, item: Hashable) -> PendingFetch | None:
        return self._pending.get(item)

    # ------------------------------------------------------------------
    def register(self, item: Hashable, kind: str) -> PendingFetch:
        """Open a pending entry for a fetch the caller is about to issue."""
        if kind not in ("demand", "prefetch", "remote"):
            raise SimulationError(f"unknown fetch kind {kind!r}")
        if item in self._pending:
            raise SimulationError(
                f"item {item!r} already has a pending {self._pending[item].kind} fetch"
            )
        entry = PendingFetch(item, kind)
        self._pending[item] = entry
        if kind == "demand":
            self.stats.demand_registered += 1
        elif kind == "prefetch":
            self.stats.prefetch_registered += 1
        else:
            self.stats.remote_registered += 1
        return entry

    def join(self, item: Hashable) -> Event:
        """The completion event of ``item``'s pending fetch (to ``yield``)."""
        entry = self._pending[item]
        self.stats.joins += 1
        if entry.event is None:
            entry.event = Event(self.env)
        return entry.event

    def complete(self, item: Hashable, result) -> None:
        """The pending fetch finished; wake joiners with ``result``."""
        entry = self._pending.pop(item, None)
        if entry is None:
            return
        self.stats.completions += 1
        if entry.event is not None:
            entry.event.succeed(result)

    def fail(self, item: Hashable, exc: BaseException) -> None:
        """The pending fetch died; wake joiners so they can fall back."""
        entry = self._pending.pop(item, None)
        if entry is None:
            return
        self.stats.failures += 1
        event = entry.event
        if event is not None and event.callbacks:
            event.fail(exc)


class ProxyNode:
    """One proxy of the tier: uplink + origin view + homed clients + shard.

    The node owns the *mechanics* of its clients' request path (one
    :class:`RequestPath` per arriving entity); the
    :class:`~repro.sim.simulation.Simulation` orchestrator owns the
    topology — which nodes exist, which clients home where, and which
    node's link carries a given fetch (``Simulation.route``).

    Per node, the orchestrator wires up:

    * ``link`` — the origin uplink (:class:`~repro.network.link.SharedLink`
      at this node's configured bandwidth, the paper's M/G/1-PS server);
    * ``peer_link`` — the inter-proxy transfer link, present only when the
      topology's :class:`~repro.network.topology.CooperationConfig` is
      enabled; it carries the remote cache hits *this* node serves to
      peers, so peer traffic contends among itself but never with the
      origin uplink;
    * ``origin`` — a view onto the shared catalogue bound to this node's
      uplink;
    * ``collector`` — this node's metrics shard (requests of homed
      clients, including their remote-probe outcomes; utilisation of this
      node's uplink);
    * per built client: its cache and a :class:`FetchTable`;
    * ``clients``, every homed entity with idle ones included, aligned
      with its output rows ``cache_stats`` and ``controller_stats``.
    """

    def __init__(
        self,
        sim: "Simulation",
        node_id: int,
        *,
        bandwidth: float,
        cache_capacity: int,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.env = sim.env
        self.bandwidth = float(bandwidth)
        self.cache_capacity = int(cache_capacity)
        self.link = SharedLink(self.env, bandwidth=self.bandwidth)
        #: inter-proxy transfer link (set by the orchestrator iff the
        #: topology's cooperation is enabled; None otherwise)
        self.peer_link: SharedLink | None = None
        #: this node's shard of the metrics (requests of homed clients;
        #: utilisation of this node's link)
        self.collector = MetricsCollector(
            self.env, self.link, warmup_time=sim.config.warmup
        )
        #: origin *view*: shared catalogue state, this node's link (set by
        #: the orchestrator right after it builds the authoritative origin)
        self.origin = None
        self.clients: list[int] = []
        self.cache_stats: list = []
        self.controller_stats: list = []
        self.caches: list = []
        self.fetch_tables: dict[int, FetchTable] = {}
        #: this node's load estimate for its clients' planners, bound once
        #: per node; it reads ``sim.planning_load`` when called, so the
        #: orchestrator's routing-aware estimate applies
        self.load_estimate = lambda: sim.planning_load(self)
        #: False only for the inert *skeleton* nodes a shard-group worker
        #: of the parallel node backend builds for foreign shards (the
        #: skeleton keeps node ids/routing/rate arithmetic identical to a
        #: full build).  Driving such a node — attaching a client, probing
        #: its caches, serving from its peer link — means the partition
        #: planner let a cross-shard coupling through; fail loudly rather
        #: than silently diverge from the serial run.
        self.shard_local: bool = True

    def _assert_shard_local(self, action: str) -> None:
        if not self.shard_local:
            raise SimulationError(
                f"{action} on node {self.node_id}, which belongs to a "
                f"different shard group of this parallel run — the node "
                f"partition let a cross-shard coupling through (bug in "
                f"plan_node_partition)"
            )

    # ------------------------------------------------------------------
    def attach_client(self, client_id: int, *, controller, cache) -> FetchTable:
        """Home one client at this node and start tracking its fetches."""
        self._assert_shard_local(f"attach_client({client_id})")
        table = FetchTable(self.env)
        self.clients.append(client_id)
        self.cache_stats.append(cache.stats)
        self.controller_stats.append(controller.stats)
        self.caches.append(cache)
        self.fetch_tables[client_id] = table
        return table

    def attach_idle(self, client_id: int, cache_stats, controller_stats) -> None:
        """Home an entity that never arrives: its id and (zero) stats rows."""
        self._assert_shard_local(f"attach_idle({client_id})")
        self.clients.append(client_id)
        self.cache_stats.append(cache_stats)
        self.controller_stats.append(controller_stats)

    # ------------------------------------------------------------------
    def drain(self, exc: NodeFailure | None = None) -> int:
        """Abort every transfer in flight on this node's links (a crash).

        Called by the fault runtime *after* routing stopped targeting
        this node: each aborted transfer raises
        :class:`~repro.errors.NodeFailure` into its waiting fetcher,
        whose request path fails over through the updated routing (see
        ``origin_demand``/``remote_fetch``) under the same pending
        :class:`FetchTable` entry — joiners are re-woken by the failover
        transfer's resolution, never orphaned.  Returns the abort count.
        """
        if exc is None:
            exc = NodeFailure(
                f"proxy node {self.node_id} failed at t={self.env.now:g}"
            )
        count = self.link.fail_inflight(exc)
        if self.peer_link is not None:
            count += self.peer_link.fail_inflight(exc)
        return count

    # ------------------------------------------------------------------
    # Cooperative caching: what this node can serve to peers
    # ------------------------------------------------------------------
    def holds(self, item: Hashable) -> bool:
        """True when any cache homed at this node currently holds ``item``.

        A pure membership probe — no stats, no recency update, no tag
        change on the serving cache (``Cache.__contains__`` is
        side-effect-free by contract), so probing peers can never perturb
        their eviction behaviour.
        """
        self._assert_shard_local(f"cooperative probe for {item!r}")
        return any(item in cache for cache in self.caches)

    def peer_serve(self, item: Hashable, *, client: int) -> Event:
        """Stream ``item`` from this node's caches over its peer link.

        The caller (a peer proxy's request path) has already confirmed
        :meth:`holds`; the transfer itself is a ``peer``-kind fetch on
        this node's ``peer_link``, so concurrent remote hits served by
        this node share its peer bandwidth processor-sharing style.
        """
        self._assert_shard_local(f"peer_serve({item!r})")
        if self.peer_link is None:
            raise SimulationError(
                f"node {self.node_id} has no peer link (cooperation disabled)"
            )
        return self.peer_link.fetch(
            item=item,
            size=self.origin.size_of(item),
            kind="peer",
            client=client,
        )

    # ------------------------------------------------------------------
    # Synthetic arrival driver (trace replay runs through one merged
    # Simulation-level driver instead: recorded order IS time order)
    # ------------------------------------------------------------------
    def start_arrivals(
        self, entity_id: int, controller, sources, schedule, arrivals, first
    ) -> None:
        """The synthetic driver: arm an entity's first arrival, then each next.

        An entity (a client or a client class) is homed here under
        ``entity_id``; ``sources`` holds one reference source per item
        variant of ``schedule``.  ``first`` is the first ``(time, phase
        index)`` of the entity's :func:`~repro.workload.phases.arrival_times`
        iterator ``arrivals``, or None when it has none in the horizon.
        Only an entity that arrives builds its :class:`RequestPath`, which
        one pending event drives (:meth:`RequestPath.arrive`).
        """
        if first is None:
            return
        path = RequestPath(self, entity_id, controller)
        path.items = tuple(source.stream() for source in sources)
        path.arrivals = arrivals
        path.variant_of_phase = schedule.variant_of_phase
        self.env.call_at(first[0], path.arrive, first[1])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ProxyNode {self.node_id} bw={self.bandwidth:g} "
            f"clients={self.clients}>"
        )


class RequestPath:
    """One entity's request path: its arrivals, requests and fetches.

    Shared by both arrival drivers: the synthetic one calls :meth:`arrive`
    (its bound method is the arrival event's callback), trace replay
    calls :meth:`request`.  Its bound methods are the only callbacks, so
    an arriving entity costs this one object, freed by reference counting
    once nothing is pending for it.

    A request runs inline.  A hit completes at once; a miss that must
    wait is a generator run by :meth:`Environment.start
    <repro.des.environment.Environment.start>`, which schedules no event
    of its own.  A prefetch is no generator: :meth:`_prefetched`, a
    callback on its fetch event, completes it.  All origin fetches go
    through ``sim.fetch`` so the topology's routing decides which node's
    link carries them.  With cooperation enabled, a local miss first runs
    the remote-probe path (see :meth:`Simulation.probe_targets`).  The
    controller is asked through ``_on_user_access`` and ``_plan``, the
    names :class:`~repro.prefetch.controller.PrefetchController` keeps
    for its request path.
    """

    __slots__ = (
        "node", "sim", "env", "controller", "table", "collector", "entity_id",
        # the synthetic driver's, set by ProxyNode.start_arrivals: an item
        # iterator per variant, the arrival_times iterator, phase -> variant
        "items", "arrivals", "variant_of_phase",
    )

    def __init__(self, node: ProxyNode, entity_id: int, controller) -> None:
        self.node = node
        self.sim = node.sim
        self.env = node.env
        self.controller = controller
        self.table = node.fetch_tables[entity_id]
        self.collector = node.collector
        self.entity_id = entity_id

    def arrive(self, event) -> None:
        """One synthetic arrival in phase ``event.value``.

        Open-loop: the request runs here and is never awaited, so the
        request rate is unaffected by congestion or prefetching — the
        paper's §2.1 assumption.  The next arrival is armed first, so at
        equal times it precedes every event the request schedules (the
        order the pinned outputs were recorded with).
        """
        item = next(self.items[self.variant_of_phase[event._value]])
        arrival = next(self.arrivals, None)
        if arrival is not None:
            self.env.call_at(arrival[0], self.arrive, arrival[1])
        self.request(item)

    def request(self, item: Hashable) -> None:
        """Serve one request for ``item``, starting now."""
        t0 = self.env._now
        # This node's origin view shares the catalogue's size map.
        size = self.node.origin.size_of(item)
        outcome = self.controller._on_user_access(item, now=t0, size=size)
        if outcome.hit:
            self.collector.record_request(
                hit=True,
                access_time=0.0,
                tagged_hit=outcome.kind == "tagged_hit",
                issued_at=t0,
                size=size,
            )
            self._plan()
        else:
            self.env.start(self._miss(item, t0, size))

    def _miss(self, item: Hashable, t0: float, size: float):
        """The rest of a missed request: join, probe or fetch, then record
        the request and plan."""
        table = self.table
        if item in table:
            # A fetch for this item — demand or prefetch — is mid-flight:
            # join it instead of paying for a second copy.
            try:
                yield table.join(item)
            except Exception:
                # The joined fetch failed: recover with a demand fetch so
                # the request still completes (and is still measured).
                # The first joiner to wake registers the recovery entry,
                # so the other joiners (woken by the same failure) join
                # that one transfer.
                if item in table:
                    yield table.join(item)
                else:
                    table.register(item, "demand")
                    yield from self._origin_demand(item)
        else:
            sim = self.sim
            targets = (
                sim.probe_targets(self.node, item) if sim.coop is not None else ()
            )
            if targets:
                yield from self._remote_fetch(item, targets)
            else:
                # No cooperation, or no peer to ask (owner is this node):
                # a demand fetch under a registered pending entry, so
                # concurrent requests for the item join this transfer.
                table.register(item, "demand")
                yield from self._origin_demand(item)
        self.collector.record_request(
            hit=False, access_time=self.env._now - t0, issued_at=t0, size=size
        )
        self._plan()

    def _origin_demand(self, item: Hashable):
        """Fetch from the origin into an already-registered entry."""
        while True:
            try:
                result = yield self.sim.fetch(
                    item, kind="demand", client=self.entity_id
                )
            except NodeFailure:
                # The serving node crashed mid-transfer (fault injection).
                # The fault runtime rerouted the item before draining, so
                # reissuing lands on the new owner or the origin; the
                # pending entry stays open and its joiners are woken by
                # the retry's outcome.
                continue
            except Exception as exc:
                # Keep the table consistent (wake joiners) even though an
                # unhandled demand failure still surfaces loudly.
                self.table.fail(item, exc)
                raise
            break
        self.controller.on_fetch_complete(
            item, now=self.env._now, size=result.request.size, prefetched=False
        )
        self.collector.record_retrieval(
            result.retrieval_time, issued_at=result.request.issued_at
        )
        self.table.complete(item, result)

    def _remote_fetch(self, item: Hashable, targets):
        """Cooperative miss path: probe peers, serve remote hit or fall
        back to the origin — all under ONE ``remote`` pending entry.

        The entry is registered *before* the probe departs, so a
        concurrent request arriving mid-probe joins this resolution
        (whatever it turns out to be) instead of racing a duplicate probe
        or transfer.  Peer caches are consulted when the probe *arrives*
        (after ``probe_latency``), not when it is sent — a holder that
        evicts mid-flight is a probe miss.
        """
        env = self.env
        collector = self.collector
        coop = self.sim.coop
        t_probe = env._now
        self.table.register(item, "remote")
        yield env.timeout(coop.probe_latency)
        server = None
        for node in targets:
            if node.holds(item):
                server = node
                break
        if server is None:
            collector.record_remote_probe(hit=False, issued_at=t_probe)
            yield from self._origin_demand(item)
            return
        collector.record_remote_probe(hit=True, issued_at=t_probe)
        try:
            result = yield server.peer_serve(item, client=self.entity_id)
        except NodeFailure:
            # The serving peer crashed mid-transfer (fault injection): fall
            # back to the origin under the same pending entry, so joiners
            # keep waiting on one resolution.
            yield from self._origin_demand(item)
            return
        except Exception as exc:
            self.table.fail(item, exc)
            raise
        if coop.admit_remote_hits:
            # Admission: the requester caches the peer-served copy, tagged
            # like a demand fetch (it served a real request).
            self.controller.on_fetch_complete(
                item, now=env._now, size=result.request.size, prefetched=False
            )
        collector.record_retrieval(
            result.retrieval_time, remote=True, issued_at=result.request.issued_at
        )
        self.table.complete(item, result)

    def _plan(self) -> None:
        """Plan the speculative fetches this request triggers.

        The planner consults the fetch table (via the controller), so an
        item already being fetched — by either kind — is not selected;
        scripted/legacy policies that select one anyway are skipped here
        (starting it would duplicate the pending transfer).  The load
        estimate is routing-aware (``sim.planning_load``): under item-hash
        routing a planned prefetch traverses the item owner's link, not
        this node's.  Only a policy that reads it evaluates it.

        The prefetches start from one URGENT event, not inline: requests
        woken by one event all plan before any of their prefetches
        reaches a link, so a load-reading policy sees the same offered
        load whichever of them plans first.
        """
        controller = self.controller
        chosen = controller._plan(now=self.env._now, load=self.node.load_estimate)
        if not chosen:
            return
        pending = self.table.pending_items()
        fresh = []
        for item, _p in chosen:
            if item in pending:
                controller.on_plan_superseded(item)
            else:
                fresh.append(item)
        if fresh:
            self.collector.record_prefetch_issued(len(fresh))
            register = self.table.register
            for item in fresh:
                register(item, "prefetch")
            self.env.call_soon(self._start_prefetches, fresh)

    def _start_prefetches(self, event) -> None:
        """Start the prefetches of one plan (``event.value``), in order.

        Each completes in :meth:`_prefetched`, appended to its fetch
        event's callbacks where a process's resume would have gone, so the
        events it schedules keep their order.
        """
        fetch = self.sim.fetch
        entity_id = self.entity_id
        prefetched = self._prefetched
        for item in event._value:
            try:
                done = fetch(item, kind="prefetch", client=entity_id)
            except Exception as exc:
                self._prefetch_failed(item, exc)
                continue
            done.callbacks.append(partial(prefetched, item))

    def _prefetched(self, item: Hashable, event) -> None:
        """One prefetch, registered at planning time, left the link."""
        if not event._ok:
            self._prefetch_failed(item, event._value)
            return
        result = event._value
        request = result.request
        self.controller.on_fetch_complete(
            item, now=self.env._now, size=request.size, prefetched=True
        )
        self.collector.record_retrieval(
            result.retrieval_time, prefetch=True, issued_at=request.issued_at
        )
        self.table.complete(item, result)

    def _prefetch_failed(self, item: Hashable, exc: BaseException) -> None:
        self.controller.on_fetch_failed(item)
        # Wake any joiners before dropping the pending entry (they fall
        # back to a demand fetch); with none, drop silently.
        self.table.fail(item, exc)
