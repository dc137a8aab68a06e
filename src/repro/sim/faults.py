"""Fault injection & elastic re-sharding: topology mutation mid-run.

The paper's threshold policies were designed for saturated/degraded
regimes; this module creates those regimes on purpose.  A
:class:`FaultSchedule` is a validated list of typed :class:`FaultEvent`
instants the :class:`~repro.sim.simulation.Simulation` orchestrator
applies while the clock runs:

``proxy-fail``
    The node crashes: its virtual points leave the consistent-hash ring
    (``HashRing.remove_node`` — only keys it owned change owner), every
    transfer in flight on its uplink and peer link is aborted with
    :class:`~repro.errors.NodeFailure` (``ProxyNode.drain``), and its
    per-client caches are wiped.  Waiting fetchers fail over through the
    already-updated routing — to the item's new owner or the origin —
    under their *existing* :class:`~repro.sim.node.FetchTable` entries,
    so joiners are re-woken by the failover transfer, never orphaned
    (the PR 3/4 recovery machinery, now exercised by crashes).
``proxy-recover``
    The node rejoins the ring cold (crash lost its caches), or — with
    ``migration="cooperative"`` — *warm*: alive peers stream the items
    the rejoiner now owns over their peer links (ROADMAP item (c)).
``ring-shrink``
    Planned decommission: the node leaves the ring and drains like a
    crash, but its caches survive on the clients; cooperative migration
    pushes its cached items to their new owners before it goes dark.
``ring-grow``
    A previously removed node is added back (same mechanics as
    ``proxy-recover``; the two kinds exist so schedules read as the
    scenario they model).

Scope notes (modeling decisions, pinned by tests):

* Fault node ids are restricted to the provisioned tier
  ``range(num_proxies)`` — grow/recover re-add a node that failed or
  shrank away earlier; the schedule's ring-membership state machine is
  validated up front, path-qualified, before any simulation is built.
* Clients are *users*, not proxy hardware: a dead node's clients keep
  issuing requests (served via failover routing) and keep their
  controller/predictor state; what the crash destroys is the proxy-side
  cache content.
* An **empty** schedule is inert by construction: no events are
  scheduled, no routing closures are rebound, no RNG is touched — a
  config with ``faults=FaultSchedule([])`` is bit-identical to one with
  ``faults=None`` (pinned against the PR 9 seed metrics).
* Fault schedules are a zero-lookahead coupling: every shard must
  observe the mutation at the same instant, so
  :func:`~repro.sim.parallel.plan_node_partition` names
  ``fault-injection`` as a serial-fallback reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulation import Simulation

__all__ = [
    "FAULT_KINDS",
    "MIGRATION_MODES",
    "FaultEvent",
    "FaultSchedule",
    "FaultTimelineRow",
    "FaultRuntime",
]

FAULT_KINDS = ("proxy-fail", "proxy-recover", "ring-grow", "ring-shrink")

#: kinds that remove the node from the ring (vs add it back)
_REMOVE_KINDS = ("proxy-fail", "ring-shrink")

MIGRATION_MODES = ("cold", "cooperative")


@dataclass(frozen=True)
class FaultEvent:
    """One topology mutation at an absolute simulation instant."""

    time: float
    kind: str
    node: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "time", float(self.time))
        object.__setattr__(self, "node", int(self.node))
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r} (choose from {FAULT_KINDS})"
            )
        if not math.isfinite(self.time) or self.time <= 0.0:
            raise ConfigurationError(
                f"fault time must be a finite instant > 0, got {self.time!r}"
            )
        if self.node < 0:
            raise ConfigurationError(
                f"fault node must be a proxy id >= 0, got {self.node}"
            )

    @property
    def removes(self) -> bool:
        return self.kind in _REMOVE_KINDS


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, validated fault script for one run.

    ``events`` may be given in any order; they are stored sorted by time
    (stable, so same-instant events keep their written order).
    ``migration`` selects what happens to the cache content of moved
    shards: ``cold`` (content is lost / new owners start empty) or
    ``cooperative`` (peers stream moved items over their peer links —
    requires the topology's cooperation to be enabled).
    """

    events: tuple[FaultEvent, ...] = ()
    migration: str = "cold"

    def __post_init__(self) -> None:
        events = tuple(sorted(self.events, key=lambda ev: ev.time))
        object.__setattr__(self, "events", events)
        if self.migration not in MIGRATION_MODES:
            raise ConfigurationError(
                f"unknown migration mode {self.migration!r} "
                f"(choose from {MIGRATION_MODES})"
            )

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultSchedule":
        """Parse the CLI/shorthand form into a schedule.

        Comma-separated entries, each ``kind@time:node`` or
        ``migration=MODE``::

            proxy-fail@40:1,proxy-recover@80:1,migration=cooperative
        """
        events: list[FaultEvent] = []
        migration = "cold"
        for raw in text.split(","):
            part = raw.strip()
            if not part:
                continue
            if part.startswith("migration="):
                migration = part.split("=", 1)[1].strip()
                continue
            try:
                kind, rest = part.split("@", 1)
                when, node = rest.split(":", 1)
                events.append(
                    FaultEvent(time=float(when), kind=kind.strip(),
                               node=int(node))
                )
            except (ValueError, ConfigurationError) as exc:
                raise ConfigurationError(
                    f"bad fault entry {part!r} (want kind@time:node, e.g. "
                    f"proxy-fail@40:1, or migration=cold|cooperative): {exc}"
                ) from None
        return cls(events=tuple(events), migration=migration)

    # ------------------------------------------------------------------
    def validate(self, *, topology, duration: float) -> None:
        """Static consistency against the tier it will run on.

        Checks, in schedule order: node ids are provisioned, times fall
        inside ``(0, duration)``, removals target on-ring nodes, adds
        target off-ring nodes, the ring never empties, and cooperative
        migration has a cooperation mode to ride on.  Raises
        :class:`~repro.errors.ConfigurationError` naming the first bad
        event.
        """
        if not self.events:
            return
        if self.migration == "cooperative" and not topology.cooperation.enabled:
            raise ConfigurationError(
                "faults: migration='cooperative' needs the topology's "
                "cooperation enabled (peers warm moved shards over their "
                "peer links); enable cooperation or use migration='cold'"
            )
        alive = set(range(topology.num_proxies))
        for i, ev in enumerate(self.events):
            where = f"faults.events[{i}] ({ev.kind}@{ev.time:g}:{ev.node})"
            if ev.node >= topology.num_proxies:
                raise ConfigurationError(
                    f"{where}: node {ev.node} is not provisioned "
                    f"(num_proxies={topology.num_proxies}; grow/recover "
                    f"re-add a node that failed or shrank away earlier)"
                )
            if ev.time >= duration:
                raise ConfigurationError(
                    f"{where}: fault time must precede the run's duration "
                    f"({duration:g}) or it would never fire"
                )
            if ev.removes:
                if ev.node not in alive:
                    raise ConfigurationError(
                        f"{where}: node {ev.node} is not on the ring at "
                        f"t={ev.time:g} (already failed or shrank away)"
                    )
                if len(alive) == 1:
                    raise ConfigurationError(
                        f"{where}: removing node {ev.node} would empty the "
                        f"ring (no owner left for any item)"
                    )
                alive.discard(ev.node)
            else:
                if ev.node in alive:
                    raise ConfigurationError(
                        f"{where}: node {ev.node} is already on the ring at "
                        f"t={ev.time:g} (recover/grow re-add a removed node)"
                    )
                alive.add(ev.node)


@dataclass(frozen=True)
class FaultTimelineRow:
    """Tier-cumulative measured counters captured at one fault instant.

    Rows are raw *cumulative* sums (never pre-divided), so per-segment
    KPIs between consecutive rows are exact deltas and rows from pooled
    replications aggregate by counter addition.  The final row of a run
    has ``kind="end"``/``node=-1`` and closes the last segment.
    """

    time: float
    kind: str
    node: int
    #: measured requests / hits / access-time sum across the tier at `time`
    requests: int
    hits: int
    access_total: float
    #: ring membership immediately AFTER the event applied
    alive: tuple[int, ...]
    #: cumulative cooperative-migration cost up to `time`
    migrated_items: int = 0
    migrated_bytes: float = 0.0
    #: cumulative bytes the tier pulled over its origin uplinks (demand +
    #: prefetch, issue-time accounting, warmup included — segment deltas
    #: past the warmup are exact), the cost a warm migration avoids
    origin_bytes: float = 0.0


@dataclass(frozen=True)
class FaultSegment:
    """Per-segment KPI deltas between consecutive timeline rows."""

    start: float
    end: float
    #: the event that OPENED this segment ("start" for the first one)
    kind: str
    node: int
    requests: int
    hits: int

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else float("nan")

    # carried as a plain field so the dataclass stays comparable
    mean_access_time: float = float("nan")
    #: bytes this segment pulled over the origin uplinks
    origin_bytes: float = 0.0


class FaultRuntime:
    """Applies one schedule to one live simulation; collects the timeline.

    Built by the orchestrator at the end of ``Simulation.__init__`` only
    when the config carries a *non-empty* schedule; everything here —
    ring construction for client-affinity tiers, alive-aware routing and
    probe filtering, the scheduled ``env.call_at`` callbacks — therefore
    never touches a fault-free run.
    """

    def __init__(self, sim: "Simulation", schedule: FaultSchedule) -> None:
        self.sim = sim
        self.schedule = schedule
        self.alive: set[int] = set(range(len(sim.nodes)))
        self.timeline: list[FaultTimelineRow] = []
        self.migrated_items = 0
        self.migrated_bytes = 0.0
        #: per-node round-robin cursor for admitting migrated items
        self._admit_rr: dict[int, int] = {}

    # ------------------------------------------------------------------
    def install(self) -> None:
        """Rebind routing/probing alive-aware and schedule the events."""
        sim = self.sim
        nodes = sim.nodes
        alive = self.alive
        if sim.ring is None:
            # Client-affinity tiers have no ring yet; failover routing
            # needs one so displaced clients spread deterministically.
            sim.ring = sim.config.topology.build_ring()
        ring = sim.ring
        if sim.config.topology.routing == "client-affinity" and len(nodes) > 1:
            count = len(nodes)

            def route(client, item):
                home = nodes[client % count]
                if home.node_id in alive:
                    return home
                # Home is down: hash the displaced client onto the ring's
                # surviving members (stable for the whole outage, and
                # spread across the tier instead of piling onto one node).
                return nodes[ring.node_of(("client-failover", client))]

            sim.route = route
        if sim.coop is not None:
            base_targets = sim.probe_targets

            def probe_targets(node, item):
                # A shrunk node keeps its caches; it must still never be
                # probed or serve peers once off the ring.
                return tuple(
                    n for n in base_targets(node, item) if n.node_id in alive
                )

            sim.probe_targets = probe_targets
        for ev in self.schedule.events:
            sim.env.call_at(ev.time, self._fire, ev)

    def _fire(self, event) -> None:
        self.apply(event.value)

    # ------------------------------------------------------------------
    def apply(self, ev: FaultEvent) -> None:
        """Apply one event *now* (``env.now == ev.time`` when scheduled)."""
        sim = self.sim
        node = sim.nodes[ev.node]
        cooperative = (
            self.schedule.migration == "cooperative" and sim.coop is not None
        )
        if ev.removes:
            sim.ring.remove_node(ev.node)
            self.alive.discard(ev.node)
            if ev.kind == "ring-shrink" and cooperative:
                # Planned decommission: push cached content to the new
                # owners over the departing node's peer link *before*
                # going dark (new demand already routes elsewhere).  The
                # push starts behind this event, after the drain below,
                # which would otherwise fail its first transfer.
                items = self._held_items(node)
                if items:
                    sim.env.call_soon(
                        lambda event: sim.env.start(self._push_out(node, items))
                    )
            # Routing no longer targets this node; whatever is still in
            # flight on its links dies here and fails over.
            node.drain()
            if ev.kind == "proxy-fail":
                # The crash destroys proxy-side cache content.  Client
                # controller/predictor state survives (clients are users,
                # not the proxy hardware).
                for cache in node.caches:
                    for key in cache.keys():
                        cache.remove(key)
        else:
            sim.ring.add_node(ev.node)
            self.alive.add(ev.node)
            if cooperative:
                plan = self._warm_plan(node)
                if plan:
                    sim.env.call_soon(
                        lambda event: sim.env.start(self._warm_in(node, plan))
                    )
        self._record_row(ev)

    # ------------------------------------------------------------------
    # Cooperative shard migration (ROADMAP item (c))
    # ------------------------------------------------------------------
    def _held_items(self, node) -> list:
        """Distinct items cached at ``node``, first-cache-first order."""
        seen = set()
        items = []
        for cache in node.caches:
            for key in cache.keys():
                if key not in seen:
                    seen.add(key)
                    items.append(key)
        return items

    def _warm_plan(self, target) -> list[tuple[object, object]]:
        """(holder, item) transfer list warming a rejoined ``target``:
        every item an alive peer caches whose owner the ring now says is
        ``target``.  Deterministic order: peers ascending node id, their
        caches in attach order."""
        if not target.caches:
            return []  # no client homed there -> nowhere to warm into
        sim = self.sim
        node_of = sim.ring.node_of
        seen = set()
        plan = []
        for holder in sim.nodes:
            if holder.node_id == target.node_id:
                continue
            if holder.node_id not in self.alive:
                continue
            for item in self._held_items(holder):
                if item in seen:
                    continue
                if node_of(item) == target.node_id:
                    seen.add(item)
                    plan.append((holder, item))
        return plan

    def _push_out(self, source, items):
        """Decommission push: stream ``source``'s cached items to their
        new ring owners over ``source``'s peer link (DES process)."""
        sim = self.sim
        for item in items:
            owner = sim.ring.node_of(item)
            target = sim.nodes[owner]
            if owner not in self.alive or not target.caches:
                continue
            if target.holds(item):
                continue
            try:
                result = yield source.peer_serve(item, client=-1)
            except Exception:
                # The source crashed/drained mid-push: the rest of its
                # content is lost, exactly like a cold decommission.
                return
            self._admit_migrated(target, item, result.request.size)

    def _warm_in(self, target, plan):
        """Warm migration: holders stream the rejoined owner's new shard
        over *their* peer links, one transfer at a time (DES process)."""
        for holder, item in plan:
            if holder.node_id not in self.alive:
                continue  # the holder died while we were warming
            if not holder.holds(item):
                continue  # evicted since the plan was drawn
            if target.holds(item):
                continue
            try:
                result = yield holder.peer_serve(item, client=-1)
            except Exception:
                continue  # holder drained mid-transfer; try the next item
            self._admit_migrated(target, item, result.request.size)

    def _admit_migrated(self, target, item, size: float) -> None:
        # Migrated copies enter *untagged* (prefetched=True): they were
        # moved speculatively, not demanded — §4's tag discipline treats
        # them exactly like prefetched content.  Round-robin over the
        # node's caches so a plan larger than one cache's capacity does
        # not churn a single cache while the others stay cold (any cache
        # at the node answers cooperative probes via ``holds``).
        slot = self._admit_rr.get(target.node_id, 0)
        target.caches[slot % len(target.caches)].insert(
            item, now=self.sim.env.now, size=size, prefetched=True
        )
        self._admit_rr[target.node_id] = slot + 1
        self.migrated_items += 1
        self.migrated_bytes += float(size)

    # ------------------------------------------------------------------
    # KPI timeline
    # ------------------------------------------------------------------
    def _counters(self) -> tuple[int, int, float, float]:
        requests = hits = 0
        access_total = 0.0
        origin_bytes = 0.0
        for node in self.sim.nodes:
            r, h, a = node.collector.timeline_counters()
            requests += r
            hits += h
            access_total += a
            origin_bytes += node.link.demand_bytes + node.link.prefetch_bytes
        return requests, hits, access_total, origin_bytes

    def _record_row(self, ev: FaultEvent) -> None:
        requests, hits, access_total, origin_bytes = self._counters()
        self.timeline.append(
            FaultTimelineRow(
                time=self.sim.env.now,
                kind=ev.kind,
                node=ev.node,
                requests=requests,
                hits=hits,
                access_total=access_total,
                alive=tuple(sorted(self.alive)),
                migrated_items=self.migrated_items,
                migrated_bytes=self.migrated_bytes,
                origin_bytes=origin_bytes,
            )
        )

    def finalize(self) -> tuple[FaultTimelineRow, ...]:
        """Close the timeline with the end-of-run row; call after the
        event loop drains (``env.now == duration``)."""
        requests, hits, access_total, origin_bytes = self._counters()
        self.timeline.append(
            FaultTimelineRow(
                time=self.sim.config.duration,
                kind="end",
                node=-1,
                requests=requests,
                hits=hits,
                access_total=access_total,
                alive=tuple(sorted(self.alive)),
                migrated_items=self.migrated_items,
                migrated_bytes=self.migrated_bytes,
                origin_bytes=origin_bytes,
            )
        )
        return tuple(self.timeline)
