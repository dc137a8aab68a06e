"""Proxy-tier topology: how many proxies, and which one serves a fetch.

The paper models a *single* proxy whose uplink is the M/G/1-PS bottleneck.
Serving heavy traffic means growing that tier sideways, and
:class:`TopologyConfig` describes the grown shape declaratively:

* ``num_proxies`` — how many :class:`~repro.sim.node.ProxyNode` instances
  the simulation builds.  Each node owns its *own* uplink (a
  :class:`~repro.network.link.SharedLink` of the configured bandwidth), its
  clients' caches/controllers and a metrics shard, so adding proxies adds
  capacity — the scale-out direction of ROADMAP's north star.
* ``routing`` — which node's link carries a fetch:

  - ``client-affinity``: a client's fetches always traverse its *home*
    proxy (``client mod num_proxies``).  This is classic client
    partitioning: per-proxy load mirrors per-client-group load.
  - ``item-hash``: the catalogue is sharded; a fetch for item ``i``
    traverses the link of the proxy that *owns* ``i`` on a consistent-hash
    ring (:class:`HashRing`).  Clients stay homed for caches/metrics, but
    traffic shards by content — one hot client spreads across every link,
    and growing ``num_proxies`` remaps only ``~1/P`` of the catalogue.

* ``cooperation`` — inter-proxy cache sharing
  (:class:`CooperationConfig`).  Without it a proxy tier behaves like N
  *isolated* caches: a local miss goes straight to the origin even when a
  peer proxy holds the item.  With it, a miss first *probes* the item's
  ring owner (or, in ``broadcast`` mode, every peer) and serves a remote
  hit over a dedicated inter-proxy peer link instead of the origin uplink.

* per-proxy overrides — heterogeneous tiers (one thin uplink, one small
  cache) via ``bandwidth_overrides`` / ``cache_capacity_overrides``.

The default config (one proxy, client-affinity, no cooperation, no
overrides) reproduces the paper's single-proxy system bit-identically;
everything else is the scale-out extension.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Hashable, Mapping

from repro.errors import ConfigurationError

__all__ = [
    "CooperationConfig",
    "TopologyConfig",
    "HashRing",
    "ROUTING_NAMES",
    "COOPERATION_MODES",
]

ROUTING_NAMES = ("client-affinity", "item-hash")

COOPERATION_MODES = ("none", "owner-probe", "broadcast")


def _stable_hash(token: str) -> int:
    """64-bit platform-independent hash (``hash()`` is salted per process)."""
    return int.from_bytes(
        hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent-hash ring mapping items to proxy ids.

    Each proxy contributes ``vnodes`` virtual points; an item lands on the
    first point clockwise from its own hash.  Placement depends only on
    ``(num_proxies, vnodes)`` and the item's repr, so it is stable across
    runs, processes and platforms — and growing the ring from P to P+1
    proxies remaps only ~1/(P+1) of the catalogue (the property that makes
    re-sharding a warm cache tier cheap).
    """

    def __init__(
        self,
        num_proxies: int,
        *,
        vnodes: int = 64,
        members: tuple[int, ...] | None = None,
    ) -> None:
        if num_proxies < 1:
            raise ConfigurationError(f"num_proxies must be >= 1, got {num_proxies}")
        if vnodes < 1:
            raise ConfigurationError(f"vnodes must be >= 1, got {vnodes}")
        self.num_proxies = int(num_proxies)
        self.vnodes = int(vnodes)
        if members is None:
            members = tuple(range(self.num_proxies))
        member_set = set(int(m) for m in members)
        if not member_set:
            raise ConfigurationError("a hash ring needs at least one member")
        for member in member_set:
            if not 0 <= member < self.num_proxies:
                raise ConfigurationError(
                    f"ring member {member} outside the provisioned range "
                    f"0..{self.num_proxies - 1}"
                )
        self._members = member_set
        points = []
        for proxy in sorted(member_set):
            for v in range(self.vnodes):
                points.append((_stable_hash(f"proxy-{proxy}#{v}"), proxy))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]
        self._owners = [p for _, p in points]

    def members(self) -> tuple[int, ...]:
        """Current ring membership, ascending proxy id."""
        return tuple(sorted(self._members))

    def _vnode_points(self, proxy: int) -> list[tuple[int, int]]:
        return [
            (_stable_hash(f"proxy-{proxy}#{v}"), proxy)
            for v in range(self.vnodes)
        ]

    def add_node(self, proxy: int) -> None:
        """Add a provisioned proxy's virtual points back onto the ring.

        Minimal disruption by construction: an insert only reassigns items
        hashing into the arcs immediately counter-clockwise of the new
        points — every other item keeps its owner.  The resulting ring is
        identical (point ordering included) to one built fresh with the
        same membership, so fail-then-recover round-trips exactly.
        """
        proxy = int(proxy)
        if not 0 <= proxy < self.num_proxies:
            raise ConfigurationError(
                f"ring member {proxy} outside the provisioned range "
                f"0..{self.num_proxies - 1}"
            )
        if proxy in self._members:
            raise ConfigurationError(f"proxy {proxy} is already on the ring")
        self._members.add(proxy)
        for point in self._vnode_points(proxy):
            index = bisect_right(self._points, point)
            self._points.insert(index, point)
            self._hashes.insert(index, point[0])
            self._owners.insert(index, point[1])

    def remove_node(self, proxy: int) -> None:
        """Remove a proxy's virtual points from the ring.

        Only items that hashed onto the removed points change owner (to
        the next point clockwise); the ring refuses to lose its last
        member — an empty tier could route nothing.
        """
        proxy = int(proxy)
        if proxy not in self._members:
            raise ConfigurationError(f"proxy {proxy} is not on the ring")
        if len(self._members) == 1:
            raise ConfigurationError(
                "cannot remove the last ring member (the tier would have "
                "no owner for any item)"
            )
        self._members.discard(proxy)
        self._points = [pt for pt in self._points if pt[1] != proxy]
        self._hashes = [h for h, _ in self._points]
        self._owners = [p for _, p in self._points]

    def node_of(self, item: Hashable) -> int:
        """The proxy id owning ``item``'s catalogue shard.

        With a single proxy every item trivially maps to node 0.  The
        result is a pure function of ``(vnodes, repr(item))`` and the
        current membership — routers and cooperation probes may call it
        freely and always agree on the owner.
        """
        h = _stable_hash(repr(item))
        index = bisect_right(self._hashes, h)
        if index == len(self._hashes):  # wrap past the top of the ring
            index = 0
        return self._owners[index]


@dataclass
class CooperationConfig:
    """Inter-proxy cooperative caching knobs (default: no cooperation).

    Attributes
    ----------
    mode:
        ``none`` — proxies are isolated caches (the PR-4 behaviour,
        bit-identical); ``owner-probe`` — a local miss probes the item's
        owner on the consistent-hash ring and is served from any cache of
        a client homed there; ``broadcast`` — a local miss probes *every*
        peer proxy (owner first, then ascending node id) and is served by
        the first holder found.
    peer_bandwidth:
        Capacity of each proxy's inter-proxy *peer link* — a dedicated
        :class:`~repro.network.link.SharedLink` per node that carries the
        remote-hit transfers it serves, contended processor-sharing style
        exactly like the origin uplinks.  Proxies typically sit on the
        same backbone, so the default is generous relative to the paper's
        uplink numbers.
    probe_latency:
        Fixed round-trip cost of asking peers whether they hold an item
        (paid once per probed miss, hit or not; broadcast probes fan out
        in parallel, so it is paid once there too).
    admit_remote_hits:
        Whether the *requesting* client's cache also admits an item served
        by a peer (tagged, like a demand fetch).  ``False`` turns remote
        hits into pass-through transfers: cheaper locally in cache space,
        but every repeat request pays the probe + peer transfer again.
    """

    mode: str = "none"
    peer_bandwidth: float = 200.0
    probe_latency: float = 0.002
    admit_remote_hits: bool = True

    def __post_init__(self) -> None:
        if self.mode not in COOPERATION_MODES:
            raise ConfigurationError(
                f"unknown cooperation mode {self.mode!r}; "
                f"known: {COOPERATION_MODES}"
            )
        if self.peer_bandwidth <= 0:
            raise ConfigurationError(
                f"peer_bandwidth must be > 0, got {self.peer_bandwidth!r}"
            )
        if self.probe_latency < 0:
            raise ConfigurationError(
                f"probe_latency must be >= 0, got {self.probe_latency!r}"
            )

    @property
    def enabled(self) -> bool:
        """True when any cooperative mode is configured."""
        return self.mode != "none"


@dataclass
class TopologyConfig:
    """Shape of the proxy tier (defaults reproduce the paper's single proxy).

    Attributes
    ----------
    num_proxies:
        Proxy-node count.  Every node gets its own uplink of the
        simulation's configured bandwidth (overridable per node), so the
        tier's aggregate capacity grows with the count.
    routing:
        ``client-affinity`` (fetches use the client's home proxy) or
        ``item-hash`` (fetches use the item's owning proxy on a
        consistent-hash ring).  See the module docstring.
    cooperation:
        Inter-proxy cache sharing (:class:`CooperationConfig`).  The
        default (``mode="none"``) keeps proxies isolated — bit-identical
        to the tier before cooperation existed.  Cooperation composes
        with *either* routing mode: the probe target is always the item's
        consistent-hash ring owner, whichever link carries origin fetches.
    bandwidth_overrides:
        ``proxy id -> uplink bandwidth`` replacing the simulation default
        for that node.
    cache_capacity_overrides:
        ``proxy id -> per-client cache capacity`` for clients homed at that
        node.
    hash_vnodes:
        Virtual points per proxy on the consistent-hash ring (balance/
        stability knob; used by ``item-hash`` routing and by cooperation's
        owner lookup — both share one ring, so the probe target and the
        item-hash route always agree).
    """

    num_proxies: int = 1
    routing: str = "client-affinity"
    bandwidth_overrides: Mapping[int, float] = field(default_factory=dict)
    cache_capacity_overrides: Mapping[int, int] = field(default_factory=dict)
    hash_vnodes: int = 64
    cooperation: CooperationConfig = field(default_factory=CooperationConfig)

    def __post_init__(self) -> None:
        if self.num_proxies < 1:
            raise ConfigurationError(
                f"num_proxies must be >= 1, got {self.num_proxies!r}"
            )
        if self.routing not in ROUTING_NAMES:
            raise ConfigurationError(
                f"unknown routing {self.routing!r}; known: {ROUTING_NAMES}"
            )
        if isinstance(self.cooperation, Mapping):
            # JSON round trips decompose the nested dataclass into a dict.
            self.cooperation = CooperationConfig(**self.cooperation)
        if not isinstance(self.cooperation, CooperationConfig):
            raise ConfigurationError(
                f"cooperation must be a CooperationConfig, got "
                f"{type(self.cooperation).__name__}"
            )
        if self.hash_vnodes < 1:
            raise ConfigurationError(
                f"hash_vnodes must be >= 1, got {self.hash_vnodes!r}"
            )
        # Canonical int-keyed copies (JSON round trips stringify keys).
        self.bandwidth_overrides = {
            int(k): float(v) for k, v in dict(self.bandwidth_overrides).items()
        }
        self.cache_capacity_overrides = {
            int(k): int(v) for k, v in dict(self.cache_capacity_overrides).items()
        }
        for label, overrides in (
            ("bandwidth_overrides", self.bandwidth_overrides),
            ("cache_capacity_overrides", self.cache_capacity_overrides),
        ):
            for proxy, value in overrides.items():
                if not 0 <= proxy < self.num_proxies:
                    raise ConfigurationError(
                        f"{label} for unknown proxy {proxy!r} "
                        f"(num_proxies={self.num_proxies})"
                    )
                if value <= 0:
                    raise ConfigurationError(
                        f"{label}[{proxy}] must be > 0, got {value!r}"
                    )

    # ------------------------------------------------------------------
    def home_of(self, client: int) -> int:
        """The proxy a client is homed at (cache, controller, metrics)."""
        return int(client) % self.num_proxies

    def node_bandwidth(self, node_id: int, default: float) -> float:
        return float(self.bandwidth_overrides.get(node_id, default))

    def node_cache_capacity(self, node_id: int, default: int) -> int:
        return int(self.cache_capacity_overrides.get(node_id, default))

    def build_ring(self) -> HashRing:
        """The consistent-hash ring for this topology.

        Simulations build it once and share it between ``item-hash``
        routing and cooperation probes; :meth:`owner_of` is the convenient
        one-off lookup for callers outside a simulation.
        """
        return HashRing(self.num_proxies, vnodes=self.hash_vnodes)

    def owner_of(self, item: Hashable) -> int:
        """The ring owner of ``item`` — the proxy cooperation would probe.

        Lazily builds (and memoises) the ring, so repeated lookups cost a
        bisect, not a ring rebuild.  The memo is not a dataclass field:
        ``dataclasses.replace`` / pickling / ``scenario_hash`` all see only
        the declarative knobs.
        """
        ring = self.__dict__.get("_owner_ring")
        if ring is None:
            ring = self.__dict__["_owner_ring"] = self.build_ring()
        return ring.node_of(item)
