"""Tests for inter-proxy cooperative caching (PR 5).

Five groups:

* **none-mode bit-identity** — ``cooperation=none`` reproduces PR 4's
  pinned seed metrics bit-identically (the hard-coded values in
  ``test_topology.PINNED_SEED_METRICS``), and a single-proxy tier treats
  *any* cooperation mode as inert (cooperation is inter-proxy; one node
  has no peers);
* **remote-probe request path** — deterministic traces pin the full
  remote-hit flow: probe → peer transfer → (optional) admission, the
  owner-probe/broadcast difference, and the owner==self short-circuit
  under client-affinity routing;
* **fetch-table integration** — a request arriving while a remote
  resolution is in flight (probe or transfer) *joins* it; the probe can
  never race a duplicate transfer into existence;
* **counters** — per-shard remote-hit / peer-byte counters aggregate
  exactly, requester vs server attribution is correct;
* **config validation** — CooperationConfig rejects nonsense.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.network.topology import (
    COOPERATION_MODES,
    CooperationConfig,
    HashRing,
    TopologyConfig,
)
from repro.sim import Simulation, SimulationConfig, run_simulation
from repro.workload import TraceRecord, WorkloadSpec, save_trace

from tests.sim.test_topology import (
    PINNED_SEED_LINK,
    PINNED_SEED_METRICS,
    seed_config,
    shard_config,
)


def coop_topology(num_proxies=2, mode="owner-probe", routing="item-hash",
                  **coop_kwargs):
    return TopologyConfig(
        num_proxies=num_proxies,
        routing=routing,
        cooperation=CooperationConfig(mode=mode, **coop_kwargs),
    )


def items_owned_by(ring: HashRing, node_id: int, count: int = 1) -> list[int]:
    owned = [i for i in range(500) if ring.node_of(i) == node_id]
    assert len(owned) >= count
    return owned[:count]


def assert_metrics_equal(a, b):
    """Field-by-field equality, treating NaN == NaN (empty tallies)."""
    import math

    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb), field.name
        else:
            assert va == vb, field.name


class TestNoneModeBitIdentity:
    def test_none_reproduces_pinned_seed_metrics(self):
        out = run_simulation(
            seed_config(topology=TopologyConfig(cooperation=CooperationConfig()))
        )
        for name, expected in PINNED_SEED_METRICS.items():
            assert getattr(out.metrics, name) == expected, name
        for name, expected in PINNED_SEED_LINK.items():
            assert getattr(out, name) == expected, name
        assert out.peer_fetches == 0
        assert out.peer_bytes == 0.0
        assert out.metrics.remote_probes == 0

    def test_none_equals_default_on_a_sharded_tier(self):
        default = run_simulation(
            shard_config(
                topology=TopologyConfig(num_proxies=3, routing="item-hash")
            )
        )
        explicit_none = run_simulation(
            shard_config(
                topology=coop_topology(num_proxies=3, mode="none")
            )
        )
        for field in dataclasses.fields(default.metrics):
            assert getattr(default.metrics, field.name) == getattr(
                explicit_none.metrics, field.name
            ), field.name

    def test_single_proxy_cooperation_is_inert(self):
        """Edge case: a one-node tier has no peers, so ANY mode must be
        bit-identical to none (and to the pinned seed)."""
        for mode in ("owner-probe", "broadcast"):
            out = run_simulation(
                seed_config(
                    topology=coop_topology(
                        num_proxies=1, mode=mode, routing="client-affinity"
                    )
                )
            )
            for name, expected in PINNED_SEED_METRICS.items():
                assert getattr(out.metrics, name) == expected, (mode, name)
            assert out.metrics.remote_probes == 0
            assert out.peer_fetches == 0

    def test_single_proxy_builds_no_peer_links(self):
        sim = Simulation(
            seed_config(topology=coop_topology(num_proxies=1))
        )
        assert sim.coop is None
        assert all(node.peer_link is None for node in sim.nodes)

    def test_none_mode_builds_no_peer_links(self):
        sim = Simulation(
            shard_config(topology=coop_topology(num_proxies=3, mode="none"))
        )
        assert sim.coop is None
        assert all(node.peer_link is None for node in sim.nodes)
        assert sim.probe_targets(sim.nodes[0], 17) == ()


class TraceCase:
    """Shared plumbing: deterministic trace-driven cooperative sims."""

    def write_trace(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        save_trace(records, path)
        return path

    def make_sim(self, trace_path, topology, **overrides):
        defaults = dict(
            workload=WorkloadSpec(num_clients=2, request_rate=10.0,
                                  catalog_size=500),
            bandwidth=1.0,
            cache_capacity=10,
            predictor="markov",
            policy="none",
            duration=60.0,
            warmup=0.0,
            seed=1,
            trace_path=str(trace_path),
            topology=topology,
        )
        defaults.update(overrides)
        return Simulation(SimulationConfig(**defaults))


class TestRemoteProbePath(TraceCase):
    def test_remote_hit_served_from_owner_cache(self, tmp_path):
        # Client 1 (homed node 1) demand-fetches an item node 1 owns; a
        # later miss by client 0 (homed node 0) probes the owner and is
        # served from client 1's cache over node 1's peer link.
        ring = HashRing(2)
        [item] = items_owned_by(ring, 1)
        path = self.write_trace(tmp_path, [
            TraceRecord(time=1.0, client=1, item=item, size=2.0),
            TraceRecord(time=10.0, client=0, item=item, size=2.0),
        ])
        sim = self.make_sim(path, coop_topology(num_proxies=2))
        out = sim.run()
        assert out.metrics.requests == 2
        assert out.metrics.remote_probes == 1
        assert out.metrics.remote_hits == 1
        # attribution: the probe is the requester's (node 0 shard), the
        # peer transfer is served by node 1's peer link
        assert out.per_proxy[0].metrics.remote_probes == 1
        assert out.per_proxy[0].metrics.remote_hits == 1
        assert out.per_proxy[1].metrics.remote_probes == 0
        assert out.per_proxy[0].peer_fetches == 0
        assert out.per_proxy[1].peer_fetches == 1
        assert out.per_proxy[1].peer_bytes == 2.0
        assert out.peer_fetches == 1
        assert out.peer_bytes == 2.0
        # only ONE origin transfer ever happened (client 1's demand fetch)
        assert out.link_demand_fetches == 1
        # the peer transfer's sojourn time surfaces as the remote mean
        # (size 2.0 over the default generous peer link) on the
        # requester's shard and in the aggregate
        assert out.per_proxy[0].metrics.mean_remote_retrieval_time > 0.0
        assert (
            out.metrics.mean_remote_retrieval_time
            == out.per_proxy[0].metrics.mean_remote_retrieval_time
        )
        assert out.per_proxy[1].metrics.mean_remote_retrieval_time == 0.0

    def test_probe_miss_falls_back_to_origin(self, tmp_path):
        # Nobody holds the item: the probe pays its latency, misses, and
        # the SAME pending entry resolves through an origin demand fetch.
        # (client 1's own request targets an item its home node owns, so
        # it never probes and cannot pollute the counters.)
        ring = HashRing(2)
        item, own_item = items_owned_by(ring, 1, count=2)
        path = self.write_trace(tmp_path, [
            TraceRecord(time=1.0, client=0, item=item, size=2.0),
            TraceRecord(time=1.0, client=1, item=own_item, size=0.01),
        ])
        sim = self.make_sim(path, coop_topology(num_proxies=2))
        out = sim.run()
        assert out.metrics.remote_probes == 1
        assert out.metrics.remote_hits == 0
        assert out.peer_fetches == 0
        assert out.link_demand_fetches == 2  # both items, no duplicates
        table = sim.nodes[0].fetch_tables[0]
        assert table.stats.remote_registered == 1
        assert table.stats.demand_registered == 0  # fallback reused entry

    def test_remote_hit_pays_probe_latency(self, tmp_path):
        ring = HashRing(2)
        [item] = items_owned_by(ring, 1)
        path = self.write_trace(tmp_path, [
            TraceRecord(time=1.0, client=1, item=item, size=2.0),
            TraceRecord(time=10.0, client=0, item=item, size=2.0),
        ])
        latency = 0.25
        sim = self.make_sim(
            path,
            coop_topology(num_proxies=2, probe_latency=latency,
                          peer_bandwidth=2.0),
        )
        out = sim.run()
        assert out.metrics.remote_hits == 1
        # the remote miss's access time >= probe RTT + transfer (2.0/2.0)
        shard0 = out.per_proxy[0].metrics
        assert shard0.mean_access_time >= (latency + 1.0) / shard0.requests

    def test_owner_is_self_short_circuits(self, tmp_path):
        """Edge case: client-affinity routing, requested items owned by
        the requester's OWN node — owner-probe never probes, and the run
        is bit-identical to cooperation=none."""
        ring = HashRing(2)
        mine = items_owned_by(ring, 0, count=3)
        records = [
            TraceRecord(time=float(i + 1), client=0, item=item, size=1.0)
            for i, item in enumerate(mine)
        ] + [TraceRecord(time=1.5, client=1, item=mine[0], size=1.0)]
        records.sort(key=lambda r: r.time)
        path = self.write_trace(tmp_path, records)
        coop = self.make_sim(
            path,
            coop_topology(num_proxies=2, routing="client-affinity"),
        ).run()
        # client 1's miss on mine[0] (owned by node 0) DID probe...
        assert coop.per_proxy[1].metrics.remote_probes == 1
        # ...but client 0's misses on its own node's items never did
        assert coop.per_proxy[0].metrics.remote_probes == 0

    def test_owner_only_items_equal_none_mode(self, tmp_path):
        ring = HashRing(2)
        mine = items_owned_by(ring, 0, count=3)
        records = [
            TraceRecord(time=float(i + 1), client=0, item=item, size=1.0)
            for i, item in enumerate(mine)
        ]
        path = self.write_trace(tmp_path, records)
        topo_probe = coop_topology(num_proxies=2, routing="client-affinity")
        topo_none = coop_topology(num_proxies=2, mode="none",
                                  routing="client-affinity")
        probed = self.make_sim(path, topo_probe).run()
        plain = self.make_sim(path, topo_none).run()
        assert probed.metrics.remote_probes == 0
        assert_metrics_equal(plain.metrics, probed.metrics)

    def test_broadcast_finds_non_owner_copy(self, tmp_path):
        # The item is owned by node 0 but cached only at node 1 (client 1
        # demand-fetched it).  Client 0's miss: owner == self, so
        # owner-probe goes straight to the origin — broadcast probes the
        # peer and finds it.
        ring = HashRing(2)
        [item] = items_owned_by(ring, 0)
        records = [
            TraceRecord(time=1.0, client=1, item=item, size=2.0),
            TraceRecord(time=10.0, client=0, item=item, size=2.0),
        ]
        path = self.write_trace(tmp_path, records)
        owner = self.make_sim(path, coop_topology(num_proxies=2)).run()
        # client 1's initial miss probed the owner (node 0: nothing there);
        # client 0's miss has owner == self, so it never probed at all
        assert owner.per_proxy[1].metrics.remote_probes == 1
        assert owner.per_proxy[0].metrics.remote_probes == 0
        assert owner.metrics.remote_hits == 0
        assert owner.link_demand_fetches == 2
        broadcast = self.make_sim(
            path, coop_topology(num_proxies=2, mode="broadcast")
        ).run()
        # broadcast: client 1's probe still misses (t=1, nothing cached),
        # but client 0's miss now probes its peer and finds the copy
        assert broadcast.metrics.remote_probes == 2
        assert broadcast.metrics.remote_hits == 1
        assert broadcast.per_proxy[0].metrics.remote_hits == 1
        assert broadcast.link_demand_fetches == 1
        assert broadcast.per_proxy[1].peer_fetches == 1

    def test_admission_knob(self, tmp_path):
        ring = HashRing(2)
        [item] = items_owned_by(ring, 1)
        records = [
            TraceRecord(time=1.0, client=1, item=item, size=2.0),
            TraceRecord(time=10.0, client=0, item=item, size=2.0),
            TraceRecord(time=20.0, client=0, item=item, size=2.0),
        ]
        path = self.write_trace(tmp_path, records)
        admitted = self.make_sim(
            path, coop_topology(num_proxies=2, admit_remote_hits=True)
        ).run()
        # the remote hit was admitted: the repeat request is a LOCAL hit
        assert admitted.metrics.remote_hits == 1
        assert admitted.metrics.hits == 1
        assert admitted.peer_fetches == 1
        passthrough = self.make_sim(
            path, coop_topology(num_proxies=2, admit_remote_hits=False)
        ).run()
        # pass-through serving: the repeat misses locally and re-probes
        assert passthrough.metrics.remote_hits == 2
        assert passthrough.metrics.hits == 0
        assert passthrough.peer_fetches == 2


class TestFetchTableIntegration(TraceCase):
    def test_request_joins_in_flight_remote_resolution(self, tmp_path):
        """Edge case: a second request lands while the first is still
        probing (or transferring) — it joins the pending ``remote`` entry
        instead of racing a duplicate probe/transfer."""
        ring = HashRing(2)
        [item] = items_owned_by(ring, 1)
        records = [
            TraceRecord(time=1.0, client=1, item=item, size=4.0),
            # two requests 0.05 apart; the probe alone takes 0.2
            TraceRecord(time=10.0, client=0, item=item, size=4.0),
            TraceRecord(time=10.05, client=0, item=item, size=4.0),
        ]
        path = self.write_trace(tmp_path, records)
        sim = self.make_sim(
            path,
            coop_topology(num_proxies=2, probe_latency=0.2,
                          peer_bandwidth=1.0),
        )
        out = sim.run()
        table = sim.nodes[0].fetch_tables[0]
        assert table.stats.remote_registered == 1
        assert table.stats.joins == 1
        assert out.metrics.remote_probes == 1  # ONE probe for both
        assert out.peer_fetches == 1           # ONE transfer for both
        assert out.metrics.requests == 3
        assert len(table) == 0  # everything resolved

    def test_remote_probe_races_pending_demand_fetch(self, tmp_path):
        """Edge case from the issue: the cooperative path and the plain
        demand path share one table, so a demand fetch pending when a
        re-request arrives is joined — cooperation never double-fetches
        an item the node is already pulling from the origin."""
        ring = HashRing(2)
        # item owned by the requester's own node: miss takes the PLAIN
        # demand path (owner==self) even with cooperation on
        [mine] = items_owned_by(ring, 0)
        records = [
            # big item at bandwidth 1.0: the demand fetch takes ~4s
            TraceRecord(time=1.0, client=0, item=mine, size=4.0),
            # re-request mid-demand-flight: must join, not re-probe
            TraceRecord(time=2.0, client=0, item=mine, size=4.0),
        ]
        path = self.write_trace(tmp_path, records)
        sim = self.make_sim(
            path, coop_topology(num_proxies=2, routing="client-affinity")
        )
        out = sim.run()
        table = sim.nodes[0].fetch_tables[0]
        assert table.stats.demand_registered == 1
        assert table.stats.remote_registered == 0
        assert table.stats.joins == 1
        assert out.link_demand_fetches == 1
        assert out.metrics.remote_probes == 0
        assert out.metrics.requests == 2

    def test_probe_checks_holders_at_arrival_time(self, tmp_path):
        # The holder evicts the item while the probe is in flight: the
        # probe must miss (peer caches are consulted at probe ARRIVAL).
        ring = HashRing(2)
        [item] = items_owned_by(ring, 1)
        records = [
            TraceRecord(time=1.0, client=1, item=item, size=1.0),
            TraceRecord(time=10.0, client=0, item=item, size=1.0),
        ]
        path = self.write_trace(tmp_path, records)
        sim = self.make_sim(
            path,
            coop_topology(num_proxies=2, probe_latency=0.5),
        )

        # evict the item from client 1's cache mid-probe (t=10.25)
        sim.env.call_at(10.25, lambda event: sim.nodes[1].caches[0].remove(item))
        out = sim.run()
        assert out.metrics.remote_probes == 1
        assert out.metrics.remote_hits == 0
        assert out.peer_fetches == 0
        assert out.link_demand_fetches == 2  # fallback paid the origin


class TestProbeTargets:
    def test_owner_probe_targets(self):
        sim = Simulation(
            shard_config(topology=coop_topology(num_proxies=3))
        )
        ring = sim.ring
        for item in range(50):
            owner = ring.node_of(item)
            for node in sim.nodes:
                targets = sim.probe_targets(node, item)
                if owner == node.node_id:
                    assert targets == ()
                else:
                    assert [t.node_id for t in targets] == [owner]

    def test_broadcast_targets_owner_first_then_id_order(self):
        sim = Simulation(
            shard_config(
                topology=coop_topology(num_proxies=4, mode="broadcast")
            )
        )
        ring = sim.ring
        for item in range(50):
            owner = ring.node_of(item)
            for node in sim.nodes:
                ids = [t.node_id for t in sim.probe_targets(node, item)]
                assert node.node_id not in ids
                expected_rest = [
                    n for n in range(4) if n not in (owner, node.node_id)
                ]
                if owner == node.node_id:
                    assert ids == expected_rest
                else:
                    assert ids == [owner] + expected_rest

    def test_routing_and_cooperation_share_one_ring(self):
        sim = Simulation(
            shard_config(topology=coop_topology(num_proxies=3))
        )
        # item-hash routing and the probe ring must agree on owners
        for item in range(50):
            owner = sim.ring.node_of(item)
            assert sim.route(0, item).node_id == owner
            assert sim.config.topology.owner_of(item) == owner

    def test_peer_serve_without_peer_link_raises(self):
        sim = Simulation(shard_config(topology=TopologyConfig(num_proxies=2)))
        with pytest.raises(SimulationError, match="peer link"):
            sim.nodes[0].peer_serve(1, client=0)


class TestCounterAggregation:
    def test_remote_counters_aggregate_exactly(self):
        out = run_simulation(
            shard_config(
                topology=coop_topology(num_proxies=3, mode="broadcast")
            )
        )
        m = out.metrics
        assert m.remote_probes > 0
        assert m.remote_hits > 0
        assert m.remote_probes == sum(
            s.metrics.remote_probes for s in out.per_proxy
        )
        assert m.remote_hits == sum(
            s.metrics.remote_hits for s in out.per_proxy
        )
        assert out.peer_fetches == sum(s.peer_fetches for s in out.per_proxy)
        assert out.peer_bytes == sum(s.peer_bytes for s in out.per_proxy)
        assert m.remote_hits <= m.remote_probes
        assert 0.0 < out.peer_traffic_share < 1.0

    def test_cooperation_is_deterministic(self):
        config = shard_config(
            topology=coop_topology(num_proxies=3, mode="owner-probe")
        )
        a = run_simulation(config)
        b = run_simulation(config)
        for field in dataclasses.fields(a.metrics):
            assert getattr(a.metrics, field.name) == getattr(
                b.metrics, field.name
            ), field.name
        assert a.peer_bytes == b.peer_bytes

    def test_cooperation_relieves_the_origin(self):
        topo_none = coop_topology(num_proxies=3, mode="none")
        topo_coop = coop_topology(num_proxies=3, mode="broadcast")
        isolated = run_simulation(shard_config(topology=topo_none))
        coop = run_simulation(shard_config(topology=topo_coop))
        assert coop.metrics.remote_hits > 0
        # remote hits replace origin transfers: strictly fewer origin bytes
        assert (
            coop.link_demand_bytes + coop.link_prefetch_bytes
            < isolated.link_demand_bytes + isolated.link_prefetch_bytes
        )


class TestCooperationValidation:
    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            CooperationConfig(mode="telepathy")

    def test_modes_registry(self):
        assert set(COOPERATION_MODES) == {"none", "owner-probe", "broadcast"}

    def test_bad_peer_bandwidth(self):
        with pytest.raises(ConfigurationError):
            CooperationConfig(peer_bandwidth=0.0)

    def test_bad_probe_latency(self):
        with pytest.raises(ConfigurationError):
            CooperationConfig(probe_latency=-0.1)

    def test_topology_rejects_non_config(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(cooperation="owner-probe")

    def test_topology_accepts_mapping(self):
        # JSON round trips decompose the nested dataclass into a dict
        topo = TopologyConfig(
            num_proxies=2, cooperation={"mode": "broadcast"}
        )
        assert isinstance(topo.cooperation, CooperationConfig)
        assert topo.cooperation.mode == "broadcast"
        assert topo.cooperation.enabled

    def test_enabled_property(self):
        assert not CooperationConfig().enabled
        assert CooperationConfig(mode="owner-probe").enabled


class TestScenarioHash:
    def test_cooperation_changes_the_scenario_hash(self):
        from repro.sim.sweep import scenario_hash

        base = shard_config(topology=coop_topology(num_proxies=3, mode="none"))
        coop = shard_config(
            topology=coop_topology(num_proxies=3, mode="owner-probe")
        )
        knob = shard_config(
            topology=coop_topology(
                num_proxies=3, mode="owner-probe", admit_remote_hits=False
            )
        )
        hashes = {
            scenario_hash(c, replications=2, base_seed=0)
            for c in (base, coop, knob)
        }
        assert len(hashes) == 3
