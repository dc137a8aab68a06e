"""Tests for the multi-proxy topology layer (PR 4).

Four groups:

* **seed bit-identity** — the default topology (one proxy, client-affinity)
  reproduces the pre-refactor monolithic simulation bit-identically; the
  expected values below were generated by the seed code *before* the node
  refactor and are hard-coded, so any perturbation of the single-proxy
  request path fails loudly;
* **unified fetch table semantics** — the one *intended* behaviour change:
  an item already being demand-fetched is never fetched a second time,
  whether a policy plans a prefetch for it (pre-refactor: duplicate
  prefetch transfer) or the same client re-requests it mid-flight
  (pre-refactor: duplicate demand transfer);
* **sharding invariants** — per-proxy metric shards aggregate exactly to
  the global output, homing/routing behave as configured;
* **config validation** — TopologyConfig rejects nonsense.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.network.topology import HashRing, TopologyConfig
from repro.prefetch import PrefetchController
from repro.sim import SimulationConfig, Simulation, run_simulation
from repro.sim.metrics import finalize_aggregate
from repro.workload import TraceRecord, WorkloadSpec, save_trace


def seed_config(**overrides):
    """The pinned scenario: the seed code's metrics for it are hard-coded
    in PINNED_SEED_METRICS below."""
    defaults = dict(
        workload=WorkloadSpec(
            num_clients=2,
            request_rate=20.0,
            catalog_size=100,
            zipf_exponent=0.9,
            follow_probability=0.7,
        ),
        bandwidth=50.0,
        cache_capacity=20,
        predictor="true-distribution",
        policy="threshold-dynamic",
        duration=80.0,
        warmup=10.0,
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


#: generated by the pre-refactor (PR 3) Simulation on seed_config() —
#: full float precision, never recomputed
PINNED_SEED_METRICS = {
    "duration": 70.0,
    "requests": 1349,
    "hits": 981,
    "mean_access_time": 0.007945856147860482,
    "mean_demand_retrieval_time": 0.033385483122026924,
    "mean_prefetch_retrieval_time": 0.025591407803069982,
    "utilization": 0.2884422467586232,
    "retrieval_time_per_request": 0.020689801822667213,
    "prefetches_issued": 741,
    "prefetches_per_request": 0.5492957746478874,
    "tagged_hits": 477,
}
PINNED_SEED_LINK = {
    "link_demand_fetches": 313,
    "link_prefetch_fetches": 854,
    "link_demand_bytes": 313.0,
    "link_prefetch_bytes": 854.0,
}


class TestSeedBitIdentity:
    def test_default_topology_reproduces_seed_exactly(self):
        out = run_simulation(seed_config())
        for name, expected in PINNED_SEED_METRICS.items():
            assert getattr(out.metrics, name) == expected, name
        for name, expected in PINNED_SEED_LINK.items():
            assert getattr(out, name) == expected, name

    def test_explicit_single_proxy_equals_default(self):
        default = run_simulation(seed_config())
        explicit = run_simulation(
            seed_config(topology=TopologyConfig(num_proxies=1))
        )
        for field in dataclasses.fields(default.metrics):
            assert getattr(default.metrics, field.name) == getattr(
                explicit.metrics, field.name
            ), field.name

    def test_single_proxy_shard_is_the_global_output(self):
        out = run_simulation(seed_config())
        assert len(out.per_proxy) == 1
        shard = out.per_proxy[0]
        assert shard.node_id == 0
        assert shard.clients == (0, 1)
        assert shard.metrics == out.metrics
        assert shard.link_demand_fetches == out.link_demand_fetches


class TestUnifiedFetchTable:
    """The intended semantic change: demand fetches are visible as pending.

    Both tests fail on the pre-refactor request path (which tracked only
    prefetches in its ``pending`` map).
    """

    def write_trace(self, tmp_path, records):
        path = tmp_path / "trace.jsonl"
        save_trace(records, path)
        return path

    def make_sim(self, trace_path, **overrides):
        defaults = dict(
            workload=WorkloadSpec(num_clients=1, request_rate=10.0,
                                  catalog_size=50),
            bandwidth=1.0,
            cache_capacity=10,
            predictor="markov",
            policy="none",
            duration=30.0,
            warmup=0.0,
            seed=1,
            trace_path=str(trace_path),
        )
        defaults.update(overrides)
        return Simulation(SimulationConfig(**defaults))

    def scripted_plan(self, monkeypatch, script):
        calls = {"n": 0}

        def plan(controller, *, now, load):
            calls["n"] += 1
            return list(script.get(calls["n"], []))

        monkeypatch.setattr(PrefetchController, "_plan", plan)
        return calls

    def test_prefetch_planned_for_demand_pending_item_is_skipped(
        self, tmp_path, monkeypatch
    ):
        # Item 9 is big (size 5 at bandwidth 1): the request at t=1 starts
        # a ~5s demand fetch.  The request for item 1 at t=2 completes
        # quickly — its plan runs first (plan call 1, at ~t=2.02) and
        # selects 9, which is still being demand-fetched.  Pre-refactor the
        # plan spawned a full duplicate prefetch transfer (pending only
        # tracked prefetches); now the planned prefetch is superseded by
        # the pending demand fetch: no prefetch transfer at all, and the
        # issue count is undone.
        path = self.write_trace(tmp_path, [
            TraceRecord(time=1.0, client=0, item=9, size=5.0),
            TraceRecord(time=2.0, client=0, item=1, size=0.01),
            TraceRecord(time=15.0, client=0, item=2, size=0.01),
        ])
        sim = self.make_sim(path)
        self.scripted_plan(monkeypatch, {1: [(9, 1.0)]})
        out = sim.run()
        assert out.metrics.requests == 3
        assert out.link_prefetch_fetches == 0  # pre-refactor: 1
        assert out.metrics.prefetches_issued == 0  # superseded, undone
        assert out.link_demand_fetches == 3  # 9, 1 and 2 — no duplicates

    def test_demand_request_joins_pending_demand_fetch(self, tmp_path):
        # The same client requests item 9 again while its first demand
        # fetch is still in flight.  Pre-refactor the second request paid
        # for an independent duplicate transfer; now it joins the pending
        # one: a single demand transfer serves both requests.
        path = self.write_trace(tmp_path, [
            TraceRecord(time=1.0, client=0, item=9, size=5.0),
            TraceRecord(time=2.0, client=0, item=9, size=5.0),
            TraceRecord(time=20.0, client=0, item=2, size=0.01),
        ])
        sim = self.make_sim(path)
        out = sim.run()
        assert out.metrics.requests == 3
        assert out.link_demand_fetches == 2  # pre-refactor: 3
        # the joiner still measured a real (shorter) access time
        assert out.metrics.mean_access_time > 0.0

    def test_controller_plan_sees_demand_pending_items(self):
        # Unit-level: with a fetch table attached, a policy that would
        # otherwise select a demand-pending item never sees it as eligible.
        from repro.cache.lru import LRUCache
        from repro.des.environment import Environment
        from repro.predictors.frequency import FrequencyPredictor
        from repro.prefetch import PrefetchAllPolicy, PrefetchController
        from repro.sim.node import FetchTable

        env = Environment()
        table = FetchTable(env)
        predictor = FrequencyPredictor()
        controller = PrefetchController(
            predictor=predictor,
            policy=PrefetchAllPolicy(),
            cache=LRUCache(4),
            bandwidth=10.0,
            fetch_table=table,
        )
        predictor.record("a")
        predictor.record("b")
        table.register("a", "demand")
        chosen = [item for item, _p in controller.plan(now=1.0)]
        assert "a" not in chosen
        assert "b" in chosen


def shard_config(**overrides):
    defaults = dict(
        workload=WorkloadSpec(
            num_clients=6,
            request_rate=30.0,
            catalog_size=150,
            zipf_exponent=0.9,
            follow_probability=0.6,
        ),
        bandwidth=25.0,
        cache_capacity=24,
        predictor="true-distribution",
        policy="threshold-dynamic",
        duration=60.0,
        warmup=10.0,
        seed=13,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestShardAggregation:
    def test_shards_aggregate_exactly_to_global(self):
        out = run_simulation(
            shard_config(topology=TopologyConfig(num_proxies=3))
        )
        assert len(out.per_proxy) == 3
        shards = out.per_proxy
        m = out.metrics
        # Conservation: counts and byte totals sum exactly.
        assert m.requests == sum(s.metrics.requests for s in shards)
        assert m.hits == sum(s.metrics.hits for s in shards)
        assert m.tagged_hits == sum(s.metrics.tagged_hits for s in shards)
        assert m.prefetches_issued == sum(
            s.metrics.prefetches_issued for s in shards
        )
        assert out.link_demand_fetches == sum(
            s.link_demand_fetches for s in shards
        )
        assert out.link_prefetch_fetches == sum(
            s.link_prefetch_fetches for s in shards
        )
        assert out.link_demand_bytes == sum(s.link_demand_bytes for s in shards)
        assert out.link_prefetch_bytes == sum(
            s.link_prefetch_bytes for s in shards
        )
        # Weighted means recombine (up to float summation order).
        access_sum = sum(
            s.metrics.mean_access_time * s.metrics.requests for s in shards
        )
        assert m.mean_access_time == pytest.approx(access_sum / m.requests)
        rho = sum(s.metrics.utilization for s in shards) / len(shards)
        assert m.utilization == pytest.approx(rho)
        retrieval = sum(
            s.metrics.retrieval_time_per_request * s.metrics.requests
            for s in shards
        )
        assert m.retrieval_time_per_request == pytest.approx(
            retrieval / m.requests
        )

    def test_finalize_aggregate_matches_output_metrics(self):
        sim = Simulation(shard_config(topology=TopologyConfig(num_proxies=3)))
        out = sim.run()
        recombined = finalize_aggregate([n.collector for n in sim.nodes])
        for field in dataclasses.fields(recombined):
            assert getattr(recombined, field.name) == getattr(
                out.metrics, field.name
            ), field.name

    def test_client_affinity_homing(self):
        sim = Simulation(shard_config(topology=TopologyConfig(num_proxies=3)))
        assert [n.clients for n in sim.nodes] == [[0, 3], [1, 4], [2, 5]]
        out = sim.run()
        assert [s.clients for s in out.per_proxy] == [(0, 3), (1, 4), (2, 5)]
        # client-affinity: every node carried some traffic
        assert all(s.link_demand_bytes > 0 for s in out.per_proxy)

    def test_item_hash_routing_shards_the_catalogue(self):
        topo = TopologyConfig(num_proxies=3, routing="item-hash")
        sim = Simulation(shard_config(topology=topo))
        # Routing is by item ownership: a fetch from any client for item i
        # resolves to the ring's owner of i, not the client's home.
        ring = topo.build_ring()
        for client in range(6):
            for item in (0, 7, 42, 149):
                assert sim.route(client, item).node_id == ring.node_of(item)
        owners = {ring.node_of(item) for item in range(150)}
        assert owners == {0, 1, 2}  # the catalogue spreads over all shards
        out = sim.run()
        assert all(
            s.link_demand_bytes + s.link_prefetch_bytes > 0
            for s in out.per_proxy
        )
        # Deterministic: an identical run shards traffic identically.
        again = run_simulation(shard_config(topology=topo))
        assert [
            (s.link_demand_bytes, s.link_prefetch_bytes) for s in out.per_proxy
        ] == [
            (s.link_demand_bytes, s.link_prefetch_bytes)
            for s in again.per_proxy
        ]

    def test_per_proxy_overrides_apply(self):
        topo = TopologyConfig(
            num_proxies=2,
            bandwidth_overrides={1: 5.0},
            cache_capacity_overrides={0: 8},
        )
        sim = Simulation(shard_config(topology=topo))
        assert sim.nodes[0].bandwidth == 25.0
        assert sim.nodes[1].bandwidth == 5.0
        assert sim.nodes[0].link.bandwidth == 25.0
        assert sim.nodes[1].link.bandwidth == 5.0
        assert sim.nodes[0].cache_capacity == 8
        assert all(c.capacity_items == 8 for c in sim.nodes[0].caches)
        assert all(c.capacity_items == 24 for c in sim.nodes[1].caches)
        out = sim.run()
        assert out.per_proxy[1].bandwidth == 5.0
        # the thin uplink runs proportionally hotter
        assert (
            out.per_proxy[1].metrics.utilization
            > out.per_proxy[0].metrics.utilization
        )

    def test_sharding_reduces_access_time_under_load(self):
        one = run_simulation(shard_config())
        three = run_simulation(
            shard_config(topology=TopologyConfig(num_proxies=3))
        )
        assert (
            three.metrics.mean_access_time < one.metrics.mean_access_time
        )
        assert three.metrics.utilization < one.metrics.utilization

    def test_more_proxies_than_clients_leaves_idle_nodes(self):
        out = run_simulation(
            shard_config(
                workload=WorkloadSpec(num_clients=2, request_rate=10.0,
                                      catalog_size=100),
                topology=TopologyConfig(num_proxies=4),
            )
        )
        assert len(out.per_proxy) == 4
        assert out.per_proxy[2].metrics.requests == 0
        assert out.metrics.requests == sum(
            s.metrics.requests for s in out.per_proxy
        )


class TestPerNodePolicyParameters:
    def test_static_threshold_sees_per_node_rate(self):
        # The §3 static rule computes rho from (bandwidth, lambda): each
        # node's policy must see its OWN offered rate, not the tier
        # aggregate, or the estimate inflates num_proxies-fold.
        from repro.core.parameters import SystemParameters
        from repro.prefetch.threshold import StaticThresholdPolicy

        config = shard_config(
            policy="threshold-static",
            assumed_hit_ratio=0.3,
            topology=TopologyConfig(num_proxies=3),
        )
        sim = Simulation(config)
        spec = config.workload
        # 6 clients over 3 nodes: each node carries 2 x (lambda/6)
        expected = StaticThresholdPolicy(
            SystemParameters(
                bandwidth=config.bandwidth,
                request_rate=spec.request_rate / 3,
                mean_item_size=spec.mean_item_size,
                hit_ratio=0.3,
            )
        ).p_th
        assert all(c.policy.p_th == expected for c in sim.clients)
        # one proxy keeps the spec's exact aggregate (the seed behaviour)
        single = Simulation(
            shard_config(policy="threshold-static", assumed_hit_ratio=0.3)
        )
        aggregate = StaticThresholdPolicy(
            SystemParameters(
                bandwidth=config.bandwidth,
                request_rate=spec.request_rate,
                mean_item_size=spec.mean_item_size,
                hit_ratio=0.3,
            )
        ).p_th
        assert all(c.policy.p_th == aggregate for c in single.clients)


class TestPlanningLoad:
    def test_item_hash_planners_see_the_tier_mean(self):
        # Under item-hash routing a planned prefetch traverses the item
        # owner's link, so the throttle must not read the home link alone.
        topo = TopologyConfig(num_proxies=3, routing="item-hash")
        sim = Simulation(shard_config(topology=topo))
        for i, node in enumerate(sim.nodes):
            node.link.offered_load = lambda i=i: float(i)  # loads 0, 1, 2
        assert all(sim.planning_load(n) == pytest.approx(1.0) for n in sim.nodes)

    def test_client_affinity_planners_see_their_own_link(self):
        sim = Simulation(shard_config(topology=TopologyConfig(num_proxies=3)))
        for i, node in enumerate(sim.nodes):
            node.link.offered_load = lambda i=i: float(i)
        assert [sim.planning_load(n) for n in sim.nodes] == [0.0, 1.0, 2.0]


class TestOriginSubstitution:
    def test_setter_rebinds_every_node(self):
        sim = Simulation(shard_config(topology=TopologyConfig(num_proxies=3)))
        replacement = sim.origin.with_link(sim.nodes[0].link)
        sim.origin = replacement
        assert sim.nodes[0].origin is replacement
        # nodes 1+ get views of the NEW origin, through their own links
        for node in sim.nodes[1:]:
            assert node.origin._size_map is replacement._size_map
            assert node.origin.link is node.link

    def test_setter_rejects_unviewable_substitute_on_a_tier(self):
        from repro.errors import SimulationError

        sim = Simulation(shard_config(topology=TopologyConfig(num_proxies=2)))
        with pytest.raises(SimulationError, match="with_link"):
            sim.origin = object()

    def test_single_proxy_accepts_any_substitute(self):
        sim = Simulation(shard_config())
        marker = object()
        sim.origin = marker
        assert sim.nodes[0].origin is marker


class TestHashRing:
    def test_stable_across_instances(self):
        a = HashRing(4)
        b = HashRing(4)
        assert [a.node_of(i) for i in range(200)] == [
            b.node_of(i) for i in range(200)
        ]

    def test_growth_remaps_only_a_fraction(self):
        small = HashRing(4)
        grown = HashRing(5)
        items = range(2000)
        moved = sum(1 for i in items if small.node_of(i) != grown.node_of(i))
        # consistent hashing: ~1/5 of items move, never a full reshuffle
        assert moved / 2000 < 0.45

    def test_reasonable_balance(self):
        ring = HashRing(4, vnodes=64)
        counts = [0, 0, 0, 0]
        for i in range(4000):
            counts[ring.node_of(i)] += 1
        assert min(counts) > 0.4 * (4000 / 4)


class TestFetchTableFuzz:
    """Random demand/prefetch/remote/join/complete/fail interleavings.

    Pins the table's docstring invariants under adversarial schedules:
    every registered fetch resolves exactly once, every joiner wakes
    exactly once (success or failure — never orphaned), an item never has
    two concurrent pending entries, resolving an absent item is a no-op,
    and an entry has a join event iff someone joined it (resolving one
    nobody joined schedules nothing).  The invariants are kind-blind, so the cooperative ``remote``
    kind (PR 5) is fuzzed through the same schedule as the original two.
    Pre-refactor, the equivalent ``pending`` dict in the monolith
    violated the first two under exactly these interleavings (overwritten
    entries orphaned joiners; duplicate fetches double-counted n(F))."""

    def _run_fuzz(self, seed):
        import random

        from repro.des.environment import Environment
        from repro.sim.node import FetchTable

        rng = random.Random(seed)
        env = Environment()
        table = FetchTable(env)
        items = [f"item{i}" for i in range(6)]
        woken = []  # (waiter id, outcome)
        spawned = {"waiters": 0}
        joined = set()  # pending items someone joined

        def check_join_events():
            for pending in table.pending_items():
                has_event = table.get(pending).event is not None
                assert has_event == (pending in joined), pending

        def resolve(item, outcome):
            before = env._eid
            if outcome is None:
                table.complete(item, ("payload", item))
            else:
                table.fail(item, outcome)
            if item not in joined:
                assert env._eid == before  # no joiner: no table event
            joined.discard(item)

        def waiter(item, wid):
            if item not in table:
                woken.append((wid, "gone"))
                return
            joined.add(item)
            try:
                result = yield table.join(item)
            except RuntimeError:
                woken.append((wid, "failed"))
            else:
                assert result == ("payload", item)
                woken.append((wid, "ok"))

        def driver():
            for _step in range(400):
                yield env.timeout(rng.uniform(0.01, 0.1))
                item = rng.choice(items)
                op = rng.random()
                if item in table:
                    if op < 0.40:
                        resolve(item, None)
                    elif op < 0.65:
                        resolve(item, RuntimeError(f"fetch {item} died"))
                    else:
                        spawned["waiters"] += 1
                        env.start(waiter(item, spawned["waiters"]))
                else:
                    if op < 0.35:
                        table.register(item, "demand")
                    elif op < 0.60:
                        table.register(item, "prefetch")
                    elif op < 0.80:
                        table.register(item, "remote")
                    else:
                        # resolving an item with no pending fetch: no-op
                        before = (
                            table.stats.completions,
                            table.stats.failures,
                        )
                        table.complete(item, None)
                        table.fail(item, RuntimeError("noop"))
                        assert (
                            table.stats.completions,
                            table.stats.failures,
                        ) == before
                check_join_events()
            # drain: every still-pending fetch resolves before shutdown
            yield env.timeout(0.01)
            check_join_events()
            for item in list(table.pending_items()):
                if rng.random() < 0.5:
                    resolve(item, None)
                else:
                    resolve(item, RuntimeError("shutdown"))

        env.start(driver())
        env.run()
        return table, woken, spawned["waiters"]

    @pytest.mark.parametrize("seed", range(12))
    def test_random_interleavings(self, seed):
        table, woken, waiters = self._run_fuzz(seed)
        stats = table.stats
        # the schedule actually exercised the machinery — all three kinds
        assert stats.registered > 50
        assert stats.demand_registered > 0
        assert stats.prefetch_registered > 0
        assert stats.remote_registered > 0
        assert stats.failures > 0 and stats.completions > 0
        # every registered fetch resolved exactly once; none left pending
        assert len(table) == 0
        assert stats.resolved == stats.registered
        assert stats.registered == (
            stats.demand_registered
            + stats.prefetch_registered
            + stats.remote_registered
        )
        # every waiter woke exactly once — no orphans, no double wakes
        assert len(woken) == waiters
        assert len({wid for wid, _ in woken}) == waiters
        # every *join* was paid back with a wake (ok or failure fallback)
        joined = [w for w in woken if w[1] in ("ok", "failed")]
        assert stats.joins == len(joined)

    def test_duplicate_register_raises(self):
        from repro.des.environment import Environment
        from repro.errors import SimulationError
        from repro.sim.node import FetchTable

        table = FetchTable(Environment())
        table.register("x", "demand")
        for kind in ("demand", "prefetch"):
            with pytest.raises(SimulationError):
                table.register("x", kind)

    def test_unknown_kind_raises(self):
        from repro.des.environment import Environment
        from repro.errors import SimulationError
        from repro.sim.node import FetchTable

        with pytest.raises(SimulationError):
            FetchTable(Environment()).register("x", "telepathic")

    def test_unjoined_failure_does_not_crash_the_run(self):
        # A failed fetch nobody waits on must be dropped untriggered:
        # failing the event would crash env.run() through the
        # unhandled-failure check.
        from repro.des.environment import Environment
        from repro.sim.node import FetchTable

        env = Environment()
        table = FetchTable(env)

        def driver():
            table.register("x", "prefetch")
            yield env.timeout(1.0)
            table.fail("x", RuntimeError("origin died"))
            yield env.timeout(1.0)

        env.start(driver())
        env.run()  # does not raise
        assert table.stats.failures == 1
        assert len(table) == 0


class TestFaultInjectionFuzz:
    """FetchTable + byte-accounting invariants under random node kills.

    PR 10's fault layer drains a node's links mid-run: every generator
    waiting on them takes a NodeFailure and retries through the updated
    routing under its *original* FetchTable entry.  These runs kill (and
    sometimes revive) a random node at random instants and pin the
    invariants the failover path must preserve:

    * the run completes — no NodeFailure ever escapes to ``env.run()``;
    * per-table conservation: ``resolved + still-pending == registered``
      for every client's table (a double-registered failover would
      overshoot ``registered``; an orphaned joiner would stall as a
      forever-pending entry on an item whose fetch already resolved);
    * exact byte accounting: per-shard link counters sum to the run's
      totals and the aggregated metrics equal the per-node finalization,
      failover retries included (issue-time accounting — a retried fetch
      legitimately appears on both the dead link and the failover link);
    * the KPI timeline is cumulative-monotone and tracks ring membership.
    """

    def _fuzz_config(self, rng):
        from repro.network.topology import CooperationConfig
        from repro.sim.faults import FaultEvent, FaultSchedule

        duration = 40.0
        kill_t = rng.uniform(6.0, duration - 10.0)
        victim = rng.randrange(0, 3)
        events = [
            FaultEvent(
                time=kill_t,
                kind=rng.choice(("proxy-fail", "ring-shrink")),
                node=victim,
            )
        ]
        if rng.random() < 0.7:
            events.append(
                FaultEvent(
                    time=rng.uniform(kill_t + 1.0, duration - 1.0),
                    kind=rng.choice(("proxy-recover", "ring-grow")),
                    node=victim,
                )
            )
        schedule = FaultSchedule(
            events=tuple(events),
            migration=rng.choice(("cold", "cooperative")),
        )
        return SimulationConfig(
            workload=WorkloadSpec(
                num_clients=12,
                request_rate=30.0,
                catalog_size=80,
                zipf_exponent=0.9,
                follow_probability=0.7,
            ),
            topology=TopologyConfig(
                num_proxies=3,
                routing=rng.choice(("item-hash", "client-affinity")),
                cooperation=CooperationConfig(mode="owner-probe"),
            ),
            bandwidth=20.0,
            cache_capacity=12,
            predictor="markov",
            policy="threshold-dynamic",
            duration=duration,
            warmup=5.0,
            seed=rng.randrange(1_000_000),
            faults=schedule,
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_random_node_kills_preserve_invariants(self, seed):
        import random

        rng = random.Random(seed)
        config = self._fuzz_config(rng)
        sim = Simulation(config)
        out = sim.run()  # completes: no unhandled NodeFailure

        for node in sim.nodes:
            for table in node.fetch_tables.values():
                stats = table.stats
                assert stats.resolved + len(table) == stats.registered
                assert stats.resolved == stats.completions + stats.failures
        # exact shard-to-total byte/fetch accounting across the failover
        assert out.link_demand_bytes == sum(
            s.link_demand_bytes for s in out.per_proxy
        )
        assert out.link_prefetch_bytes == sum(
            s.link_prefetch_bytes for s in out.per_proxy
        )
        assert out.link_demand_fetches == sum(
            s.link_demand_fetches for s in out.per_proxy
        )
        assert out.peer_bytes == sum(s.peer_bytes for s in out.per_proxy)
        agg = finalize_aggregate([n.collector for n in sim.nodes])
        assert agg == out.metrics

        schedule = config.faults
        timeline = out.kpis.fault_timeline
        assert len(timeline) == len(schedule.events) + 1  # plus the end row
        alive = set(range(3))
        prev = None
        for row, ev in zip(timeline, schedule.events):
            assert row.time == ev.time and row.kind == ev.kind
            if ev.removes:
                alive.discard(ev.node)
            else:
                alive.add(ev.node)
            assert row.alive == tuple(sorted(alive))
            if prev is not None:
                assert row.requests >= prev.requests
                assert row.hits >= prev.hits
                assert row.access_total >= prev.access_total
                assert row.origin_bytes >= prev.origin_bytes
            prev = row
        end = timeline[-1]
        assert end.kind == "end" and end.time == config.duration
        assert end.requests == out.metrics.requests
        assert end.hits == out.metrics.hits


class TestTopologyValidation:
    def test_bad_num_proxies(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(num_proxies=0)

    def test_bad_routing(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(routing="telepathy")

    def test_override_for_unknown_proxy(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(num_proxies=2, bandwidth_overrides={5: 10.0})

    def test_non_positive_override(self):
        with pytest.raises(ConfigurationError):
            TopologyConfig(num_proxies=2, cache_capacity_overrides={0: 0})

    def test_string_keys_normalised(self):
        topo = TopologyConfig(num_proxies=2, bandwidth_overrides={"1": 9.0})
        assert topo.node_bandwidth(1, 25.0) == 9.0

    def test_config_rejects_non_topology(self):
        with pytest.raises(ConfigurationError):
            seed_config(topology={"num_proxies": 2})
