"""Tests for the shared link, origin server and hash-ring elasticity."""

import random

import numpy as np
import pytest

from repro.des import Environment
from repro.errors import ConfigurationError, ParameterError
from repro.network import FetchKind, FetchRequest, FetchResult, OriginServer, SharedLink
from repro.network.topology import HashRing
from repro.workload.sizes import ExponentialSize


class TestSharedLink:
    def test_single_fetch_timing(self):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)

        times = []

        def proc(env):
            result = yield link.fetch(item="x", size=5.0, kind="demand", client=0)
            times.append(result.retrieval_time)

        env.start(proc(env))
        env.run()
        assert times == [pytest.approx(0.5)]

    def test_concurrent_fetches_share_bandwidth(self):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)
        times = []

        def proc(env):
            result = yield link.fetch(item="x", size=5.0, kind="demand", client=0)
            times.append(result.retrieval_time)

        env.start(proc(env))
        env.start(proc(env))
        env.run()
        assert times == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_per_kind_accounting(self):
        # The link counts bytes and fetches per kind; retrieval times are
        # the metrics collector's, which the request path feeds.
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)

        def proc(env):
            yield link.fetch(item="a", size=2.0, kind="demand", client=0)
            yield link.fetch(item="b", size=3.0, kind="prefetch", client=0)
            yield link.fetch(item="c", size=4.0, kind=FetchKind.PEER, client=0)

        env.start(proc(env))
        env.run()
        assert link.demand_bytes == 2.0 and link.prefetch_bytes == 3.0
        assert link.peer_bytes == 4.0
        assert link.demand_fetches == 1 and link.prefetch_fetches == 1
        assert link.peer_fetches == 1

    @pytest.mark.parametrize("kind", ["bulk", "Demand", "DEMAND", None, ["demand"]])
    def test_unknown_kind_raises_before_anything_is_counted(self, kind):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)
        with pytest.raises(ValueError, match="not a valid FetchKind"):
            link.fetch(item="a", size=2.0, kind=kind, client=0)
        assert link.offered_load(horizon=1.0) == 0.0
        assert (link.demand_fetches, link.prefetch_fetches, link.peer_fetches) == (0, 0, 0)
        assert link.server.num_active == 0 and len(env) == 0

    def test_kind_members_and_values_count_alike(self):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)
        results = []

        def proc(env):
            for kind in ("prefetch", FetchKind.PREFETCH):
                results.append((yield link.fetch(item="a", size=1.0, kind=kind, client=0)))

        env.start(proc(env))
        env.run()
        assert link.prefetch_fetches == 2 and link.demand_fetches == 0
        assert [r.request.kind for r in results] == [FetchKind.PREFETCH] * 2
        assert all(type(r.request.kind) is FetchKind for r in results)

    def test_offered_load(self):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)

        def proc(env):
            yield link.fetch(item="a", size=5.0, kind="demand", client=0)
            yield env.timeout(0.5)

        env.start(proc(env))
        env.run()
        assert link.offered_load() == pytest.approx(5.0 / (10.0 * 1.0))

    def test_fetch_result_metadata(self):
        env = Environment()
        link = SharedLink(env, bandwidth=1.0)
        results = []

        def proc(env):
            r = yield link.fetch(item="it", size=1.0, kind="prefetch", client=7)
            results.append(r)

        env.start(proc(env))
        env.run()
        r = results[0]
        assert r.request.item == "it"
        assert r.request.client == 7
        assert r.request.kind is FetchKind.PREFETCH
        assert r.completed_at == pytest.approx(1.0)


class TestFetchRecords:
    def records(self):
        request = FetchRequest("it", 2.0, FetchKind.DEMAND, 3, 1.5)
        return request, FetchResult(request, 4.0)

    @pytest.mark.parametrize(
        "field", ["item", "size", "kind", "client", "issued_at"]
    )
    def test_request_fields_cannot_be_assigned(self, field):
        request, _result = self.records()
        with pytest.raises(AttributeError):
            setattr(request, field, 0)
        assert (request.item, request.size, request.kind) == ("it", 2.0, FetchKind.DEMAND)
        assert (request.client, request.issued_at) == (3, 1.5)

    @pytest.mark.parametrize("field", ["request", "completed_at"])
    def test_result_fields_cannot_be_assigned(self, field):
        request, result = self.records()
        with pytest.raises(AttributeError):
            setattr(result, field, 0)
        assert result.request is request and result.completed_at == 4.0

    def test_retrieval_time_is_completion_minus_issue(self):
        _request, result = self.records()
        assert result.retrieval_time == 2.5


class TestHashRingElasticity:
    """Minimal-disruption property of add_node/remove_node.

    The consistent-hash ring's whole point: a membership change may only
    move keys whose owner is the node that left (or the one that joined)
    — every other key's owner is untouched.  Fuzzed over 200+ randomized
    ring states (proxy counts, vnode counts, member subsets).
    """

    KEYS = [f"item-{i}" for i in range(120)] + list(range(120, 180))

    @staticmethod
    def _owners(ring):
        return {key: ring.node_of(key) for key in TestHashRingElasticity.KEYS}

    def _random_ring(self, rng):
        num_proxies = rng.randint(2, 10)
        vnodes = rng.choice([1, 4, 16, 64])
        members = sorted(
            rng.sample(range(num_proxies), rng.randint(2, num_proxies))
        )
        return HashRing(num_proxies, vnodes=vnodes, members=members)

    def test_remove_only_moves_departed_nodes_keys(self):
        rng = random.Random(0xF0)
        for _ in range(120):
            ring = self._random_ring(rng)
            before = self._owners(ring)
            victim = rng.choice(ring.members())
            ring.remove_node(victim)
            after = self._owners(ring)
            assert victim not in ring.members()
            for key, owner in before.items():
                if owner == victim:
                    assert after[key] != victim
                else:
                    assert after[key] == owner, key

    def test_add_only_moves_keys_to_the_joining_node(self):
        rng = random.Random(0xF1)
        for _ in range(120):
            ring = self._random_ring(rng)
            off_ring = sorted(
                set(range(ring.num_proxies)) - set(ring.members())
            )
            if not off_ring:
                continue
            joiner = rng.choice(off_ring)
            before = self._owners(ring)
            ring.add_node(joiner)
            after = self._owners(ring)
            assert joiner in ring.members()
            for key, owner in after.items():
                if owner != before[key]:
                    assert owner == joiner, key

    def test_mutated_ring_matches_fresh_build(self):
        """In-place mutation must land on the same tie-ordering as a
        from-scratch ring over the same membership (bit-identical owners)."""
        rng = random.Random(0xF2)
        for _ in range(60):
            ring = self._random_ring(rng)
            victim = rng.choice(ring.members())
            ring.remove_node(victim)
            fresh = HashRing(
                ring.num_proxies,
                vnodes=ring.vnodes,
                members=ring.members(),
            )
            assert self._owners(ring) == self._owners(fresh)
            ring.add_node(victim)
            restored = HashRing(
                ring.num_proxies,
                vnodes=ring.vnodes,
                members=ring.members(),
            )
            assert self._owners(ring) == self._owners(restored)

    def test_remove_then_add_round_trips(self):
        rng = random.Random(0xF3)
        for _ in range(40):
            ring = self._random_ring(rng)
            before = self._owners(ring)
            victim = rng.choice(ring.members())
            ring.remove_node(victim)
            ring.add_node(victim)
            assert self._owners(ring) == before

    def test_mutation_validation(self):
        ring = HashRing(3, members=[0, 1])
        with pytest.raises(ConfigurationError):
            ring.add_node(1)  # already a member
        with pytest.raises(ConfigurationError):
            ring.add_node(3)  # not provisioned
        with pytest.raises(ConfigurationError):
            ring.remove_node(2)  # not a member
        ring.remove_node(1)
        with pytest.raises(ConfigurationError):
            ring.remove_node(0)  # would empty the ring
        with pytest.raises(ConfigurationError):
            HashRing(3, members=[])
        with pytest.raises(ConfigurationError):
            HashRing(3, members=[0, 3])


class TestOriginServer:
    def test_static_size_map(self):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)
        origin = OriginServer(link, {"a": 2.0, "b": 4.0})
        assert origin.size_of("a") == 2.0
        with pytest.raises(ParameterError):
            origin.size_of("unknown")

    def test_rejects_nonpositive_sizes(self):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)
        with pytest.raises(ParameterError):
            OriginServer(link, {"a": 0.0})

    def test_distribution_sizes_are_stable(self):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)
        origin = OriginServer(
            link, ExponentialSize(1.0), rng=np.random.default_rng(0)
        )
        first = origin.size_of(42)
        assert origin.size_of(42) == first  # frozen after first sample

    def test_distribution_requires_rng(self):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)
        with pytest.raises(ParameterError):
            OriginServer(link, ExponentialSize(1.0))

    def test_fetch_counts_by_kind(self):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)
        origin = OriginServer(link, {"a": 1.0})

        def proc(env):
            yield origin.fetch("a", kind="demand", client=0)
            yield origin.fetch("a", kind="prefetch", client=0)

        env.start(proc(env))
        env.run()
        assert link.demand_fetches == 1 and link.demand_bytes == 1.0
        assert link.prefetch_fetches == 1 and link.prefetch_bytes == 1.0

    def test_unknown_kind_raises(self):
        env = Environment()
        link = SharedLink(env, bandwidth=10.0)
        origin = OriginServer(link, {"a": 1.0})
        with pytest.raises(ValueError, match="not a valid FetchKind"):
            origin.fetch("a", kind="speculative", client=0)
        assert link.demand_fetches == 0 and link.prefetch_fetches == 0
        assert link.server.num_active == 0 and len(env) == 0
