"""Integration tests for the full cache+predictor+policy system."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import SimulationConfig, run_simulation
from repro.sim.simulation import Simulation
from repro.workload.sessions import WorkloadSpec


def small_config(**overrides):
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
        predictor="markov",
        policy="none",
        duration=80.0,
        warmup=10.0,
        seed=7,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestBasicRuns:
    def test_no_prefetch_run_produces_metrics(self):
        out = run_simulation(small_config())
        m = out.metrics
        assert m.requests > 500
        assert 0.0 <= m.hit_ratio <= 1.0
        assert m.mean_access_time > 0.0
        assert m.prefetches_issued == 0
        assert out.link_prefetch_fetches == 0

    def test_reproducible_by_seed(self):
        import dataclasses
        import math

        a = run_simulation(small_config()).metrics
        b = run_simulation(small_config()).metrics
        for field in dataclasses.fields(a):
            va, vb = getattr(a, field.name), getattr(b, field.name)
            if isinstance(va, float) and math.isnan(va):
                assert math.isnan(vb), field.name
            else:
                assert va == vb, field.name

    def test_different_seed_differs(self):
        a = run_simulation(small_config())
        b = run_simulation(small_config(seed=8))
        assert a.metrics.mean_access_time != b.metrics.mean_access_time

    def test_cache_stats_exposed_per_client(self):
        out = run_simulation(small_config())
        assert len(out.cache_stats) == 2
        assert all(s.accesses > 0 for s in out.cache_stats)


class TestPrefetchingRuns:
    def test_threshold_dynamic_issues_prefetches(self):
        out = run_simulation(small_config(policy="threshold-dynamic"))
        assert out.metrics.prefetches_issued > 0
        assert out.link_prefetch_fetches > 0
        assert 0.0 < out.prefetch_traffic_share < 1.0

    def test_prefetching_raises_hit_ratio_on_predictable_stream(self):
        base = run_simulation(small_config())
        prefetched = run_simulation(
            small_config(policy="threshold-dynamic", predictor="true-distribution")
        )
        assert prefetched.metrics.hit_ratio > base.metrics.hit_ratio

    def test_h_prime_estimate_tracks_baseline_not_inflated_ratio(self):
        base = run_simulation(small_config())
        live = run_simulation(
            small_config(policy="threshold-dynamic", predictor="true-distribution")
        )
        truth = base.metrics.hit_ratio
        inflated = live.metrics.hit_ratio
        estimate = live.metrics.h_prime_estimate
        # the estimate must be much closer to the counterfactual truth
        assert abs(estimate - truth) < abs(inflated - truth)

    @pytest.mark.parametrize(
        "policy,params",
        [
            ("fixed-threshold", {"p0": 0.5}),
            ("top-k", {"k": 2}),
            ("adaptive", {}),
            ("all", {}),
        ],
    )
    def test_all_policies_run(self, policy, params):
        out = run_simulation(
            small_config(policy=policy, policy_params=params, duration=40.0)
        )
        assert out.metrics.requests > 0

    @pytest.mark.parametrize(
        "predictor", ["markov", "ppm", "dependency-graph", "frequency",
                      "true-distribution"]
    )
    def test_all_predictors_run(self, predictor):
        out = run_simulation(
            small_config(
                policy="threshold-dynamic", predictor=predictor, duration=40.0
            )
        )
        assert out.metrics.requests > 0

    def test_static_threshold_policy(self):
        out = run_simulation(
            small_config(
                policy="threshold-static",
                assumed_hit_ratio=0.2,
                predictor="true-distribution",
                duration=40.0,
            )
        )
        assert out.metrics.requests > 0

    @pytest.mark.parametrize("cache_policy", ["lru", "lfu", "fifo", "clock",
                                              "random", "value-aware"])
    def test_cache_policies_run(self, cache_policy):
        out = run_simulation(
            small_config(
                cache_policy=cache_policy,
                policy="threshold-dynamic",
                duration=40.0,
            )
        )
        assert out.metrics.requests > 0


class TestConfigValidation:
    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            small_config(policy="telepathy")

    def test_unknown_predictor(self):
        with pytest.raises(ConfigurationError):
            small_config(predictor="crystal-ball")

    def test_static_needs_assumed_hit_ratio(self):
        with pytest.raises(ConfigurationError):
            small_config(policy="threshold-static")

    def test_duration_exceeds_warmup(self):
        with pytest.raises(ConfigurationError):
            small_config(duration=5.0, warmup=10.0)

    def test_bandwidth_positive(self):
        with pytest.raises(ConfigurationError):
            small_config(bandwidth=0.0)


class TestTrueDistributionMemo:
    """Sources of one build with equal catalogue, q and successor shift
    share one true-distribution memo; another build has its own."""

    def config(self):
        workload = WorkloadSpec(
            num_clients=4,
            request_rate=20.0,
            catalog_size=100,
            zipf_exponent=0.9,
            follow_probability=0.7,
            client_overrides={2: {"follow_probability": 0.3}, 3: {"catalog_size": 50}},
        )
        return small_config(workload=workload, predictor="true-distribution")

    @staticmethod
    def memos(sim):
        return [client.predictor._source._dist_cache for client in sim.clients]

    def test_equal_sources_share_within_a_build_only(self):
        first = self.memos(Simulation(self.config()))
        assert first[0] is first[1]
        assert len({id(memo) for memo in first}) == 3
        second = self.memos(Simulation(self.config()))
        assert second[0] is second[1]
        assert not {id(memo) for memo in first} & {id(memo) for memo in second}

    def test_a_shared_row_stays_read_only(self):
        sim = Simulation(self.config())
        owner, sharer = sim.clients[0].predictor, sim.clients[1].predictor
        owner.record(3)
        sharer.record(3)
        above = owner.predict_above(0.0)
        expected = list(above)
        assert expected
        above.clear()
        assert sharer.predict_above(0.0) == expected
