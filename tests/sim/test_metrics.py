"""Unit tests for the metrics collector (warmup gating, finalisation)."""

import math

import pytest

from repro.des import Environment
from repro.network import SharedLink
from repro.sim.metrics import MetricsCollector


def make_env():
    env = Environment()
    link = SharedLink(env, bandwidth=10.0)
    return env, link


class TestWarmupGating:
    def test_observations_before_warmup_dropped(self):
        env, link = make_env()
        collector = MetricsCollector(env, link, warmup_time=10.0)
        collector.arm_warmup()
        # issued at t=0, before the warm-up boundary: dropped
        collector.record_request(hit=True, access_time=0.0, issued_at=env.now)
        env.run(until=10.0)
        collector.record_request(hit=False, access_time=1.0, issued_at=env.now)
        metrics = collector.finalize()
        assert metrics.requests == 1
        assert metrics.hits == 0

    def test_zero_warmup_measures_immediately(self):
        env, link = make_env()
        collector = MetricsCollector(env, link)
        collector.record_prefetch_issued()  # counted only while measuring
        collector.record_request(hit=True, access_time=0.0, issued_at=0.0)
        metrics = collector.finalize()
        assert metrics.prefetches_issued == 1
        assert metrics.requests == 1

    def test_finalize_before_start_raises(self):
        env, link = make_env()
        collector = MetricsCollector(env, link, warmup_time=5.0)
        with pytest.raises(RuntimeError):
            collector.finalize()


class TestAggregation:
    def test_hit_ratio_and_access_time(self):
        env, link = make_env()
        collector = MetricsCollector(env, link)
        collector.record_request(
            hit=True, access_time=0.0, tagged_hit=True, issued_at=0.0
        )
        collector.record_request(hit=False, access_time=2.0, issued_at=0.0)
        metrics = collector.finalize()
        assert metrics.hit_ratio == pytest.approx(0.5)
        assert metrics.mean_access_time == pytest.approx(1.0)
        assert metrics.h_prime_estimate == pytest.approx(0.5)
        assert metrics.fault_ratio == pytest.approx(0.5)

    def test_retrieval_split_by_kind(self):
        env, link = make_env()
        collector = MetricsCollector(env, link)
        collector.record_request(hit=False, access_time=1.0, issued_at=0.0)
        collector.record_retrieval(1.0, issued_at=0.0)
        collector.record_retrieval(3.0, prefetch=True, issued_at=0.0)
        metrics = collector.finalize()
        assert metrics.mean_demand_retrieval_time == pytest.approx(1.0)
        assert metrics.mean_prefetch_retrieval_time == pytest.approx(3.0)
        # R = total retrieval time / requests = (1+3)/1
        assert metrics.retrieval_time_per_request == pytest.approx(4.0)

    def test_prefetch_counters(self):
        env, link = make_env()
        collector = MetricsCollector(env, link)
        collector.record_request(hit=True, access_time=0.0, issued_at=0.0)
        collector.record_request(hit=True, access_time=0.0, issued_at=0.0)
        collector.record_prefetch_issued(3)
        metrics = collector.finalize()
        assert metrics.prefetches_issued == 3
        assert metrics.prefetches_per_request == pytest.approx(1.5)

    def test_utilization_interval_only(self):
        """Busy time accumulated before the warmup snapshot is excluded."""
        env, link = make_env()
        collector = MetricsCollector(env, link, warmup_time=5.0)
        collector.arm_warmup()

        def traffic(env):
            # one 10-unit fetch finishing at t=1 (before warmup ends)
            yield link.fetch(item="x", size=10.0, kind="demand", client=0)

        env.start(traffic(env))
        env.run(until=15.0)
        metrics = collector.finalize()
        assert metrics.utilization == pytest.approx(0.0)

    def test_empty_run_is_nan(self):
        env, link = make_env()
        collector = MetricsCollector(env, link)
        env.run(until=1.0)
        metrics = collector.finalize()
        assert math.isnan(metrics.mean_access_time)
        assert math.isnan(metrics.hit_ratio)
