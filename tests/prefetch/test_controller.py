"""Tests for the prefetch controller's access/plan pipeline."""

import pytest

from repro.cache import LRUCache
from repro.errors import SimulationError
from repro.estimation import ThresholdEstimator
from repro.predictors import DistributionOracle
from repro.prefetch import FixedThresholdPolicy, NoPrefetchPolicy, PrefetchController


def make_controller(policy=None, probs=None, cache=None, estimator=None):
    return PrefetchController(
        predictor=DistributionOracle(probs or {"x": 0.8, "y": 0.15}),
        policy=policy or FixedThresholdPolicy(p0=0.5),
        cache=cache or LRUCache(8),
        bandwidth=50.0,
        estimator=estimator,
    )


class TestAccessPath:
    def test_miss_then_demand_complete_then_hit(self):
        c = make_controller()
        out = c.on_user_access("x", now=0.0, size=1.0)
        assert not out.hit and out.kind == "miss"
        c.on_fetch_complete("x", now=0.5, size=1.0, prefetched=False)
        out2 = c.on_user_access("x", now=1.0, size=1.0)
        assert out2.hit and out2.kind == "tagged_hit"
        assert not out2.prefetch_saved

    @pytest.mark.parametrize("field", ["item", "hit", "kind", "prefetch_saved"])
    def test_outcome_fields_cannot_be_assigned(self, field):
        out = make_controller().on_user_access("x", now=0.0, size=1.0)
        with pytest.raises(AttributeError):
            setattr(out, field, True)
        assert (out.item, out.hit, out.kind, out.prefetch_saved) == (
            "x", False, "miss", False
        )

    def test_prefetch_hit_is_untagged_and_saved(self):
        c = make_controller()
        c.on_fetch_complete("x", now=0.5, size=1.0, prefetched=True)
        out = c.on_user_access("x", now=1.0, size=1.0)
        assert out.hit and out.kind == "untagged_hit" and out.prefetch_saved
        assert c.stats.prefetch_hits == 1

    def test_estimator_fed_with_section4_kinds(self):
        est = ThresholdEstimator(bandwidth=50.0)
        c = make_controller(estimator=est)
        c.on_user_access("x", now=0.1, size=1.0)  # miss
        c.on_fetch_complete("x", now=0.2, size=1.0, prefetched=False)
        c.on_user_access("x", now=0.3, size=1.0)  # tagged hit
        assert est.h_prime.naccess == 2
        assert est.h_prime.nhit == 1

    def test_prefetched_hit_not_counted_for_h_prime(self):
        est = ThresholdEstimator(bandwidth=50.0)
        c = make_controller(estimator=est)
        c.on_fetch_complete("x", now=0.0, size=1.0, prefetched=True)
        c.on_user_access("x", now=0.5, size=1.0)  # untagged hit
        assert est.h_prime.nhit == 0 and est.h_prime.naccess == 1


class TestPlanning:
    def test_plan_selects_and_marks_in_flight(self):
        c = make_controller()
        chosen = c.plan(now=1.0)
        assert [i for i, _ in chosen] == ["x"]  # only p=0.8 > 0.5
        assert "x" in c.in_flight
        assert c.stats.prefetches_issued == 1

    def test_in_flight_items_not_replanned(self):
        c = make_controller()
        c.plan(now=1.0)
        assert c.plan(now=2.0) == []

    def test_cached_items_not_planned(self):
        c = make_controller()
        c.on_fetch_complete("x", now=0.0, size=1.0, prefetched=False)
        assert c.plan(now=1.0) == []

    def test_fetch_complete_clears_in_flight(self):
        c = make_controller()
        c.plan(now=1.0)
        c.on_fetch_complete("x", now=2.0, size=1.0, prefetched=True)
        assert "x" not in c.in_flight
        assert c.stats.prefetches_completed == 1

    def test_fetch_failed_clears_in_flight(self):
        c = make_controller()
        c.plan(now=1.0)
        c.on_fetch_failed("x")
        assert "x" not in c.in_flight

    def test_accuracy_statistic(self):
        c = make_controller()
        c.plan(now=1.0)
        c.on_fetch_complete("x", now=2.0, size=1.0, prefetched=True)
        c.on_user_access("x", now=3.0, size=1.0)
        assert c.stats.accuracy == pytest.approx(1.0)

    def test_no_prefetch_policy_never_plans(self):
        c = make_controller(policy=NoPrefetchPolicy())
        assert c.plan(now=1.0) == []
        assert c.stats.prefetches_issued == 0

    def test_mean_prefetch_count(self):
        c = make_controller()
        c.on_user_access("q", now=0.0, size=1.0)
        c.plan(now=0.1)
        assert c.stats.mean_prefetch_count == pytest.approx(1.0)
