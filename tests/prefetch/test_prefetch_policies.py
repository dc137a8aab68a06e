"""Tests for prefetch policies."""

import math

import pytest

from repro.core.parameters import SystemParameters
from repro.errors import ParameterError
from repro.estimation import ThresholdEstimator
from repro.prefetch import (
    AdaptiveUtilizationPolicy,
    DynamicThresholdPolicy,
    FixedThresholdPolicy,
    NoPrefetchPolicy,
    PolicyContext,
    PrefetchAllPolicy,
    StaticThresholdPolicy,
    TopKPolicy,
)


def ctx(**kwargs):
    defaults = dict(now=0.0, bandwidth=50.0)
    defaults.update(kwargs)
    return PolicyContext(**defaults)


CANDIDATES = [("a", 0.9), ("b", 0.5), ("c", 0.3), ("d", 0.05)]


class TestContextFiltering:
    def test_eligible_removes_cached_and_in_flight(self):
        context = ctx(in_cache={"a"}, in_flight={"c"})
        assert context.eligible(CANDIDATES) == [("b", 0.5), ("d", 0.05)]

    def test_default_memberships_empty(self):
        assert ctx().eligible(CANDIDATES) == CANDIDATES


class TestHeuristics:
    def test_none_policy(self):
        assert NoPrefetchPolicy().select(CANDIDATES, ctx()) == []

    def test_fixed_threshold(self):
        policy = FixedThresholdPolicy(p0=0.4)
        chosen = policy.select(CANDIDATES, ctx())
        assert [i for i, _ in chosen] == ["a", "b"]

    def test_fixed_threshold_strict(self):
        policy = FixedThresholdPolicy(p0=0.5)
        assert ("b", 0.5) not in policy.select(CANDIDATES, ctx())

    def test_fixed_threshold_domain(self):
        with pytest.raises(ParameterError):
            FixedThresholdPolicy(p0=1.5)

    def test_top_k(self):
        chosen = TopKPolicy(k=2).select(CANDIDATES, ctx())
        assert [i for i, _ in chosen] == ["a", "b"]

    def test_top_k_respects_eligibility(self):
        chosen = TopKPolicy(k=2).select(CANDIDATES, ctx(in_cache={"a"}))
        assert [i for i, _ in chosen] == ["b", "c"]

    def test_top_k_domain(self):
        with pytest.raises(ParameterError):
            TopKPolicy(k=0)

    def test_prefetch_all(self):
        assert len(PrefetchAllPolicy().select(CANDIDATES, ctx())) == 4


class TestStaticThreshold:
    def test_uses_eq13(self, paper_params_h03):
        policy = StaticThresholdPolicy(paper_params_h03)  # p_th = 0.42
        chosen = policy.select(CANDIDATES, ctx())
        assert [i for i, _ in chosen] == ["a", "b"]

    def test_model_b_threshold(self, paper_params_b):
        policy = StaticThresholdPolicy(paper_params_b, model="B")
        assert policy.p_th == pytest.approx(0.45)

    def test_budget(self, paper_params_h03):
        policy = StaticThresholdPolicy(paper_params_h03, budget=1)
        assert len(policy.select(CANDIDATES, ctx())) == 1

    def test_bad_model(self, paper_params_h03):
        with pytest.raises(ParameterError):
            StaticThresholdPolicy(paper_params_h03, model="Q")


class TestDynamicThreshold:
    def _warm_estimator(self, h=0.3, lam=30.0):
        import numpy as np

        est = ThresholdEstimator(bandwidth=50.0, cache_size=10.0)
        rng = np.random.default_rng(0)
        t = 0.0
        for _ in range(2000):
            t += rng.exponential(1.0 / lam)
            est.observe_request(t, "tagged_hit" if rng.random() < h else "miss")
            est.observe_item_size(1.0)
        return est

    def test_abstains_during_warmup(self):
        est = ThresholdEstimator(bandwidth=50.0)
        policy = DynamicThresholdPolicy(est)
        assert policy.select(CANDIDATES, ctx()) == []

    def test_selects_with_warm_estimator(self):
        policy = DynamicThresholdPolicy(self._warm_estimator())
        chosen = policy.select(CANDIDATES, ctx())
        # p_th ~ 0.42: a and b qualify
        assert [i for i, _ in chosen] == ["a", "b"]

    def test_tracks_mean_prefetch_count(self):
        policy = DynamicThresholdPolicy(self._warm_estimator())
        policy.select(CANDIDATES, ctx())
        policy.select([], ctx())
        assert policy.mean_prefetch_count == pytest.approx(1.0)  # 2 over 2 reqs

    def test_only_model_b_reads_mean_prefetch_count(self, monkeypatch):
        # Eq. 13 (model A) has no n̄(F) term; eq. 21 (model B) has one.
        class Read(Exception):
            pass

        def mean_prefetch_count(policy):
            raise Read

        monkeypatch.setattr(
            DynamicThresholdPolicy, "mean_prefetch_count", property(mean_prefetch_count)
        )
        est = self._warm_estimator()
        model_a = DynamicThresholdPolicy(est)
        assert [i for i, _ in model_a.select(CANDIDATES, ctx())] == ["a", "b"]
        with pytest.raises(Read):
            DynamicThresholdPolicy(est, model="B").select(CANDIDATES, ctx())

    def test_model_b_needs_cache_size(self):
        est = ThresholdEstimator(bandwidth=50.0)
        with pytest.raises(ParameterError):
            DynamicThresholdPolicy(est, model="B")


class TestAdaptive:
    def test_cutoff_rises_with_load(self):
        policy = AdaptiveUtilizationPolicy(rho_target=0.9, p_min=0.1, p_max=1.0)
        assert policy.cutoff(0.0) == pytest.approx(0.1)
        assert policy.cutoff(0.9) == pytest.approx(1.0)
        assert policy.cutoff(0.45) == pytest.approx(0.55)

    def test_unknown_load_conservative(self):
        policy = AdaptiveUtilizationPolicy()
        assert policy.cutoff(math.nan) == policy.p_max

    def test_select_uses_estimated_utilization(self):
        policy = AdaptiveUtilizationPolicy(rho_target=0.9, p_min=0.1, p_max=1.0)
        busy = policy.select(CANDIDATES, ctx(load=lambda: 0.89))
        idle = policy.select(CANDIDATES, ctx(load=lambda: 0.0))
        assert len(idle) > len(busy)

    def test_validation(self):
        with pytest.raises(ParameterError):
            AdaptiveUtilizationPolicy(rho_target=0.0)
        with pytest.raises(ParameterError):
            AdaptiveUtilizationPolicy(p_min=0.9, p_max=0.5)
