"""Che-approximation solver family + AnalyticPredictor facade."""

import math
import time

import numpy as np
import pytest

from repro.analysis.cachemodel import (
    AnalyticPredictor,
    PredictionUnsupported,
    che_characteristic_time,
    che_characteristic_time_generalized,
    che_characteristic_time_simplified,
    che_hit_ratio,
    che_hit_ratio_generalized,
    che_hit_ratio_simplified,
    che_per_content_hit_ratio,
    che_per_content_hit_ratio_generalized,
    laoutaris_characteristic_time,
    laoutaris_hit_ratio,
    optimal_cache_hit_ratio,
    trace_driven_cache_hit_ratio,
)
from repro.errors import ParameterError
from repro.sim.config import SimulationConfig
from repro.sim.mirror import MirrorConfig
from repro.sim.runner import run_simulation_replications
from repro.sim.validate import mirror_vs_theory
from repro.workload.sessions import WorkloadSpec
from repro.workload.trace import TraceRecord
from repro.workload.zipf import ZipfCatalog


def zipf_pdf(n: int, a: float) -> np.ndarray:
    ranks = np.arange(1, n + 1, dtype=float)
    w = ranks ** (-a)
    return w / w.sum()


# ----------------------------------------------------------------------
# Golden values (hand-computed small cases)
# ----------------------------------------------------------------------
class TestGoldenValues:
    def test_uniform_simplified_T_closed_form(self):
        # N=4 uniform, C=2: 4(1 - e^{-T/4}) = 2 -> T = 4 ln 2.
        pdf = np.full(4, 0.25)
        T = che_characteristic_time_simplified(pdf, 2)
        assert T == pytest.approx(4.0 * math.log(2.0), rel=1e-12)
        # h_i = 1 - e^{-T/4} = 1/2 for every item; aggregate is 1/2 too.
        assert che_hit_ratio_simplified(pdf, 2) == pytest.approx(0.5, rel=1e-12)

    def test_uniform_exact_form_excludes_tagged_item(self):
        # Exact per-item: sum_{j != i}(1 - e^{-T/4}) = 2 over 3 items
        # -> 1 - e^{-T_i/4} = 2/3 -> h_i = 2/3 (> simplified 1/2).
        pdf = np.full(4, 0.25)
        h = che_per_content_hit_ratio(pdf, 2)
        assert h == pytest.approx(np.full(4, 2.0 / 3.0), rel=1e-10)
        assert che_hit_ratio(pdf, 2) == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_uniform_fifo_kernel_closed_form(self):
        # FIFO kernel: 4 * (T/4)/(1+T/4) = 2 -> T = 4, h = 1/2.
        pdf = np.full(4, 0.25)
        T = che_characteristic_time_generalized(pdf, 2, policy="fifo")
        assert T == pytest.approx(4.0, rel=1e-12)
        assert che_hit_ratio_generalized(pdf, 2, policy="fifo") == pytest.approx(
            0.5, rel=1e-12
        )

    def test_two_item_skewed(self):
        # p = (0.75, 0.25), C = 1:
        # (1-e^{-0.75T}) + (1-e^{-0.25T}) = 1.
        pdf = np.asarray([0.75, 0.25])
        T = che_characteristic_time_simplified(pdf, 1)
        lhs = float(np.sum(1.0 - np.exp(-pdf * T)))
        assert lhs == pytest.approx(1.0, abs=1e-12)
        # Popular item must be resident more often than the rare one.
        h = che_per_content_hit_ratio_generalized(pdf, 1)
        assert h[0] > h[1]

    def test_optimal_is_top_c_mass(self):
        pdf = zipf_pdf(10, 1.0)
        assert optimal_cache_hit_ratio(pdf, 3) == pytest.approx(
            float(pdf[:3].sum()), rel=1e-12
        )
        assert optimal_cache_hit_ratio(pdf, 0) == 0.0
        assert optimal_cache_hit_ratio(pdf, 99) == pytest.approx(1.0)

    def test_lfu_policy_uses_top_c_mass(self):
        pdf = zipf_pdf(20, 1.0)
        assert che_hit_ratio_generalized(pdf, 5, policy="lfu") == pytest.approx(
            optimal_cache_hit_ratio(pdf, 5)
        )
        with pytest.raises(ParameterError):
            che_characteristic_time_generalized(pdf, 5, policy="lfu")


# ----------------------------------------------------------------------
# Property tests
# ----------------------------------------------------------------------
class TestSolverProperties:
    @pytest.mark.parametrize("a", [0.0, 0.6, 1.0, 1.4])
    @pytest.mark.parametrize("policy", ["lru", "fifo"])
    def test_hit_ratio_monotone_in_cache_size(self, a, policy):
        pdf = zipf_pdf(50, a)
        ratios = [
            che_hit_ratio_generalized(pdf, C, policy=policy)
            for C in [0, 1, 2, 5, 10, 25, 49, 50, 60]
        ]
        assert all(b >= a_ - 1e-12 for a_, b in zip(ratios, ratios[1:]))
        assert all(0.0 <= r <= 1.0 for r in ratios)

    @pytest.mark.parametrize("a", [0.5, 1.0])
    def test_per_item_ratios_bounded(self, a):
        pdf = zipf_pdf(30, a)
        for C in [1, 7, 29]:
            for h in (
                che_per_content_hit_ratio_generalized(pdf, C),
                che_per_content_hit_ratio(pdf, C),
            ):
                assert np.all(h >= 0.0) and np.all(h <= 1.0)

    def test_lru_below_optimal_bound(self):
        pdf = zipf_pdf(100, 1.0)
        for C in [5, 20, 50]:
            assert che_hit_ratio_generalized(pdf, C) < optimal_cache_hit_ratio(
                pdf, C
            )

    def test_degenerate_cache_sizes(self):
        pdf = zipf_pdf(10, 1.0)
        assert che_characteristic_time_simplified(pdf, 0) == 0.0
        assert che_characteristic_time_simplified(pdf, -3) == 0.0
        assert math.isinf(che_characteristic_time_simplified(pdf, 10))
        assert math.isinf(che_characteristic_time_simplified(pdf, 11))
        # Finite for every non-degenerate size, and hit ratios at the
        # extremes are exactly 0 and 1.
        for C in range(1, 10):
            assert math.isfinite(che_characteristic_time_simplified(pdf, C))
        assert che_hit_ratio_simplified(pdf, 0) == 0.0
        assert che_hit_ratio_simplified(pdf, 10) == pytest.approx(1.0)

    def test_zero_probability_items_ignored(self):
        # Items with p=0 never occupy the cache: support of 3, C=3 -> inf.
        pdf = np.asarray([0.5, 0.3, 0.2, 0.0, 0.0])
        assert math.isinf(che_characteristic_time_simplified(pdf, 3))
        h = che_per_content_hit_ratio_generalized(pdf, 2)
        assert h[3] == 0.0 and h[4] == 0.0

    def test_pdf_normalisation_guard(self):
        with pytest.raises(ParameterError):
            che_hit_ratio_simplified([0.5, 0.4], 1)  # sums to 0.9
        with pytest.raises(ParameterError):
            che_hit_ratio_simplified([0.7, -0.2, 0.5], 1)  # negative entry
        with pytest.raises(ParameterError):
            che_hit_ratio_simplified([], 1)

    def test_exact_and_simplified_converge_for_large_N(self):
        # The two forms differ O(1/N); at N=200 they are close.
        pdf = zipf_pdf(200, 1.0)
        exact = che_hit_ratio(pdf, 20)
        simplified = che_hit_ratio_simplified(pdf, 20)
        assert exact == pytest.approx(simplified, rel=0.02)

    def test_exact_per_item_matches_targeted_solve(self):
        pdf = zipf_pdf(12, 1.0)
        all_T = che_characteristic_time(pdf, 4)
        one_T = che_characteristic_time(pdf, 4, target=3)
        assert one_T == pytest.approx(float(all_T[3]), rel=1e-9)
        with pytest.raises(ParameterError):
            che_characteristic_time(pdf, 4, target=12)


class TestLaoutaris:
    def test_matches_che_for_small_occupancy(self):
        # Small C/N: the cubic truncation is accurate.
        pdf = zipf_pdf(500, 1.0)
        T_che = che_characteristic_time_simplified(pdf, 10)
        T_lao = laoutaris_characteristic_time(pdf, 10)
        assert T_lao == pytest.approx(T_che, rel=0.05)
        assert laoutaris_hit_ratio(pdf, 10) == pytest.approx(
            che_hit_ratio_simplified(pdf, 10), rel=0.05
        )

    def test_degenerate_and_order_guard(self):
        pdf = zipf_pdf(10, 1.0)
        assert laoutaris_characteristic_time(pdf, 0) == 0.0
        assert math.isinf(laoutaris_characteristic_time(pdf, 10))
        with pytest.raises(ParameterError):
            laoutaris_characteristic_time(pdf, 3, order=5)

    def test_second_order_variant(self):
        pdf = zipf_pdf(100, 0.8)
        T2 = laoutaris_characteristic_time(pdf, 5, order=2)
        assert T2 > 0.0 and math.isfinite(T2)


class TestTraceDriven:
    def test_empirical_pdf_from_records(self):
        # 4 items with frequencies 4:3:2:1 -> pdf (0.4, 0.3, 0.2, 0.1).
        items = [0] * 4 + [1] * 3 + [2] * 2 + [3]
        records = [
            TraceRecord(time=float(i), client=0, item=item)
            for i, item in enumerate(items)
        ]
        got = trace_driven_cache_hit_ratio(records, 2)
        want = che_hit_ratio_generalized([0.4, 0.3, 0.2, 0.1], 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_raw_item_ids_accepted(self):
        assert trace_driven_cache_hit_ratio([1, 1, 2, 3], 4) == pytest.approx(1.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ParameterError):
            trace_driven_cache_hit_ratio([], 2)


# ----------------------------------------------------------------------
# The predictor facade
# ----------------------------------------------------------------------
class TestAnalyticPredictor:
    def test_mirror_matches_validate_predictions(self):
        from repro.core.parameters import SystemParameters
        from repro.sim.mirror import run_mirror

        params = SystemParameters.paper_defaults(hit_ratio=0.3)
        config = MirrorConfig(
            params=params, n_f=0.5, p=0.8, duration=80.0, warmup=8.0, seed=5
        )
        pred = AnalyticPredictor().predict(config)
        comparison = mirror_vs_theory(config, run_mirror(config))
        assert pred.mean_access_time == pytest.approx(
            comparison.predicted_access_time, rel=1e-9
        )
        assert pred.utilization == pytest.approx(
            comparison.predicted_utilization, rel=1e-9
        )
        assert pred.retrieval_time_per_request == pytest.approx(
            comparison.predicted_retrieval_per_request, rel=1e-9
        )

    def test_simulation_point_fast_and_sane(self):
        config = SimulationConfig(
            workload=WorkloadSpec(num_clients=4, catalog_size=300),
            bandwidth=80.0, cache_capacity=30, policy="none",
            duration=50.0, warmup=5.0,
        )
        predictor = AnalyticPredictor()
        started = time.perf_counter()
        pred = predictor.predict(config)
        elapsed = time.perf_counter() - started
        assert 0.0 < pred.hit_ratio < 1.0
        assert pred.mean_access_time > 0.0
        assert pred.origin_rate == pytest.approx(
            (1.0 - pred.hit_ratio) * config.workload.request_rate, rel=1e-9
        )
        # The "~1 ms" budget, measured on the prediction itself (generous
        # ceiling so slow CI machines do not flake).
        assert elapsed < 0.05

    def test_trace_points_unsupported(self):
        config = SimulationConfig(trace_path="whatever.jsonl")
        with pytest.raises(PredictionUnsupported):
            AnalyticPredictor().predict(config)

    def test_phased_points_unsupported(self):
        """Piecewise-stationary load has no single stationary closed form
        — a phased point must raise, not get a stationary prediction."""
        config = SimulationConfig(
            workload=WorkloadSpec(
                phases=[{"duration": 10.0, "rate_multiplier": 2.0}]
            ),
        )
        with pytest.raises(PredictionUnsupported, match="phased"):
            AnalyticPredictor().predict(config)

    def test_prefetching_points_unsupported(self):
        """The closed forms model demand traffic only: a prefetching point
        must raise, not report the no-prefetch t̄ as if it were modelled."""
        config = SimulationConfig(
            workload=WorkloadSpec(num_clients=4, catalog_size=300),
            bandwidth=80.0, cache_capacity=30, policy="threshold-dynamic",
        )
        with pytest.raises(PredictionUnsupported, match="threshold-dynamic"):
            AnalyticPredictor().predict(config)

    def test_unknown_config_type_unsupported(self):
        with pytest.raises(PredictionUnsupported):
            AnalyticPredictor().predict(object())

    def test_variants_agree_roughly(self):
        config = SimulationConfig(
            workload=WorkloadSpec(num_clients=2, catalog_size=400),
            bandwidth=60.0, cache_capacity=20, policy="none",
        )
        h = {
            variant: AnalyticPredictor(variant=variant).predict(config).hit_ratio
            for variant in ("che", "che-exact", "laoutaris")
        }
        assert h["che"] == pytest.approx(h["che-exact"], rel=0.05)
        # The cubic truncation deviates more at this C/N; it must still
        # land in the same neighbourhood.
        assert h["che"] == pytest.approx(h["laoutaris"], rel=0.15)

    def test_unknown_variant_rejected(self):
        config = SimulationConfig()
        with pytest.raises(ParameterError):
            AnalyticPredictor(variant="nope").predict(config)

    def test_memoises_repeated_cache_points(self):
        predictor = AnalyticPredictor()
        config = SimulationConfig(
            workload=WorkloadSpec(num_clients=4, catalog_size=300),
            bandwidth=50.0, cache_capacity=25, policy="none",
        )
        predictor.predict(config)
        assert len(predictor._hit_cache) == 1  # 4 clients, one cache point
        predictor.predict(config)
        assert len(predictor._hit_cache) == 1

    def test_memoised_predictions_equal_fresh_ones(self):
        configs = [
            SimulationConfig(
                workload=WorkloadSpec(num_clients=4, catalog_size=300),
                bandwidth=bw, cache_capacity=cap, policy="none",
            )
            for bw in (40.0, 80.0)
            for cap in (10, 30)
        ]
        shared = AnalyticPredictor()
        forward = [shared.predict(c) for c in configs]
        backward = [shared.predict(c) for c in reversed(configs)][::-1]
        fresh = [AnalyticPredictor().predict(c) for c in configs]
        assert forward == backward == fresh

    def test_mirror_access_time_falls_with_bandwidth(self):
        from repro.core.parameters import SystemParameters

        predictions = [
            AnalyticPredictor().predict(
                MirrorConfig(
                    params=SystemParameters.paper_defaults(
                        hit_ratio=0.3, bandwidth=bw
                    ),
                    n_f=0.3, p=0.5, duration=120.0, warmup=15.0, seed=7,
                )
            )
            for bw in (50.0, 60.0, 70.0, 80.0, 90.0)
        ]
        access = [p.mean_access_time for p in predictions]
        load = [p.utilization for p in predictions]
        assert all(a > b > 0.0 for a, b in zip(access, access[1:]))
        assert all(a > b > 0.0 for a, b in zip(load, load[1:]))
        # bandwidth moves the queue, not what the cache holds
        assert len({p.hit_ratio for p in predictions}) == 1

    def test_saturated_uplink_predicts_unbounded_access_time(self):
        def config(bandwidth):
            return SimulationConfig(
                workload=WorkloadSpec(num_clients=4, catalog_size=300),
                bandwidth=bandwidth, cache_capacity=30, policy="none",
            )

        stable = AnalyticPredictor().predict(config(80.0))
        saturated = AnalyticPredictor().predict(config(5.0))
        assert stable.offered_load < 1.0
        assert math.isfinite(stable.mean_access_time)
        assert saturated.offered_load > 1.0
        assert saturated.utilization == 1.0  # clipped; offered_load is not
        assert saturated.mean_access_time == math.inf
        assert saturated.mean_demand_retrieval_time == math.inf
        assert saturated.hit_ratio == stable.hit_ratio
        assert saturated.origin_rate == stable.origin_rate


# ----------------------------------------------------------------------
# Reconciliation: ZipfCatalog.expected_hit_ratio vs the Che predictor
# ----------------------------------------------------------------------
class TestZipfReconciliation:
    def test_expected_hit_ratio_is_optimal_bound(self):
        cat = ZipfCatalog(num_items=120, exponent=1.0)
        for C in [1, 10, 50]:
            assert cat.expected_hit_ratio(C) == pytest.approx(
                optimal_cache_hit_ratio(cat.probabilities, C), rel=1e-12
            )

    def test_che_beats_naive_form_against_simulated_lru(self):
        # One simulated LRU point: the naive top-C mass overshoots the
        # measured hit ratio, the Che prediction lands near it.
        config = SimulationConfig(
            workload=WorkloadSpec(num_clients=4, catalog_size=200,
                                  zipf_exponent=1.0),
            bandwidth=90.0, cache_capacity=20, cache_policy="lru",
            policy="none", duration=80.0, warmup=20.0, seed=29,
        )
        rr = run_simulation_replications(config, replications=2)
        sim_h = rr.mean("hit_ratio")
        cat = ZipfCatalog(num_items=200, exponent=1.0)
        naive = cat.expected_hit_ratio(20)
        che = che_hit_ratio_generalized(cat.probabilities, 20, policy="lru")
        assert abs(che - sim_h) < abs(naive - sim_h)
        assert naive > sim_h  # clairvoyant bound overshoots LRU
        assert che == pytest.approx(sim_h, rel=0.15)
