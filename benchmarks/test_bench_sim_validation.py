"""Bench: DES-vs-closed-form validation plus the batch-arrival caveat,
and the throughput of the closed-form predictor that validation checks."""

import numpy as np

from benchmarks.conftest import run_and_report
from repro.sim import SimulationConfig
from repro.workload.sessions import WorkloadSpec

#: 50 bandwidths x 4 capacities = 200 prefetch-free operating points.
GRID_BANDWIDTHS = tuple(float(b) for b in np.linspace(25.0, 74.0, 50))
GRID_CAPACITIES = (8, 16, 28, 40)


def _predictor_grid() -> list[SimulationConfig]:
    return [
        SimulationConfig(
            workload=WorkloadSpec(num_clients=2, request_rate=15.0,
                                  catalog_size=80, zipf_exponent=0.9),
            bandwidth=bandwidth,
            cache_capacity=capacity,
            policy="none",
            duration=15.0,
            warmup=4.0,
            seed=31,
        )
        for capacity in GRID_CAPACITIES
        for bandwidth in GRID_BANDWIDTHS
    ]


def test_bench_sim_vs_analytic(benchmark):
    result = run_and_report(benchmark, "sim-vs-analytic", plots=False)
    _, _, rows = result.tables[0]
    # worst relative error across all operating points and quantities
    assert max(row[-1] for row in rows) < 0.15


def test_bench_predictor_throughput(benchmark):
    """Raw AnalyticPredictor throughput over one grid pass (cold caches)."""
    from repro.analysis.cachemodel import AnalyticPredictor

    configs = _predictor_grid()

    def predict_all():
        predictor = AnalyticPredictor()  # cold memo: every solve real
        return [predictor.predict(config) for config in configs]

    predictions = benchmark.pedantic(predict_all, rounds=3, iterations=1,
                                     warmup_rounds=1)
    per_point_ms = 1e3 * benchmark.stats.stats.min / len(configs)
    assert len(predictions) == len(configs)
    assert all(np.isfinite(p.hit_ratio) for p in predictions)
    benchmark.extra_info["points"] = len(configs)
    benchmark.extra_info["ms_per_point"] = round(per_point_ms, 4)
    print(
        f"\npredictor grid pass: {len(configs)} points in "
        f"{benchmark.stats.stats.min * 1e3:.1f} ms "
        f"({per_point_ms:.3f} ms/point)"
    )
    assert per_point_ms < 5.0
