"""Benchmarks: grid sweeps through the shared-pool engine + batched workload.

Three measurements pin the PR-2 hot paths (numbers recorded in
PERFORMANCE.md):

* a 12-point full-system grid (bandwidth × cache policy) end-to-end
  through :class:`SweepExecutor`, checked bit-identical against a plain
  per-point serial seed loop (the runners' loop before they became
  one-point grids through the engine);
* a warm re-run of the same grid against the on-disk result cache, which
  must skip every simulation;
* the vectorized workload generators against their per-draw equivalents.

Run:  pytest benchmarks/test_bench_sweep.py --benchmark-only -s
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np

from repro.sim import SimulationConfig, SweepExecutor, SweepPoint
from repro.sim.simulation import run_simulation
from repro.sim.sweep import _aggregate_simulation_outputs
from repro.workload.markov_source import MarkovChainSource
from repro.workload.zipf import ZipfCatalog
from repro.workload.sessions import WorkloadSpec

#: bandwidth × cache-policy grid -> 12 operating points
GRID_BANDWIDTHS = (40.0, 50.0, 60.0, 70.0)
GRID_POLICIES = ("lru", "lfu", "value-aware")
REPLICATIONS = 1

#: draws per workload-generation round
WORKLOAD_DRAWS = 200_000


def _point_config(bandwidth: float, cache_policy: str) -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(num_clients=2, request_rate=20.0,
                              catalog_size=150, zipf_exponent=0.9,
                              follow_probability=0.6),
        bandwidth=bandwidth,
        cache_policy=cache_policy,
        cache_capacity=24,
        predictor="true-distribution",
        policy="threshold-dynamic",
        duration=30.0,
        warmup=6.0,
        seed=17,
    )


def _grid_points() -> list[SweepPoint]:
    return [
        SweepPoint(
            key=f"b={b:g}/{policy}",
            config=_point_config(b, policy),
            replications=REPLICATIONS,
        )
        for b in GRID_BANDWIDTHS
        for policy in GRID_POLICIES
    ]


def _per_point_loop(config: SimulationConfig):
    """One point's replications as a plain serial loop over its seeds."""
    return _aggregate_simulation_outputs(
        [
            run_simulation(replace(config, seed=config.seed + 1000 * i))
            for i in range(REPLICATIONS)
        ]
    )


def test_bench_sweep_engine_vs_per_point_loop(benchmark):
    """12-point grid through one pool vs the per-point replication loop."""
    result = benchmark.pedantic(
        lambda: SweepExecutor(jobs=1).run(_grid_points()),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert set(result.cache_misses) == {p.key for p in _grid_points()}

    # Reference: the pre-sweep shape — one seed loop per point.
    t0 = time.perf_counter()
    reference = {pt.key: _per_point_loop(pt.config) for pt in _grid_points()}
    loop_seconds = time.perf_counter() - t0

    # Bit-identity with the per-point path (the engine's core contract).
    for key, ref in reference.items():
        for name in ref.metric_names:
            assert np.array_equal(result[key][name], ref[name],
                                  equal_nan=True), (key, name)

    engine_seconds = benchmark.stats.stats.min
    print(
        f"\n12-point grid: engine {engine_seconds:.2f}s vs per-point loop "
        f"{loop_seconds:.2f}s ({loop_seconds / engine_seconds:.2f}x); "
        f"values bit-identical"
    )


def test_bench_sweep_warm_cache(benchmark, tmp_path):
    """Re-running an unchanged grid must cost ~zero simulation time."""
    engine = SweepExecutor(jobs=1, cache_dir=tmp_path)
    t0 = time.perf_counter()
    cold = engine.run(_grid_points())
    cold_seconds = time.perf_counter() - t0
    assert cold.cache_hits == ()

    warm = benchmark.pedantic(
        lambda: engine.run(_grid_points()),
        rounds=3, iterations=1, warmup_rounds=0,
    )
    assert warm.cache_misses == ()
    for key in cold.results:
        for name in cold[key].metric_names:
            assert np.array_equal(warm[key][name], cold[key][name],
                                  equal_nan=True)
    warm_seconds = benchmark.stats.stats.min
    print(
        f"\nwarm result-cache re-run: {warm_seconds:.3f}s vs cold "
        f"{cold_seconds:.2f}s ({cold_seconds / warm_seconds:.0f}x)"
    )


def test_bench_workload_generation(benchmark):
    """Batched Markov/Zipf sampling vs the per-draw path (bit-identical)."""
    catalog = ZipfCatalog(2000, exponent=0.9)

    def batched():
        src = MarkovChainSource(catalog, follow_probability=0.7,
                                rng=np.random.default_rng(123))
        return src.generate(WORKLOAD_DRAWS)

    stream = benchmark.pedantic(batched, rounds=3, iterations=1,
                                warmup_rounds=1)
    batch_seconds = benchmark.stats.stats.min

    src = MarkovChainSource(catalog, follow_probability=0.7,
                            rng=np.random.default_rng(123))
    t0 = time.perf_counter()
    reference = [src.next_item() for _ in range(WORKLOAD_DRAWS)]
    scalar_seconds = time.perf_counter() - t0
    assert stream == reference

    t0 = time.perf_counter()
    zipf_batch = catalog.sample_batch(np.random.default_rng(7), WORKLOAD_DRAWS)
    zipf_batch_seconds = time.perf_counter() - t0
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    zipf_scalar = [catalog.sample(rng) for _ in range(WORKLOAD_DRAWS)]
    zipf_scalar_seconds = time.perf_counter() - t0
    assert list(zipf_batch) == zipf_scalar

    print(
        f"\nmarkov generate({WORKLOAD_DRAWS:,}): batched "
        f"{WORKLOAD_DRAWS / batch_seconds:,.0f} draws/s vs per-draw "
        f"{WORKLOAD_DRAWS / scalar_seconds:,.0f} draws/s "
        f"({scalar_seconds / batch_seconds:.1f}x)"
    )
    print(
        f"zipf sample_batch({WORKLOAD_DRAWS:,}): "
        f"{WORKLOAD_DRAWS / zipf_batch_seconds:,.0f} draws/s vs per-draw "
        f"{WORKLOAD_DRAWS / zipf_scalar_seconds:,.0f} draws/s "
        f"({zipf_scalar_seconds / zipf_batch_seconds:.1f}x)"
    )
