"""Wall-clock bounds on the simulator's execution paths.

Each module fixture times its runs with ``time.perf_counter()``: one run
per measurement, or the best of three after a warm-up run where one run
is too short to time.  The checks of what a run computed are tests of
their own, apart from its timing bound.  A single timing carries no
spread, so these bounds
are coarse floors that catch a path which stops working (a population
that no longer collapses, a backend that serialises), not measurements.
They leave tier-1 once a benchmark change gives perfbench paired
comparisons of the same paths.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.checks import fingerprint  # noqa: E402
from repro.analysis.cachemodel import AnalyticPredictor  # noqa: E402
from repro.network.topology import CooperationConfig, TopologyConfig  # noqa: E402
from repro.sim import SimulationConfig, run_simulation  # noqa: E402
from repro.sim.faults import FaultEvent, FaultSchedule  # noqa: E402
from repro.sim.simulation import Simulation  # noqa: E402
from repro.workload.sessions import WorkloadSpec  # noqa: E402


def _timed(run):
    """``(output, seconds)`` of one call of ``run``."""
    start = time.perf_counter()
    output = run()
    return output, time.perf_counter() - start


def _best_of_three(run):
    """``(output, seconds)``: the fastest of three calls after a warm-up."""
    run()
    timings = [_timed(run) for _ in range(3)]
    return timings[-1][0], min(seconds for _, seconds in timings)


# ----------------------------------------------------------------------
# Fault injection: drain, re-shard and migration on a four-proxy tier
# ----------------------------------------------------------------------
FAULT_DURATION = 90.0
FAIL_AT = FAULT_DURATION / 3.0
RECOVER_AT = FAIL_AT + FAULT_DURATION / 18.0  # short outage: caches still cold


def _fault_tier_config() -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=32,
            request_rate=64.0,
            catalog_size=300,
            zipf_exponent=0.9,
            follow_probability=0.7,
        ),
        bandwidth=35.0,
        cache_capacity=24,
        predictor="markov",
        policy="threshold-dynamic",
        duration=FAULT_DURATION,
        warmup=15.0,
        seed=29,
        topology=TopologyConfig(
            num_proxies=4,
            routing="item-hash",
            cooperation=CooperationConfig(mode="owner-probe"),
        ),
    )


def _fault_schedule(migration: str) -> FaultSchedule:
    return FaultSchedule(
        events=(
            FaultEvent(time=FAIL_AT, kind="proxy-fail", node=1),
            FaultEvent(time=RECOVER_AT, kind="proxy-recover", node=1),
        ),
        migration=migration,
    )


@pytest.fixture(scope="module")
def fault_runs():
    """Fault timelines and wall times of the clean, cold and warm runs."""
    base = _fault_tier_config()
    clean_out, clean_s = _timed(lambda: run_simulation(base))
    cold_out = run_simulation(
        dataclasses.replace(base, faults=_fault_schedule("cold"))
    )
    warm_config = dataclasses.replace(base, faults=_fault_schedule("cooperative"))
    warm_out, warm_s = _timed(lambda: run_simulation(warm_config))
    return {
        "clean": (clean_out.kpis.fault_timeline, clean_s),
        "cold": (cold_out.kpis.fault_timeline, None),
        "warm": (warm_out.kpis.fault_timeline, warm_s),
    }


def test_fault_free_run_records_no_fault_timeline(fault_runs):
    # the clean run must not pay for the fault machinery at all
    clean_timeline, _ = fault_runs["clean"]
    assert not clean_timeline


def test_only_cooperative_migration_moves_items(fault_runs):
    warm_timeline, _ = fault_runs["warm"]
    cold_timeline, _ = fault_runs["cold"]
    assert len(warm_timeline) == 3  # fail, recover, end
    assert warm_timeline[-1].migrated_items > 0
    assert cold_timeline[-1].migrated_items == 0


def test_fault_path_costs_under_3x_the_fault_free_run(fault_runs):
    # the drain/re-shard path is event-loop work, not a second simulator:
    # it must stay within a small constant factor of the fault-free run
    _, clean_s = fault_runs["clean"]
    _, warm_s = fault_runs["warm"]
    assert warm_s < 3.0 * clean_s


# ----------------------------------------------------------------------
# Parallel node backend against the serial event loop
# ----------------------------------------------------------------------
NODE_PROXIES = 8
NODE_WORKERS = 4
NODE_CLIENTS = 64


def _decoupled_tier_config() -> SimulationConfig:
    # A saturated client-affinity tier: the conservative partition shards
    # it per node.
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=NODE_CLIENTS,
            request_rate=5.0 * NODE_CLIENTS,  # ~40 req/s per proxy uplink
            catalog_size=600,
            zipf_exponent=0.9,
            follow_probability=0.7,
        ),
        bandwidth=50.0,
        cache_capacity=40,
        predictor="markov",
        policy="threshold-dynamic",
        duration=120.0,
        warmup=20.0,
        seed=17,
        topology=TopologyConfig(num_proxies=NODE_PROXIES),
    )


def test_parallel_node_backend_is_bit_identical_and_not_slower():
    serial_config = _decoupled_tier_config()
    parallel_config = dataclasses.replace(
        serial_config, node_backend="parallel", node_workers=NODE_WORKERS
    )
    serial_out, serial_s = _timed(lambda: run_simulation(serial_config))
    with warnings.catch_warnings():
        # single-core hosts: the oversubscription guard caps the fan-out
        warnings.simplefilter("ignore", RuntimeWarning)
        parallel_out, parallel_s = _timed(lambda: run_simulation(parallel_config))

    # the backend is an execution knob: results must be bit-identical
    assert fingerprint(parallel_out) == fingerprint(serial_out)
    # a host with a core per worker and to spare must win clearly, any
    # other multi-core host must win; a capped single-core run only has
    # to stay in the serial ballpark
    cpus = os.cpu_count() or 1
    speedup = serial_s / parallel_s
    if cpus >= 2 * NODE_WORKERS:
        assert speedup >= 1.8
    elif cpus > 1:
        assert speedup > 1.0
    else:
        assert speedup > 0.5


# ----------------------------------------------------------------------
# Aggregated client backend against per-client, 100 000 clients
# ----------------------------------------------------------------------
SCALE_CLIENTS = 100_000


def _scale_config(backend: str) -> SimulationConfig:
    # ``request_rate`` is the population aggregate, so both backends see
    # the same event count; ``bandwidth`` is about 2.5x demand, so fetches
    # complete inside the window.
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=SCALE_CLIENTS,
            request_rate=2000.0,
            catalog_size=500,
            follow_probability=0.2,
        ),
        bandwidth=5000.0,
        policy="threshold-dynamic",
        predictor="markov",
        duration=5.0,
        warmup=1.0,
        seed=7,
        client_backend=backend,
    )


@pytest.fixture(scope="module")
def scale_runs():
    """Request count, class sizes and wall time of each backend.

    The aggregated run goes first, so a first-run cost lands on the
    faster side.
    """
    runs = {}
    for backend in ("aggregated", "per-client"):
        out, seconds = _timed(lambda: Simulation(_scale_config(backend)).run())
        runs[backend] = (
            out.metrics.requests,
            [cls.num_members for cls in out.client_classes],
            seconds,
        )
    return runs


def test_aggregated_backend_collapses_the_population_to_one_class(scale_runs):
    aggregated_requests, aggregated_classes, _ = scale_runs["aggregated"]
    per_client_requests, _, _ = scale_runs["per-client"]
    assert aggregated_requests > 0
    assert aggregated_classes == [SCALE_CLIENTS]
    assert per_client_requests > 0


def test_aggregated_backend_at_least_3x_per_client(scale_runs):
    """One class of 100 000 members runs at least 3x faster than 100 000
    per-client controllers.

    The floor keeps modest headroom below the ratios PERFORMANCE.md
    records for this scenario: it fails if the aggregated backend stops
    collapsing the population, and a noisy host can trip it too.
    """
    *_, aggregated_s = scale_runs["aggregated"]
    *_, per_client_s = scale_runs["per-client"]
    assert per_client_s / aggregated_s >= 3.0


# ----------------------------------------------------------------------
# Simulator throughput as the tier grows
# ----------------------------------------------------------------------
def _growing_tier_config(proxies: int) -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(num_clients=8, request_rate=40.0,
                              catalog_size=400, zipf_exponent=0.9,
                              follow_probability=0.7),
        bandwidth=30.0,
        cache_capacity=40,
        predictor="true-distribution",
        policy="threshold-dynamic",
        duration=60.0,
        warmup=12.0,
        seed=21,
        topology=TopologyConfig(num_proxies=proxies),
    )


@pytest.fixture(scope="module")
def tier_rows():
    """Per proxy count (1, 2, 4): aggregate requests, the shards' sum,
    link utilization and simulated requests per wall-clock second.

    N proxies mean N links and collectors but the same request count.
    """
    rows = []
    for proxies in (1, 2, 4):
        config = _growing_tier_config(proxies)
        out, seconds = _timed(lambda: run_simulation(config))
        rows.append((
            out.metrics.requests,
            sum(s.metrics.requests for s in out.per_proxy),
            out.metrics.utilization,
            out.metrics.requests / seconds,
        ))
    return rows


def test_shard_requests_sum_to_the_aggregate(tier_rows):
    # shard conservation: the aggregate is exact, not approximate
    for requests, shard_sum, _, _ in tier_rows:
        assert requests == shard_sum


def test_growing_the_tier_relieves_the_links(tier_rows):
    assert tier_rows[-1][2] < tier_rows[0][2]


def test_throughput_holds_as_the_tier_grows(tier_rows):
    # the per-node bookkeeping doesn't crater simulator throughput
    assert tier_rows[-1][3] > 0.2 * tier_rows[0][3]


# ----------------------------------------------------------------------
# Closed-form predictor throughput
# ----------------------------------------------------------------------
def _predictor_grid() -> list[SimulationConfig]:
    # 50 bandwidths x 4 capacities = 200 prefetch-free operating points
    return [
        SimulationConfig(
            workload=WorkloadSpec(num_clients=2, request_rate=15.0,
                                  catalog_size=80, zipf_exponent=0.9),
            bandwidth=float(bandwidth),
            cache_capacity=capacity,
            policy="none",
            duration=15.0,
            warmup=4.0,
            seed=31,
        )
        for capacity in (8, 16, 28, 40)
        for bandwidth in np.linspace(25.0, 74.0, 50)
    ]


@pytest.fixture(scope="module")
def predictor_run():
    """The grid, the predictions and the best of three wall times."""
    configs = _predictor_grid()

    def predict_all():
        predictor = AnalyticPredictor()  # cold memo: every solve real
        return [predictor.predict(config) for config in configs]

    predictions, seconds = _best_of_three(predict_all)
    return configs, predictions, seconds


def test_predictor_gives_one_finite_hit_ratio_per_point(predictor_run):
    configs, predictions, _ = predictor_run
    assert len(predictions) == len(configs)
    assert all(np.isfinite(p.hit_ratio) for p in predictions)


def test_predictor_under_5ms_per_point(predictor_run):
    configs, _, seconds = predictor_run
    assert 1e3 * seconds / len(configs) < 5.0
