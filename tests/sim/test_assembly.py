"""Output assembly checked against the live simulation objects.

Serial and parallel runs build their ``SimulationOutput`` through one
function, from per-node payloads, so the cross-backend fuzz in
``test_node_parallel.py`` cannot catch an assembly bug that both
backends share.  This oracle reads the answer straight off a serial
simulation after its run instead — the controllers and caches in build
order, the class partition, the live metrics collectors and the fault
runtime — without going through the assembly code.  In sparse runs the
entities that never arrive are homed idle, with zero rows of their own.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import pytest

from repro.cache.base import CacheStats
from repro.des.rng import RandomStreams
from repro.network.topology import TopologyConfig
from repro.prefetch.controller import ControllerStats
from repro.scenario import compile_config, load_scenario
from repro.sim.config import SimulationConfig
from repro.sim.metrics import finalize_aggregate
from repro.sim.simulation import Simulation
from repro.workload.phases import PhaseSpec, arrival_times
from repro.workload.sessions import WorkloadSpec

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"


def _config(**overrides) -> SimulationConfig:
    defaults = dict(
        workload=WorkloadSpec(
            num_clients=9,
            request_rate=45.0,
            catalog_size=80,
            zipf_exponent=0.8,
            follow_probability=0.6,
        ),
        bandwidth=40.0,
        cache_capacity=16,
        predictor="markov",
        policy="threshold-dynamic",
        duration=30.0,
        warmup=5.0,
        seed=17,
        topology=TopologyConfig(num_proxies=3),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def _proxy_failure() -> SimulationConfig:
    config = compile_config(load_scenario(SCENARIOS / "proxy_failure.yaml"))
    # The fault schedule (fail at 60 s, recover at 68 s) stays inside.
    return dataclasses.replace(
        config, policy="threshold-static", duration=75.0, seed=23
    )


CONFIGS = {
    "per-client-3p": lambda: _config(),
    # Overrides split clients 3, 4 and 5 off their nodes' default
    # classes: nodes 0-2 each own two classes, and the class ids
    # (representative order) alternate between the nodes.
    "aggregated-3p-interleaved": lambda: _config(
        client_backend="aggregated",
        workload=WorkloadSpec(
            num_clients=12,
            request_rate=60.0,
            catalog_size=80,
            zipf_exponent=0.8,
            follow_probability=0.6,
            client_overrides={
                3: {"request_rate": 9.0},
                4: {"catalog_size": 120},
                5: {"follow_probability": 0.3},
            },
        ),
    ),
    "per-client-2p-phased": lambda: _config(
        topology=TopologyConfig(num_proxies=2),
        workload=WorkloadSpec(
            num_clients=8,
            request_rate=40.0,
            catalog_size=80,
            zipf_exponent=0.8,
            follow_probability=0.6,
            phases=(
                PhaseSpec(duration=8.0, rate_multiplier=2.5),
                PhaseSpec(duration=10.0, rate_multiplier=0.6, popularity_shift=13),
            ),
        ),
    ),
    "proxy-failure": _proxy_failure,
}


def _same(a, b) -> bool:
    """Field-wise equality of two dataclasses, NaN equal to NaN."""

    def canon(value):
        return "nan" if isinstance(value, float) and math.isnan(value) else value

    left, right = dataclasses.asdict(a), dataclasses.asdict(b)
    return {k: canon(v) for k, v in left.items()} == {
        k: canon(v) for k, v in right.items()
    }


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def ran(request):
    sim = Simulation(CONFIGS[request.param]())
    return request.param, sim, sim.run()


def test_entity_stats_are_the_live_objects_in_build_order(ran):
    _, sim, out = ran
    assert len(out.controller_stats) == len(sim.clients) > 0
    assert len(out.cache_stats) == len(sim._caches) == len(sim.clients)
    for i, (controller, cache) in enumerate(zip(sim.clients, sim._caches)):
        assert out.controller_stats[i] is controller.stats
        assert out.cache_stats[i] is cache.stats


def test_class_rows_follow_the_class_partition(ran):
    name, sim, out = ran
    assert len(out.client_classes) == len(sim.client_classes)
    if name.startswith("aggregated"):
        # The overrides really interleave classes across nodes.
        assert [cls.node_id for cls in sim.client_classes] == [0, 1, 2, 0, 1, 2]
    for row, cls, controller, cache in zip(
        out.client_classes, sim.client_classes, sim.clients, sim._caches
    ):
        assert row.class_id == cls.class_id
        assert row.node_id == cls.node_id
        assert row.num_members == cls.size
        assert row.representative == cls.representative
        assert row.request_rate == cls.request_rate
        assert row.requests == controller.stats.requests
        assert row.cache_hits == cache.stats.hits
        assert row.cache_misses == cache.stats.misses
        assert row.prefetches_issued == controller.stats.prefetches_issued
        assert row.prefetches_completed == controller.stats.prefetches_completed


def test_metrics_equal_the_live_collectors(ran):
    _, sim, out = ran
    assert _same(out.metrics, finalize_aggregate([n.collector for n in sim.nodes]))
    assert len(out.per_proxy) == len(sim.nodes)
    for shard, node in zip(out.per_proxy, sim.nodes):
        assert shard.node_id == node.node_id
        assert shard.clients == tuple(node.clients)
        assert _same(shard.metrics, node.collector.finalize())
        assert shard.link_demand_fetches == node.link.demand_fetches
        assert shard.link_prefetch_bytes == node.link.prefetch_bytes
    assert out.link_prefetch_fetches == sum(
        n.link.prefetch_fetches for n in sim.nodes
    )


def test_fault_timeline_is_the_recorded_rows(ran):
    name, sim, out = ran
    if name == "proxy-failure":
        rows = tuple(sim.fault_runtime.timeline)
        assert [row.kind for row in rows] == ["proxy-fail", "proxy-recover", "end"]
        assert out.kpis.fault_timeline == rows
    else:
        assert sim.fault_runtime is None
        assert out.kpis.fault_timeline == ()


# ----------------------------------------------------------------------
# Sparse runs: screened entities, most of them idle
# ----------------------------------------------------------------------
def _sparse(**overrides) -> SimulationConfig:
    """300 clients on 3 proxies expecting 0.2–0.8 arrivals each in 2 s:
    every one is screened, and most never arrive."""
    return _config(duration=2.0, warmup=0.2, **overrides)


SPARSE = {
    "sparse-per-client-3p": lambda: _sparse(
        workload=WorkloadSpec(
            num_clients=300,
            request_rate=60.0,
            catalog_size=80,
            zipf_exponent=0.8,
            follow_probability=0.6,
        ),
    ),
    # A distinct rate per client makes every class a singleton.
    "sparse-singleton-classes-3p": lambda: _sparse(
        client_backend="aggregated",
        workload=WorkloadSpec(
            num_clients=300,
            request_rate=60.0,
            catalog_size=80,
            zipf_exponent=0.8,
            follow_probability=0.6,
            client_overrides={
                c: {"request_rate": 0.1 + 0.001 * c} for c in range(300)
            },
        ),
    ),
}


@pytest.fixture(scope="module", params=sorted(SPARSE))
def sparse_ran(request):
    config = SPARSE[request.param]()
    sim = Simulation(config)
    out = sim.run()
    spec = config.workload
    if config.client_backend == "aggregated":
        entities = [(cls.stream_label, cls.request_rate) for cls in sim.client_classes]
    else:
        entities = [(f"client{c}", spec.rate_of(c)) for c in range(spec.num_clients)]
    # Whether each entity's first arrival falls in the horizon, from a
    # fresh copy of its arrival stream.
    arrives = [
        next(
            arrival_times(
                spec.make_schedule(),
                rate,
                RandomStreams(config.seed).get(f"{label}/arrivals"),
                horizon=config.duration,
            ),
            None,
        )
        is not None
        for label, rate in entities
    ]
    assert 0 < sum(arrives) < len(arrives) // 2
    return sim, out, entities, arrives


def test_sparse_rows_are_live_or_zero(sparse_ran):
    sim, out, entities, arrives = sparse_ran
    assert len(out.cache_stats) == len(out.controller_stats) == len(entities)
    assert sum(len(shard.clients) for shard in out.per_proxy) == len(entities)
    assert len(sim.clients) == len(sim._caches) == sum(arrives)
    # Every row is an object of its own: idle rows alias nothing.
    assert len({id(row) for row in out.cache_stats}) == len(entities)
    assert len({id(row) for row in out.controller_stats}) == len(entities)
    live = iter(zip(sim.clients, sim._caches))
    live_ids = {id(c.stats) for c in sim.clients} | {id(c.stats) for c in sim._caches}
    for arrived, cache_row, controller_row in zip(
        arrives, out.cache_stats, out.controller_stats
    ):
        if arrived:
            controller, cache = next(live)
            assert controller_row is controller.stats
            assert cache_row is cache.stats
            assert controller_row.requests > 0
        else:
            assert cache_row == CacheStats()
            assert controller_row == ControllerStats()
            assert id(cache_row) not in live_ids
            assert id(controller_row) not in live_ids


def test_sparse_class_rows_partition_the_totals(sparse_ran):
    sim, out, _, arrives = sparse_ran
    if not sim.client_classes:
        assert out.client_classes == ()
        return
    rows = out.client_classes
    assert [row.class_id for row in rows] == [c.class_id for c in sim.client_classes]
    assert sum(row.num_members for row in rows) == sim.config.workload.num_clients
    assert sum(row.requests for row in rows) == sum(
        c.requests for c in out.controller_stats
    )
    assert sum(row.cache_hits + row.cache_misses for row in rows) == sum(
        c.hits + c.misses for c in out.cache_stats
    )
    assert sum(row.prefetches_issued for row in rows) == out.link_prefetch_fetches
    for row, arrived in zip(rows, arrives):
        assert (row.requests > 0) == arrived


def test_no_idle_arrival_stream_stays_registered(sparse_ran):
    sim, _, entities, arrives = sparse_ran
    registered = sim.streams._streams
    for (label, _), arrived in zip(entities, arrives):
        assert (f"{label}/arrivals" in registered) == arrived, label
