"""Garbage-collector hygiene of a simulation build and run.

The build pauses CPython's cyclic collector and the event loop runs with
the built graph frozen (``gc.freeze``), so collections skip the
long-lived clients.  Neither may leak out: after any build or run the
collector is exactly as enabled as the caller left it, and nothing stays
frozen — also when the run raises, and on the parallel node backend.
"""

from __future__ import annotations

import dataclasses
import gc

import pytest

from repro.network.topology import TopologyConfig
from repro.sim.config import SimulationConfig
from repro.sim.simulation import Simulation
from repro.workload.sessions import WorkloadSpec


def _config(**overrides):
    defaults = dict(
        workload=WorkloadSpec(
            num_clients=6,
            request_rate=30.0,
            catalog_size=60,
            zipf_exponent=0.8,
            follow_probability=0.6,
        ),
        bandwidth=40.0,
        cache_capacity=12,
        predictor="markov",
        policy="threshold-dynamic",
        duration=12.0,
        warmup=2.0,
        seed=5,
        topology=TopologyConfig(num_proxies=2),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(params=[True, False], ids=["caller-enabled", "caller-disabled"])
def caller_gc(request):
    """Run the test under the given caller GC state; restore it after."""
    was_enabled = gc.isenabled()
    if request.param:
        gc.enable()
    else:
        gc.disable()
    try:
        yield request.param
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def _assert_restored(enabled: bool) -> None:
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == 0


def test_serial_build_and_run_restore_gc_state(caller_gc):
    sim = Simulation(_config())
    _assert_restored(caller_gc)
    sim.run()
    _assert_restored(caller_gc)


def test_parallel_backend_restores_gc_state(caller_gc):
    config = dataclasses.replace(_config(), node_backend="parallel", node_workers=2)
    sim = Simulation(config)
    assert sim._plan is not None  # really dispatched, not a serial fallback
    _assert_restored(caller_gc)
    sim.run()
    _assert_restored(caller_gc)


def test_shard_worker_run_restores_gc_state(caller_gc):
    sim = Simulation(_config(), only_nodes=(1,))
    _assert_restored(caller_gc)
    sim.run_shard()
    _assert_restored(caller_gc)


def test_run_that_raises_restores_gc_state(caller_gc):
    sim = Simulation(_config())

    def boom():
        yield sim.env.timeout(1.0)
        raise RuntimeError("boom")

    sim.env.start(boom())
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    _assert_restored(caller_gc)


def test_build_pauses_and_run_freezes(monkeypatch):
    seen = {}
    build = Simulation._build_clients

    def spy_build(self):
        seen["build_enabled"] = gc.isenabled()
        build(self)

    monkeypatch.setattr(Simulation, "_build_clients", spy_build)
    sim = Simulation(_config())

    def probe():
        yield sim.env.timeout(1.0)
        seen["run_frozen"] = gc.get_freeze_count()

    sim.env.start(probe())
    sim.run()
    assert seen["build_enabled"] is False
    assert seen["run_frozen"] > 0
    assert gc.get_freeze_count() == 0


def test_caller_frozen_objects_stay_frozen():
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        Simulation(_config()).run()
        # Not thawed by the run (a few frozen objects may have been freed
        # by reference counting meanwhile, nothing new was frozen).
        assert 0 < gc.get_freeze_count() <= frozen
    finally:
        gc.unfreeze()
