"""Whole simulations give the same answers on either processor-sharing server.

Each config runs twice on the serial node backend: once with the
remaining-work reference server (``ps_reference``) patched into
``repro.network.link`` and once with the virtual-time server.  Every
integer of the ``SimulationOutput`` (requests, hits, misses, fetches,
evictions, prefetches, joins, failovers, sketch counts) must be identical,
every float must agree within 1e-12 relative, and both runs must schedule
the same number of events.
"""

import dataclasses
import math
from pathlib import Path

import pytest
from ps_reference import ReferencePSServer

from repro.des import ProcessorSharingServer
from repro.scenario import compile_config, load_scenario
from repro.sim import SimulationConfig
from repro.sim.kpis import QuantileSketch
from repro.sim.simulation import Simulation
from repro.workload.phases import PhaseSpec
from repro.workload.sessions import WorkloadSpec

SCENARIOS = Path(__file__).resolve().parents[2] / "scenarios"
REL = 1e-12


def _paper_point():
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=4,
            request_rate=30.0,
            catalog_size=400,
            zipf_exponent=0.8,
            follow_probability=0.7,
        ),
        bandwidth=55.0,
        cache_capacity=40,
        predictor="markov",
        policy="threshold-dynamic",
        duration=150.0,
        warmup=20.0,
        seed=7,
    )


def _scenario(file, **overrides):
    config = compile_config(load_scenario(SCENARIOS / file))
    return dataclasses.replace(config, node_backend="serial", seed=7, **overrides)


def _flash_crowd():
    # Background, then the 4x spike (120-160 s) and the start of recovery.
    return _scenario("flash_crowd.yaml", policy="threshold-dynamic", duration=180.0)


def _proxy_failure():
    # Node 1 fails at 60 s (its link's transfers go through fail_all)
    # and recovers at 68 s.
    return _scenario("proxy_failure.yaml", policy="threshold-static", duration=80.0)


def _phased():
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=12,
            request_rate=40.0,
            catalog_size=120,
            zipf_exponent=0.9,
            follow_probability=0.6,
            phases=(
                PhaseSpec(duration=20.0),
                PhaseSpec(duration=15.0, rate_multiplier=2.5, popularity_shift=30),
                PhaseSpec(duration=20.0, rate_multiplier=0.5),
            ),
        ),
        bandwidth=60.0,
        cache_capacity=12,
        predictor="markov",
        policy="threshold-dynamic",
        duration=55.0,
        warmup=5.0,
        seed=11,
    )


CONFIGS = {
    "paper-point": _paper_point,
    "flash-crowd": _flash_crowd,
    "proxy-failure": _proxy_failure,
    "phased": _phased,
}


def assert_same_output(new, ref, path="output"):
    """Integers (and everything else that is not a float) identical;
    floats within ``REL`` relative."""
    if dataclasses.is_dataclass(new):
        assert type(new) is type(ref), path
        for f in dataclasses.fields(new):
            assert_same_output(getattr(new, f.name), getattr(ref, f.name), f"{path}.{f.name}")
    elif isinstance(new, QuantileSketch):
        for name in QuantileSketch.__slots__:
            assert_same_output(getattr(new, name), getattr(ref, name), f"{path}.{name}")
    elif isinstance(new, dict):
        assert list(new) == list(ref), path
        for key in new:
            assert_same_output(new[key], ref[key], f"{path}[{key!r}]")
    elif isinstance(new, (list, tuple)):
        assert len(new) == len(ref), path
        for i, (a, b) in enumerate(zip(new, ref)):
            assert_same_output(a, b, f"{path}[{i}]")
    elif isinstance(new, float) and isinstance(ref, float):
        if math.isnan(ref):
            assert math.isnan(new), path
        else:
            assert math.isclose(new, ref, rel_tol=REL), (path, new, ref)
    else:
        assert type(new) is type(ref) and new == ref, (path, new, ref)


def _run(config):
    sim = Simulation(config)
    output = sim.run()
    return output, sim.env._eid


@pytest.mark.parametrize("name", CONFIGS)
def test_same_output_on_either_server(name, monkeypatch):
    config = CONFIGS[name]()
    assert config.node_backend == "serial"
    new, new_events = _run(config)
    monkeypatch.setattr("repro.network.link.ProcessorSharingServer", ReferencePSServer)
    ref, ref_events = _run(config)
    assert new.metrics.requests > 0
    assert_same_output(new, ref)
    assert new_events == ref_events


def test_proxy_failure_aborts_transfers(monkeypatch):
    """The proxy-failure config really aborts transfers through ``fail_all``."""
    aborted = []
    fail_all = ProcessorSharingServer.fail_all

    def counting(self, exc):
        aborted.append(fail_all(self, exc))
        return aborted[-1]

    monkeypatch.setattr(ProcessorSharingServer, "fail_all", counting)
    Simulation(_proxy_failure()).run()
    assert sum(aborted) > 0
