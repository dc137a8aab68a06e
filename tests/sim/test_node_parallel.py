"""Parallel node backend: partition planner and bit-identity.

Two layers of coverage:

* the **partition planner** — a property test over the config space
  pins exactly which configs shard into singleton groups (decoupled
  tiers, each node its own event loop) and which collapse into one
  coupled group with one named reason per coupling, plus the
  oversubscription guard on the worker fan-out;
* the **cross-backend determinism fuzz** — a spread of seeded configs
  (topologies x routing x cooperation x phases x client backends) where
  ``node_backend="parallel"`` must reproduce the serial event loop
  bit-for-bit: headline metrics, per-shard rows, per-entity cache and
  controller stats, class rows and the KPI scorecard.  The single-proxy
  pinned scenario from ``test_topology`` must come out identical too.

Serial and parallel outputs are assembled by one function, so this fuzz
checks the two event-loop layouts against each other;
``test_assembly.py`` checks the assembly itself against the live
simulation objects.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import test_topology  # same-directory test module: pinned seed scenario

import repro.sim.parallel as parallel_mod
from repro.errors import SimulationError
from repro.network.topology import CooperationConfig, TopologyConfig
from repro.scenario import ScenarioError, compile_config, parse_scenario
from repro.sim.config import SimulationConfig
from repro.sim.faults import FaultEvent, FaultSchedule
from repro.sim.kpis import QuantileSketch
from repro.sim.metrics import aggregate_snapshots
from repro.sim.parallel import (
    ReplicationExecutor,
    effective_node_workers,
    plan_node_partition,
)
from repro.sim.runner import run_simulation_replications
from repro.sim.simulation import Simulation, run_simulation
from repro.sim.sweep import SweepExecutor, SweepPoint, scenario_hash
from repro.workload.phases import PhaseSpec
from repro.workload.sessions import WorkloadSpec
from repro.workload.sizes import ExponentialSize, FixedSize


# ----------------------------------------------------------------------
# Output comparison: full structural equality, NaN-aware
# ----------------------------------------------------------------------


def canon(value):
    """Canonical comparable form of a simulation output tree."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, QuantileSketch):
        return {
            "zeros": value.zeros,
            "bins": dict(value.bins),
            "count": value.count,
            "total": value.total,
            "min": value.min,
            "max": value.max,
        }
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    if isinstance(value, dict):
        return {k: canon(v) for k, v in value.items()}
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def assert_outputs_identical(a, b):
    assert canon(a) == canon(b)


# ----------------------------------------------------------------------
# Partition planner
# ----------------------------------------------------------------------


def fuzz_config(**overrides):
    """Small, fast base scenario for the determinism fuzz."""
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
        seed=11,
        topology=TopologyConfig(num_proxies=3),
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def test_plan_decoupled_tier_shards_per_node():
    plan = plan_node_partition(fuzz_config())
    assert plan.groups == ((0,), (1,), (2,))
    assert plan.reasons == ()
    assert plan.parallel


@settings(max_examples=120, deadline=None)
@given(
    num_proxies=st.integers(min_value=1, max_value=6),
    routing=st.sampled_from(["client-affinity", "item-hash"]),
    cooperation=st.sampled_from(["none", "owner-probe", "broadcast"]),
    stochastic_sizes=st.booleans(),
    trace=st.booleans(),
    faulted=st.booleans(),
)
def test_plan_shards_exactly_the_decoupled_tiers(
    num_proxies, routing, cooperation, stochastic_sizes, trace, faulted
):
    """Only a decoupled tier shards, into singleton groups in node order.

    Every coupling adds one reason and keeps the tier in one group, so a
    sharded tier never has a cross-node channel to synchronise.
    """
    # A one-proxy ring cannot lose its only node: faults need two.
    faulted = faulted and num_proxies > 1
    sizes = ExponentialSize(1.0) if stochastic_sizes else FixedSize(1.0)
    config = fuzz_config(
        workload=WorkloadSpec(
            num_clients=9, request_rate=45.0, size_distribution=sizes
        ),
        topology=TopologyConfig(
            num_proxies=num_proxies,
            routing=routing,
            cooperation=CooperationConfig(mode=cooperation),
        ),
        trace_path="some_trace.jsonl" if trace else None,
        faults=(
            FaultSchedule((FaultEvent(time=10.0, kind="proxy-fail", node=1),))
            if faulted
            else FaultSchedule()
        ),
    )
    multi = num_proxies > 1
    couplings = [
        not multi,
        trace,
        multi and routing == "item-hash",
        multi and cooperation != "none",
        faulted,
        stochastic_sizes,
    ]
    plan = plan_node_partition(config)
    assert plan.parallel == (not any(couplings))
    if plan.parallel:
        assert plan.groups == tuple((node,) for node in range(num_proxies))
        assert plan.reasons == ()
    else:
        assert plan.groups == (tuple(range(num_proxies)),)
        assert len(plan.reasons) == sum(couplings)


def test_plan_single_proxy_is_one_group():
    plan = plan_node_partition(fuzz_config(topology=TopologyConfig()))
    assert plan.groups == ((0,),)
    assert not plan.parallel
    assert any("single proxy" in r for r in plan.reasons)


@pytest.mark.parametrize(
    ("overrides", "reason_fragment"),
    [
        (
            {"topology": TopologyConfig(num_proxies=3, routing="item-hash")},
            "item-hash routing",
        ),
        (
            {
                "topology": TopologyConfig(
                    num_proxies=3,
                    cooperation=CooperationConfig(mode="owner-probe"),
                )
            },
            "cooperative probes",
        ),
        ({"trace_path": "some_trace.jsonl"}, "trace replay"),
        (
            {
                "workload": WorkloadSpec(
                    num_clients=9,
                    request_rate=45.0,
                    size_distribution=ExponentialSize(1.0),
                )
            },
            "stochastic item sizes",
        ),
    ],
)
def test_plan_coupled_tiers_collapse_with_reason(overrides, reason_fragment):
    plan = plan_node_partition(fuzz_config(**overrides))
    assert plan.groups == ((0, 1, 2),)
    assert not plan.parallel
    assert any(reason_fragment in r for r in plan.reasons)


# ----------------------------------------------------------------------
# Oversubscription guard and the engine's node backend
# ----------------------------------------------------------------------


def record_dispatched_configs(monkeypatch) -> list:
    """Run every pool map in-process and record the simulation configs
    handed to it (shard-group tasks are not configs, so they are skipped)."""
    seen = []

    def map_in_process(self, fn, items):
        seen.extend(item for item in items if isinstance(item, SimulationConfig))
        return [fn(item) for item in items]

    monkeypatch.setattr(ReplicationExecutor, "map", map_in_process)
    return seen


def oversubscription_warnings(record) -> list:
    return [w for w in record if "oversubscribe" in str(w.message)]


def decoupled_pair(**overrides):
    """A decoupled two-proxy tier on the parallel backend, kept short."""
    return fuzz_config(
        topology=TopologyConfig(num_proxies=2),
        node_backend="parallel",
        duration=10.0,
        warmup=2.0,
        **overrides,
    )


@pytest.mark.parametrize("requested_by", ["config", "engine"])
def test_engine_caps_node_workers_at_its_share_of_cores(monkeypatch, requested_by):
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 2)
    seen = record_dispatched_configs(monkeypatch)
    if requested_by == "config":
        point = SweepPoint("pair", decoupled_pair(node_workers=2), replications=2)
        engine = SweepExecutor(jobs=2)
    else:
        point = SweepPoint("pair", decoupled_pair(), replications=2)
        engine = SweepExecutor(jobs=2, node_workers=2)
    with pytest.warns(RuntimeWarning, match="oversubscribe") as record:
        engine.run([point])
    assert len(oversubscription_warnings(record)) == 1
    assert [c.node_workers for c in seen] == [1, 1]  # 2 cores // 2 jobs


def test_runner_jobs_cap_node_workers_like_the_engine(monkeypatch):
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 2)
    seen = record_dispatched_configs(monkeypatch)
    with pytest.warns(RuntimeWarning, match="oversubscribe") as record:
        run_simulation_replications(
            decoupled_pair(node_workers=2), replications=2, jobs=2
        )
    assert len(oversubscription_warnings(record)) == 1
    assert [c.node_workers for c in seen] == [1, 1]


def test_engine_cap_applies_to_unset_node_workers_silently(monkeypatch):
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
    seen = record_dispatched_configs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SweepExecutor(jobs=4).run(
            [SweepPoint("pair", decoupled_pair(), replications=1)]
        )
    assert [c.node_workers for c in seen] == [2]  # 8 cores // 4 jobs


def test_effective_node_workers_caps_a_lone_run_at_the_cores(monkeypatch):
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
    with pytest.warns(RuntimeWarning, match="oversubscribe"):
        assert effective_node_workers(16, 16) == 8


def test_effective_node_workers_defaults_and_bounds(monkeypatch):
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
    assert effective_node_workers(None, 3) == 3  # one worker per group
    assert effective_node_workers(None, 100) == 8  # bounded by cores
    assert effective_node_workers(5, 3) == 3  # bounded by groups
    assert effective_node_workers(1, 8) == 1


def test_engine_node_backend_moves_serial_configs(monkeypatch):
    seen = record_dispatched_configs(monkeypatch)
    serial = fuzz_config(duration=10.0, warmup=2.0)
    explicit = decoupled_pair(node_workers=1)
    SweepExecutor(node_backend="parallel", node_workers=2).run(
        [
            SweepPoint("serial", serial, replications=1),
            SweepPoint("explicit", explicit, replications=1),
        ]
    )
    assert [(c.node_backend, c.node_workers) for c in seen] == [
        ("parallel", 2),  # the engine's backend and workers fill in
        ("parallel", 1),  # the config's own worker count wins
    ]
    assert Simulation(seen[0])._plan is not None
    # The default engine leaves a config's backend alone.
    seen.clear()
    SweepExecutor().run([SweepPoint("serial", serial, replications=1)])
    assert [(c.node_backend, c.node_workers) for c in seen] == [("serial", None)]
    assert Simulation(serial)._plan is None


def test_engine_rejects_unknown_node_backend():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="unknown node_backend"):
        SweepExecutor(node_backend="threads")


def test_engine_rejects_node_workers_below_one():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="node_workers must be >= 1"):
        SweepExecutor(node_workers=0)


def test_engine_rejects_negative_node_workers():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="node_workers must be >= 1"):
        SweepExecutor(node_workers=-2)


def test_engine_dispatches_a_single_node_worker_as_asked(monkeypatch):
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
    seen = record_dispatched_configs(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        SweepExecutor(jobs=2, node_backend="parallel", node_workers=1).run(
            [SweepPoint("pair", decoupled_pair(), replications=2)]
        )
    assert [(c.node_backend, c.node_workers) for c in seen] == [
        ("parallel", 1),
        ("parallel", 1),
    ]


def test_cap_node_workers_keeps_requests_within_the_share(monkeypatch):
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parallel_mod.cap_node_workers(1, 1) == 1
        assert parallel_mod.cap_node_workers(8, 1) == 8
        assert parallel_mod.cap_node_workers(2, 4) == 2  # 8 // 4 = 2
        assert parallel_mod.cap_node_workers(None, 3) == 2  # 8 // 3
        assert parallel_mod.cap_node_workers(None, 16) == 1  # at least 1


def test_config_validates_node_backend_fields():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        fuzz_config(node_backend="threads")
    with pytest.raises(ConfigurationError):
        fuzz_config(node_workers=0)


# ----------------------------------------------------------------------
# Shard-locality guard
# ----------------------------------------------------------------------


def test_foreign_node_access_raises():
    sim = Simulation(fuzz_config(), only_nodes=(0,))
    with pytest.raises(SimulationError, match="different shard group"):
        sim.nodes[1].holds("item-0")
    assert sim.nodes[0].holds("item-0") in (True, False)


def test_only_nodes_rejects_unknown_proxy():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError, match="unknown proxy"):
        Simulation(fuzz_config(), only_nodes=(0, 7))


# ----------------------------------------------------------------------
# Shard-group build at the full-simulation level
# ----------------------------------------------------------------------


def test_sim_window_split_is_bit_identical():
    """A shard-group build owning every node runs the serial shards."""
    config = fuzz_config()
    serial = run_simulation(config)
    sharded = Simulation(config, only_nodes=(0, 1, 2))
    payloads = sharded.run_shard()
    assert [p.node_id for p in payloads] == [0, 1, 2]
    per_node = [p.snapshot.finalize() for p in payloads]
    assert canon(per_node) == canon([s.metrics for s in serial.per_proxy])
    merged = aggregate_snapshots([p.snapshot for p in payloads])
    assert canon(merged) == canon(serial.metrics)


# ----------------------------------------------------------------------
# Cross-backend determinism fuzz (satellite 3)
# ----------------------------------------------------------------------

PHASES = (
    PhaseSpec(duration=8.0, rate_multiplier=2.5),
    PhaseSpec(duration=10.0, rate_multiplier=0.6, popularity_shift=13),
)

FUZZ_CASES = {
    "per-client-2p": dict(
        topology=TopologyConfig(num_proxies=2), seed=101
    ),
    "per-client-3p-none-policy": dict(policy="none", seed=202),
    "per-client-4p-true-dist": dict(
        topology=TopologyConfig(num_proxies=4),
        predictor="true-distribution",
        seed=303,
    ),
    "per-client-3p-phased": dict(
        workload=WorkloadSpec(
            num_clients=9,
            request_rate=45.0,
            catalog_size=80,
            zipf_exponent=0.8,
            follow_probability=0.6,
            phases=PHASES,
        ),
        seed=404,
    ),
    "per-client-2p-hetero": dict(
        topology=TopologyConfig(
            num_proxies=2,
            bandwidth_overrides={1: 15.0},
            cache_capacity_overrides={0: 8},
        ),
        seed=505,
    ),
    "aggregated-3p": dict(client_backend="aggregated", seed=606),
    "aggregated-4p-phased": dict(
        client_backend="aggregated",
        topology=TopologyConfig(num_proxies=4),
        workload=WorkloadSpec(
            num_clients=24,
            request_rate=60.0,
            catalog_size=80,
            zipf_exponent=0.8,
            follow_probability=0.6,
            phases=PHASES,
        ),
        seed=707,
    ),
}


@pytest.mark.parametrize("case", sorted(FUZZ_CASES))
def test_parallel_backend_is_bit_identical(case):
    config = fuzz_config(**FUZZ_CASES[case])
    serial = run_simulation(config)
    parallel = run_simulation(
        dataclasses.replace(config, node_backend="parallel", node_workers=2)
    )
    assert_outputs_identical(parallel, serial)


FALLBACK_CASES = {
    "item-hash": dict(
        topology=TopologyConfig(num_proxies=2, routing="item-hash"), seed=808
    ),
    "owner-probe": dict(
        topology=TopologyConfig(
            num_proxies=3, cooperation=CooperationConfig(mode="owner-probe")
        ),
        seed=909,
    ),
    "broadcast-aggregated": dict(
        client_backend="aggregated",
        topology=TopologyConfig(
            num_proxies=2, cooperation=CooperationConfig(mode="broadcast")
        ),
        seed=1010,
    ),
    "stochastic-sizes": dict(
        workload=WorkloadSpec(
            num_clients=6,
            request_rate=30.0,
            catalog_size=80,
            size_distribution=ExponentialSize(1.0),
        ),
        topology=TopologyConfig(num_proxies=2),
        seed=1111,
    ),
}


@pytest.mark.parametrize("case", sorted(FALLBACK_CASES))
def test_coupled_modes_fall_back_bit_identically(case):
    config = fuzz_config(**FALLBACK_CASES[case])
    serial = run_simulation(config)
    with pytest.warns(RuntimeWarning, match="falls back to the serial"):
        fallback = run_simulation(
            dataclasses.replace(config, node_backend="parallel")
        )
    assert_outputs_identical(fallback, serial)


def test_parallel_with_real_worker_pool(monkeypatch):
    """Force a genuine 2-process pool (bypassing the 1-core cap) and
    check the shipped payloads reassemble the serial output exactly —
    this is the end-to-end pickling path workers exercise in production."""
    monkeypatch.setattr(parallel_mod.os, "cpu_count", lambda: 8)
    config = fuzz_config(seed=1212)
    serial = run_simulation(config)
    parallel = run_simulation(
        dataclasses.replace(config, node_backend="parallel", node_workers=2)
    )
    assert_outputs_identical(parallel, serial)


def test_single_proxy_parallel_matches_pinned_seed_metrics():
    config = test_topology.seed_config(node_backend="parallel")
    with pytest.warns(RuntimeWarning, match="falls back to the serial"):
        output = run_simulation(config)
    metrics = dataclasses.asdict(output.metrics)
    for key, value in test_topology.PINNED_SEED_METRICS.items():
        assert metrics[key] == value, key
    assert output.link_demand_fetches == (
        test_topology.PINNED_SEED_LINK["link_demand_fetches"]
    )
    assert output.link_prefetch_fetches == (
        test_topology.PINNED_SEED_LINK["link_prefetch_fetches"]
    )
    assert output.link_demand_bytes == (
        test_topology.PINNED_SEED_LINK["link_demand_bytes"]
    )
    assert output.link_prefetch_bytes == (
        test_topology.PINNED_SEED_LINK["link_prefetch_bytes"]
    )


# ----------------------------------------------------------------------
# Cache identity and scenario plumbing (satellite 5)
# ----------------------------------------------------------------------


def test_node_backend_does_not_change_scenario_hash():
    config = fuzz_config()
    base = scenario_hash(config, replications=2, base_seed=config.seed)
    for variant in (
        dataclasses.replace(config, node_backend="parallel"),
        dataclasses.replace(config, node_backend="parallel", node_workers=4),
        dataclasses.replace(config, node_workers=2),
    ):
        assert (
            scenario_hash(variant, replications=2, base_seed=config.seed)
            == base
        )
    # sanity: real scenario knobs still change the hash
    other = dataclasses.replace(config, cache_capacity=17)
    assert scenario_hash(other, replications=2, base_seed=config.seed) != base


def scenario_doc(**system_extra):
    system = {"bandwidth": 40.0, "duration": 30.0, "warmup": 5.0}
    system.update(system_extra)
    return {
        "name": "node-backend-doc",
        "workload": {"num_clients": 4, "request_rate": 10.0},
        "system": system,
        "topology": {"num_proxies": 2},
    }


def test_scenario_schema_accepts_node_backend():
    spec = parse_scenario(scenario_doc(node_backend="parallel", node_workers=2))
    assert spec.system.node_backend == "parallel"
    assert spec.system.node_workers == 2
    config = compile_config(spec)
    assert config.node_backend == "parallel"
    assert config.node_workers == 2

    plain = compile_config(parse_scenario(scenario_doc()))
    assert plain.node_backend == "serial"
    assert plain.node_workers is None


def test_scenario_schema_rejects_bad_node_backend():
    with pytest.raises(ScenarioError, match="node_backend"):
        parse_scenario(scenario_doc(node_backend="threads"))
    with pytest.raises(ScenarioError, match="node_workers"):
        parse_scenario(scenario_doc(node_workers=0))
