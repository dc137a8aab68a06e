"""Screening sparse entities never changes an output.

A build draws, at build time, the first arrival of each entity whose
expected arrivals in the horizon are below
``simulation.SCREEN_BELOW_ARRIVALS``, and homes one with no arrival in
the horizon *idle*: zero stats rows and no request stack.  The constant
decides only *when* a first draw happens.  So every config here is built
twice, with the constant at 0 (nothing screened) and at +inf (every
synthetic entity screened), and the two runs must give the same output
fingerprint (``perfbench.checks.fingerprint``) and the same event counts.
The screen derives its arrival streams ``simulation.SCREEN_BATCH`` at a
time, and the batch size must move nothing either.

Cooperative migration is the one exclusion: it admits migrated items into
every cache homed at a node, idle entities' included.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from perfbench.checks import fingerprint  # noqa: E402
from repro.des.rng import BATCH_CROSSOVER, RandomStreams  # noqa: E402
from repro.network.topology import CooperationConfig, TopologyConfig  # noqa: E402
from repro.scenario import compile_config, load_scenario  # noqa: E402
from repro.sim import simulation  # noqa: E402
from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.faults import FaultEvent, FaultSchedule  # noqa: E402
from repro.sim.simulation import Simulation  # noqa: E402
from repro.workload.phases import PhaseSpec  # noqa: E402
from repro.workload.sessions import WorkloadSpec  # noqa: E402


@contextmanager
def screening_below(expected_arrivals: float):
    saved = simulation.SCREEN_BELOW_ARRIVALS
    simulation.SCREEN_BELOW_ARRIVALS = expected_arrivals
    try:
        yield
    finally:
        simulation.SCREEN_BELOW_ARRIVALS = saved


def outcome(config: SimulationConfig, expected_arrivals: float):
    """(fingerprint, events of every event loop, idle entities) of one run.

    Every event loop runs through ``run_shard``: a serial run's, and each
    in-process shard group's on the parallel node backend.
    """
    events, idle = [], []
    run_shard = Simulation.run_shard

    def counting_run_shard(sim):
        payloads = run_shard(sim)
        events.append(sim.env._eid)
        homed = sum(len(node.clients) for node in sim.nodes)
        idle.append(homed - len(sim.clients))
        return payloads

    with screening_below(expected_arrivals), mock.patch.object(
        Simulation, "run_shard", counting_run_shard
    ):
        out = Simulation(config).run()
    return fingerprint(out), events, sum(idle)


@st.composite
def sparse_configs(draw) -> SimulationConfig:
    clients = draw(st.integers(50, 400))
    duration = draw(st.floats(2.0, 20.0))
    phases, mean_multiplier = None, 1.0
    if draw(st.booleans()):
        first = duration * draw(st.floats(0.1, 0.6))
        second = duration * draw(st.floats(0.1, 0.6))
        multiplier = draw(st.floats(0.2, 5.0))
        phases = (
            PhaseSpec(duration=first),
            PhaseSpec(
                duration=second,
                rate_multiplier=multiplier,
                popularity_shift=draw(st.integers(1, 59)),
            ),
        )
        mean_multiplier = (first + second * multiplier) / (first + second)
    # Expected arrivals per client, spread across 1: a few shared levels
    # (multi-member classes on the aggregated backend) or one rate per
    # client (singleton classes).
    levels = draw(st.lists(st.floats(0.05, 4.0), min_size=1, max_size=5))
    distinct = draw(st.booleans())
    overrides = {
        c: {
            "request_rate": levels[c % len(levels)]
            * (1.0 + 1e-6 * c * distinct)
            / (duration * mean_multiplier)
        }
        for c in range(clients)
    }
    tier = draw(st.sampled_from(["one", "owner-probe", "decoupled", "parallel"]))
    proxies = 1 if tier == "one" else draw(st.integers(2, 3))
    topology = TopologyConfig(
        num_proxies=proxies,
        routing="item-hash" if tier == "owner-probe" else "client-affinity",
        cooperation=CooperationConfig(
            mode="owner-probe" if tier == "owner-probe" else "none"
        ),
    )
    faults = None
    if tier in ("owner-probe", "decoupled") and draw(st.booleans()):
        faults = FaultSchedule(
            events=(
                FaultEvent(
                    time=duration * draw(st.floats(0.2, 0.5)),
                    kind="proxy-fail",
                    node=1,
                ),
                FaultEvent(
                    time=duration * draw(st.floats(0.55, 0.9)),
                    kind="proxy-recover",
                    node=1,
                ),
            ),
            migration="cold",
        )
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=clients,
            request_rate=30.0,
            catalog_size=60,
            zipf_exponent=0.9,
            follow_probability=0.6,
            client_overrides=overrides,
            phases=phases,
        ),
        bandwidth=40.0,
        cache_capacity=8,
        cache_policy=draw(st.sampled_from(["lru", "random"])),
        predictor=draw(st.sampled_from(["markov", "true-distribution"])),
        policy=draw(
            st.sampled_from(["threshold-dynamic", "threshold-static", "none"])
        ),
        assumed_hit_ratio=0.3,
        duration=duration,
        warmup=0.1 * duration,
        seed=draw(st.integers(0, 2**32 - 1)),
        topology=topology,
        client_backend=draw(st.sampled_from(["per-client", "aggregated"])),
        node_backend="parallel" if tier == "parallel" else "serial",
        node_workers=1,
        faults=faults,
    )


class TestScreeningIsInvisible:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(config=sparse_configs())
    def test_same_output_with_and_without_screening(self, config):
        built, built_events, none_idle = outcome(config, 0.0)
        screened, screened_events, _ = outcome(config, math.inf)
        assert none_idle == 0
        assert screened == built
        assert screened_events == built_events


class TestScreenBatchIsInvisible:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(config=sparse_configs())
    def test_same_output_at_batch_size_one_and_infinity(self, config):
        with mock.patch.object(simulation, "SCREEN_BATCH", 1):
            single = outcome(config, math.inf)
        with mock.patch.object(simulation, "SCREEN_BATCH", math.inf):
            whole = outcome(config, math.inf)
        assert single == whole


def registry_marks(config: SimulationConfig) -> tuple[int, int]:
    """(high-water mark of the stream registry during the build, the
    streams it holds once the build is done)."""
    marks = []

    def counting(method):
        def wrapper(streams, names):
            result = method(streams, names)
            marks.append(len(streams._streams))
            return result

        return wrapper

    with mock.patch.object(
        RandomStreams, "derive", counting(RandomStreams.derive)
    ), mock.patch.object(RandomStreams, "get", counting(RandomStreams.get)):
        sim = Simulation(config)
    return max(marks), len(sim.streams._streams)


def test_a_sparse_build_holds_one_screen_batch_at_a_time():
    # 12 000 clients expecting 0.15 arrivals each: about 1 700 are built.
    config = SimulationConfig(
        workload=WorkloadSpec(
            num_clients=12_000, request_rate=900.0, catalog_size=60
        ),
        bandwidth=40.0,
        cache_capacity=8,
        policy="threshold-dynamic",
        duration=2.0,
        warmup=0.2,
        seed=5,
    )
    high_water, kept = registry_marks(config)
    largest_batch = simulation.SCREEN_BATCH + BATCH_CROSSOVER - 1
    assert high_water <= kept + largest_batch
    # Deriving every screened entity's stream at once would break it.
    assert config.workload.num_clients > kept + largest_batch


def sparse_cooperative_migration() -> SimulationConfig:
    """``proxy_failure.yaml`` (cooperative migration) at 4 000 clients.

    About 1.8 expected arrivals per client in 75 s: a screened build
    would leave 660 clients idle, and the recovery migrates 67 items.
    """
    config = compile_config(load_scenario(REPO_ROOT / "scenarios" / "proxy_failure.yaml"))
    assert config.faults.migration == "cooperative"
    return dataclasses.replace(
        config,
        workload=dataclasses.replace(config.workload, num_clients=4000),
        duration=75.0,
        seed=3,
        policy="none",
    )


def test_cooperative_migration_screens_nothing():
    config = sparse_cooperative_migration()
    natural, _, idle = outcome(config, math.inf)
    assert idle == 0
    # Without the exclusion, migrated copies land round-robin on a
    # different set of caches, and the output moves.
    with mock.patch.object(Simulation, "_screens", lambda sim: True):
        forced, _, forced_idle = outcome(config, math.inf)
    assert forced_idle > 0
    assert forced != natural
