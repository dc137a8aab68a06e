"""End-to-end tests for trace replay through the full simulation.

Covers the tentpole guarantees: a replayed run consumes the recorded
request stream exactly (timestamps, items, per-client demux), every policy
sees the byte-identical sequence, replays are bit-deterministic (including
under a parallel sweep pool), and the sweep cache keys trace-driven points
by the trace file's content digest.
"""

import dataclasses
import math
from dataclasses import replace

import pytest

from repro.prefetch import PrefetchController
from repro.sim import SimulationConfig, run_simulation
from repro.sim.simulation import Simulation
from repro.sim.sweep import SweepExecutor, SweepPoint, scenario_hash
from repro.workload import (
    TraceRecord,
    WorkloadSpec,
    generate_trace,
    save_trace,
)


def small_spec(**overrides):
    defaults = dict(
        num_clients=3,
        request_rate=18.0,
        catalog_size=120,
        zipf_exponent=0.9,
        follow_probability=0.7,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


@pytest.fixture
def trace_file(tmp_path):
    spec = small_spec()
    records = generate_trace(spec, duration=40.0, seed=9)
    path = tmp_path / "workload.jsonl"
    save_trace(records, path)
    return path, records, spec


def replay_config(path, spec, **overrides):
    defaults = dict(
        workload=spec,
        trace_path=str(path),
        bandwidth=40.0,
        cache_capacity=25,
        predictor="markov",
        policy="none",
        duration=45.0,
        warmup=5.0,
        seed=2,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


def metrics_equal(a, b):
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, float) and math.isnan(va):
            assert math.isnan(vb), field.name
        else:
            assert va == vb, field.name


class TestReplayDrivesTheDES:
    def test_exact_timestamps_and_items(self, tmp_path, monkeypatch):
        # A hand-written trace: the simulation must issue exactly these
        # requests at exactly these times.
        records = [
            TraceRecord(time=1.25, client=0, item=3, size=0.5),
            TraceRecord(time=2.5, client=1, item=4, size=0.5),
            TraceRecord(time=2.5, client=0, item=3, size=0.5),
            TraceRecord(time=4.0, client=1, item=5, size=0.5),
        ]
        path = tmp_path / "hand.csv"
        save_trace(records, path)
        sim = Simulation(replay_config(path, small_spec(num_clients=2),
                                       warmup=0.0, duration=10.0))
        # Track every user access through the controllers (hits don't
        # reach the origin, so instrumenting fetches would miss them).
        accesses = []
        on_user_access = PrefetchController._on_user_access

        def on_access(controller, item, *, now, size):
            accesses.append((round(now, 9), sim.clients.index(controller), item))
            return on_user_access(controller, item, now=now, size=size)

        monkeypatch.setattr(PrefetchController, "_on_user_access", on_access)
        out = sim.run()
        assert accesses == [(1.25, 0, 3), (2.5, 1, 4), (2.5, 0, 3),
                            (4.0, 1, 5)]
        assert out.metrics.requests == 4
        assert out.metrics.hits == 1  # the repeat of item 3

    def test_replayed_run_counts_all_recorded_requests(self, trace_file):
        path, records, spec = trace_file
        config = replay_config(path, spec)
        out = run_simulation(config)
        expected = sum(1 for r in records if r.time >= config.warmup)
        assert out.metrics.requests == expected

    def test_trace_sizes_reach_the_link(self, tmp_path):
        records = [TraceRecord(time=1.0, client=0, item=1, size=7.5)]
        path = tmp_path / "size.csv"
        save_trace(records, path)
        out = run_simulation(replay_config(
            path, small_spec(num_clients=1), warmup=0.0, duration=10.0))
        assert out.link_demand_bytes == pytest.approx(7.5)

    def test_num_clients_comes_from_trace(self, trace_file):
        path, _records, spec = trace_file
        sim = Simulation(replay_config(path, small_spec(num_clients=1)))
        assert sim.num_clients == 3
        assert len(sim.clients) == 3


class TestReplayDeterminism:
    def test_same_trace_same_policy_bit_identical(self, trace_file):
        path, _records, spec = trace_file
        config = replay_config(path, spec, policy="threshold-dynamic")
        metrics_equal(run_simulation(config).metrics,
                      run_simulation(config).metrics)

    def test_identical_request_sequence_across_policies(self, trace_file):
        path, _records, spec = trace_file
        outs = {
            policy: run_simulation(replay_config(path, spec, policy=policy))
            for policy in ("none", "threshold-dynamic", "all")
        }
        counts = {o.metrics.requests for o in outs.values()}
        assert len(counts) == 1
        # but the policies genuinely differ in behaviour
        assert outs["all"].metrics.prefetches_issued > 0
        assert outs["none"].metrics.prefetches_issued == 0

    def test_parallel_sweep_bit_identical_to_serial(self, trace_file):
        path, _records, spec = trace_file
        config = replay_config(path, spec, policy="threshold-dynamic")
        point = [SweepPoint(key="p", config=config, replications=2)]
        serial = SweepExecutor(jobs=1).run(point)
        parallel = SweepExecutor(jobs=2).run(point)
        for name in serial["p"].metric_names:
            assert (serial["p"][name] == parallel["p"][name]).all(), name


class TestDigestKeyedCache:
    def test_warm_rerun_hits_until_trace_changes(self, trace_file, tmp_path):
        path, records, spec = trace_file
        cache = tmp_path / "cache"
        config = replay_config(path, spec)
        point = [SweepPoint(key="p", config=config, replications=1)]

        engine = SweepExecutor(cache_dir=cache)
        cold = engine.run(point)
        assert cold.cache_misses == ("p",)
        warm = engine.run(point)
        assert warm.cache_hits == ("p",)
        metrics_equal(cold.raw["p"][0].metrics, warm.raw["p"][0].metrics)

        # Rewriting the file with different content must invalidate.
        save_trace(records[:-1], path)
        changed = engine.run(point)
        assert changed.cache_misses == ("p",)

    def test_scenario_hash_keyed_by_content_not_path(self, trace_file,
                                                     tmp_path):
        path, records, spec = trace_file
        twin = tmp_path / "copy.jsonl"
        twin.write_bytes(path.read_bytes())
        h1 = scenario_hash(replay_config(path, spec), replications=1,
                           base_seed=2)
        h2 = scenario_hash(replay_config(twin, spec), replications=1,
                           base_seed=2)
        assert h1 == h2  # same bytes, different path -> same key
        save_trace(records[:-1], twin)
        h3 = scenario_hash(replay_config(twin, spec), replications=1,
                           base_seed=2)
        assert h3 != h1  # different bytes -> different key
