"""Tests for the sweep engine (shared pool + on-disk result cache).

Contracts (mirroring ``test_parallel.py`` for the single-point engine):

* a grid through :class:`SweepExecutor` is **bit-identical** to running
  each point through a plain serial seed loop (``runner_reference``), at
  any ``jobs``, and so are the per-point replication runners built on it;
* the result cache hits on unchanged points, misses when any parameter
  changes, and cached results equal freshly simulated ones exactly;
* non-picklable configs degrade gracefully (serial, uncached) with
  identical results;
* a point's samples depend only on its config and seed schedule — not
  on its key, its place in the grid or which other points the cache
  served.
"""

import dataclasses
import inspect
import pickle

import numpy as np
import pytest

from runner_reference import mirror_replications, simulation_replications

from repro.core.parameters import SystemParameters
from repro.errors import ConfigurationError
from repro.experiments.base import Experiment, ExperimentResult
from repro.sim import (
    MirrorConfig,
    SimulationConfig,
    SweepExecutor,
    SweepPoint,
    compare_policies,
    run_mirror_replications,
    run_simulation_replications,
)
from repro.sim.sweep import CACHE_SCHEMA_VERSION, scenario_hash
from repro.workload.sessions import WorkloadSpec
from repro.workload.sizes import SizeDistribution


def _mirror_config(seed=7, bandwidth=50.0) -> MirrorConfig:
    return MirrorConfig(
        params=SystemParameters.paper_defaults(hit_ratio=0.3, bandwidth=bandwidth),
        n_f=0.3,
        p=0.5,
        duration=120.0,
        warmup=15.0,
        seed=seed,
    )


def _sim_config(seed=3) -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(num_clients=2, request_rate=15.0,
                              catalog_size=60, follow_probability=0.6),
        bandwidth=40.0,
        cache_capacity=12,
        policy="threshold-dynamic",
        duration=40.0,
        warmup=8.0,
        seed=seed,
    )


def _grid(replications=2) -> list[SweepPoint]:
    return [
        SweepPoint(key="mirror/b=50", config=_mirror_config(bandwidth=50.0),
                   replications=replications, meta={"x": 50.0}),
        SweepPoint(key="mirror/b=80", config=_mirror_config(bandwidth=80.0),
                   replications=replications, meta={"x": 80.0}),
        SweepPoint(key="full-sim", config=_sim_config(),
                   replications=replications, meta={"x": 0.0}),
    ]


def _cache_policy_points() -> list[SweepPoint]:
    """Full-system points under the LFU and value-aware caches, with the
    oracle predictor whose probabilities the value-aware cache ranks by."""
    return [
        SweepPoint(
            key=f"full-sim/{policy}",
            config=dataclasses.replace(
                _sim_config(), cache_policy=policy, predictor="true-distribution"
            ),
            replications=2,
        )
        for policy in ("lfu", "value-aware")
    ]


def _assert_identical(a, b):
    assert a.metric_names == b.metric_names
    for name in a.metric_names:
        assert np.array_equal(a[name], b[name], equal_nan=True), name


class TestBitIdenticalToPerPointRunners:
    def test_matches_per_point_path(self):
        grid = SweepExecutor(jobs=1).run(_grid() + _cache_policy_points())
        for key, cfg, reference, runner in [
            ("mirror/b=50", _mirror_config(bandwidth=50.0),
             mirror_replications, run_mirror_replications),
            ("mirror/b=80", _mirror_config(bandwidth=80.0),
             mirror_replications, run_mirror_replications),
            ("full-sim", _sim_config(),
             simulation_replications, run_simulation_replications),
        ] + [
            (pt.key, pt.config, simulation_replications, run_simulation_replications)
            for pt in _cache_policy_points()
        ]:
            expected = reference(cfg, replications=2)
            _assert_identical(grid[key], expected)
            _assert_identical(runner(cfg, replications=2, jobs=1), expected)

    def test_compare_policies_matches_per_policy_loops(self):
        policies = {"none": {"policy": "none"},
                    "thr": {"policy": "threshold-dynamic"}}
        results = compare_policies(_sim_config(), policies, replications=2)
        assert list(results) == list(policies)
        for name, overrides in policies.items():
            expected = simulation_replications(
                dataclasses.replace(_sim_config(), **overrides), replications=2
            )
            _assert_identical(results[name], expected)

    def test_jobs4_equals_jobs1(self):
        serial = SweepExecutor(jobs=1).run(_grid())
        parallel = SweepExecutor(jobs=4).run(_grid())
        for key in serial:
            _assert_identical(serial[key], parallel[key])

    def test_explicit_base_seed_matches_runner_base_seed(self):
        pt = SweepPoint(key="m", config=_mirror_config(seed=7),
                        replications=2, base_seed=123)
        grid = SweepExecutor(jobs=1).run([pt])
        ref = mirror_replications(
            _mirror_config(seed=7), replications=2, base_seed=123
        )
        _assert_identical(grid["m"], ref)
        runner = run_mirror_replications(
            _mirror_config(seed=7), replications=2, base_seed=123, jobs=1
        )
        _assert_identical(runner, ref)


class TestResultCache:
    def test_miss_then_hit_identical(self, tmp_path):
        engine = SweepExecutor(jobs=1, cache_dir=tmp_path)
        keys = {"mirror/b=50", "mirror/b=80", "full-sim",
                "full-sim/lfu", "full-sim/value-aware"}
        cold = engine.run(_grid() + _cache_policy_points())
        assert set(cold.cache_misses) == keys
        assert cold.cache_hits == ()
        warm = engine.run(_grid() + _cache_policy_points())
        assert set(warm.cache_hits) == keys
        assert warm.cache_misses == ()
        for key in cold:
            _assert_identical(cold[key], warm[key])

    def test_cache_shared_across_engines(self, tmp_path):
        SweepExecutor(jobs=1, cache_dir=tmp_path).run(_grid())
        warm = SweepExecutor(jobs=1, cache_dir=tmp_path).run(_grid())
        assert warm.cache_misses == ()

    def test_parameter_change_invalidates(self, tmp_path):
        engine = SweepExecutor(jobs=1, cache_dir=tmp_path)
        engine.run([SweepPoint(key="m", config=_mirror_config(), replications=2)])
        changed = engine.run(
            [SweepPoint(key="m", config=_mirror_config(bandwidth=60.0),
                        replications=2)]
        )
        assert changed.cache_misses == ("m",)
        # ... as does a replication-count or seed-schedule change.
        more_reps = engine.run(
            [SweepPoint(key="m", config=_mirror_config(), replications=3)]
        )
        assert more_reps.cache_misses == ("m",)
        reseeded = engine.run(
            [SweepPoint(key="m", config=_mirror_config(), replications=2,
                        base_seed=99)]
        )
        assert reseeded.cache_misses == ("m",)

    def test_corrupt_cache_file_is_a_miss(self, tmp_path):
        engine = SweepExecutor(jobs=1, cache_dir=tmp_path)
        pt = SweepPoint(key="m", config=_mirror_config(), replications=1)
        engine.run([pt])
        for f in tmp_path.glob("*.pkl"):
            f.write_bytes(b"not a pickle")
        again = engine.run([pt])
        assert again.cache_misses == ("m",)

    @staticmethod
    def _rewrite_entries(cache_dir, edit):
        for f in cache_dir.glob("*.pkl"):
            payload = pickle.loads(f.read_bytes())
            edit(payload)
            f.write_bytes(pickle.dumps(payload))

    def test_other_schema_version_is_a_miss_then_rewritten(self, tmp_path):
        engine = SweepExecutor(jobs=1, cache_dir=tmp_path)
        pt = SweepPoint(key="m", config=_mirror_config(), replications=1)
        cold = engine.run([pt])
        self._rewrite_entries(
            tmp_path,
            lambda p: p.update(version=CACHE_SCHEMA_VERSION - 1),
        )
        stale = engine.run([pt])
        assert stale.cache_misses == ("m",)
        _assert_identical(stale["m"], cold["m"])
        # the miss stored a current entry again
        assert engine.run([pt]).cache_hits == ("m",)

    def test_entry_with_wrong_replication_count_is_a_miss(self, tmp_path):
        engine = SweepExecutor(jobs=1, cache_dir=tmp_path)
        pt = SweepPoint(key="m", config=_mirror_config(), replications=2)
        cold = engine.run([pt])
        self._rewrite_entries(
            tmp_path, lambda p: p.update(results=p["results"][:1])
        )
        again = engine.run([pt])
        assert again.cache_misses == ("m",)
        assert len(again.raw["m"]) == 2
        _assert_identical(again["m"], cold["m"])

    def test_hits_and_misses_in_one_grid_keep_their_own_samples(self, tmp_path):
        """Cached points interleaved with fresh ones: each fresh point
        gets exactly its own slice of the flat task list."""
        a = SweepPoint(key="a", config=_mirror_config(bandwidth=50.0),
                       replications=1)
        b = SweepPoint(key="b", config=_mirror_config(bandwidth=60.0),
                       replications=2)
        c = SweepPoint(key="c", config=_mirror_config(bandwidth=70.0),
                       replications=3)
        engine = SweepExecutor(jobs=1, cache_dir=tmp_path)
        cold = engine.run([a, c])
        mixed = engine.run([a, b, c])
        assert mixed.cache_hits == ("a", "c")
        assert mixed.cache_misses == ("b",)
        _assert_identical(mixed["a"], cold["a"])
        _assert_identical(mixed["c"], cold["c"])
        _assert_identical(mixed["b"], SweepExecutor(jobs=1).run([b])["b"])
        assert [len(mixed.raw[k]) for k in "abc"] == [1, 2, 3]

    def test_cache_counters_accumulate_across_runs(self, tmp_path):
        engine = SweepExecutor(jobs=1, cache_dir=tmp_path)
        pt = SweepPoint(key="m", config=_mirror_config(), replications=1)
        engine.run([pt])
        engine.run([pt, SweepPoint(key="n", config=_mirror_config(seed=8),
                                   replications=1)])
        assert (engine.cache_hit_count, engine.cache_miss_count) == (1, 2)

    def test_scenario_hash_stability(self):
        h1 = scenario_hash(_mirror_config(), replications=2, base_seed=7)
        h2 = scenario_hash(_mirror_config(), replications=2, base_seed=7)
        h3 = scenario_hash(_mirror_config(bandwidth=60.0), replications=2,
                           base_seed=7)
        assert h1 == h2 != h3


class _UnpicklableSizes(SizeDistribution):
    """Fixed-size distribution that refuses to pickle (sandbox stand-in)."""

    def __init__(self):
        self.mean = 1.0

    def sample(self, rng):
        return 1.0

    def __reduce__(self):
        raise TypeError("deliberately unpicklable")


class TestGracefulFallback:
    def test_unpicklable_config_runs_serial_and_uncached(self, tmp_path):
        cfg = MirrorConfig(
            params=SystemParameters.paper_defaults(hit_ratio=0.3),
            n_f=0.2, p=0.5, duration=80.0, warmup=10.0, seed=5,
            size_distribution=_UnpicklableSizes(),
        )
        pt = SweepPoint(key="odd", config=cfg, replications=2)
        engine = SweepExecutor(jobs=4, cache_dir=tmp_path)
        first = engine.run([pt])
        second = engine.run([pt])
        # Never cached (unhashable), always simulated, results stable.
        assert first.cache_misses == second.cache_misses == ("odd",)
        _assert_identical(first["odd"], second["odd"])

    def test_unwritable_cache_dir_still_runs(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("occupied")
        engine = SweepExecutor(jobs=1, cache_dir=blocked / "nested")
        result = engine.run(
            [SweepPoint(key="m", config=_mirror_config(), replications=1)]
        )
        assert result["m"].mean("utilization") > 0


class TestGridValidation:
    def test_duplicate_keys_rejected(self):
        pts = [SweepPoint(key="m", config=_mirror_config(), replications=1)] * 2
        with pytest.raises(ConfigurationError):
            SweepExecutor(jobs=1).run(pts)

    def test_bad_config_type_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepPoint(key="x", config=object())

    def test_bad_replications_rejected(self):
        with pytest.raises(ConfigurationError):
            SweepPoint(key="x", config=_mirror_config(), replications=0)


class TestResultViews:
    def test_table_and_to_sweep(self):
        grid = SweepExecutor(jobs=1).run(_grid(replications=1))
        headers, rows = grid.table(["utilization", "mean_access_time"],
                                   keys=["mirror/b=50", "mirror/b=80"])
        assert headers == ["point", "utilization", "mean_access_time"]
        assert len(rows) == 2 and rows[0][0] == "mirror/b=50"
        sweep = grid.to_sweep(
            "utilization", x="x", x_label="b",
            title="utilization vs bandwidth",
        )
        series = sweep.get("utilization")
        # to_sweep orders by the x meta; full-sim sits at x=0.
        assert list(series.x) == [0.0, 50.0, 80.0]

    def test_to_sweep_requires_x_meta(self):
        grid = SweepExecutor(jobs=1).run(
            [SweepPoint(key="m", config=_mirror_config(), replications=1)]
        )
        with pytest.raises(ConfigurationError):
            grid.to_sweep("utilization", x="missing")

    def test_raw_outputs_exposed(self):
        grid = SweepExecutor(jobs=1).run(
            [SweepPoint(key="m", config=_mirror_config(), replications=2)]
        )
        assert len(grid.raw["m"]) == 2
        assert [(p.key, p.replications) for p in grid.points] == [("m", 2)]


class _OnePointExperiment(Experiment):
    """Runs one mirror point through whatever engine ``run`` hands it."""

    experiment_id = "one-point"

    def __init__(self):
        self.engines = []

    def _execute(self, *, fast, engine):
        self.engines.append(engine)
        engine.run([SweepPoint(key="m", config=_mirror_config(), replications=1)])
        return ExperimentResult(experiment_id=self.experiment_id, title="")


class TestExperimentEngine:
    def test_default_engine_is_uncached_and_serial(self):
        engine = SweepExecutor()
        assert engine.cache_dir is None
        assert engine.jobs == 1

    def test_run_uses_the_given_engine(self, tmp_path):
        engine = SweepExecutor(jobs=1, cache_dir=tmp_path)
        experiment = _OnePointExperiment()
        result = experiment.run(engine=engine)
        assert experiment.engines == [engine]
        assert engine.cache_miss_count == 1
        assert list(result.scenario_hashes) == ["m"]

    def test_run_without_engine_gets_a_fresh_one(self):
        experiment = _OnePointExperiment()
        experiment.run()
        experiment.run()
        first, second = experiment.engines
        assert first is not second
        assert first.cache_dir is None and second.cache_dir is None


class TestOneReplicationLoop:
    """``SweepExecutor.run(points)`` is the one path every grid takes."""

    def test_run_takes_points_only(self):
        params = inspect.signature(SweepExecutor.run).parameters
        assert list(params) == ["self", "points"]
        with pytest.raises(TypeError):
            SweepExecutor(jobs=1, seed=11)

    def test_identical_points_get_identical_samples(self):
        # Seeds come from the point's config (or base_seed), never from
        # its key or grid position.
        config = _mirror_config(seed=0)
        result = SweepExecutor(jobs=1).run([
            SweepPoint(key="a", config=config, replications=2),
            SweepPoint(key="b", config=config, replications=2),
            SweepPoint(key="c", config=config, replications=2, base_seed=1),
        ])
        _assert_identical(result["a"], result["b"])
        assert not np.array_equal(
            result["a"]["mean_access_time"], result["c"]["mean_access_time"]
        )
        hashes = result.scenario_hashes
        assert hashes["a"] == hashes["b"] != hashes["c"]

    def test_result_follows_grid_order(self):
        keys = ["z", "a", "m"]
        points = [
            SweepPoint(key=k, config=_mirror_config(seed=i), replications=1)
            for i, k in enumerate(keys)
        ]
        result = SweepExecutor(jobs=1).run(points)
        assert list(result) == keys
        assert list(result.raw) == keys
        assert list(result.scenario_hashes) == keys
        assert result.cache_misses == tuple(keys)
        assert [pt.key for pt in result.points] == keys

    def test_empty_grid_runs_nothing(self, tmp_path):
        engine = SweepExecutor(jobs=1, cache_dir=tmp_path)
        result = engine.run([])
        assert list(result) == [] and result.raw == {}
        assert result.cache_hits == result.cache_misses == ()
        assert engine.hash_log == []
        assert list(tmp_path.iterdir()) == []

    def test_scenario_hashes_resolved_without_a_cache(self):
        config = _mirror_config()
        unhashable = MirrorConfig(
            params=SystemParameters.paper_defaults(hit_ratio=0.3),
            n_f=0.2, p=0.5, duration=80.0, warmup=10.0, seed=5,
            size_distribution=_UnpicklableSizes(),
        )
        result = SweepExecutor(jobs=1).run([
            SweepPoint(key="own", config=config, replications=2),
            SweepPoint(key="given", config=config, replications=2,
                       base_seed=99),
            SweepPoint(key="odd", config=unhashable, replications=1),
        ])
        assert result.scenario_hashes == {
            "own": scenario_hash(config, replications=2,
                                 base_seed=config.seed),
            "given": scenario_hash(config, replications=2, base_seed=99),
            "odd": None,
        }

    def test_hash_log_accumulates_in_grid_order(self):
        engine = SweepExecutor(jobs=1)
        first = engine.run([
            SweepPoint(key="b", config=_mirror_config(seed=1), replications=1),
            SweepPoint(key="a", config=_mirror_config(seed=2), replications=1),
        ])
        second = engine.run(
            [SweepPoint(key="b", config=_mirror_config(seed=3), replications=1)]
        )
        assert engine.hash_log == [
            *first.scenario_hashes.items(), *second.scenario_hashes.items()
        ]
        assert [key for key, _ in engine.hash_log] == ["b", "a", "b"]

    def test_each_config_kind_aggregates_its_own_metrics(self):
        result = SweepExecutor(jobs=1).run(_grid(replications=1))
        mirror = (
            "mean_access_time",
            "utilization",
            "retrieval_time_per_request",
            "mean_demand_retrieval_time",
            "hit_ratio",
        )
        assert result["mirror/b=50"].metric_names == mirror
        assert result["mirror/b=80"].metric_names == mirror
        assert result["full-sim"].metric_names == (
            mirror[:4]
            + ("prefetches_per_request", "hit_ratio",
               "prefetch_traffic_share", "prefetch_accuracy",
               "remote_hit_rate", "remote_probe_hit_ratio",
               "peer_bytes", "peer_traffic_share")
        )
