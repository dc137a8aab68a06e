"""Tests for the sweep engine (shared pool + on-disk result cache).

Contracts (mirroring ``test_parallel.py`` for the single-point engine):

* a grid through :class:`SweepExecutor` is **bit-identical** to running
  each point through a plain serial seed loop (``runner_reference``), at
  any ``jobs``, and so are the per-point replication runners built on it;
* the result cache hits on unchanged points, misses when any parameter
  changes, and cached results equal freshly simulated ones exactly;
* non-picklable configs degrade gracefully (serial, uncached) with
  identical results.
"""

import dataclasses

import numpy as np
import pytest

from runner_reference import mirror_replications, simulation_replications

from repro.core.parameters import SystemParameters
from repro.errors import ConfigurationError
from repro.experiments.base import Experiment, ExperimentResult
from repro.sim import (
    AnalyticScreen,
    MirrorConfig,
    SimulationConfig,
    SweepExecutor,
    SweepPoint,
    compare_policies,
    run_mirror_replications,
    run_simulation_replications,
)
from repro.sim.sweep import scenario_hash
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


def _assert_identical(a, b):
    assert a.metric_names == b.metric_names
    for name in a.metric_names:
        assert np.array_equal(a[name], b[name], equal_nan=True), name


class TestBitIdenticalToPerPointRunners:
    def test_matches_per_point_path(self):
        grid = SweepExecutor(jobs=1).run(_grid())
        for key, cfg, reference, runner in [
            ("mirror/b=50", _mirror_config(bandwidth=50.0),
             mirror_replications, run_mirror_replications),
            ("mirror/b=80", _mirror_config(bandwidth=80.0),
             mirror_replications, run_mirror_replications),
            ("full-sim", _sim_config(),
             simulation_replications, run_simulation_replications),
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
        cold = engine.run(_grid())
        assert set(cold.cache_misses) == {"mirror/b=50", "mirror/b=80", "full-sim"}
        assert cold.cache_hits == ()
        warm = engine.run(_grid())
        assert set(warm.cache_hits) == {"mirror/b=50", "mirror/b=80", "full-sim"}
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
        assert grid.point("m").replications == 2


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


class TestSpawnSeeds:
    def test_spawned_seeds_deterministic_and_distinct(self):
        pts = [
            SweepPoint(key="a", config=_mirror_config(seed=0), replications=1),
            SweepPoint(key="b", config=_mirror_config(seed=0), replications=1),
        ]
        r1 = SweepExecutor(jobs=1, seed=11).run(pts, spawn_seeds=True)
        r2 = SweepExecutor(jobs=1, seed=11).run(pts, spawn_seeds=True)
        for key in r1:
            _assert_identical(r1[key], r2[key])
        # Same config, different spawned seeds -> different realisations.
        assert not np.array_equal(
            r1["a"]["mean_access_time"], r1["b"]["mean_access_time"]
        )


# ----------------------------------------------------------------------
# Analytic screening
# ----------------------------------------------------------------------
def _screen_config(bandwidth, capacity, seed=19) -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(num_clients=2, request_rate=15.0,
                              catalog_size=40),
        bandwidth=bandwidth,
        cache_capacity=capacity,
        policy="none",
        duration=12.0,
        warmup=3.0,
        seed=seed,
    )


def _screen_grid(replications=1) -> list[SweepPoint]:
    return [
        SweepPoint(
            key=f"b{bw:g}/C{cap}",
            config=_screen_config(bw, cap),
            replications=replications,
            meta={"x": bw, "cap": cap},
        )
        for bw in (25.0, 32.0, 40.0, 48.0, 56.0, 64.0)
        for cap in (4, 12)
    ]


def _fake_prediction(t):
    from types import SimpleNamespace

    return SimpleNamespace(mean_access_time=t)


class TestAnalyticScreen:
    def test_simulated_subset_bit_identical_to_unscreened(self):
        points = _screen_grid()
        full = SweepExecutor(jobs=1).run(points)
        screened = SweepExecutor(jobs=1).run(
            points, screen=AnalyticScreen(keep=0.2, by="cap")
        )
        assert screened.analytic_keys()  # the screen actually skipped work
        for key in screened.simulated_keys():
            _assert_identical(full[key], screened[key])

    def test_spawned_seeds_keep_grid_indices(self):
        # With spawn_seeds the per-point seed comes from the point's grid
        # position; a screened run must spawn the same seeds for the
        # simulated subset even though earlier points were skipped.
        points = _screen_grid()
        full = SweepExecutor(jobs=1, seed=11).run(points, spawn_seeds=True)
        screened = SweepExecutor(jobs=1, seed=11).run(
            points, spawn_seeds=True, screen=AnalyticScreen(keep=0.2, by="cap")
        )
        assert screened.analytic_keys()
        for key in screened.simulated_keys():
            _assert_identical(full[key], screened[key])

    def test_provenance_and_predictions(self):
        points = _screen_grid()
        screened = SweepExecutor(jobs=1).run(
            points, screen=AnalyticScreen(keep=0.2, by="cap")
        )
        assert set(screened.provenance) == {pt.key for pt in points}
        assert set(screened.provenance.values()) <= {"simulated", "analytic"}
        assert len(screened.predictions) == len(points)
        for key in screened.analytic_keys():
            pred = screened.predictions[key]
            assert screened.raw[key] == [pred]
            assert screened.mean(key, "hit_ratio") == pytest.approx(
                pred.hit_ratio
            )
            assert screened.mean(key, "mean_access_time") == pytest.approx(
                pred.mean_access_time
            )
        # Without a screen nothing is analytic and predictions stay empty.
        full = SweepExecutor(jobs=1).run(points[:2])
        assert full.analytic_keys() == ()
        assert full.predictions == {}
        assert set(full.provenance.values()) == {"simulated"}

    def test_prefetching_point_is_simulated(self):
        # The predictor has no model of prefetching, so the screen must
        # simulate such a point instead of filling it analytically.
        points = _screen_grid()
        prefetching = points[3]
        prefetching.config = dataclasses.replace(
            prefetching.config, policy="threshold-dynamic"
        )
        screened = SweepExecutor(jobs=1).run(
            points, screen=AnalyticScreen(keep=0.2, by="cap")
        )
        assert screened.analytic_keys()  # the rest of the grid was screened
        assert screened.predictions[prefetching.key] is None
        assert screened.provenance[prefetching.key] == "simulated"

    def test_screened_run_uses_and_feeds_the_cache(self, tmp_path):
        points = _screen_grid()
        screen = AnalyticScreen(keep=0.2, by="cap")
        first = SweepExecutor(jobs=1, cache_dir=tmp_path).run(
            points, screen=screen
        )
        again = SweepExecutor(jobs=1, cache_dir=tmp_path).run(
            points, screen=screen
        )
        # Second screened run: every simulated point now served from cache.
        assert set(again.cache_hits) == set(first.simulated_keys())
        assert all(
            again.provenance[k] == "cached" for k in again.simulated_keys()
        )
        # Analytic fills are never written to (or read from) the cache: a
        # later full run must simulate them fresh.
        full = SweepExecutor(jobs=1, cache_dir=tmp_path).run(points)
        assert set(full.cache_misses) == set(first.analytic_keys())
        for key in first.analytic_keys():
            assert full.provenance[key] == "simulated"

    def test_select_keeps_topk_anchors_and_forced_points(self):
        points = [
            SweepPoint(key=f"x{i}", config=_screen_config(40.0, 4),
                       replications=1, meta={"x": float(i)})
            for i in range(8)
        ]
        # Monotone decreasing metric: best point is x7 (also the anchor).
        predictions = {
            pt.key: _fake_prediction(1.0 / (i + 1))
            for i, pt in enumerate(points)
        }
        predictions["x3"] = None  # unsupported -> forced
        screen = AnalyticScreen(keep=1, band=0.0)
        selected = screen.select(points, predictions)
        assert {"x0", "x7", "x3"} <= selected  # anchors + forced
        assert "x5" not in selected and "x1" not in selected

    def test_select_simulates_nonfinite_predictions(self):
        points = [
            SweepPoint(key=f"x{i}", config=_screen_config(40.0, 4),
                       replications=1, meta={"x": float(i)})
            for i in range(4)
        ]
        predictions = {pt.key: _fake_prediction(1.0) for pt in points}
        predictions["x2"] = _fake_prediction(float("inf"))
        selected = AnalyticScreen(keep=1, band=0.0).select(points, predictions)
        assert "x2" in selected

    def test_select_band_around_crossover(self):
        # Two series whose predicted winner flips between x=1 and x=2:
        # both flank columns must simulate everything within the band.
        points = []
        predictions = {}
        values = {"A": [1.0, 2.0, 4.0, 8.0], "B": [8.0, 4.0, 2.0, 1.0]}
        for label, series in values.items():
            for i, value in enumerate(series):
                key = f"{label}{i}"
                points.append(
                    SweepPoint(key=key, config=_screen_config(40.0, 4),
                               replications=1,
                               meta={"x": float(i), "s": label})
                )
                predictions[key] = _fake_prediction(value)
        selected = AnalyticScreen(keep=1, by="s", band=1.5).select(
            points, predictions
        )
        # Winner flips between x=1 (A) and x=2 (B): band 150% covers both
        # series in both flank columns.
        assert {"A1", "B1", "A2", "B2"} <= selected

    def test_screen_validation(self):
        with pytest.raises(ConfigurationError):
            AnalyticScreen(keep=0)
        with pytest.raises(ConfigurationError):
            AnalyticScreen(keep=-2)
        with pytest.raises(ConfigurationError):
            AnalyticScreen(band=-0.1)

    def test_mixed_grid_mirror_points_predicted(self):
        # Mirror configs go through the paper's closed forms; a mixed grid
        # screens both kinds.
        points = [
            SweepPoint(key=f"m{i}", config=_mirror_config(bandwidth=bw),
                       replications=1, meta={"x": bw})
            for i, bw in enumerate((50.0, 60.0, 70.0, 80.0, 90.0))
        ]
        screened = SweepExecutor(jobs=1).run(
            points, screen=AnalyticScreen(keep=1)
        )
        assert len(screened.predictions) == len(points)
        assert screened.analytic_keys()


class TestRebudget:
    """``AnalyticScreen(rebudget=True)``: freed DES time becomes extra
    replications on the simulated frontier.

    Contracts:

    * the total replication count never exceeds the unscreened grid's;
    * per-point boosts respect ``rebudget_cap × replications``;
    * the first ``replications`` samples of every boosted point are
      **bit-identical** to the unscreened run (the ``seed0 + 1000·i``
      schedule is prefix-stable — rebudgeting only appends samples);
    * ``rebudget=False`` (the default) leaves screened runs unchanged.
    """

    def test_boosts_within_grid_budget_and_cap(self):
        points = _screen_grid(replications=2)
        screen = AnalyticScreen(keep=0.2, by="cap", rebudget=True,
                                rebudget_cap=3)
        result = SweepExecutor(jobs=1).run(points, screen=screen)
        assert result.analytic_keys()  # the screen actually skipped work
        total = sum(len(result.raw[k]) for k in result.simulated_keys())
        grid_total = sum(pt.replications for pt in points)
        assert total <= grid_total
        for key in result.simulated_keys():
            reps = len(result.raw[key])
            assert 2 <= reps <= 2 * screen.rebudget_cap
        # Something actually got boosted (the screen skips >= half this
        # grid, so the freed share is >= 1 per simulated point).
        assert any(
            len(result.raw[k]) > 2 for k in result.simulated_keys()
        )

    def test_boosted_prefix_bit_identical_to_unscreened(self):
        points = _screen_grid(replications=2)
        full = SweepExecutor(jobs=1).run(points)
        boosted = SweepExecutor(jobs=1).run(
            points,
            screen=AnalyticScreen(keep=0.2, by="cap", rebudget=True),
        )
        for key in boosted.simulated_keys():
            a, b = full[key], boosted[key]
            assert a.metric_names == b.metric_names
            for name in a.metric_names:
                prefix = np.asarray(b[name])[: len(a[name])]
                assert np.array_equal(
                    np.asarray(a[name]), prefix, equal_nan=True
                ), name

    def test_rebudget_off_is_unchanged(self):
        points = _screen_grid(replications=2)
        plain = SweepExecutor(jobs=1).run(
            points, screen=AnalyticScreen(keep=0.2, by="cap")
        )
        off = SweepExecutor(jobs=1).run(
            points,
            screen=AnalyticScreen(keep=0.2, by="cap", rebudget=False),
        )
        assert plain.provenance == off.provenance
        for key in plain.simulated_keys():
            _assert_identical(plain[key], off[key])
            assert len(plain.raw[key]) == len(off[key].samples[
                plain[key].metric_names[0]
            ])

    def test_rebudgeted_points_cache_under_boosted_count(self, tmp_path):
        points = _screen_grid(replications=2)
        screen = AnalyticScreen(keep=0.2, by="cap", rebudget=True)
        first = SweepExecutor(jobs=1, cache_dir=tmp_path).run(
            points, screen=screen
        )
        second = SweepExecutor(jobs=1, cache_dir=tmp_path).run(
            points, screen=screen
        )
        assert set(second.cache_hits) == set(first.cache_misses)
        for key in first.simulated_keys():
            _assert_identical(first[key], second[key])

    def test_rebudget_validation(self):
        with pytest.raises(ConfigurationError):
            AnalyticScreen(rebudget_cap=0)
        with pytest.raises(ConfigurationError):
            AnalyticScreen(rebudget_cap=2.5)
