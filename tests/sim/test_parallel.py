"""Tests for the parallel replication engine.

The headline guarantee: fanning replications over worker processes changes
*nothing* about the results — ``jobs=4`` samples are bit-identical to
``jobs=1`` for the same base seed, and the common-random-numbers pairing in
``compare_policies`` survives parallelisation.
"""

import numpy as np
import pytest

import repro.sim.parallel as parallel_mod
from repro.core.parameters import SystemParameters
from repro.sim import (
    MirrorConfig,
    SimulationConfig,
    compare_policies,
    run_mirror_replications,
    run_simulation_replications,
)
from repro.sim.parallel import ReplicationExecutor, resolve_jobs
from repro.sim.sweep import SweepExecutor
from repro.workload.sessions import WorkloadSpec


def _sim_config() -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(num_clients=2, request_rate=15.0,
                              catalog_size=80, follow_probability=0.6),
        bandwidth=40.0,
        cache_capacity=16,
        policy="threshold-dynamic",
        duration=50.0,
        warmup=10.0,
        seed=3,
    )


def _mirror_config() -> MirrorConfig:
    return MirrorConfig(
        params=SystemParameters.paper_defaults(hit_ratio=0.3),
        n_f=0.3,
        p=0.5,
        duration=150.0,
        warmup=15.0,
        seed=7,
    )


def _assert_identical(a, b):
    assert a.metric_names == b.metric_names
    for name in a.metric_names:
        assert np.array_equal(a[name], b[name], equal_nan=True), name


class TestReplicationDeterminism:
    """jobs=4 must reproduce jobs=1 exactly (the PR's headline contract)."""

    def test_simulation_replications_parallel_equals_serial(self):
        serial = run_simulation_replications(_sim_config(), replications=4, jobs=1)
        parallel = run_simulation_replications(_sim_config(), replications=4, jobs=4)
        _assert_identical(serial, parallel)

    def test_mirror_replications_parallel_equals_serial(self):
        serial = run_mirror_replications(_mirror_config(), replications=4, jobs=1)
        parallel = run_mirror_replications(_mirror_config(), replications=4, jobs=4)
        _assert_identical(serial, parallel)

    def test_compare_policies_parallel_preserves_crn(self):
        policies = {
            "none": {"policy": "none"},
            "thr": {"policy": "threshold-dynamic"},
        }
        serial = compare_policies(_sim_config(), policies, replications=2, jobs=1)
        parallel = compare_policies(_sim_config(), policies, replications=2, jobs=4)
        assert set(serial) == set(parallel)
        for name in policies:
            _assert_identical(serial[name], parallel[name])
        # CRN intact under parallelism: the no-prefetch arm never prefetches.
        assert np.all(parallel["none"]["prefetches_per_request"] == 0.0)

    def test_unspecified_jobs_run_serially(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("jobs=None must not start a pool")

        monkeypatch.setattr(parallel_mod, "ProcessPoolExecutor", no_pool)
        unspecified = run_mirror_replications(_mirror_config(), replications=3)
        serial = run_mirror_replications(_mirror_config(), replications=3, jobs=1)
        _assert_identical(serial, unspecified)


class TestReplicationExecutor:
    def test_preserves_input_order(self):
        result = ReplicationExecutor(jobs=3).map(_negate, list(range(10)))
        assert result == [-i for i in range(10)]

    def test_serial_path_for_jobs_one(self):
        assert ReplicationExecutor(jobs=1).map(_negate, [1, 2]) == [-1, -2]

    def test_non_picklable_fn_falls_back_to_serial(self):
        closure_state = {"calls": 0}

        def fn(x):  # local closure: not picklable, must run in-process
            closure_state["calls"] += 1
            return x * 2

        assert ReplicationExecutor(jobs=4).map(fn, [1, 2, 3]) == [2, 4, 6]
        assert closure_state["calls"] == 3

    def test_exceptions_propagate_serial(self):
        with pytest.raises(ValueError, match="item 2"):
            ReplicationExecutor(jobs=1).map(_raise_on_two, [1, 2, 3])

    def test_exceptions_propagate_parallel(self):
        with pytest.raises(ValueError, match="item 2"):
            ReplicationExecutor(jobs=2).map(_raise_on_two, [1, 2, 3])

    def test_os_error_from_fn_is_not_mistaken_for_pool_failure(self, tmp_path):
        # OSError subclasses raised by the *work* must propagate like any
        # other simulation error — not trigger the serial pool-failure
        # fallback (which would silently re-run every item).
        marker = tmp_path / "calls.log"
        with pytest.raises(FileNotFoundError, match="item 1"):
            ReplicationExecutor(jobs=2).map(
                _raise_file_not_found, [(1, str(marker)), (2, str(marker))]
            )
        # Each item ran at most once: no serial re-execution happened.
        calls = marker.read_text().splitlines() if marker.exists() else []
        assert len(calls) == len(set(calls))

    def test_empty_items(self):
        assert ReplicationExecutor(jobs=4).map(_negate, []) == []


class TestExperimentRunRecord:
    def test_run_records_jobs_and_wall_clock(self):
        from repro.experiments import get_experiment

        result = get_experiment("fig3").run(fast=True, engine=SweepExecutor(jobs=2))
        assert result.jobs == 2
        assert result.wall_clock_seconds is not None
        assert result.wall_clock_seconds >= 0.0
        assert "jobs=2" in result.render(plots=False)

    def test_run_without_engine_is_serial(self):
        from repro.experiments import get_experiment

        result = get_experiment("fig3").run(fast=True)
        assert result.jobs == 1


class TestJobsResolution:
    def test_resolve_explicit(self):
        assert resolve_jobs(3) == 3

    def test_resolve_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_resolve_none_is_serial(self):
        assert resolve_jobs(None) == 1
        assert ReplicationExecutor().jobs == 1
        assert SweepExecutor().jobs == 1


# Module-level helpers so they are picklable by worker processes.
def _negate(x):
    return -x


def _raise_on_two(x):
    if x == 2:
        raise ValueError("item 2")
    return x


def _raise_file_not_found(arg):
    idx, marker = arg
    with open(marker, "a") as fh:
        fh.write(f"{idx}\n")
    raise FileNotFoundError(f"item {idx}")
