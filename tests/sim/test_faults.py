"""Tests for the fault-injection subsystem (PR 10).

Five groups:

* **schedule validation** — FaultEvent/FaultSchedule reject nonsense at
  construction, `parse` round-trips the CLI shorthand, and the
  cross-field `validate` walks ring membership through the event list;
* **empty-schedule bit-identity** — `FaultSchedule(())` (and `None`) is
  byte-for-byte the fault-free simulation for BOTH client backends: the
  fault path must be pay-for-use (pinned against the PR 3 seed metrics);
* **cross-backend equivalence** — a non-empty schedule under
  `node_backend="parallel"` falls back to the serial loop with a
  RuntimeWarning naming fault-injection and produces structurally
  identical output;
* **timeline/segments** — cumulative rows are exact, segments are exact
  deltas, and replication pooling adds counters at matching rows only;
* **scenario layer** — the `faults:` section parses, compiles, and
  points errors back into the document.
"""

import dataclasses
import math

import pytest

from repro.errors import ConfigurationError
from repro.network.topology import CooperationConfig, TopologyConfig
from repro.sim import SimulationConfig, run_simulation
from repro.sim.faults import FaultEvent, FaultSchedule
from repro.sim.kpis import aggregate_kpis
from repro.workload.sessions import WorkloadSpec

import test_topology  # same-directory test module: pinned seed scenario
from test_node_parallel import assert_outputs_identical


# ----------------------------------------------------------------------
# Schedule construction + validation
# ----------------------------------------------------------------------


class TestFaultEvent:
    def test_valid_event(self):
        ev = FaultEvent(time=5, kind="proxy-fail", node=1)
        assert ev.time == 5.0 and ev.removes

    @pytest.mark.parametrize("kind,removes", [
        ("proxy-fail", True),
        ("ring-shrink", True),
        ("proxy-recover", False),
        ("ring-grow", False),
    ])
    def test_removes_classification(self, kind, removes):
        assert FaultEvent(time=1.0, kind=kind, node=0).removes is removes

    @pytest.mark.parametrize("bad", [
        dict(time=0.0, kind="proxy-fail", node=0),
        dict(time=-3.0, kind="proxy-fail", node=0),
        dict(time=float("inf"), kind="proxy-fail", node=0),
        dict(time=float("nan"), kind="proxy-fail", node=0),
        dict(time=1.0, kind="meteor-strike", node=0),
        dict(time=1.0, kind="proxy-fail", node=-1),
    ])
    def test_rejects_bad_events(self, bad):
        with pytest.raises(ConfigurationError):
            FaultEvent(**bad)


class TestFaultSchedule:
    def test_events_sorted_by_time(self):
        schedule = FaultSchedule(events=(
            FaultEvent(time=9.0, kind="proxy-recover", node=1),
            FaultEvent(time=4.0, kind="proxy-fail", node=1),
        ))
        assert [e.time for e in schedule.events] == [4.0, 9.0]

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule(())
        assert len(FaultSchedule(())) == 0
        assert FaultSchedule((FaultEvent(time=1.0, kind="ring-grow", node=9),))

    def test_rejects_bad_migration(self):
        with pytest.raises(ConfigurationError, match="migration"):
            FaultSchedule((), migration="teleport")

    def test_parse_round_trip(self):
        schedule = FaultSchedule.parse(
            "proxy-fail@40:1, proxy-recover@60:1, migration=cooperative"
        )
        assert schedule.migration == "cooperative"
        assert [(e.kind, e.time, e.node) for e in schedule.events] == [
            ("proxy-fail", 40.0, 1), ("proxy-recover", 60.0, 1),
        ]

    @pytest.mark.parametrize("raw", [
        "bogus@5", "proxy-fail@40", "proxy-fail@x:1", "migration=warp",
        "proxy-fail@40:one",
    ])
    def test_parse_rejects_garbage(self, raw):
        with pytest.raises(ConfigurationError):
            FaultSchedule.parse(raw)

    def _topology(self, **kwargs):
        return TopologyConfig(num_proxies=3, **kwargs)

    def test_validate_walks_ring_membership(self):
        schedule = FaultSchedule((
            FaultEvent(time=10.0, kind="proxy-fail", node=1),
            FaultEvent(time=20.0, kind="proxy-recover", node=1),
            FaultEvent(time=30.0, kind="ring-shrink", node=2),
        ))
        schedule.validate(topology=self._topology(), duration=40.0)

    @pytest.mark.parametrize("events,problem", [
        # unprovisioned node
        ([("proxy-fail", 10.0, 7)], "not provisioned"),
        # fires after the run ends
        ([("proxy-fail", 50.0, 1)], "precede the run's duration"),
        # removing a node that already left
        (
            [("proxy-fail", 10.0, 1), ("ring-shrink", 20.0, 1)],
            "not on the ring",
        ),
        # draining the whole ring
        (
            [
                ("proxy-fail", 10.0, 0),
                ("proxy-fail", 20.0, 1),
                ("proxy-fail", 30.0, 2),
            ],
            "empty the ring",
        ),
        # re-adding a node that never left
        ([("ring-grow", 10.0, 1)], "already on the ring"),
    ])
    def test_validate_rejects_bad_sequences(self, events, problem):
        schedule = FaultSchedule(tuple(
            FaultEvent(time=t, kind=k, node=n) for k, t, n in events
        ))
        with pytest.raises(ConfigurationError, match=problem):
            schedule.validate(topology=self._topology(), duration=40.0)

    def test_cooperative_migration_needs_cooperation(self):
        schedule = FaultSchedule(
            (FaultEvent(time=10.0, kind="proxy-fail", node=1),),
            migration="cooperative",
        )
        with pytest.raises(ConfigurationError, match="cooperation"):
            schedule.validate(topology=self._topology(), duration=40.0)
        schedule.validate(
            topology=self._topology(
                cooperation=CooperationConfig(mode="owner-probe")
            ),
            duration=40.0,
        )

    def test_config_rejects_non_schedule(self):
        with pytest.raises(ConfigurationError, match="FaultSchedule"):
            test_topology.seed_config(faults=[("proxy-fail", 10.0, 0)])


# ----------------------------------------------------------------------
# Empty-schedule bit-identity (both client backends)
# ----------------------------------------------------------------------


def faulted_config(**overrides):
    """Multi-proxy cooperative tier the fault runs exercise."""
    defaults = dict(
        workload=WorkloadSpec(
            num_clients=12,
            request_rate=40.0,
            catalog_size=80,
            zipf_exponent=0.9,
            follow_probability=0.7,
        ),
        topology=TopologyConfig(
            num_proxies=3,
            routing="item-hash",
            cooperation=CooperationConfig(mode="owner-probe"),
        ),
        bandwidth=30.0,
        cache_capacity=16,
        predictor="markov",
        policy="threshold-dynamic",
        duration=40.0,
        warmup=5.0,
        seed=17,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


FAIL_RECOVER = FaultSchedule((
    FaultEvent(time=15.0, kind="proxy-fail", node=1),
    FaultEvent(time=25.0, kind="proxy-recover", node=1),
))


class TestEmptyScheduleBitIdentity:
    def test_single_proxy_empty_schedule_matches_pinned_seed(self):
        output = run_simulation(
            test_topology.seed_config(faults=FaultSchedule(()))
        )
        metrics = dataclasses.asdict(output.metrics)
        for key, value in test_topology.PINNED_SEED_METRICS.items():
            assert metrics[key] == value, key
        for key, value in test_topology.PINNED_SEED_LINK.items():
            assert getattr(output, key) == value, key
        assert output.kpis.fault_timeline == ()

    @pytest.mark.parametrize("client_backend", ["per-client", "aggregated"])
    def test_empty_schedule_is_bit_identical_to_none(self, client_backend):
        base = faulted_config(client_backend=client_backend)
        plain = run_simulation(base)
        empty = run_simulation(
            dataclasses.replace(base, faults=FaultSchedule(()))
        )
        assert_outputs_identical(empty, plain)

    @pytest.mark.parametrize("client_backend", ["per-client", "aggregated"])
    def test_empty_schedule_parallel_backend_stays_parallel(
        self, client_backend
    ):
        """An empty schedule must not trigger the serial fallback either:
        the decoupled tier still shards under node_backend='parallel'."""
        base = faulted_config(
            client_backend=client_backend,
            topology=TopologyConfig(num_proxies=3),  # decoupled tier
        )
        plain = run_simulation(base)
        empty_parallel = run_simulation(
            dataclasses.replace(
                base,
                faults=FaultSchedule(()),
                node_backend="parallel",
                node_workers=2,
            )
        )
        assert_outputs_identical(empty_parallel, plain)


# ----------------------------------------------------------------------
# Cross-backend equivalence with a real schedule
# ----------------------------------------------------------------------


class TestParallelFallback:
    def test_faults_collapse_the_partition_with_named_reason(self):
        from repro.sim.parallel import plan_node_partition

        plan = plan_node_partition(faulted_config(faults=FAIL_RECOVER))
        assert plan.groups == ((0, 1, 2),)
        assert any("fault-injection" in r for r in plan.reasons)

    @pytest.mark.parametrize("client_backend", ["per-client", "aggregated"])
    def test_parallel_with_faults_falls_back_identically(self, client_backend):
        config = faulted_config(
            client_backend=client_backend,
            topology=TopologyConfig(num_proxies=3),  # would otherwise shard
            faults=FAIL_RECOVER,
        )
        serial = run_simulation(config)
        with pytest.warns(RuntimeWarning, match="fault-injection"):
            fallback = run_simulation(
                dataclasses.replace(config, node_backend="parallel")
            )
        assert_outputs_identical(fallback, serial)
        assert len(serial.kpis.fault_timeline) == 3


# ----------------------------------------------------------------------
# Timeline rows + segments + pooling
# ----------------------------------------------------------------------


class TestTimeline:
    @pytest.fixture(scope="class")
    def output(self):
        return run_simulation(faulted_config(faults=FAIL_RECOVER))

    def test_rows_follow_the_schedule(self, output):
        timeline = output.kpis.fault_timeline
        assert [(r.time, r.kind, r.node) for r in timeline] == [
            (15.0, "proxy-fail", 1),
            (25.0, "proxy-recover", 1),
            (40.0, "end", -1),
        ]
        assert timeline[0].alive == (0, 2)
        assert timeline[1].alive == (0, 1, 2)
        assert timeline[2].alive == (0, 1, 2)

    def test_end_row_matches_run_totals(self, output):
        end = output.kpis.fault_timeline[-1]
        assert end.requests == output.metrics.requests
        assert end.hits == output.metrics.hits

    def test_segments_are_exact_deltas(self, output):
        segments = output.kpis.fault_segments()
        end = output.kpis.fault_timeline[-1]
        assert [s.kind for s in segments] == [
            "start", "proxy-fail", "proxy-recover",
        ]
        assert [(s.start, s.end) for s in segments] == [
            (0.0, 15.0), (15.0, 25.0), (25.0, 40.0),
        ]
        assert sum(s.requests for s in segments) == end.requests
        assert sum(s.hits for s in segments) == end.hits
        assert sum(s.origin_bytes for s in segments) == pytest.approx(
            end.origin_bytes
        )
        for seg in segments:
            if seg.requests:
                assert 0.0 <= seg.hit_ratio <= 1.0
                assert math.isfinite(seg.mean_access_time)

    def test_pooling_adds_counters_at_matching_rows(self, output):
        twin = run_simulation(
            faulted_config(faults=FAIL_RECOVER, seed=18)
        )
        pooled = aggregate_kpis([output.kpis, twin.kpis])
        for i, row in enumerate(pooled.fault_timeline):
            a = output.kpis.fault_timeline[i]
            b = twin.kpis.fault_timeline[i]
            assert row.requests == a.requests + b.requests
            assert row.hits == a.hits + b.hits
            assert row.origin_bytes == a.origin_bytes + b.origin_bytes
            assert (row.time, row.kind, row.node) == (a.time, a.kind, a.node)

    def test_pooling_rejects_mismatched_schedules(self, output):
        other = run_simulation(
            faulted_config(faults=FaultSchedule((
                FaultEvent(time=20.0, kind="proxy-fail", node=2),
            )))
        )
        with pytest.raises(ValueError, match="fault timeline"):
            aggregate_kpis([output.kpis, other.kpis])


# ----------------------------------------------------------------------
# Fault semantics observable from the outside
# ----------------------------------------------------------------------


class TestFaultSemantics:
    def test_proxy_fail_wipes_caches_shrink_keeps_them(self):
        from repro.sim.simulation import Simulation

        # The failed node's clients keep requesting through the failover
        # route and would refill their wiped caches, so fault an instant
        # before the end: any item still cached there survived the wipe.
        wiped = Simulation(faulted_config(faults=FaultSchedule((
            FaultEvent(time=39.999, kind="proxy-fail", node=1),
        ))))
        wiped.run()
        assert all(len(c) == 0 for c in wiped.nodes[1].caches)

        kept = Simulation(faulted_config(faults=FaultSchedule((
            FaultEvent(time=39.999, kind="ring-shrink", node=1),
        ))))
        kept.run()
        assert any(len(c) > 0 for c in kept.nodes[1].caches)

    def test_cooperative_recovery_migrates_items(self):
        output = run_simulation(faulted_config(
            faults=FaultSchedule(
                FAIL_RECOVER.events, migration="cooperative"
            ),
        ))
        end = output.kpis.fault_timeline[-1]
        assert end.migrated_items > 0
        assert end.migrated_bytes > 0.0

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_cooperative_shrink_pushes_items_out(self, seed):
        # The push starts after the shrink drains the node's links: a push
        # whose first transfer ran before the drain would die with it and
        # migrate nothing.
        output = run_simulation(faulted_config(
            seed=seed,
            faults=FaultSchedule(
                (FaultEvent(time=20.0, kind="ring-shrink", node=1),),
                migration="cooperative",
            ),
        ))
        end = output.kpis.fault_timeline[-1]
        assert end.migrated_items > 0
        assert end.migrated_bytes > 0.0

    def test_cold_recovery_migrates_nothing(self):
        output = run_simulation(faulted_config(faults=FAIL_RECOVER))
        end = output.kpis.fault_timeline[-1]
        assert end.migrated_items == 0 and end.migrated_bytes == 0.0

    def test_degradation_is_visible_in_the_fault_window(self):
        """Losing a shard mid-run must show up in the degraded segment:
        with one uplink gone the survivors carry its load."""
        output = run_simulation(faulted_config(faults=FaultSchedule((
            FaultEvent(time=15.0, kind="proxy-fail", node=1),
        ))))
        start, degraded = output.kpis.fault_segments()
        assert degraded.requests > 0
        # the tier keeps serving every request through the survivors
        assert degraded.hits <= degraded.requests
        assert degraded.origin_bytes > 0.0


# ----------------------------------------------------------------------
# Scenario layer
# ----------------------------------------------------------------------


def scenario_doc(**faults):
    doc = {
        "name": "faulted",
        "description": "fault scenario wiring",
        "workload": {
            "num_clients": 4, "request_rate": 8.0, "catalog_size": 50,
        },
        "system": {"duration": 60.0},
        "topology": {
            "num_proxies": 3,
            "routing": "item-hash",
            "cooperation": {"mode": "owner-probe"},
        },
    }
    if faults:
        doc["faults"] = faults
    return doc


class TestScenarioWiring:
    def test_faults_section_parses_and_compiles(self):
        from repro.scenario import compile_config, parse_scenario

        spec = parse_scenario(scenario_doc(
            migration="cooperative",
            events=[
                {"at": 20.0, "kind": "proxy-fail", "node": 1},
                {"at": 40.0, "kind": "proxy-recover", "node": 1},
            ],
        ))
        config = compile_config(spec)
        assert config.faults == FaultSchedule(
            (
                FaultEvent(time=20.0, kind="proxy-fail", node=1),
                FaultEvent(time=40.0, kind="proxy-recover", node=1),
            ),
            migration="cooperative",
        )

    def test_no_faults_section_compiles_to_none(self):
        from repro.scenario import compile_config, parse_scenario

        assert compile_config(parse_scenario(scenario_doc())).faults is None

    def test_bad_kind_is_path_qualified(self):
        from repro.scenario import ScenarioError, parse_scenario

        with pytest.raises(ScenarioError, match=r"faults\.events\[0\]\.kind"):
            parse_scenario(scenario_doc(
                events=[{"at": 20.0, "kind": "gremlins", "node": 1}],
            ))

    def test_cross_field_error_points_at_faults(self):
        from repro.scenario import ScenarioError, compile_config, parse_scenario

        spec = parse_scenario(scenario_doc(
            events=[{"at": 99.0, "kind": "proxy-fail", "node": 1}],
        ))
        with pytest.raises(ScenarioError, match="faults"):
            compile_config(spec)  # fires after the 60s duration

    def test_shipped_proxy_failure_scenario_compiles(self):
        from repro.scenario import compile_config, expand_points, load_scenario

        spec = load_scenario("scenarios/proxy_failure.yaml")
        config = compile_config(spec)
        assert config.faults is not None
        assert config.faults.migration == "cooperative"
        assert len(expand_points(spec)) == 2

    def test_faults_are_not_grid_sweepable(self):
        from repro.scenario import ScenarioError, parse_scenario

        doc = scenario_doc()
        doc["sweep"] = {"grid": {"faults.migration": ["cold"]}}
        with pytest.raises(ScenarioError):
            parse_scenario(doc)
