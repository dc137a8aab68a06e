"""Time-varying workload phases: equivalence pins + schedule mechanics.

The load-bearing guarantees:

* a stationary spec (``phases=None``) runs as one neutral phase,
  ``STATIONARY`` — and an explicit neutral single phase (multiplier 1,
  no item overrides) is bit-identical to it on both client backends;
* a single phase with ``rate_multiplier=m`` is bit-identical to a
  stationary spec whose ``request_rate`` is scaled by ``m`` (the
  memoryless pin: one Exp(1/(mλ)) stream, same RNG draws);
* phased runs are deterministic (same seed → same output);
* phase boundaries whose float sums round do not stall a run.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.scenario import STATIONARY_SUFFIX, ScenarioExperiment
from repro.scenario import compile_config, parse_scenario
from repro.sim.config import SimulationConfig
from repro.sim.simulation import run_simulation
from repro.sim.sweep import SweepPoint
from repro.workload.phases import (
    STATIONARY,
    PhaseSchedule,
    PhaseSpec,
    ShiftedCatalog,
    shared_phase_catalog,
)
from repro.workload.sessions import WorkloadSpec, generate_trace
from repro.workload.zipf import shared_catalog


def make_config(phases=None, *, request_rate=24.0, backend="per-client",
                seed=5) -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=4,
            request_rate=request_rate,
            catalog_size=60,
            zipf_exponent=1.0,
            follow_probability=0.5,
            phases=phases,
        ),
        bandwidth=40.0,
        cache_capacity=12,
        policy="threshold-dynamic",
        duration=40.0,
        warmup=8.0,
        seed=seed,
        client_backend=backend,
    )


def metric_tuple(output):
    m = output.metrics
    return (
        m.requests,
        m.mean_access_time,
        m.hit_ratio,
        m.utilization,
        m.prefetches_per_request,
    )


class TestStationaryPins:
    @pytest.mark.parametrize("backend", ["per-client", "aggregated"])
    def test_neutral_single_phase_is_bit_identical(self, backend):
        """[(d, x1.0)] must not perturb the stationary system at all."""
        plain = run_simulation(make_config(None, backend=backend))
        phased = run_simulation(
            make_config((PhaseSpec(duration=50.0),), backend=backend)
        )
        assert metric_tuple(plain) == metric_tuple(phased)

    @pytest.mark.parametrize("backend", ["per-client", "aggregated"])
    def test_single_phase_multiplier_equals_scaled_rate(self, backend):
        """One phase at 1.5x == stationary run at 1.5x the rate."""
        scaled = run_simulation(
            make_config(None, request_rate=36.0, backend=backend)
        )
        phased = run_simulation(
            make_config(
                (PhaseSpec(duration=50.0, rate_multiplier=1.5),),
                request_rate=24.0,
                backend=backend,
            )
        )
        assert metric_tuple(scaled) == metric_tuple(phased)

    @pytest.mark.parametrize("backend", ["per-client", "aggregated"])
    def test_multi_phase_is_deterministic(self, backend):
        phases = (
            PhaseSpec(duration=10.0, rate_multiplier=0.5),
            PhaseSpec(duration=10.0, rate_multiplier=2.0, zipf_exponent=1.4),
            PhaseSpec(duration=10.0, popularity_shift=30),
        )
        a = run_simulation(make_config(phases, backend=backend))
        b = run_simulation(make_config(phases, backend=backend))
        assert metric_tuple(a) == metric_tuple(b)
        assert a.kpis.access_p95 == b.kpis.access_p95

    def test_multi_phase_changes_the_run(self):
        plain = run_simulation(make_config(None))
        phased = run_simulation(
            make_config(
                (
                    PhaseSpec(duration=10.0, rate_multiplier=0.25),
                    PhaseSpec(duration=10.0, rate_multiplier=1.75),
                )
            )
        )
        assert metric_tuple(plain) != metric_tuple(phased)


class TestGenerateTrace:
    def test_neutral_phase_trace_matches_stationary(self):
        spec = WorkloadSpec(num_clients=3, request_rate=15.0, catalog_size=40,
                            follow_probability=0.4)
        phased = WorkloadSpec(num_clients=3, request_rate=15.0, catalog_size=40,
                              follow_probability=0.4,
                              phases=(PhaseSpec(duration=25.0),))
        a = generate_trace(spec, duration=20.0, seed=3)
        b = generate_trace(phased, duration=20.0, seed=3)
        assert [(r.time, r.client, r.item) for r in a] == [
            (r.time, r.client, r.item) for r in b
        ]

    def test_phased_trace_rate_shifts_between_phases(self):
        spec = WorkloadSpec(
            num_clients=4, request_rate=20.0, catalog_size=40,
            phases=(
                PhaseSpec(duration=30.0, rate_multiplier=0.25),
                PhaseSpec(duration=30.0, rate_multiplier=1.75),
            ),
        )
        records = generate_trace(spec, duration=60.0, seed=9)
        slow = sum(1 for r in records if r.time < 30.0)
        busy = sum(1 for r in records if r.time >= 30.0)
        assert busy > 3 * slow  # 7x the rate, sampled well above noise


class TestPhaseSchedule:
    def test_locate_cycles(self):
        schedule = PhaseSchedule(
            (PhaseSpec(duration=10.0), PhaseSpec(duration=5.0,
                                                 rate_multiplier=2.0))
        )
        assert schedule.locate(0.0) == (0, 10.0)
        assert schedule.locate(12.0) == (1, 15.0)
        assert schedule.locate(15.0) == (0, 25.0)  # wrapped into cycle 2
        assert schedule.locate(27.0) == (1, 30.0)

    def test_single_phase_never_ends(self):
        schedule = PhaseSchedule((PhaseSpec(duration=10.0),))
        idx, end = schedule.locate(1e9)
        assert idx == 0
        assert end == float("inf")

    def test_stationary_spec_is_one_neutral_phase(self):
        schedule = WorkloadSpec().make_schedule()
        assert schedule is STATIONARY
        assert schedule.multipliers == (1.0,)
        assert schedule.variant_keys == ((None, 0),)
        assert schedule.locate(1e9) == (0, float("inf"))
        # Finite duration: an endless phase would average inf / inf.
        assert schedule.average_multiplier() == 1.0

    def test_average_multiplier_is_duration_weighted(self):
        schedule = PhaseSchedule(
            (
                PhaseSpec(duration=30.0, rate_multiplier=1.0),
                PhaseSpec(duration=10.0, rate_multiplier=5.0),
            )
        )
        assert schedule.average_multiplier() == pytest.approx(2.0)

    def test_variant_sharing(self):
        """Phases with identical item settings share one variant stream."""
        schedule = PhaseSchedule(
            (
                PhaseSpec(duration=10.0),
                PhaseSpec(duration=10.0, rate_multiplier=3.0),
                PhaseSpec(duration=10.0, zipf_exponent=1.3),
            )
        )
        assert schedule.variant_of_phase[0] == schedule.variant_of_phase[1]
        assert schedule.variant_of_phase[2] != schedule.variant_of_phase[0]
        names = schedule.stream_names("client0/items")
        assert names[0] == "client0/items"  # base variant keeps the old name
        assert "phase-variant" in names[1]


def rounding_phases_document(backend: str) -> dict:
    """Two clients, phases of 0.1 s and 0.2 s, a 1 s run: the second
    boundary is 0.1 + 0.30000000000000004, which rounds to 0.4 exactly."""
    return {
        "name": "rounding-phases",
        "workload": {
            "num_clients": 2,
            "request_rate": 20.0,
            "catalog_size": 50,
            "phases": [
                {"duration": 0.1},
                {"duration": 0.2, "rate_multiplier": 3.0},
            ],
        },
        "system": {"duration": 1.0, "warmup": 0.1, "client_backend": backend},
    }


class TestRoundingPhaseBoundaries:
    @pytest.mark.parametrize("backend", ["per-client", "aggregated"])
    def test_scenario_builds_and_runs(self, backend):
        config = compile_config(parse_scenario(rounding_phases_document(backend)))
        assert config.client_backend == backend
        out = run_simulation(config)
        assert sum(c.requests for c in out.controller_stats) > 20

    def test_generate_trace_finishes(self):
        config = compile_config(
            parse_scenario(rounding_phases_document("per-client"))
        )
        trace = generate_trace(config.workload, duration=1.0, seed=3)
        assert len(trace) > 20
        assert all(0.0 < r.time <= 1.0 for r in trace)
        # Arrivals continue past the boundary at 0.4.
        assert any(r.time > 0.4 for r in trace)


class TestStationaryTwin:
    def test_twin_flattens_phases_to_their_average_rate(self):
        phases = (
            PhaseSpec(duration=30.0, rate_multiplier=1.0),
            PhaseSpec(duration=10.0, rate_multiplier=5.0),
        )
        point = SweepPoint(key="p", config=make_config(phases))
        twin = ScenarioExperiment._stationary_twin(point)
        assert twin.key == "p" + STATIONARY_SUFFIX
        assert twin.config.workload.phases is None
        assert twin.config.workload.request_rate == pytest.approx(24.0 * 2.0)

    def test_stationary_point_has_no_twin(self):
        point = SweepPoint(key="p", config=make_config(None))
        assert ScenarioExperiment._stationary_twin(point) is None


class TestPhaseSpecValidation:
    def test_duration_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PhaseSpec(duration=0.0)

    def test_multiplier_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            PhaseSpec(duration=1.0, rate_multiplier=-2.0)

    def test_zipf_exponent_nonnegative(self):
        with pytest.raises(ConfigurationError):
            PhaseSpec(duration=1.0, zipf_exponent=-0.1)

    def test_spec_accepts_mappings(self):
        spec = WorkloadSpec(phases=[{"duration": 5.0, "rate_multiplier": 2.0}])
        assert spec.phases == (PhaseSpec(duration=5.0, rate_multiplier=2.0),)

    def test_empty_phases_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(phases=())

    def test_trace_path_rejects_phases(self, tmp_path):
        trace = tmp_path / "t.csv"
        trace.write_text("timestamp,client,item,size\n0.5,0,1,1.0\n")
        with pytest.raises(ConfigurationError, match="phases"):
            SimulationConfig(
                workload=WorkloadSpec(phases=(PhaseSpec(duration=5.0),)),
                trace_path=str(trace),
            )


class TestShiftedCatalog:
    def test_zero_shift_is_shared_catalog(self):
        base = shared_catalog(50, 1.0)
        assert shared_phase_catalog(50, 1.0, 0) is base
        assert shared_phase_catalog(50, 1.0, 50) is base  # full wrap

    def test_probability_mass_rotates(self):
        base = shared_catalog(50, 1.0)
        shifted = ShiftedCatalog(50, 1.0, 10)
        for rank in (0, 1, 5):
            assert shifted.probability((rank + 10) % 50) == pytest.approx(
                base.probability(rank)
            )

    def test_probabilities_sum_to_one(self):
        shifted = ShiftedCatalog(40, 1.2, 13)
        assert shifted.probabilities.sum() == pytest.approx(1.0)

    def test_top_is_shifted(self):
        shifted = ShiftedCatalog(50, 1.0, 7)
        top_item, top_p = shifted.top(1)[0]
        assert top_item == 7  # rank 0's mass moved to item 0+shift
        assert top_p == pytest.approx(shared_catalog(50, 1.0).top(1)[0][1])
