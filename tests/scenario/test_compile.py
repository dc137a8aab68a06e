"""Compile layer: scenarios become core configs, grids become sweep points."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.scenario import (
    ScenarioError,
    apply_override,
    compile_config,
    expand_points,
    load_scenario,
    parse_scenario,
)
from repro.sim.config import SimulationConfig
from repro.sim.sweep import scenario_hash
from repro.workload.phases import PhaseSpec

REPO_ROOT = Path(__file__).resolve().parents[2]
CATALOG = sorted((REPO_ROOT / "scenarios").glob("*.yaml"))


def spec_of(document):
    return parse_scenario(document)


class TestCompileConfig:
    def test_defaults_inherited_from_core(self):
        config = compile_config(spec_of({"name": "bare"}))
        default = SimulationConfig()
        assert config.bandwidth == default.bandwidth
        assert config.policy == default.policy
        assert config.workload.num_clients == default.workload.num_clients

    def test_set_fields_apply(self):
        config = compile_config(
            spec_of(
                {
                    "name": "x",
                    "workload": {"num_clients": 6, "request_rate": 12.0},
                    "system": {"bandwidth": 33.0, "policy": "none"},
                    "topology": {"num_proxies": 3},
                }
            )
        )
        assert config.workload.num_clients == 6
        assert config.bandwidth == 33.0
        assert config.policy == "none"
        assert config.topology.num_proxies == 3

    def test_phases_compile_to_phase_specs(self):
        config = compile_config(
            spec_of(
                {
                    "name": "x",
                    "workload": {
                        "phases": [
                            {"duration": 10.0},
                            {"duration": 5.0, "rate_multiplier": 2.0,
                             "popularity_shift": 7},
                        ]
                    },
                }
            )
        )
        assert config.workload.phases == (
            PhaseSpec(duration=10.0),
            PhaseSpec(duration=5.0, rate_multiplier=2.0, popularity_shift=7),
        )

    def test_cooperation_compiles(self):
        config = compile_config(
            spec_of(
                {
                    "name": "x",
                    "topology": {
                        "num_proxies": 2,
                        "cooperation": {"mode": "broadcast", "probe_latency": 0.01},
                    },
                }
            )
        )
        assert config.topology.cooperation.mode == "broadcast"
        assert config.topology.cooperation.probe_latency == 0.01

    def test_cross_field_error_maps_to_section(self):
        with pytest.raises(ScenarioError, match="system"):
            compile_config(
                spec_of(
                    {"name": "x", "system": {"duration": 10.0, "warmup": 20.0}}
                )
            )


class TestApplyOverride:
    def test_system_field(self):
        config = compile_config(spec_of({"name": "x"}))
        out = apply_override(config, "system.policy", "none")
        assert out.policy == "none"
        assert config.policy == "threshold-dynamic"  # original untouched

    def test_nested_topology_field(self):
        config = compile_config(spec_of({"name": "x", "topology": {"num_proxies": 2}}))
        out = apply_override(config, "topology.cooperation.mode", "owner-probe")
        assert out.topology.cooperation.mode == "owner-probe"
        assert config.topology.cooperation.mode == "none"

    def test_workload_field(self):
        config = compile_config(spec_of({"name": "x"}))
        out = apply_override(config, "workload.request_rate", 99.0)
        assert out.workload.request_rate == 99.0

    def test_unknown_field_is_scenario_error(self):
        config = compile_config(spec_of({"name": "x"}))
        with pytest.raises(ScenarioError, match="unknown config"):
            apply_override(config, "system.bandwith", 10.0)

    def test_invalid_value_revalidates(self):
        config = compile_config(spec_of({"name": "x"}))
        with pytest.raises(ScenarioError):
            apply_override(config, "system.bandwidth", -1.0)

    def test_bad_root(self):
        config = compile_config(spec_of({"name": "x"}))
        with pytest.raises(ScenarioError, match="rooted"):
            apply_override(config, "nonsense.policy", "none")


class TestExpandPoints:
    def test_no_grid_single_point(self):
        points = expand_points(spec_of({"name": "solo"}))
        assert len(points) == 1
        assert points[0].key == "solo"
        assert points[0].meta == {"scenario": "solo"}
        assert points[0].replications == 3

    def test_cartesian_product_in_declaration_order(self):
        points = expand_points(
            spec_of(
                {
                    "name": "grid",
                    "sweep": {
                        "replications": 2,
                        "grid": {
                            "topology.num_proxies": [1, 2],
                            "system.policy": ["none", "all"],
                        },
                    },
                }
            )
        )
        assert [pt.key for pt in points] == [
            "num_proxies=1/policy=none",
            "num_proxies=1/policy=all",
            "num_proxies=2/policy=none",
            "num_proxies=2/policy=all",
        ]
        assert all(pt.replications == 2 for pt in points)
        assert points[3].config.topology.num_proxies == 2
        assert points[3].config.policy == "all"
        assert points[3].meta == {
            "scenario": "grid", "num_proxies": 2, "policy": "all",
        }

    def test_base_seed_propagates(self):
        points = expand_points(
            spec_of(
                {
                    "name": "x",
                    "sweep": {"base_seed": 17,
                              "grid": {"system.policy": ["none"]}},
                }
            )
        )
        assert points[0].base_seed == 17

    def test_invalid_grid_value_names_the_axis(self):
        with pytest.raises(ScenarioError, match="sweep.grid.system.bandwidth"):
            expand_points(
                spec_of(
                    {
                        "name": "x",
                        "sweep": {"grid": {"system.bandwidth": [-5.0]}},
                    }
                )
            )

    def test_points_are_scenario_hashable(self):
        points = expand_points(
            spec_of(
                {
                    "name": "x",
                    "workload": {"phases": [{"duration": 10.0},
                                            {"duration": 5.0,
                                             "rate_multiplier": 2.0}]},
                    "sweep": {"grid": {"system.policy": ["none", "all"]}},
                }
            )
        )
        digests = {
            scenario_hash(pt.config, replications=pt.replications, base_seed=0)
            for pt in points
        }
        assert len(digests) == len(points)  # distinct configs, distinct hashes

    def test_flash_crowd_shape_expands_one_point_per_policy(self):
        flash = load_scenario(REPO_ROOT / "scenarios" / "flash_crowd.yaml")
        spec = spec_of(
            {
                "name": flash.name,
                "workload": {
                    "num_clients": flash.workload.num_clients,
                    "request_rate": flash.workload.request_rate,
                    "phases": [
                        {"duration": p.duration, "rate_multiplier": p.rate_multiplier}
                        for p in flash.workload.phases
                    ],
                },
                "system": {"bandwidth": flash.system.bandwidth},
                "sweep": {
                    "replications": 2,
                    "grid": {"system.policy": ["none", "threshold-dynamic", "all"]},
                },
            }
        )
        compile_config(spec)
        assert len(expand_points(spec)) == 3


@pytest.mark.parametrize("path", CATALOG, ids=lambda p: p.name)
def test_catalog_scenarios_compile(path):
    """Every committed catalog file loads, compiles and expands."""
    spec = load_scenario(path)
    config = compile_config(spec)
    points = expand_points(spec)
    assert points
    # every catalog file exercises a non-default shape: a phased workload
    # (the PR 8 load-shape catalog), a non-serial execution backend
    # (the PR 9 saturated tier) or a fault schedule (the PR 10 failure
    # scenario)
    if spec.faults is not None:
        assert config.faults is not None and len(config.faults) > 0
    elif spec.system.node_backend in (None, "serial"):
        assert spec.workload.phases
        assert config.workload.phases is not None
    else:
        assert config.node_backend == spec.system.node_backend
