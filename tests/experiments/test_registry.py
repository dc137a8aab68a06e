"""Tests for the experiment registry and report rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments import all_experiments, get_experiment

EXPECTED_IDS = {
    "fig1",
    "fig2",
    "fig3",
    "threshold-claims",
    "model-compare",
    "sim-vs-analytic",
    "hprime-estimator",
    "load-impedance",
    "policy-ablation",
    "trace-replay",
    "sharding",
    "cooperative-caching",
    "scenario",
    "failure-recovery",
}


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        assert set(all_experiments()) == EXPECTED_IDS

    def test_get_returns_fresh_instance(self):
        a = get_experiment("fig1")
        b = get_experiment("fig1")
        assert a is not b
        assert a.experiment_id == "fig1"

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            get_experiment("fig99")

    def test_every_experiment_describes_its_artifact(self):
        for key, factory in all_experiments().items():
            exp = factory()
            assert exp.paper_artifact, key
            assert exp.description, key
