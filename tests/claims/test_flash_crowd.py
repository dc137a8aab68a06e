"""The flash-crowd catalog scenario at full fidelity.

A phased workload (steady → 4× spike → recovery) runs against stationary
twins at the same average offered load, with the KPI scorecard attached.
The phased load must change the policy ranking the stationary baseline
reports: prefetching wins on averages and loses under the spike.
"""

from pathlib import Path

import pytest

from repro.experiments import get_experiment
from repro.sim.sweep import CACHE_SCHEMA_VERSION

FLASH_CROWD = Path(__file__).resolve().parents[2] / "scenarios" / "flash_crowd.yaml"


@pytest.fixture(scope="module")
def result():
    experiment = get_experiment("scenario")
    experiment.scenario_path = FLASH_CROWD
    experiment.show_kpis = True
    return experiment.run(fast=False)


def test_reports_grid_ranking_and_kpi_scorecard(result):
    # grid table + ranking table + KPI scorecard
    assert len(result.tables) == 3
    assert any(
        name.startswith("KPI scorecard") for name, _, _ in result.tables
    )


def test_phased_load_changes_the_policy_ranking(result):
    # the headline claim: phased load flips the stationary policy ranking
    assert any("ranking change" in note for note in result.notes)


def test_result_records_the_cache_schema_version(result):
    assert result.cache_schema_version == CACHE_SCHEMA_VERSION


def test_every_point_carries_a_resolved_scenario_hash(result):
    # audit trail: every executed point carries a resolved scenario hash
    assert result.scenario_hashes and all(result.scenario_hashes.values())
