"""§5 load impedance: the same prefetching costs more on a busier link."""

import pytest

from repro.experiments import get_experiment


@pytest.fixture(scope="module")
def result():
    return get_experiment("load-impedance").run(fast=True)


def test_excess_cost_rises_with_baseline_load(result):
    assert any("C strictly increases with baseline load: True" in n
               for n in result.notes)
