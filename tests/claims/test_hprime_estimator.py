"""§4: the tagged-hit estimator recovers h′ while prefetching runs."""

import pytest

from repro.experiments import get_experiment


@pytest.fixture(scope="module")
def result():
    return get_experiment("hprime-estimator").run(fast=True)


def test_isolated_estimate_error_below_0_08(result):
    _, _, iso_rows = result.tables[0]
    # With oracle probabilities the §4 estimate recovers h' closely
    # (column 5 = |err| of the model-A estimate).
    assert all(row[5] < 0.08 for row in iso_rows)
