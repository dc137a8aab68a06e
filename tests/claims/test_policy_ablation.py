"""§1's motivation on the full system: the paper's rule beats no prefetching."""

import pytest

from repro.experiments import get_experiment


@pytest.fixture(scope="module")
def result():
    return get_experiment("policy-ablation").run(fast=True)


def test_threshold_rule_beats_no_prefetching(result):
    _, _, rows = result.tables[0]
    t = {row[0]: row[1] for row in rows}
    # the paper's rule must beat doing nothing on this predictable workload
    assert t["threshold-dynamic"] < t["none"]
