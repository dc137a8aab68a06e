"""Scale-out: access time against proxy count and routing (``sharding``)."""

import pytest

from repro.experiments import get_experiment


@pytest.fixture(scope="module")
def result():
    return get_experiment("sharding").run(fast=True)


def test_reports_proxy_count_and_routing_tables(result):
    # proxy-count × policy table + the routing comparison
    assert len(result.tables) == 2


def test_one_prefetching_gain_per_swept_proxy_count(result):
    # one prefetching-gain note per swept proxy count
    assert sum("prefetching gain" in note for note in result.notes) == 2
