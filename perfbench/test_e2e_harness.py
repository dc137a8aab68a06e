"""Harness test for the end-to-end benchmark.

Runs every workload at a shortened duration, in-process, through the same
round, check and trace functions the benchmark uses.  Timings come from a
deterministic clock that advances one unit per read, so the only time
that passes is clock reads and injected delay: the assertions check
that metrics are emitted, that the correctness gate bites, and that an
injected slowdown is attributed to the right layer — not how fast
anything is.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from perfbench import checks, compare, run
from perfbench.workloads import WORKLOADS
from repro.sim.simulation import Simulation

SEED = 7


class TickClock:
    """A clock that advances one unit every time it is read.

    Whole numbers keep every difference of two readings exact, so spans
    the injected delay does not touch read identically on both sides.
    """

    def __init__(self) -> None:
        self.ticks = 0

    def __call__(self) -> float:
        self.ticks += 1
        return float(self.ticks)


def _round(name: str, *, traced: bool, delays=None) -> dict:
    return run.measure_round(
        WORKLOADS[name], SEED, quick=True, traced=traced, clock=TickClock(), delays=delays
    )


@pytest.fixture(scope="module")
def specs() -> dict:
    return run.metric_specs()


@pytest.fixture(scope="module")
def paper_point():
    sim = Simulation(WORKLOADS["paper-point"](SEED, True)[0]())
    return sim, sim.run()


@pytest.fixture(scope="module")
def traced_rounds() -> dict:
    return {name: _round(name, traced=True) for name in WORKLOADS}


def _summary(name: str, record: dict, specs: dict, repeats: int = 1) -> dict:
    """A workload summary from one record reused as untraced and traced rounds
    (the deterministic clock makes every repeat identical)."""
    records = [dict(record, traced=flag, errors=[]) for flag in (False, True)] * repeats
    return run.summarize(name, records, specs, seed=SEED)


def test_benchmark_file_lists_the_workloads():
    spec = json.loads(run.BENCHMARK_FILE.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name, traced_rounds, specs):
    plain = _round(name, traced=False)
    traced = traced_rounds[name]
    assert plain["errors"] == []
    assert traced["errors"] == []
    # Tracing must not change what the simulator computes.
    assert plain["fingerprints"] == traced["fingerprints"]
    summary = run.summarize(name, [plain, traced], specs, seed=SEED)
    expected = {**specs["end_to_end"], **specs["per_layer"]}
    assert set(summary["metrics"]) == set(expected)
    for metric, m in summary["metrics"].items():
        assert m["unit"] == expected[metric]["unit"], metric
    json.dumps(summary)  # the record travels between processes as JSON


@pytest.mark.parametrize(
    "tamper",
    [
        lambda out: dataclasses.replace(out, link_prefetch_fetches=out.link_prefetch_fetches + 1),
        lambda out: dataclasses.replace(out, link_demand_fetches=out.link_demand_fetches + 1),
        lambda out: dataclasses.replace(
            out, metrics=dataclasses.replace(out.metrics, requests=out.metrics.requests + 1)
        ),
    ],
)
def test_tampered_output_fails_the_gate(tamper, paper_point):
    sim, output = paper_point
    assert checks.check_run(sim, output) == []
    assert checks.check_run(sim, tamper(output)) != []


@pytest.mark.parametrize(
    "layer, name",
    [
        ("cache", "paper-point"),
        ("network", "flash-crowd"),
        ("predictors", "scale-aggregated"),
        ("node", "proxy-failure"),
    ],
)
def test_layer_slowdown_is_flagged_on_that_layer_and_wall(layer, name, traced_rounds, specs):
    base = traced_rounds[name]
    spans = [a for a in base["trace"]["aggregates"] if a["name"].startswith(layer + ":")]
    calls = sum(a["count"] for a in spans)
    delay = 0.10 * sum(a["self_s"] for a in spans) / calls
    slowed = _round(name, traced=True, delays={layer: delay})
    rows = compare.compare(
        {"workloads": {name: _summary(name, base, specs, repeats=10)}},
        {"workloads": {name: _summary(name, slowed, specs, repeats=10)}},
        json.loads(run.BENCHMARK_FILE.read_text(encoding="utf-8")),
    )
    labels = {row["metric"]: row["label"] for row in rows}
    assert labels[f"{layer}.self_s"] == "regressed"
    assert labels["wall_s"] == "regressed"
    assert labels["metrics.self_s"] == "unchanged"
