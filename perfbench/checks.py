"""Correctness gate for benchmark rounds.

Every round's simulations are checked through public fields of
:class:`~repro.sim.simulation.Simulation` and
:class:`~repro.sim.simulation.SimulationOutput` before their timings
count.  The checks are conservation laws of the request path:

* every request is a cache hit or a cache miss;
* every miss joined a pending fetch or registered a demand or remote
  fetch (exactly one, unless a fetch failed and its joiners retried);
* every prefetch the controllers issued was registered in a fetch table
  and carried by an uplink;
* every registered fetch is resolved or still open at the end;
* shard and KPI request counts add up to the run's request count;
* every demand or remote registration produced exactly one uplink demand
  fetch or peer transfer (at least one under fault injection, where
  failover re-issues fetches and migration adds peer transfers).

Fetch tables live in the process that ran the event loop, so the table
checks are skipped for a parallel node backend's dispatcher.

An output *fingerprint* (a hash of the whole output) must repeat across
the rounds of one invocation.  Reference fingerprints for seed 7 are kept
in ``reference_fingerprints.json``; a mismatch there is reported, not
failed, because a deliberate re-pin of the simulator changes them.
Regenerate them from the repository root with
``PYTHONPATH=src python3 -m perfbench.checks``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from pathlib import Path

from repro.sim.kpis import QuantileSketch

__all__ = ["check_run", "check_round", "fingerprint", "reference", "REFERENCE_SEED"]

REFERENCE_FILE = Path(__file__).resolve().parent / "reference_fingerprints.json"
REFERENCE_SEED = 7


def _canon(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _canon(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    if isinstance(value, QuantileSketch):
        return (
            value.zeros,
            sorted(value.bins.items()),
            value.count,
            value.total,
            value.min,
            value.max,
        )
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return value


def fingerprint(output) -> str:
    """Short hash of every field of a ``SimulationOutput``."""
    return hashlib.sha256(repr(_canon(output)).encode()).hexdigest()[:16]


def check_run(sim, output) -> list[str]:
    """Violated conservation laws of one simulation (empty when it holds)."""
    errors = []

    def expect(ok: bool, message: str) -> None:
        if not ok:
            errors.append(message)

    requests = sum(c.requests for c in output.controller_stats)
    hits = sum(c.hits for c in output.cache_stats)
    misses = sum(c.misses for c in output.cache_stats)
    issued = sum(c.prefetches_issued for c in output.controller_stats)
    expect(requests > 0, "no requests were simulated")
    expect(
        requests == hits + misses,
        f"requests {requests} != cache hits {hits} + misses {misses}",
    )
    expect(
        issued == output.link_prefetch_fetches,
        f"prefetches issued {issued} != uplink prefetch fetches "
        f"{output.link_prefetch_fetches}",
    )
    shard_requests = sum(s.metrics.requests for s in output.per_proxy)
    expect(
        shard_requests == output.metrics.requests == output.kpis.requests,
        f"shard requests {shard_requests}, metrics requests "
        f"{output.metrics.requests} and KPI requests {output.kpis.requests} differ",
    )
    tables = [
        table
        for node in sim.nodes
        for table in node.fetch_tables.values()
    ]
    if not tables:
        return errors
    stats = [t.stats for t in tables]
    demand = sum(s.demand_registered for s in stats)
    remote = sum(s.remote_registered for s in stats)
    joins = sum(s.joins for s in stats)
    failures = sum(s.failures for s in stats)
    if failures:
        expect(
            misses <= demand + remote + joins,
            f"misses {misses} > demand {demand} + remote {remote} + joins {joins}",
        )
    else:
        expect(
            misses == demand + remote + joins,
            f"misses {misses} != demand {demand} + remote {remote} + joins {joins}",
        )
    registered = sum(s.prefetch_registered for s in stats)
    expect(
        registered == issued,
        f"prefetches registered {registered} != issued {issued}",
    )
    open_entries = sum(len(t) for t in tables)
    expect(
        sum(s.registered for s in stats) == sum(s.resolved for s in stats) + open_entries,
        "fetch-table registrations != resolutions + open entries",
    )
    carried = output.link_demand_fetches + output.peer_fetches
    if sim.config.faults:
        expect(
            carried >= demand + remote,
            f"uplink demand + peer fetches {carried} < demand + remote "
            f"registrations {demand + remote}",
        )
    else:
        expect(
            carried == demand + remote,
            f"uplink demand + peer fetches {carried} != demand + remote "
            f"registrations {demand + remote}",
        )
    return errors


def check_round(runs) -> list[str]:
    """Errors of every ``(Simulation, SimulationOutput)`` pair of a round."""
    return [
        f"simulation {i}: {error}"
        for i, (sim, output) in enumerate(runs)
        for error in check_run(sim, output)
    ]


def reference() -> dict[str, list[str]]:
    """Pinned seed-7 fingerprints by workload (empty if none are stored)."""
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["fingerprints"]


def _pin() -> None:
    """Recompute the seed-7 reference, every workload on the serial loop."""
    from repro.sim.simulation import Simulation

    from perfbench.workloads import WORKLOADS

    pinned = {}
    for name, workload in WORKLOADS.items():
        pinned[name] = [
            fingerprint(
                Simulation(
                    dataclasses.replace(setup(), node_backend="serial")
                ).run()
            )
            for setup in workload(REFERENCE_SEED, False)
        ]
        print(name, pinned[name])
    REFERENCE_FILE.write_text(
        json.dumps({"seed": REFERENCE_SEED, "fingerprints": pinned}, indent=2) + "\n",
        encoding="utf-8",
    )


if __name__ == "__main__":
    _pin()
