"""Scale benchmark: aggregated vs per-client backend on a 100k-client run.

The tentpole claim of the scale-out work is that
``SimulationConfig(client_backend="aggregated")`` makes population size
nearly free: the whole homogeneous population collapses into one
client-class with one batched arrival process, so run time tracks the
*event* count (rate × duration) instead of the *client* count.  This
bench pins that claim on one scenario run under both backends and
records clients/sec and peak RSS into ``BENCH_SCALE.json``.

Scenario notes:

* ``request_rate`` is the population aggregate, so the event count is
  identical under both backends and any population size — only the
  bookkeeping (processes, caches, controllers, RNG streams) scales.
* ``bandwidth`` is sized to ~2.5x demand: an undersized link never
  completes a fetch inside the window and the run measures nothing.
* The aggregated run executes FIRST — ``ru_maxrss`` is a process-lifetime
  high-water mark, so only the first run's reading is its own.

Population size comes from ``REPRO_SCALE_CLIENTS`` (default 100 000; CI's
smoke pass uses 20 000).  The speedup floor scales with it: at the full
100k+ population the aggregated backend must deliver >= 3x the per-client
backend's clients/sec, at smoke sizes >= 1x (it must not lose).

Why the floors are this low: they were 20x and 4x while the per-client
backend paid for state no run used — two RNG streams derived per client
up front (one, for evictions, that an LRU cache never draws), 256 items
pre-drawn per client, request-handler closures built for clients that
never arrive, and full garbage collections rescanning the whole built
tier.  With that waste gone the per-client backend runs the 100k
population in 8-9 s instead of 26 s on a 2-core x86 host (seed 7), and
the measured ratio is 6.3-6.7x at 100k and 1.7-2.2x at 20k.  Each
floor keeps about 2x headroom under those measurements, so the bench
still fails if the aggregated backend stops collapsing the population.

Run:  pytest benchmarks/test_bench_scale.py --benchmark-only -s
"""

from __future__ import annotations

import os
import resource

from repro.sim.config import SimulationConfig
from repro.sim.simulation import Simulation
from repro.workload.sessions import WorkloadSpec

#: population size; CI smoke runs override this down (e.g. 20 000)
SCALE_CLIENTS = int(os.environ.get("REPRO_SCALE_CLIENTS", "100000"))

#: acceptance floor: aggregated clients/sec over per-client clients/sec
SPEEDUP_FLOOR = 3.0 if SCALE_CLIENTS >= 100_000 else 1.0

#: measured clients/sec per backend, shared across the two tests so the
#: per-client test (which runs second) can assert the speedup ratio
_RESULTS: dict[str, float] = {}


def _scale_config(backend: str) -> SimulationConfig:
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=SCALE_CLIENTS,
            request_rate=2000.0,
            catalog_size=500,
            follow_probability=0.2,
        ),
        bandwidth=5000.0,
        policy="threshold-dynamic",
        predictor="markov",
        duration=5.0,
        warmup=1.0,
        seed=7,
        client_backend=backend,
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_backend(benchmark, backend: str):
    output = benchmark.pedantic(
        lambda: Simulation(_scale_config(backend)).run(),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    elapsed = benchmark.stats.stats.min
    clients_per_sec = SCALE_CLIENTS / elapsed
    _RESULTS[backend] = clients_per_sec
    benchmark.extra_info["num_clients"] = SCALE_CLIENTS
    benchmark.extra_info["clients_per_sec"] = round(clients_per_sec, 1)
    benchmark.extra_info["peak_rss_mb"] = round(_peak_rss_mb(), 1)
    benchmark.extra_info["measured_requests"] = output.metrics.requests
    print(
        f"\n{backend}: {SCALE_CLIENTS:,} clients in {elapsed:.2f}s "
        f"= {clients_per_sec:,.0f} clients/sec, "
        f"peak RSS {_peak_rss_mb():,.1f} MB, "
        f"{output.metrics.requests} measured requests"
    )
    return output


def test_bench_scale_aggregated(benchmark):
    """Aggregated backend first: its RSS reading must be uncontaminated."""
    output = _run_backend(benchmark, "aggregated")
    # The run must have measured real traffic (completed fetches in-window)
    # and collapsed the homogeneous population into a single class.
    assert output.metrics.requests > 0
    assert len(output.client_classes) == 1
    assert output.client_classes[0].num_members == SCALE_CLIENTS


def test_bench_scale_per_client(benchmark):
    """Per-client backend on the same scenario; pins the speedup floor."""
    output = _run_backend(benchmark, "per-client")
    assert output.metrics.requests > 0
    assert "aggregated" in _RESULTS, (
        "run the whole module: the speedup ratio needs the aggregated "
        "backend's timing from test_bench_scale_aggregated"
    )
    speedup = _RESULTS["aggregated"] / _RESULTS["per-client"]
    benchmark.extra_info["aggregated_speedup"] = round(speedup, 1)
    print(f"aggregated/per-client speedup: {speedup:.1f}x "
          f"(floor {SPEEDUP_FLOOR:g}x at N={SCALE_CLIENTS:,})")
    assert speedup >= SPEEDUP_FLOOR
