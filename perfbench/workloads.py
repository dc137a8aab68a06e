"""The benchmark's six workloads.

Each workload is a list of *set-ups*: zero-argument callables that compile
one :class:`~repro.sim.config.SimulationConfig` (reading a scenario file
where the workload comes from one).  A round runs every set-up's
simulation once, in order.  The seed given on the command line is the
only source of randomness: it becomes every config's ``seed``.

Why each workload exists is recorded in ``BENCHMARK.json``.  Durations
are sized so one round takes about two seconds of wall time on a 2-core
x86 host (``scale-per-client`` about five, most of it the client build);
``quick=True`` shrinks durations, and the two scale populations, for the
harness test, which only checks plumbing.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Callable

from repro.scenario import compile_config, load_scenario
from repro.sim.config import SimulationConfig
from repro.workload.sessions import WorkloadSpec

__all__ = ["WORKLOADS", "Setups"]

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

Setup = Callable[[], SimulationConfig]
#: a workload: (seed, quick) -> the set-ups of one round
Setups = Callable[[int, bool], list[Setup]]


def _scenario(file: str, **overrides) -> Setup:
    """A set-up that loads and compiles a committed scenario file."""

    def setup() -> SimulationConfig:
        config = compile_config(load_scenario(SCENARIOS / file))
        return dataclasses.replace(config, **overrides)

    return setup


def _paper_point(seed: int, quick: bool) -> list[Setup]:
    duration = 60.0 if quick else 500.0
    return [lambda: SimulationConfig(
        workload=WorkloadSpec(
            num_clients=4,
            request_rate=30.0,
            catalog_size=400,
            zipf_exponent=0.8,
            follow_probability=0.7,
        ),
        bandwidth=55.0,
        cache_capacity=40,
        predictor="markov",
        policy="threshold-dynamic",
        duration=duration,
        warmup=10.0 if quick else 60.0,
        seed=seed,
    )]


def _flash_crowd(seed: int, quick: bool) -> list[Setup]:
    # Two full 280 s phase cycles (background, 4x spike, recovery).
    return [
        _scenario(
            "flash_crowd.yaml",
            policy="threshold-dynamic",
            duration=140.0 if quick else 560.0,
            seed=seed,
        )
    ]


def _scale(seed: int, *, clients: int, duration: float, backend: str) -> Setup:
    return lambda: SimulationConfig(
        workload=WorkloadSpec(
            num_clients=clients,
            request_rate=2000.0,
            catalog_size=500,
            follow_probability=0.2,
        ),
        bandwidth=5000.0,
        policy="threshold-dynamic",
        predictor="markov",
        duration=duration,
        warmup=1.0,
        seed=seed,
        client_backend=backend,
    )


def _scale_per_client(seed: int, quick: bool) -> list[Setup]:
    clients, duration = (1000, 1.5) if quick else (20_000, 2.0)
    return [_scale(seed, clients=clients, duration=duration, backend="per-client")]


def _scale_aggregated(seed: int, quick: bool) -> list[Setup]:
    clients, duration = (5000, 1.5) if quick else (100_000, 5.0)
    return [_scale(seed, clients=clients, duration=duration, backend="aggregated")]


def _proxy_failure(seed: int, quick: bool) -> list[Setup]:
    # The committed fault schedule (fail at 60 s, recover at 68 s) stays
    # inside the shortened run.
    duration = 70.0 if quick else 100.0
    return [
        _scenario("proxy_failure.yaml", policy=policy, duration=duration, seed=seed)
        for policy in ("none", "threshold-static")
    ]


def _decoupled_tier(seed: int, quick: bool) -> list[Setup]:
    return [
        _scenario(
            "saturated_tier.yaml",
            policy="threshold-dynamic",
            node_backend="parallel",
            node_workers=2,
            duration=35.0 if quick else 80.0,
            seed=seed,
        )
    ]


WORKLOADS: dict[str, Setups] = {
    "paper-point": _paper_point,
    "flash-crowd": _flash_crowd,
    "scale-per-client": _scale_per_client,
    "scale-aggregated": _scale_aggregated,
    "proxy-failure": _proxy_failure,
    "decoupled-tier": _decoupled_tier,
}
