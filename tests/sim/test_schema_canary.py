"""Schema canaries: an output that changes needs a new schema version.

A warm ``--sweep`` cache serves every stored result whose scenario hash
and ``CACHE_SCHEMA_VERSION`` match.  A change that moves outputs without
bumping the version would have the cache serve numbers the code no
longer produces.  Small canary runs pin their output fingerprints
(``perfbench.checks.fingerprint``, a hash of every output field) under
the version that produced them, so a changed fingerprint under an
unchanged version fails here.  The cache stores both kinds of sweep
point, so the canaries cover both: five :class:`SimulationConfig` runs
and one analytic-mirror run per ``prefetch_timing`` mode.

After a deliberate output change: bump ``CACHE_SCHEMA_VERSION`` in
``repro/sim/sweep.py`` (its comment says what moved), then record the new
fingerprints, which the failure message prints, under the new version.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT))

from perfbench.checks import fingerprint  # noqa: E402
from repro.core.parameters import SystemParameters  # noqa: E402
from repro.network.topology import TopologyConfig  # noqa: E402
from repro.scenario import compile_config, load_scenario  # noqa: E402
from repro.sim.config import SimulationConfig  # noqa: E402
from repro.sim.mirror import MirrorConfig, run_mirror  # noqa: E402
from repro.sim.simulation import Simulation  # noqa: E402
from repro.sim.sweep import CACHE_SCHEMA_VERSION  # noqa: E402
from repro.workload.sessions import WorkloadSpec  # noqa: E402

SCENARIOS = REPO_ROOT / "scenarios"

#: canary fingerprints by the schema version whose code produced them
FINGERPRINTS = {
    12: {
        "paper-point-60s": "23316955bcd8a729",
        "flash-crowd-170s": "bb4257fe59ee358b",
        "sparse-per-client": "a753d173dec90acc",
        "sparse-singleton-classes": "b1e0db3e93d322fe",
        "proxy-failure-70s": "3ae0a546a8623745",
        "mirror-independent": "9ff66e81f8537636",
        "mirror-jittered": "e52a4ff8aa6ade7e",
        "mirror-batched": "6cced77712de2394",
    },
}


def _scenario(file: str, **overrides) -> SimulationConfig:
    return dataclasses.replace(
        compile_config(load_scenario(SCENARIOS / file)), **overrides
    )


def _mirror(prefetch_timing: str) -> MirrorConfig:
    # A fractional n_f draws the extra-prefetch coin on every request.
    return MirrorConfig(
        params=SystemParameters.paper_defaults(hit_ratio=0.3),
        n_f=1.5,
        p=0.3,
        duration=300.0,
        warmup=30.0,
        seed=5,
        prefetch_timing=prefetch_timing,
    )


def _sparse(**overrides) -> SimulationConfig:
    # 300 clients expecting under one arrival each in 2 s: most are idle.
    return SimulationConfig(
        workload=WorkloadSpec(
            num_clients=300,
            request_rate=60.0,
            catalog_size=80,
            zipf_exponent=0.8,
            follow_probability=0.6,
            **overrides,
        ),
        bandwidth=40.0,
        cache_capacity=16,
        predictor="markov",
        policy="threshold-dynamic",
        duration=2.0,
        warmup=0.2,
        seed=17,
        topology=TopologyConfig(num_proxies=3),
        client_backend="aggregated" if overrides else "per-client",
    )


CANARIES = {
    "paper-point-60s": lambda: SimulationConfig(
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
        duration=60.0,
        warmup=10.0,
        seed=1,
    ),
    # Background, then the 4x spike from 120 s to 160 s.
    "flash-crowd-170s": lambda: _scenario(
        "flash_crowd.yaml", policy="threshold-dynamic", duration=170.0, seed=11
    ),
    "sparse-per-client": lambda: _sparse(),
    # A distinct rate per client makes every class a singleton.
    "sparse-singleton-classes": lambda: _sparse(
        client_overrides={c: {"request_rate": 0.1 + 0.001 * c} for c in range(300)}
    ),
    # Fail at 60 s, cooperative warm recovery at 68 s.
    "proxy-failure-70s": lambda: _scenario(
        "proxy_failure.yaml", policy="threshold-static", duration=70.0, seed=23
    ),
    "mirror-independent": lambda: _mirror("independent"),
    "mirror-jittered": lambda: _mirror("jittered"),
    "mirror-batched": lambda: _mirror("batched"),
}


def _run(config):
    if isinstance(config, MirrorConfig):
        return run_mirror(config)
    return Simulation(config).run()


def test_outputs_match_the_schema_version():
    got = {name: fingerprint(_run(make())) for name, make in CANARIES.items()}
    pinned = FINGERPRINTS.get(CACHE_SCHEMA_VERSION)
    assert pinned is not None, (
        f"no canary fingerprints recorded for CACHE_SCHEMA_VERSION "
        f"{CACHE_SCHEMA_VERSION}: record these under it: {got!r}"
    )
    changed = sorted(name for name in got if got[name] != pinned.get(name))
    assert not changed, (
        f"outputs of {changed} changed under CACHE_SCHEMA_VERSION "
        f"{CACHE_SCHEMA_VERSION}: bump CACHE_SCHEMA_VERSION in "
        f"repro/sim/sweep.py and record these fingerprints under the new "
        f"version: {got!r}"
    )
