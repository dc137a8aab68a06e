"""Reference replication loop: the runners' plain serial seed loop.

``repro.sim.runner`` ran these loops itself before its entry points became
one-point grids through ``SweepExecutor.run``.  They are kept here as the
independent side of the bit-identity pins: replication ``i`` runs with seed
``seed0 + 1000·i``, one after another in this process, and the samples are
aggregated as the runners did.  Nothing under ``src/`` imports this module.
"""

from __future__ import annotations

from dataclasses import replace

from repro.sim.mirror import run_mirror
from repro.sim.simulation import run_simulation
from repro.sim.sweep import _MIRROR_FIELDS, _aggregate_simulation_outputs, _collect

__all__ = ["mirror_replications", "simulation_replications"]


def _seeded(config, replications: int, base_seed: int | None) -> list:
    seed0 = config.seed if base_seed is None else base_seed
    return [replace(config, seed=seed0 + 1000 * i) for i in range(replications)]


def mirror_replications(config, *, replications: int = 5, base_seed=None):
    """``run_mirror_replications`` as a plain loop."""
    runs = [run_mirror(cfg) for cfg in _seeded(config, replications, base_seed)]
    return _collect(runs, _MIRROR_FIELDS)


def simulation_replications(config, *, replications: int = 5, base_seed=None):
    """``run_simulation_replications`` as a plain loop."""
    outputs = [
        run_simulation(cfg) for cfg in _seeded(config, replications, base_seed)
    ]
    return _aggregate_simulation_outputs(outputs)
