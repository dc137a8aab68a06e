"""Experiment framework: uniform run/report interface + registry.

Every paper figure and every ablation is an :class:`Experiment` exposing

* ``run(fast=..., engine=...)`` → an :class:`ExperimentResult` with the
  raw sweeps/rows plus the run record (worker count, wall-clock),
* a registry entry so the CLI (``python -m repro <id>``) and the tests can
  look them up.

``fast=True`` shrinks simulation durations/replications so the test suite
stays minutes-fast; closed-form experiments ignore it (they are exact
either way).  ``engine`` is the :class:`~repro.sim.sweep.SweepExecutor`
every simulated grid of the experiment runs through: its ``jobs``, result
cache and node backend decide how the grids execute, never what they
return (results are bit-identical to serial).  Without one, the run gets a
fresh serial engine with no cache.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.analysis.series import SweepResult
from repro.errors import ConfigurationError
from repro.sim.sweep import CACHE_SCHEMA_VERSION, SweepExecutor

__all__ = ["Experiment", "ExperimentResult", "register", "get_experiment", "all_experiments"]


@dataclass
class ExperimentResult:
    """Output of one experiment run.

    ``sweeps`` hold figure panels; ``tables`` hold (headers, rows) pairs for
    tabular results; ``notes`` carries observations for EXPERIMENTS.md.
    ``jobs``/``wall_clock_seconds`` record how the run executed (filled in
    by :meth:`Experiment.run`).
    """

    experiment_id: str
    title: str
    sweeps: list[SweepResult] = field(default_factory=list)
    tables: list[tuple[str, Sequence[str], list[Sequence[object]]]] = field(
        default_factory=list
    )
    notes: list[str] = field(default_factory=list)
    jobs: int | None = None
    wall_clock_seconds: float | None = None
    #: audit trail (filled in by :meth:`Experiment.run`): the resolved
    #: ``scenario_hash`` of every sweep point executed during the run
    #: (None = unhashable config) plus the cache schema
    #: version they were resolved under — what makes cached sweep results
    #: attributable from the report alone.
    scenario_hashes: dict[str, str | None] = field(default_factory=dict)
    cache_schema_version: int | None = None

    def render(self, *, plots: bool = True, max_rows: int | None = 12) -> str:
        """Human-readable report (what the CLI prints)."""
        from repro.analysis.ascii_plot import render_sweep
        from repro.analysis.tables import format_sweep, format_table

        chunks = [f"=== {self.experiment_id}: {self.title} ==="]
        if self.wall_clock_seconds is not None:
            chunks.append(
                f"run: jobs={self.jobs}, "
                f"wall-clock={self.wall_clock_seconds:.2f}s"
            )
        for sweep in self.sweeps:
            chunks.append(format_sweep(sweep, max_rows=max_rows))
            if plots:
                chunks.append(render_sweep(sweep))
        for name, headers, rows in self.tables:
            chunks.append(f"--- {name} ---")
            chunks.append(format_table(headers, rows, precision=5))
        for note in self.notes:
            chunks.append(f"note: {note}")
        if self.scenario_hashes:
            version = self.cache_schema_version
            chunks.append(
                f"--- scenario hashes (cache schema v{version}) ---"
            )
            chunks.append(
                format_table(
                    ["point", "scenario_hash"],
                    [
                        [key, (h[:16] if h else "-")]
                        for key, h in self.scenario_hashes.items()
                    ],
                )
            )
        return "\n\n".join(chunks)


class Experiment(ABC):
    """One reproducible artefact (figure, table or claim check)."""

    #: registry key, e.g. "fig1"
    experiment_id: str = ""
    #: paper artefact it reproduces, e.g. "Figure 1"
    paper_artifact: str = ""
    #: one-line description
    description: str = ""

    def run(
        self, *, fast: bool = False, engine: SweepExecutor | None = None
    ) -> ExperimentResult:
        """Execute and return results.

        ``fast`` trims stochastic workloads.  ``engine`` runs every grid
        inside the experiment (None → a fresh serial engine with no
        cache), so its ``hash_log`` is the audit trail of this run's sweep
        points.  The returned result records the engine's worker count and
        the total wall-clock.
        """
        started = time.perf_counter()
        if engine is None:
            engine = SweepExecutor()
        log_start = len(engine.hash_log)
        result = self._execute(fast=fast, engine=engine)
        result.jobs = engine.jobs
        result.wall_clock_seconds = time.perf_counter() - started
        result.scenario_hashes = dict(engine.hash_log[log_start:])
        result.cache_schema_version = CACHE_SCHEMA_VERSION
        return result

    @abstractmethod
    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        """Build the result (subclass hook; call :meth:`run`, not this)."""


_REGISTRY: dict[str, Callable[[], Experiment]] = {}


def register(factory: Callable[[], Experiment]) -> Callable[[], Experiment]:
    """Class decorator registering an experiment by its ``experiment_id``."""
    instance = factory()  # validate eagerly: id must be set
    if not instance.experiment_id:
        raise ConfigurationError(f"{factory!r} lacks an experiment_id")
    if instance.experiment_id in _REGISTRY:
        raise ConfigurationError(f"duplicate experiment id {instance.experiment_id!r}")
    _REGISTRY[instance.experiment_id] = factory
    return factory


def get_experiment(experiment_id: str) -> Experiment:
    if experiment_id not in _REGISTRY:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[experiment_id]()


def all_experiments() -> Mapping[str, Callable[[], Experiment]]:
    return dict(_REGISTRY)
