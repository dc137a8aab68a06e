"""Simulation sweep engine: one shared pool for a whole parameter grid.

Every figure/experiment in this reproduction walks a grid of operating
points (parameter variations × policies × seeds) and, before this module,
paid for each point separately: a fresh replication fan-out per point, and
the full simulation cost again on every re-run even when nothing about the
point had changed.  :class:`SweepExecutor` fixes both:

* **One pool for the whole grid.**  The full (point × replication) task
  matrix is flattened *after* every task's seed is pinned — replication
  ``i`` of a point runs with seed ``seed0 + 1000·i`` — and dispatched
  through a single :class:`~repro.sim.parallel.ReplicationExecutor` map.
  Results come back in submission order, so every per-point aggregate is
  **bit-identical** to a plain serial loop over the point's seeds (pinned
  by tests), while ``jobs`` workers stay saturated across point
  boundaries instead of draining at each one.
* **On-disk result cache.**  Each point is keyed by a stable scenario
  hash of its config, replication count and seed schedule; finished
  replication outputs are stored under ``cache_dir`` and re-runs of
  unchanged points skip simulation entirely.  Any parameter change hashes
  to a different key, so invalidation is automatic.

The engine is the one execution context of a run, and
:meth:`SweepExecutor.run` the one replication loop: the runners of
:mod:`repro.sim.runner` are one-point grids through it, and
:meth:`Experiment.run <repro.experiments.base.Experiment.run>` hands each
grid of an experiment to the engine it is given.  The CLI builds that
engine from ``--jobs``, ``--sweep``, ``--node-backend`` and
``--node-workers``; no module keeps a default of its own.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

import numpy as np

from repro.analysis.confidence import ConfidenceInterval, mean_confidence_interval
from repro.analysis.series import Series, SweepResult
from repro.cache.base import CacheStats
from repro.errors import ConfigurationError
from repro.prefetch.controller import ControllerStats
from repro.sim.config import NODE_BACKENDS, SimulationConfig
from repro.sim.faults import FaultTimelineRow
from repro.sim.kpis import QuantileSketch, RunKPIs
from repro.sim.metrics import ClientClassStats, SimulationMetrics
from repro.sim.mirror import MirrorConfig, run_mirror
from repro.sim.parallel import ReplicationExecutor, cap_node_workers, resolve_jobs
from repro.sim.simulation import ProxyShardStats, SimulationOutput, run_simulation

__all__ = [
    "ReplicatedResult",
    "SweepPoint",
    "SweepRunResult",
    "SweepExecutor",
    "scenario_hash",
]

#: Bump when the stored result layout (or anything the hash cannot see,
#: e.g. metric definitions) changes incompatibly.
#: v2: warmup gating moved from completion time to issue time (PR 3).
#: v3: SimulationOutput grew per-proxy shards; SimulationConfig grew a
#:     topology; demand fetches joined the unified fetch table (PR 4).
#: v4: TopologyConfig grew a CooperationConfig (covered by the hash via
#:     dataclass decomposition); SimulationMetrics grew remote-probe
#:     counters and SimulationOutput grew peer-link totals (PR 5).
#: v5: grid points could be filled from closed-form predictions instead
#:     of simulated (a mode since removed); the bump kept those sessions
#:     from reading, or being read as, older cache entries.
#: v6: client-class aggregation (PR 7): SimulationConfig grew
#:     ``client_backend`` (covered by the hash via dataclass
#:     decomposition) and SimulationOutput grew per-class stats rows;
#:     the since-removed prediction mode stored boosted replication
#:     counts under keys hashing that count, which older readers must
#:     not alias.
#: v7: scenario engine + phases + KPIs (PR 8): WorkloadSpec grew
#:     ``phases`` (covered via dataclass decomposition — a phased spec
#:     can never alias its stationary twin), SimulationOutput grew a
#:     ``kpis`` scorecard stored with cached results, and metric shards
#:     now carry quantile sketches older readers cannot interpret.
#: v8: parallel node backend (PR 9): SimulationConfig grew
#:     ``node_backend``/``node_workers``.  Unlike every earlier config
#:     field these are *execution* knobs — the backend is bit-identical
#:     by contract — so :func:`scenario_hash` normalises them away
#:     (serial and parallel runs of one scenario share a cache entry,
#:     and a warm cache serves both); the version bump only covers the
#:     dataclass gaining fields at all.
#: v9: fault injection (PR 10): SimulationConfig grew ``faults`` (a
#:     FaultSchedule of typed events — covered by the hash via dataclass
#:     decomposition, so a fault-injected scenario never aliases its
#:     fault-free twin), and cached SimulationOutput KPIs grew a
#:     ``fault_timeline`` older readers cannot interpret.
#: v10: virtual-time processor-sharing link: completion times move in
#:     their last digits (≤ 1e-13 relative, counts unchanged), so a v9
#:     entry is no longer what a fresh run reproduces bit for bit.
#: v11: one arrival law for clients and classes: at a phase boundary a
#:     multi-member class drops only the one gap that crosses it (it
#:     used to drop the rest of a pre-drawn 256-gap block), as a client
#:     does — so a phased multi-member run reproduces no v10 entry.
#: v12: the analytic mirror gates on issue time, as the full simulation
#:     does: a demand fetch issued before the warm-up boundary and
#:     completed after it is no longer measured, so mirror points
#:     reproduce no v11 entry (SimulationConfig outputs are unchanged).
CACHE_SCHEMA_VERSION = 12

#: Every class whose instances a cache entry pickles: a simulation's output
#: and everything in it, and a mirror's metrics.
RESULT_CLASSES = (
    SimulationOutput,
    SimulationMetrics,
    ProxyShardStats,
    ClientClassStats,
    CacheStats,
    ControllerStats,
    RunKPIs,
    QuantileSketch,
    FaultTimelineRow,
)


def _result_layout() -> str:
    """Digest of :data:`RESULT_CLASSES`' layouts, stored with each entry.

    A pickle names an object's class and restores its fields by name, so
    an entry written under another layout fails to load or loads stale
    objects; a different digest makes it a miss instead.  A layout is the
    qualified name, the dataclass fields, NamedTuple ``_fields`` and
    ``__slots__``.
    """
    layouts = [
        (
            f"{cls.__module__}.{cls.__qualname__}",
            [f.name for f in dataclasses.fields(cls)]
            if dataclasses.is_dataclass(cls)
            else None,
            getattr(cls, "_fields", None),
            cls.__dict__.get("__slots__"),
        )
        for cls in RESULT_CLASSES
    ]
    return hashlib.sha256(repr(layouts).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Replicated results
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReplicatedResult:
    """Aggregate of n independent replications of one configuration."""

    metric_names: tuple[str, ...]
    samples: dict[str, np.ndarray]

    def ci(self, name: str, level: float = 0.95) -> ConfidenceInterval:
        return mean_confidence_interval(self.samples[name], level=level)

    def mean(self, name: str) -> float:
        return float(np.mean(self.samples[name]))

    def __getitem__(self, name: str) -> np.ndarray:
        return self.samples[name]


_MIRROR_FIELDS = (
    "mean_access_time",
    "utilization",
    "retrieval_time_per_request",
    "mean_demand_retrieval_time",
)

_SIM_FIELDS = _MIRROR_FIELDS + ("prefetches_per_request",)


def _collect(metrics_list: Sequence[SimulationMetrics], fields: tuple[str, ...],
             extra: dict[str, list[float]] | None = None) -> ReplicatedResult:
    samples: dict[str, np.ndarray] = {}
    for f in fields:
        samples[f] = np.asarray([getattr(m, f) for m in metrics_list], dtype=float)
    samples["hit_ratio"] = np.asarray([m.hit_ratio for m in metrics_list], dtype=float)
    if extra:
        for k, v in extra.items():
            samples[k] = np.asarray(v, dtype=float)
    return ReplicatedResult(metric_names=tuple(samples), samples=samples)


def _replication_seeds(seed0: int, replications: int) -> list[int]:
    """The pinned seed schedule: replication i runs with ``seed0 + 1000·i``.

    Fixed *before* any work is dispatched so worker partitioning can never
    reshuffle which seed produced which sample.
    """
    return [seed0 + 1000 * i for i in range(replications)]


def _aggregate_simulation_outputs(
    outputs: Sequence[SimulationOutput],
) -> ReplicatedResult:
    def _mean_accuracy(output: SimulationOutput) -> float:
        values = [
            s.accuracy for s in output.controller_stats if not np.isnan(s.accuracy)
        ]
        return float(np.mean(values)) if values else float("nan")

    extra = {
        "prefetch_traffic_share": [o.prefetch_traffic_share for o in outputs],
        "prefetch_accuracy": [_mean_accuracy(o) for o in outputs],
        # cooperative caching (all zero when cooperation is off; the
        # probe yield is forced to 0.0 — not NaN — with no probes, so
        # replication arrays stay comparable elementwise)
        "remote_hit_rate": [o.metrics.remote_hit_rate for o in outputs],
        "remote_probe_hit_ratio": [
            o.metrics.remote_probe_hit_ratio if o.metrics.remote_probes else 0.0
            for o in outputs
        ],
        "peer_bytes": [o.peer_bytes for o in outputs],
        "peer_traffic_share": [o.peer_traffic_share for o in outputs],
    }
    return _collect([o.metrics for o in outputs], _SIM_FIELDS, extra)


# ----------------------------------------------------------------------
# Scenario hashing
# ----------------------------------------------------------------------
def _token(obj: Any) -> Any:
    """Canonical, order-stable token of a config value for hashing.

    Dataclasses decompose field by field, containers recurse, numpy
    scalars/arrays normalise to python numbers, and anything else falls
    back to the digest of its pickle (raising for unpicklable values so
    the caller can mark the point uncacheable rather than mis-key it).
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ("f", repr(obj))
    if isinstance(obj, (np.integer, np.floating)):
        return _token(obj.item())
    if isinstance(obj, np.ndarray):
        return ("ndarray", obj.shape, tuple(_token(v) for v in obj.ravel()))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return (
            type(obj).__name__,
            tuple(
                (f.name, _token(getattr(obj, f.name)))
                for f in dataclasses.fields(obj)
            ),
        )
    if isinstance(obj, Mapping):
        return ("map", tuple(sorted((repr(k), _token(v)) for k, v in obj.items())))
    if isinstance(obj, (list, tuple)):
        return ("seq", tuple(_token(v) for v in obj))
    if isinstance(obj, (set, frozenset)):
        return ("set", tuple(sorted(repr(_token(v)) for v in obj)))
    return ("pickle", hashlib.sha256(pickle.dumps(obj)).hexdigest())


def scenario_hash(
    config: MirrorConfig | SimulationConfig,
    *,
    replications: int,
    base_seed: int,
) -> str:
    """Stable identity of one sweep point's full scenario.

    Raises :class:`TypeError`/``pickle.PicklingError`` for configs carrying
    unhashable run-time objects — such points simply run uncached.

    Trace-driven configs are keyed by the trace file's *content digest*,
    not its path: a warm cache survives the trace moving (or being
    regenerated bit-identically in a temp dir) and is invalidated the
    moment the file's bytes change.
    """
    trace_path = getattr(config, "trace_path", None)
    if trace_path is not None:
        from repro.workload.replay import trace_digest

        config = replace(config, trace_path=f"sha256:{trace_digest(trace_path)}")
    if getattr(config, "node_backend", "serial") != "serial" or (
        getattr(config, "node_workers", None) is not None
    ):
        # Execution knobs, not scenario identity: the parallel node
        # backend is bit-identical to serial (pinned by tests), so both
        # must hash to the same cache key — a warm serial cache serves
        # parallel runs and vice versa.
        config = replace(config, node_backend="serial", node_workers=None)
    material = (
        "repro-sweep",
        CACHE_SCHEMA_VERSION,
        type(config).__name__,
        _token(config),
        int(replications),
        tuple(_replication_seeds(base_seed, replications)),
    )
    return hashlib.sha256(repr(material).encode("utf-8")).hexdigest()[:40]


# ----------------------------------------------------------------------
# Grid description
# ----------------------------------------------------------------------
@dataclass
class SweepPoint:
    """One operating point of a grid.

    Attributes
    ----------
    key:
        Unique label within the sweep (also the row/series handle).
    config:
        A :class:`MirrorConfig` or :class:`SimulationConfig`; the kind is
        dispatched per task, so one grid may mix both.
    replications:
        Independent replications, seeded ``seed0 + 1000·i``.
    base_seed:
        ``seed0``; ``None`` → the config's own seed.
    meta:
        Free-form annotations (e.g. the x-coordinate for
        :meth:`SweepRunResult.to_sweep`).
    """

    key: str
    config: MirrorConfig | SimulationConfig
    replications: int = 5
    base_seed: int | None = None
    meta: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.config, (MirrorConfig, SimulationConfig)):
            raise ConfigurationError(
                f"sweep point {self.key!r}: config must be MirrorConfig or "
                f"SimulationConfig, got {type(self.config).__name__}"
            )
        if self.replications < 1:
            raise ConfigurationError(
                f"sweep point {self.key!r}: replications must be >= 1"
            )


def _run_task(config: MirrorConfig | SimulationConfig):
    """Worker entry point — module-level so the pool can pickle it."""
    if isinstance(config, MirrorConfig):
        return run_mirror(config)
    return run_simulation(config)


def _aggregate(point: SweepPoint, runs: list) -> ReplicatedResult:
    if isinstance(point.config, MirrorConfig):
        return _collect(runs, _MIRROR_FIELDS)
    return _aggregate_simulation_outputs(runs)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class SweepRunResult:
    """Per-point aggregates plus raw replication outputs of one sweep."""

    points: tuple[SweepPoint, ...]
    results: dict[str, ReplicatedResult]
    #: per-point raw outputs (SimulationMetrics / SimulationOutput per
    #: replication, submission order) — what the result cache stores
    raw: dict[str, list]
    cache_hits: tuple[str, ...] = ()
    cache_misses: tuple[str, ...] = ()
    #: resolved ``scenario_hash`` per point key (None for unhashable
    #: configs) — the audit trail that lets a report name exactly which
    #: cache entries back its numbers
    scenario_hashes: dict[str, str | None] = field(default_factory=dict)

    def __getitem__(self, key: str) -> ReplicatedResult:
        return self.results[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def mean(self, key: str, metric: str) -> float:
        return self.results[key].mean(metric)

    def table(
        self, metrics: Sequence[str], *, keys: Sequence[str] | None = None
    ) -> tuple[list[str], list[list[object]]]:
        """``(headers, rows)`` of replication means, one row per point."""
        keys = list(keys) if keys is not None else [p.key for p in self.points]
        headers = ["point"] + list(metrics)
        rows = [[k] + [self.mean(k, m) for m in metrics] for k in keys]
        return headers, rows

    def to_sweep(
        self,
        metric: str,
        *,
        x: str = "x",
        by: str | None = None,
        title: str = "",
        x_label: str = "x",
        y_label: str | None = None,
        params: Mapping[str, object] | None = None,
    ) -> SweepResult:
        """Bundle point means into a :class:`SweepResult` figure panel.

        ``x`` (and optional series-grouping ``by``) name entries of each
        point's ``meta``; points sharing a ``by`` value form one series,
        ordered by their x-coordinate.
        """
        groups: dict[str, list[tuple[float, float]]] = {}
        for pt in self.points:
            if x not in pt.meta:
                raise ConfigurationError(
                    f"sweep point {pt.key!r} lacks meta[{x!r}] for to_sweep"
                )
            label = str(pt.meta[by]) if by is not None else metric
            groups.setdefault(label, []).append(
                (float(pt.meta[x]), self.mean(pt.key, metric))
            )
        series = []
        for label, pairs in groups.items():
            pairs.sort(key=lambda pair: pair[0])
            series.append(
                Series(
                    label,
                    np.asarray([p[0] for p in pairs]),
                    np.asarray([p[1] for p in pairs]),
                )
            )
        return SweepResult(
            title=title or f"{metric} over {x_label}",
            x_label=x_label,
            y_label=y_label or metric,
            series=tuple(series),
            params=dict(params or {}),
        )


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@dataclass
class _PointPlan:
    point: SweepPoint
    configs: list
    cache_key: str | None
    cached: list | None


class SweepExecutor:
    """Run a grid of operating points through one shared replication pool.

    The one execution context of a run: it holds everything that decides
    *how* a grid runs and nothing that decides its numbers.

    Parameters
    ----------
    jobs:
        Worker processes for the flattened task matrix (``None`` or 1 →
        serial, ``≤0`` → one per core; serial fallback and bit-identity
        semantics are inherited from
        :class:`~repro.sim.parallel.ReplicationExecutor`).
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
    node_backend, node_workers:
        The node backend of the simulation configs this engine runs.
        ``"parallel"`` moves a config that asks for ``"serial"`` onto the
        parallel node backend (one asking for ``"parallel"`` keeps it),
        and ``node_workers`` (at least 1) fills in a config's unset
        worker count.  Each
        parallel config's node workers are then capped at
        ``os.cpu_count() // jobs``, so node and replication workers
        together never oversubscribe the host; an explicit request the
        cap cuts warns once per point.  Results are identical either way.
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        cache_dir: str | os.PathLike | None = None,
        node_backend: str = "serial",
        node_workers: int | None = None,
    ) -> None:
        if node_backend not in NODE_BACKENDS:
            raise ConfigurationError(
                f"unknown node_backend {node_backend!r}; known: {NODE_BACKENDS}"
            )
        if node_workers is not None and int(node_workers) < 1:
            raise ConfigurationError(
                f"node_workers must be >= 1, got {node_workers!r}"
            )
        self.jobs = resolve_jobs(jobs)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.node_backend = node_backend
        self.node_workers = node_workers
        #: cumulative cache traffic across run() calls (CLI reporting)
        self.cache_hit_count = 0
        self.cache_miss_count = 0
        #: cumulative audit trail across run() calls: one
        #: ``(point key, scenario hash or None)`` entry per executed
        #: point, grid order — Experiment.run slices this to stamp each
        #: report with the hashes backing its numbers.
        self.hash_log: list[tuple[str, str | None]] = []

    # -- cache plumbing -------------------------------------------------
    def _cache_path(self, cache_key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / f"{cache_key}.pkl"

    def _cache_load(self, cache_key: str, replications: int) -> list | None:
        path = self._cache_path(cache_key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except Exception:
            return None  # absent, unreadable or corrupt -> plain miss
        if (
            not isinstance(payload, dict)
            or payload.get("version") != CACHE_SCHEMA_VERSION
            or payload.get("layout") != _result_layout()
        ):
            return None
        results = payload.get("results")
        if not isinstance(results, list) or len(results) != replications:
            return None
        return results

    def _cache_store(self, cache_key: str, point: SweepPoint, runs: list) -> None:
        assert self.cache_dir is not None
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            payload = {
                "version": CACHE_SCHEMA_VERSION,
                "layout": _result_layout(),
                "point_key": point.key,
                "results": runs,
            }
            tmp = self._cache_path(cache_key).with_suffix(
                f".tmp.{os.getpid()}"
            )
            with open(tmp, "wb") as fh:
                pickle.dump(payload, fh)
            os.replace(tmp, self._cache_path(cache_key))
        except Exception:
            # Caching is an optimisation; an unwritable/unpicklable result
            # must never fail the sweep itself.
            pass

    # -- execution ------------------------------------------------------
    def _execution_config(self, config):
        """``config`` as this engine dispatches it: on the engine's node
        backend, with node workers capped at its share of the cores."""
        if not isinstance(config, SimulationConfig) or "parallel" not in (
            config.node_backend,
            self.node_backend,
        ):
            return config
        requested = config.node_workers
        if requested is None:
            requested = self.node_workers
        return replace(
            config,
            node_backend="parallel",
            node_workers=cap_node_workers(requested, self.jobs),
        )

    def run(self, points: Sequence[SweepPoint]) -> SweepRunResult:
        """Execute (or fetch from cache) every point and aggregate.

        Uncached tasks across *all* points are dispatched as one flat list
        through a single pool map; results are reassembled in submission
        order, so aggregates are bit-identical to the per-point serial
        runners for the same seeds.
        """
        points = tuple(points)
        keys = [pt.key for pt in points]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"duplicate sweep point keys in {keys}")

        plans: list[_PointPlan] = []
        for pt in points:
            seed0 = int(pt.config.seed if pt.base_seed is None else pt.base_seed)
            # The point's scenario hash is resolved whether or not a
            # cache is attached: it is the report-facing audit identity
            # of the point (and doubles as the cache key when one is).
            try:
                cache_key = scenario_hash(
                    pt.config, replications=pt.replications, base_seed=seed0
                )
            except Exception:
                cache_key = None  # unhashable config: run uncached
            cached = None
            if self.cache_dir is not None and cache_key is not None:
                cached = self._cache_load(cache_key, pt.replications)
            configs = []
            if cached is None:
                config = self._execution_config(pt.config)
                configs = [
                    replace(config, seed=s)
                    for s in _replication_seeds(seed0, pt.replications)
                ]
            plans.append(_PointPlan(pt, configs, cache_key, cached))

        flat = [cfg for plan in plans for cfg in plan.configs]
        ran = ReplicationExecutor(self.jobs).map(_run_task, flat) if flat else []

        results: dict[str, ReplicatedResult] = {}
        raw: dict[str, list] = {}
        hits: list[str] = []
        misses: list[str] = []
        cursor = 0
        for plan in plans:
            key = plan.point.key
            if plan.cached is not None:
                runs = plan.cached
                hits.append(key)
            else:
                runs = ran[cursor:cursor + len(plan.configs)]
                cursor += len(plan.configs)
                misses.append(key)
                if plan.cache_key is not None and self.cache_dir is not None:
                    self._cache_store(plan.cache_key, plan.point, runs)
            results[key] = _aggregate(plan.point, runs)
            raw[key] = runs
        self.cache_hit_count += len(hits)
        self.cache_miss_count += len(misses)
        scenario_hashes = {plan.point.key: plan.cache_key for plan in plans}
        self.hash_log.extend(scenario_hashes.items())
        return SweepRunResult(
            points=points,
            results=results,
            raw=raw,
            cache_hits=tuple(hits),
            cache_misses=tuple(misses),
            scenario_hashes=scenario_hashes,
        )
