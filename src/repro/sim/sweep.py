"""Simulation sweep engine: one shared pool for a whole parameter grid.

Every figure/experiment in this reproduction walks a grid of operating
points (parameter variations × policies × seeds) and, before this module,
paid for each point separately: a fresh replication fan-out per point, and
the full simulation cost again on every re-run even when nothing about the
point had changed.  :class:`SweepExecutor` fixes both:

* **One pool for the whole grid.**  The full (point × replication) task
  matrix is flattened *after* every task's seed is pinned — replication
  ``i`` of a point runs with the same ``seed0 + 1000·i`` schedule the
  per-point runners use — and dispatched through a single
  :class:`~repro.sim.parallel.ReplicationExecutor` map.  Results come back
  in submission order, so every per-point aggregate is **bit-identical**
  to calling :func:`~repro.sim.runner.run_mirror_replications` /
  :func:`~repro.sim.runner.run_simulation_replications` point by point
  (pinned by tests), while ``jobs`` workers stay saturated across point
  boundaries instead of draining at each one.
* **On-disk result cache.**  Each point is keyed by a stable scenario
  hash of its config, replication count and seed schedule; finished
  replication outputs are stored under ``cache_dir`` and re-runs of
  unchanged points skip simulation entirely.  Any parameter change hashes
  to a different key, so invalidation is automatic.
* **Analytic grids ride along.**  :meth:`SweepExecutor.map_grid` runs a
  pure function over a parameter list through the same engine interface,
  so the closed-form experiments (figures 1–3, model-compare) share the
  uniform grid entry point (their rows are micro-cost, so they evaluate
  in-process — a pool would cost more than the work).
* **Analytic screening.**  ``run(points, screen=AnalyticScreen(...))``
  first evaluates *every* point through the millisecond-cost
  Che-approximation predictor (:mod:`repro.analysis.cachemodel`), then
  simulates only the interesting frontier — the best-k predicted points
  per series, the series endpoints, and a tolerance band around predicted
  series crossovers — and fills the rest of the grid with the analytic
  predictions.  Every point in the returned :class:`SweepRunResult`
  carries provenance (``simulated`` / ``cached`` / ``analytic``), and the
  simulated subset is **bit-identical** to the same points in an
  unscreened run (same per-point seed schedules, same cache keys).

Points whose base seed is left open are assigned one deterministically via
``numpy.random.SeedSequence`` spawning from the executor's ``seed``, so a
grid built without explicit seeds is still reproducible run to run.

The CLI exposes the engine session-wide: ``python -m repro all --sweep
[DIR] --jobs N`` routes every experiment's replicated runs through one
cached engine (see :func:`sweep_session` / :func:`current_engine`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.analysis.series import Series, SweepResult
from repro.errors import ConfigurationError
from repro.sim.config import SimulationConfig
from repro.sim.mirror import MirrorConfig, run_mirror
from repro.sim.parallel import ReplicationExecutor
from repro.sim.runner import (
    ReplicatedResult,
    _MIRROR_FIELDS,
    _aggregate_simulation_outputs,
    _collect,
    _replication_seeds,
)
from repro.sim.simulation import run_simulation

__all__ = [
    "AnalyticScreen",
    "SweepPoint",
    "SweepRunResult",
    "SweepExecutor",
    "current_engine",
    "sweep_session",
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
#: v5: analytic screening (PR 6): SweepRunResult grew provenance; the
#:     bump guarantees screened sessions can never read (or be read as)
#:     pre-screening cache entries, so analytic points never alias cached
#:     full runs.
#: v6: client-class aggregation (PR 7): SimulationConfig grew
#:     ``client_backend`` (covered by the hash via dataclass
#:     decomposition) and SimulationOutput grew per-class stats rows;
#:     rebudgeted screens store boosted replication counts under keys
#:     hashing that boosted count, which older readers must not alias.
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
CACHE_SCHEMA_VERSION = 11


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
        # parallel sessions and vice versa.
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
        Independent replications (seeded ``seed0 + 1000·i`` exactly like
        the per-point runners).
    base_seed:
        ``seed0``; ``None`` → the config's own seed (or, when the executor
        was built with ``seed=...``, a deterministic SeedSequence spawn).
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
# Analytic screening
# ----------------------------------------------------------------------
@dataclass
class AnalyticScreen:
    """Screening policy: which grid points earn a simulation.

    The screen predicts every point with the Che-approximation predictor
    (:class:`repro.analysis.cachemodel.AnalyticPredictor`, ~1 ms/point)
    and simulates only the *interesting frontier*:

    * the best ``keep`` points of each series by predicted ``metric``
      (``keep < 1`` → fraction of the series, ``keep ≥ 1`` → count);
    * each series' first and last point along the ``x`` axis (anchors, so
      interpolation against the analytic fill is always bracketed);
    * a relative ``band`` around each predicted series *crossover*
      (adjacent x's where the best-ranked series flips): every point
      within ``band`` of the best prediction in the two flanking grid
      columns simulates — exactly where the closed forms disagree least
      and ranking errors matter most.

    Points the predictor cannot model (trace-driven configs, unsupported
    types) are always simulated.  Series are formed by the ``by`` meta
    key (``None`` → one series); points are ordered by the ``x`` meta key
    (missing → grid order).

    Attributes
    ----------
    keep:
        Per-series simulation budget (fraction if < 1, else count).
    metric:
        Predicted metric to rank by (lower is better), default
        ``mean_access_time``.
    x, by:
        Meta keys giving each point's axis coordinate / series label
        (same conventions as :meth:`SweepRunResult.to_sweep`).
    band:
        Relative tolerance around the best prediction in crossover-flank
        columns; ``0`` narrows crossover handling to the two flanking
        best points only.
    predictor:
        The analytic model; swap for ``AnalyticPredictor("laoutaris")``
        etc.
    rebudget:
        Spend the DES time the analytic fills freed on *extra
        replications* of the simulated frontier points instead of just
        pocketing it: the replications freed by analytic fills are
        divided evenly across the simulated points (integer share each).
        Because the per-point seed schedule ``seed0 + 1000·i`` is
        prefix-stable, each boosted point's first ``replications``
        samples stay bit-identical to the unscreened run — rebudgeting
        only *appends* samples, tightening confidence intervals exactly
        where the grid is decided.  The total replication count never
        exceeds the unscreened grid's.
    rebudget_cap:
        Upper bound on the boost as a multiple of a point's own
        ``replications`` (default 4×), so a near-empty frontier cannot
        concentrate an absurd sample count on one point.
    """

    keep: float | int = 0.25
    metric: str = "mean_access_time"
    x: str = "x"
    by: str | None = None
    band: float = 0.05
    predictor: Any = None
    rebudget: bool = False
    rebudget_cap: int = 4

    def __post_init__(self) -> None:
        if isinstance(self.keep, bool) or (
            not isinstance(self.keep, (int, float)) or self.keep <= 0
        ):
            raise ConfigurationError(
                f"screen keep must be a positive fraction or count, "
                f"got {self.keep!r}"
            )
        if self.band < 0:
            raise ConfigurationError(f"screen band must be >= 0, got {self.band!r}")
        if not isinstance(self.rebudget_cap, int) or self.rebudget_cap < 1:
            raise ConfigurationError(
                f"screen rebudget_cap must be an int >= 1, "
                f"got {self.rebudget_cap!r}"
            )
        if self.predictor is None:
            from repro.analysis.cachemodel import AnalyticPredictor

            self.predictor = AnalyticPredictor()

    # -- evaluation -----------------------------------------------------
    def evaluate(self, points: Sequence[SweepPoint]) -> dict[str, Any]:
        """Predict every point; unsupported points map to ``None``."""
        from repro.analysis.cachemodel import PredictionUnsupported

        predictions: dict[str, Any] = {}
        for pt in points:
            try:
                predictions[pt.key] = self.predictor.predict(pt.config)
            except PredictionUnsupported:
                predictions[pt.key] = None
        return predictions

    def select(
        self, points: Sequence[SweepPoint], predictions: Mapping[str, Any]
    ) -> set[str]:
        """The keys that must simulate under this screen."""
        simulate: set[str] = set()

        def score(pt: SweepPoint) -> float:
            pred = predictions.get(pt.key)
            value = getattr(pred, self.metric, np.nan)
            # NaN/inf predictions (saturated/unstable points) rank as
            # most interesting: the model is confessing it cannot answer.
            return float(value) if np.isfinite(value) else -np.inf

        series: dict[str, list[SweepPoint]] = {}
        for index, pt in enumerate(points):
            if predictions.get(pt.key) is None:
                simulate.add(pt.key)  # no model -> must simulate
                continue
            if not np.isfinite(score(pt)):
                # A non-finite prediction (e.g. M/G/1-PS rho >= 1) cannot
                # fill a grid cell; the point always simulates.
                simulate.add(pt.key)
            label = str(pt.meta[self.by]) if self.by in pt.meta else ""
            series.setdefault(label, []).append(pt)
        for group in series.values():
            group.sort(key=lambda pt: float(pt.meta.get(self.x, 0.0)))
            count = (
                int(self.keep)
                if self.keep >= 1
                else max(1, round(self.keep * len(group)))
            )
            ranked = sorted(group, key=score)
            simulate.update(pt.key for pt in ranked[:count])
            simulate.add(group[0].key)   # axis anchors
            simulate.add(group[-1].key)
        # Crossover detection: the predicted winner at each grid column.
        by_x: dict[float, list[tuple[str, SweepPoint]]] = {}
        for label, group in series.items():
            for pt in group:
                by_x.setdefault(float(pt.meta.get(self.x, 0.0)), []).append(
                    (label, pt)
                )
        best_series: dict[float, str] = {
            x_value: min(entries, key=lambda e: score(e[1]))[0]
            for x_value, entries in by_x.items()
        }
        # A predicted crossover (the winning series flips between adjacent
        # x's) marks both flanking grid columns: simulate everything there
        # within the relative tolerance band of the best prediction.
        xs = sorted(best_series)
        for left, right in zip(xs, xs[1:]):
            if best_series[left] != best_series[right]:
                for x_value in (left, right):
                    entries = by_x[x_value]
                    best = min(score(pt) for _, pt in entries)
                    if not np.isfinite(best):
                        continue  # saturated column: already force-simulated
                    tol = abs(best) * self.band
                    simulate.update(
                        pt.key
                        for _, pt in entries
                        if score(pt) <= best + tol
                    )
        return simulate


def _analytic_result(prediction) -> ReplicatedResult:
    """Wrap an :class:`AnalyticPrediction` in the ReplicatedResult shape.

    Single-sample arrays keyed like the simulated metrics, so downstream
    ``mean``/``table``/``to_sweep`` work identically on analytic points
    (confidence intervals of a closed form are degenerate, as they should
    be).
    """
    samples = prediction.as_samples()
    return ReplicatedResult(metric_names=tuple(samples), samples=samples)


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
@dataclass
class SweepRunResult:
    """Per-point aggregates plus raw replication outputs of one sweep."""

    points: tuple[SweepPoint, ...]
    results: dict[str, ReplicatedResult]
    #: per-point raw outputs (SimulationMetrics / SimulationOutput per
    #: replication, submission order) — what the result cache stores;
    #: analytic points hold their single AnalyticPrediction instead
    raw: dict[str, list]
    cache_hits: tuple[str, ...] = ()
    cache_misses: tuple[str, ...] = ()
    wall_clock_seconds: float = 0.0
    #: how each point's numbers were obtained:
    #: ``simulated`` (fresh DES run), ``cached`` (on-disk result cache) or
    #: ``analytic`` (Che-approximation prediction under a screen)
    provenance: dict[str, str] = field(default_factory=dict)
    #: screen predictions by point key (every predictable point when a
    #: screen ran, empty otherwise) — keeps the model values inspectable
    #: even for points that went on to simulate
    predictions: dict[str, Any] = field(default_factory=dict)
    #: resolved ``scenario_hash`` per executed point key (None for
    #: unhashable configs and analytic fills) — the audit trail that lets
    #: a report name exactly which cache entries back its numbers
    scenario_hashes: dict[str, str | None] = field(default_factory=dict)

    def __getitem__(self, key: str) -> ReplicatedResult:
        return self.results[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self.results)

    def point(self, key: str) -> SweepPoint:
        for pt in self.points:
            if pt.key == key:
                return pt
        raise KeyError(key)

    def simulated_keys(self) -> tuple[str, ...]:
        """Points backed by a DES run (fresh or cached), grid order."""
        return tuple(
            pt.key
            for pt in self.points
            if self.provenance.get(pt.key, "simulated") != "analytic"
        )

    def analytic_keys(self) -> tuple[str, ...]:
        """Points filled from the analytic predictor, grid order."""
        return tuple(
            pt.key
            for pt in self.points
            if self.provenance.get(pt.key) == "analytic"
        )

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

    Parameters
    ----------
    jobs:
        Worker processes for the flattened task matrix (``None`` → the
        session default, i.e. the CLI's ``--jobs``; serial fallback and
        bit-identity semantics are inherited from
        :class:`~repro.sim.parallel.ReplicationExecutor`).
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
    seed:
        Root for deterministic SeedSequence spawning of per-point base
        seeds when a point specifies neither ``base_seed`` nor a config
        seed the caller wants to keep (points with ``base_seed=None`` use
        their config's seed unless ``spawn_seeds=True`` is requested in
        :meth:`run`).
    """

    def __init__(
        self,
        jobs: int | None = None,
        *,
        cache_dir: str | os.PathLike | None = None,
        seed: int = 0,
    ) -> None:
        self.jobs = jobs
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.seed = int(seed)
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
    def _base_seed(self, index: int, point: SweepPoint, spawn_seeds: bool) -> int:
        if point.base_seed is not None:
            return int(point.base_seed)
        if spawn_seeds:
            # Deterministic per-point spawn: same executor seed + same grid
            # position -> same seed schedule, independent across points.
            child = np.random.SeedSequence(self.seed).spawn(index + 1)[index]
            return int(child.generate_state(1, dtype=np.uint32)[0])
        return int(point.config.seed)

    def run(
        self,
        points: Sequence[SweepPoint],
        *,
        spawn_seeds: bool = False,
        screen: AnalyticScreen | None = None,
    ) -> SweepRunResult:
        """Execute (or fetch from cache) every point and aggregate.

        Uncached tasks across *all* points are dispatched as one flat list
        through a single pool map; results are reassembled in submission
        order, so aggregates are bit-identical to the per-point serial
        runners for the same seeds.

        With a ``screen``, the grid is first evaluated analytically and
        only the screen-selected frontier is simulated; the remaining
        points are filled from the predictions.  Selected points keep
        their *original grid index* for seed spawning and their usual
        cache keys, so their metrics are bit-identical to the same points
        in an unscreened run.  Analytic fills are never written to the
        result cache.  A screen with ``rebudget=True`` additionally
        re-spends the freed replications on the simulated frontier (see
        :class:`AnalyticScreen`); boosted points hash — and cache — under
        their boosted replication count.
        """
        started = time.perf_counter()
        points = tuple(points)
        keys = [pt.key for pt in points]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"duplicate sweep point keys in {keys}")

        predictions: dict[str, Any] = {}
        simulate_keys: set[str] = set(keys)
        if screen is not None:
            predictions = screen.evaluate(points)
            simulate_keys = screen.select(points, predictions)

        # Rebudgeting: replications freed by analytic fills are re-spent
        # as extra replications of the simulated frontier (even integer
        # share per point, capped per point).  The seed schedule is
        # prefix-stable, so a boosted point's first `replications` samples
        # are bit-identical to the unscreened run; total DES replications
        # never exceed the unscreened grid's.
        extra_each = 0
        if screen is not None and screen.rebudget and simulate_keys:
            freed = sum(
                pt.replications for pt in points if pt.key not in simulate_keys
            )
            extra_each = freed // len(simulate_keys)

        plans: list[_PointPlan] = []
        point_hashes: dict[str, str | None] = {}
        for index, pt in enumerate(points):
            if pt.key not in simulate_keys:
                continue  # analytic fill; index stays the grid position
            reps = pt.replications
            if extra_each:
                reps = min(
                    pt.replications * screen.rebudget_cap,
                    pt.replications + extra_each,
                )
            seed0 = self._base_seed(index, pt, spawn_seeds)
            configs = [
                replace(pt.config, seed=s)
                for s in _replication_seeds(seed0, reps)
            ]
            # The point's scenario hash is resolved whether or not a
            # cache is attached: it is the report-facing audit identity
            # of the point (and doubles as the cache key when one is).
            try:
                cache_key = scenario_hash(
                    pt.config, replications=reps, base_seed=seed0
                )
            except Exception:
                cache_key = None  # unhashable config: run uncached
            point_hashes[pt.key] = cache_key
            cached = None
            if self.cache_dir is not None and cache_key is not None:
                cached = self._cache_load(cache_key, reps)
            plans.append(_PointPlan(pt, configs, cache_key, cached))

        flat = [cfg for plan in plans if plan.cached is None for cfg in plan.configs]
        ran = ReplicationExecutor(self.jobs).map(_run_task, flat) if flat else []

        results: dict[str, ReplicatedResult] = {}
        raw: dict[str, list] = {}
        provenance: dict[str, str] = {}
        hits: list[str] = []
        misses: list[str] = []
        cursor = 0
        simulated: dict[str, tuple[ReplicatedResult, list]] = {}
        for plan in plans:
            if plan.cached is not None:
                runs = plan.cached
                hits.append(plan.point.key)
                provenance[plan.point.key] = "cached"
            else:
                runs = ran[cursor:cursor + len(plan.configs)]
                cursor += len(plan.configs)
                misses.append(plan.point.key)
                provenance[plan.point.key] = "simulated"
                if plan.cache_key is not None and self.cache_dir is not None:
                    self._cache_store(plan.cache_key, plan.point, runs)
            simulated[plan.point.key] = (_aggregate(plan.point, runs), runs)
        # Reassemble in original grid order, analytic fills interleaved.
        for pt in points:
            if pt.key in simulated:
                results[pt.key], raw[pt.key] = simulated[pt.key]
            else:
                prediction = predictions[pt.key]
                results[pt.key] = _analytic_result(prediction)
                raw[pt.key] = [prediction]
                provenance[pt.key] = "analytic"
        self.cache_hit_count += len(hits)
        self.cache_miss_count += len(misses)
        # Audit trail: every point of this run in grid order (analytic
        # fills log None — there is no simulated scenario behind them).
        scenario_hashes = {pt.key: point_hashes.get(pt.key) for pt in points}
        self.hash_log.extend(scenario_hashes.items())
        return SweepRunResult(
            points=points,
            results=results,
            raw=raw,
            cache_hits=tuple(hits),
            cache_misses=tuple(misses),
            wall_clock_seconds=time.perf_counter() - started,
            provenance=provenance,
            predictions=predictions,
            scenario_hashes=scenario_hashes,
        )

    def map_grid(self, fn: Callable, items: Sequence) -> list:
        """Evaluate a pure function over a grid, preserving order.

        The analytic experiments use this for their closed-form panels so
        every grid in the codebase — simulated or exact — funnels through
        one engine.  Closed-form rows cost microseconds, far below process
        pool start-up, so this always runs in-process (``jobs`` applies to
        the simulation matrix in :meth:`run`, where the work is heavy
        enough to amortise workers).
        """
        return [fn(item) for item in items]


# ----------------------------------------------------------------------
# Session engine (what the CLI configures and experiments pick up)
# ----------------------------------------------------------------------
_session_engine: SweepExecutor | None = None


def current_engine() -> SweepExecutor:
    """The session's sweep engine (CLI-configured) or a default one.

    The default engine has no result cache and inherits the session
    ``jobs`` value, so library behaviour without a session engine is
    unchanged serial execution.
    """
    if _session_engine is not None:
        return _session_engine
    return SweepExecutor()


@contextmanager
def sweep_session(engine: SweepExecutor | None) -> Iterator[None]:
    """Scoped session default for :func:`current_engine` (None → no-op)."""
    global _session_engine
    if engine is None:
        yield
        return
    previous = _session_engine
    _session_engine = engine
    try:
        yield
    finally:
        _session_engine = previous
