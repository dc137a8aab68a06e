"""Traced rounds: per-layer time split measured from outside the program.

The simulator has no tracing of its own, so a traced round wraps the
public entry points of each layer at class level *before* the simulation
is built (bound methods captured at build time then already point at the
wrappers).  A wrapper records one span per call: its name, start, end and
the span that was open when it started.  Hot spans are folded on the spot
into per-(name, parent) aggregates of count, total and self time; a few
coarse spans (build, run, event loop, dispatch, fault events) are also
kept individually and written out at the end of the run.

A span's self time is its duration minus the time of the spans nested in
it.  Wrapping costs time both inside a span (between the two clock reads)
and in its caller; :func:`calibrate` measures both parts on an empty
function, and :func:`layer_metrics` subtracts them per call, so the
corrected self times of all layers add up to roughly the untraced wall
time.  The round's remaining overhead shows as ``trace.overhead_s``.

Layer names are the ``repro`` package names.  Spans started inside the
worker processes of the parallel node backend stay in those processes;
from the parent the whole fan-out is one ``parallel`` span.
"""

from __future__ import annotations

import importlib
import pickle
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = [
    "Tracer",
    "calibrate",
    "instrument",
    "layer_metrics",
    "LAYERS",
]

ROOT = "round"

#: Layers in report order.  Every span name is ``<layer>:<entry point>``.
LAYERS = (
    "des",
    "network",
    "workload",
    "predictors",
    "prefetch",
    "estimation",
    "cache",
    "node",
    "metrics",
    "simulation",
    "faults",
    "parallel",
    "scenario",
)

#: (layer, module, attribute path, kept individually) for every wrapped
#: entry point.  Attribute paths with a dot patch a class attribute;
#: plain names patch a module attribute (a function another module
#: imported by name, patched where it is looked up).
ENTRY_POINTS = (
    ("des", "repro.des.environment", "Environment.run", True),
    ("node", "repro.des.events", "Process._resume", False),
    ("node", "repro.sim.node", "ProxyNode.drain", True),
    ("network", "repro.des.processor_sharing", "ProcessorSharingServer.submit", False),
    ("network", "repro.des.processor_sharing", "ProcessorSharingServer._on_timer", False),
    ("network", "repro.network.link", "SharedLink.fetch", False),
    ("network", "repro.network.server", "OriginServer.fetch", False),
    ("network", "repro.network.topology", "HashRing.node_of", False),
    ("workload", "repro.workload.markov_source", "MarkovChainSource.generate", False),
    ("workload", "repro.workload.aggregate", "AggregateClassSource.generate", False),
    ("workload", "repro.workload.arrivals", "PoissonArrivals.gaps", False),
    ("workload", "repro.workload.arrivals", "PoissonArrivals.next_gap", False),
    ("workload", "repro.workload.phases", "PhaseSchedule.locate", False),
    ("workload", "repro.workload.sessions", "WorkloadSpec.make_source", False),
    ("workload", "repro.workload.sessions", "WorkloadSpec.make_arrivals", False),
    ("workload", "repro.workload.sessions", "WorkloadSpec.make_phase_sources", False),
    ("workload", "repro.workload.sessions", "WorkloadSpec.make_phase_arrivals", False),
    ("workload", "repro.sim.simulation", "partition_client_classes", False),
    ("prefetch", "repro.prefetch.controller", "PrefetchController._on_user_access", False),
    ("prefetch", "repro.prefetch.controller", "PrefetchController._plan", False),
    ("prefetch", "repro.prefetch.controller", "PrefetchController.on_fetch_complete", False),
    ("estimation", "repro.estimation.utilization", "ThresholdEstimator.observe_request", False),
    ("estimation", "repro.estimation.utilization", "ThresholdEstimator.observe_item_size", False),
    ("estimation", "repro.estimation.utilization", "ThresholdEstimator.threshold", False),
    ("cache", "repro.cache.base", "Cache.lookup", False),
    ("cache", "repro.cache.base", "Cache.insert", False),
    ("cache", "repro.sim.simulation", "make_cache", False),
    ("metrics", "repro.sim.metrics", "MetricsCollector.record_request", False),
    ("metrics", "repro.sim.metrics", "MetricsCollector.record_prefetch_issued", False),
    ("metrics", "repro.sim.metrics", "MetricsCollector.record_retrieval", False),
    ("metrics", "repro.sim.metrics", "MetricsCollector.record_remote_probe", False),
    ("metrics", "repro.sim.metrics", "MetricsCollector.finalize", True),
    ("metrics", "repro.sim.metrics", "MetricsCollector.snapshot", True),
    ("metrics", "repro.sim.metrics", "MetricsCollector.kpi_shard", True),
    ("metrics", "repro.sim.metrics", "MetricsSnapshot.finalize", True),
    ("metrics", "repro.sim.simulation", "finalize_aggregate", True),
    ("metrics", "repro.sim.simulation", "aggregate_snapshots", True),
    ("metrics", "repro.sim.kpis", "RunKPIs.from_shards", True),
    ("simulation", "repro.sim.simulation", "Simulation.__init__", True),
    ("simulation", "repro.sim.simulation", "Simulation.run", True),
    ("faults", "repro.sim.faults", "FaultRuntime.install", True),
    ("faults", "repro.sim.faults", "FaultRuntime.apply", True),
    ("parallel", "repro.sim.simulation", "Simulation._run_parallel", True),
    ("parallel", "repro.sim.simulation", "run_node_shards", True),
    ("parallel", "repro.sim.parallel", "effective_node_workers", True),
)

#: Classes whose subclasses' own ``methods`` are wrapped too (each
#: predictor and policy implements them itself).
SUBCLASS_ENTRY_POINTS = (
    ("predictors", "repro.predictors", "Predictor", ("record", "predict")),
    ("prefetch", "repro.prefetch", "PrefetchPolicy", ("select",)),
)

ASSEMBLY = frozenset(
    f"metrics:{path}"
    for layer, _module, path, _keep in ENTRY_POINTS
    if layer == "metrics" and not path.startswith("MetricsCollector.record_")
)
PS_SPANS = frozenset(
    "network:ProcessorSharingServer." + m for m in ("submit", "_on_timer")
)
RING_SPAN = "network:HashRing.node_of"
BUILD_SPAN = "simulation:Simulation.__init__"
COMPILE_SPAN = "scenario:compile"

#: cap on individually kept spans per round (the rest are aggregated only)
MAX_KEPT_SPANS = 10_000


class Tracer:
    """Span recorder for one traced round.

    ``clock`` is the time source in seconds; the harness test passes a
    deterministic one.  ``delays`` maps a layer to extra seconds added to
    each of its calls (the harness test's injected slowdown).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        *,
        delays: dict[str, float] | None = None,
    ) -> None:
        self.clock = clock
        self.delays = dict(delays or {})
        #: open spans, innermost last, and the time their children took
        self._names: list[str] = [ROOT]
        self._child_s: list[float] = [0.0]
        #: span name -> parent name -> [count, total seconds, self seconds]
        self._tables: dict[str, dict[str, list]] = {}
        #: individually kept spans: (name, start, end, parent name)
        self.spans: list[tuple[str, float, float, str]] = []
        #: values read off return values by :data:`HOOKS`
        self.counters: dict[str, int] = {"failovers": 0, "workers": 0}
        self.payloads: list = []
        self.origin = clock()

    @property
    def aggregates(self) -> dict[tuple[str, str], list]:
        """(name, parent name) -> [count, total seconds, self seconds]."""
        return {
            (name, parent): entry
            for name, by_parent in self._tables.items()
            for parent, entry in by_parent.items()
        }

    def wrap(self, fn: Callable, name: str, *, keep: bool = False) -> Callable:
        """Return ``fn`` wrapped so each call records a ``name`` span."""
        # The wrapper allocates no container per call (the open-span stack
        # holds strings and floats): extra garbage-collector passes over
        # the simulation's heap would be wrapper cost the calibration on
        # an empty heap cannot see.
        clock = self.clock
        names = self._names
        child_s = self._child_s
        by_parent = self._tables.setdefault(name, {})
        spans = self.spans
        hook = HOOKS.get(name)
        delay = self.delays.get(name.split(":")[0], 0.0)

        def traced(*args, **kwargs):
            names.append(name)
            child_s.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if delay:
                    _spin(clock, delay)
            finally:
                end = clock()
                names.pop()
                duration = end - start
                own = duration - child_s.pop()
                child_s[-1] += duration
                parent = names[-1]
                entry = by_parent.get(parent)
                if entry is None:
                    by_parent[parent] = [1, duration, own]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += own
                if keep and len(spans) < MAX_KEPT_SPANS:
                    spans.append((name, start, end, parent))
            if hook is not None:
                hook(self, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        traced.__wrapped__ = fn
        return traced

    def dump(self, calibration: dict) -> dict:
        """JSON-safe record of everything this tracer saw."""
        return {
            "calibration": calibration,
            "aggregates": [
                {
                    "name": name,
                    "parent": parent,
                    "count": count,
                    "total_s": total,
                    "self_s": self_s,
                }
                for (name, parent), (count, total, self_s) in sorted(
                    self.aggregates.items()
                )
            ],
            "spans": [
                {
                    "name": name,
                    "start_s": start - self.origin,
                    "end_s": end - self.origin,
                    "parent": parent,
                }
                for name, start, end, parent in self.spans
            ],
        }


def calibrate(
    clock: Callable[[], float] = time.perf_counter,
    *,
    calls: int = 20_000,
    repeats: int = 5,
) -> dict:
    """Per-call cost of an empty wrapper, split by where it is charged.

    ``inside_s`` is charged to the wrapped span itself (the clock reads'
    latency around the call), ``outside_s`` to the caller (entering the
    wrapper, bookkeeping after the span closes).  Both are medians over
    ``repeats`` loops of ``calls`` method calls taking one positional and
    one keyword argument, like most wrapped entry points.
    """

    class Empty:
        def method(self, arg, *, key=None):
            return None

    tracer = Tracer(clock)
    plain = Empty()
    Wrapped = type("Wrapped", (), {"method": tracer.wrap(Empty.method, "calibration:empty")})
    wrapped = Wrapped()
    loop = range(calls)
    inside, outside = [], []
    for _ in range(repeats):
        t0 = clock()
        for _ in loop:
            pass
        t1 = clock()
        for _ in loop:
            plain.method(1, key=2)
        t2 = clock()
        tracer._tables["calibration:empty"].clear()
        for _ in loop:
            wrapped.method(1, key=2)
        t3 = clock()
        plain_call = (t2 - t1 - (t1 - t0)) / calls
        overhead = (t3 - t2 - (t2 - t1)) / calls
        recorded = tracer.aggregates[("calibration:empty", ROOT)][1] / calls
        span_cost = max(0.0, recorded - plain_call)
        inside.append(span_cost)
        outside.append(max(0.0, overhead - span_cost))
    return {
        "inside_s": statistics.median(inside),
        "outside_s": statistics.median(outside),
    }


def _spin(clock: Callable[[], float], seconds: float) -> None:
    """Busy-wait ``seconds`` on ``clock`` (an injected slowdown)."""
    end = clock() + seconds
    while clock() < end:
        pass


def _count_failovers(tracer: Tracer, aborted: int) -> None:
    tracer.counters["failovers"] += aborted


def _keep_payloads(tracer: Tracer, payloads: list) -> None:
    tracer.payloads.extend(payloads)


def _count_workers(tracer: Tracer, workers: int) -> None:
    tracer.counters["workers"] = max(tracer.counters["workers"], workers)


#: span name -> callable(tracer, return value), run after the span closes
HOOKS = {
    "node:ProxyNode.drain": _count_failovers,
    "parallel:run_node_shards": _keep_payloads,
    "parallel:effective_node_workers": _count_workers,
}


def _targets() -> Iterator[tuple[str, object, str, bool]]:
    """Every (span name, owner, attribute, keep) to patch."""
    for layer, module_name, path, keep in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        attr = path
        if "." in path:
            class_name, attr = path.split(".")
            owner = getattr(owner, class_name)
        yield f"{layer}:{path}", owner, attr, keep
    for layer, package, base_name, methods in SUBCLASS_ENTRY_POINTS:
        base = getattr(importlib.import_module(package), base_name)
        for cls in _subclasses(base):
            # Only the package's own classes: the simulation's built-in
            # true-distribution adapter is not predictor-layer code.
            if not cls.__module__.startswith(package + "."):
                continue
            for method in methods:
                if method in cls.__dict__:
                    yield f"{layer}:{cls.__name__}.{method}", cls, method, False


def _subclasses(base: type) -> list[type]:
    found, todo = [], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap every entry point for the duration of the block."""
    restore = []
    try:
        for name, owner, attr, keep in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(tracer.wrap(raw.__func__, name, keep=keep))
            else:
                patched = tracer.wrap(raw, name, keep=keep)
            setattr(owner, attr, patched)
            restore.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)


def layer_metrics(
    tracer: Tracer,
    calibration: dict,
    wall_s: float,
    runs: list,
    *,
    build_rss_kb: float,
) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    ``runs`` holds the round's ``(Simulation, SimulationOutput)`` pairs;
    counts the program keeps itself are read from them, times come from
    the tracer with the calibrated wrapper cost taken out.  Time outside
    every span (the round's own loop) counts as ``simulation`` time.
    """
    inside = calibration["inside_s"]
    outside = calibration["outside_s"]
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    child_calls: dict[str, int] = {}
    top_level = 0.0
    for (name, parent), (count, total, own) in tracer.aggregates.items():
        calls[name] = calls.get(name, 0) + count
        self_s[name] = self_s.get(name, 0.0) + own
        child_calls[parent] = child_calls.get(parent, 0) + count
        if parent == ROOT:
            top_level += total
    corrected = {
        name: own - calls[name] * inside - child_calls.get(name, 0) * outside
        for name, own in self_s.items()
    }
    corrected[ROOT] = wall_s - top_level - child_calls.get(ROOT, 0) * outside

    def self_of(names) -> float:
        return max(0.0, sum(corrected.get(n, 0.0) for n in names))

    def layer(prefix: str) -> list[str]:
        return [n for n in calls if n.startswith(prefix + ":")]

    def outermost(names) -> float:
        """Inclusive time of ``names``, not counting one nested in another."""
        return sum(
            total
            for (name, parent), (_count, total, _own) in tracer.aggregates.items()
            if name in names and parent not in names
        )

    layer_self = {name: self_of(layer(name)) for name in LAYERS}
    layer_self["simulation"] += max(0.0, corrected[ROOT])
    sims = [sim for sim, _ in runs]
    outputs = [out for _, out in runs]
    tables = [
        table.stats
        for sim in sims
        for node in sim.nodes
        for table in node.fetch_tables.values()
    ]
    controllers = [c for out in outputs for c in out.controller_stats]
    caches = [c for out in outputs for c in out.cache_stats]
    # Uplinks of the simulations that ran their own event loop (a
    # parallel dispatcher's nodes are idle skeletons).
    uplinks = [node.link for sim in sims if sim.env._eid for node in sim.nodes]
    attributed = sum(layer_self.values())
    events = sum(sim.env._eid for sim in sims)
    lookups = sum(c.hits + c.misses for c in caches)
    probes = sum(out.metrics.remote_probes for out in outputs)
    completed = sum(c.prefetches_completed for c in controllers)
    clients = sum(sim.num_clients for sim in sims)
    dispatch = outermost({"parallel:run_node_shards"})
    policies = [n for n in layer("prefetch") if n.endswith(".select")]
    return {
        "des.events": events,
        "des.events_per_s": events / attributed if attributed > 0 else 0.0,
        "des.self_s": layer_self["des"],
        "network.self_s": layer_self["network"],
        "network.ps_self_s": self_of(PS_SPANS),
        "network.ps_mean_jobs": (
            statistics.fmean(link.server.mean_jobs_in_system() for link in uplinks)
            if uplinks
            else 0.0
        ),
        "network.link_fetches": sum(
            o.link_demand_fetches + o.link_prefetch_fetches for o in outputs
        ),
        "network.link_bytes": sum(
            o.link_demand_bytes + o.link_prefetch_bytes for o in outputs
        ),
        "network.peer_fetches": sum(o.peer_fetches for o in outputs),
        "network.utilization": statistics.fmean(o.metrics.utilization for o in outputs),
        "network.ring_lookups": calls.get(RING_SPAN, 0),
        "network.ring_s": self_of([RING_SPAN]),
        "workload.self_s": layer_self["workload"],
        "workload.calls": sum(calls[n] for n in layer("workload")),
        "predictors.self_s": layer_self["predictors"],
        "predictors.calls": sum(calls[n] for n in layer("predictors")),
        "prefetch.self_s": layer_self["prefetch"],
        "prefetch.policy_s": self_of(policies),
        "estimation.self_s": layer_self["estimation"],
        "prefetch.issued": sum(c.prefetches_issued for c in controllers),
        "prefetch.wasted_evictions": sum(c.prefetch_evictions for c in caches),
        "prefetch.useful_ratio": (
            sum(c.prefetch_hits for c in controllers) / completed if completed else 0.0
        ),
        "cache.self_s": layer_self["cache"],
        "cache.lookups": lookups,
        "cache.hit_ratio": sum(c.hits for c in caches) / lookups if lookups else 0.0,
        "cache.evictions": sum(c.evictions for c in caches),
        "node.self_s": layer_self["node"],
        "node.joins": sum(t.joins for t in tables),
        "node.remote_probes": probes,
        "node.remote_hit_ratio": (
            sum(o.metrics.remote_hits for o in outputs) / probes if probes else 0.0
        ),
        "node.failovers": tracer.counters["failovers"],
        "metrics.self_s": layer_self["metrics"],
        "metrics.assemble_s": outermost(ASSEMBLY),
        "simulation.self_s": layer_self["simulation"],
        "simulation.build_s": outermost({BUILD_SPAN}),
        "simulation.bytes_per_client": (
            build_rss_kb * 1024.0 / clients if clients else 0.0
        ),
        "faults.self_s": layer_self["faults"],
        "faults.apply_s": outermost({"faults:FaultRuntime.apply"}),
        "faults.events": calls.get("faults:FaultRuntime.apply", 0),
        "faults.migrated_items": sum(
            sim.fault_runtime.migrated_items for sim in sims if sim.fault_runtime
        ),
        "parallel.self_s": layer_self["parallel"],
        "parallel.dispatch_s": dispatch,
        "parallel.assemble_s": max(
            0.0, outermost({"parallel:Simulation._run_parallel"}) - dispatch
        ),
        "parallel.payload_bytes": (
            len(pickle.dumps(tracer.payloads)) if tracer.payloads else 0
        ),
        "parallel.workers": tracer.counters["workers"],
        "parallel.child_rss_mb": (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
            if tracer.payloads
            else 0.0
        ),
        "scenario.compile_s": layer_self["scenario"],
        "trace.wall_s": wall_s,
        "trace.attributed_s": attributed,
    }
