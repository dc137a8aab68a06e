"""Metrics collection for simulation runs.

Collects exactly the quantities the paper's symbols name, with warmup
exclusion:

* ``t̄`` — mean access time over *all* user requests (hits count 0),
* ``h`` — hit ratio,
* ``r̄`` — mean retrieval time per *fetched* item,
* ``ρ`` — server busy fraction,
* ``R`` — total retrieval time per user request (eq. 25's measured analogue),
* ``n̄(F)`` — prefetches issued per request.

Warmup handling: the collector ignores everything before ``warmup_time``;
interval statistics (busy time) are measured from a snapshot taken at the
warmup boundary.  Observations that *straddle* the boundary are gated on
their **issue** time, not their completion time: a request issued during
warmup but completing after it belongs to the excluded transient (its
access time is measured from a pre-warmup ``t0``, which would otherwise
leak inflated values into the steady-state mean), so callers pass
``issued_at`` and the collector drops anything issued before
``warmup_time``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.des.environment import Environment
from repro.des.monitors import Tally
from repro.network.link import SharedLink
from repro.sim.kpis import KPIShard, QuantileSketch

__all__ = [
    "MetricsCollector",
    "MetricsSnapshot",
    "SimulationMetrics",
    "ClientClassStats",
    "aggregate_snapshots",
    "finalize_aggregate",
]


@dataclass(frozen=True)
class ClientClassStats:
    """Per-class accounting of an aggregated-backend run.

    One row per :class:`~repro.workload.aggregate.ClientClass`: how many
    clients the class stands for, its aggregate request rate, and its
    request/cache/prefetch counters (lifted from the class's controller
    and cache, which exist once per class).  The rows partition the run's
    totals *exactly* — ``sum(requests)`` equals the tier-wide controller
    request count, hits+misses per class equal that class's cache
    accesses — so aggregating over classes reproduces the whole-run
    numbers with no double counting (pinned by tests).  Note the counters
    are lifetime (un-warmup-gated), matching ``cache_stats`` /
    ``controller_stats``; the warmup-gated figures live in ``metrics``.
    """

    class_id: int
    node_id: int
    num_members: int
    representative: int
    request_rate: float
    requests: int
    cache_hits: int
    cache_misses: int
    prefetches_issued: int
    prefetches_completed: int

    @property
    def hit_ratio(self) -> float:
        accesses = self.cache_hits + self.cache_misses
        return self.cache_hits / accesses if accesses else 0.0


@dataclass(frozen=True)
class SimulationMetrics:
    """Steady-state (post-warmup) measurements of one run."""

    duration: float
    requests: int
    hits: int
    mean_access_time: float
    mean_demand_retrieval_time: float
    mean_prefetch_retrieval_time: float
    utilization: float
    retrieval_time_per_request: float
    prefetches_issued: int
    prefetches_per_request: float
    tagged_hits: int = 0
    #: cooperative caching (PR 5): probes this shard's clients sent on
    #: local misses, and how many were answered from a peer's cache.
    #: Plain counts (zero without cooperation) so shards aggregate exactly.
    remote_probes: int = 0
    remote_hits: int = 0
    #: mean sojourn time of peer-link transfers (the remote analogue of
    #: ``mean_demand_retrieval_time``); 0.0 — not NaN — when there were
    #: none, so metric comparisons stay exact in cooperation-free runs.
    mean_remote_retrieval_time: float = 0.0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.requests if self.requests else float("nan")

    @property
    def remote_hit_rate(self) -> float:
        """Fraction of all requests served from a *peer* proxy's cache."""
        return self.remote_hits / self.requests if self.requests else float("nan")

    @property
    def remote_probe_hit_ratio(self) -> float:
        """Fraction of probes that found the item at a peer (probe yield)."""
        if not self.remote_probes:
            return float("nan")
        return self.remote_hits / self.remote_probes

    @property
    def fault_ratio(self) -> float:
        return 1.0 - self.hit_ratio

    @property
    def h_prime_estimate(self) -> float:
        """§4 estimate from tagged hits (model A form)."""
        return self.tagged_hits / self.requests if self.requests else float("nan")


@dataclass(frozen=True)
class MetricsSnapshot:
    """Picklable freeze of one collector's accumulated state at run end.

    The cross-process half of exact metric aggregation: a live
    :class:`MetricsCollector` holds environment/link references and cannot
    leave its worker process, but everything :func:`finalize_aggregate`
    reads — counters, accumulators, the four :class:`~repro.des.monitors.
    Tally` objects, the KPI sketch feed, and the already-computed
    busy/elapsed intervals — is plain data.  :meth:`MetricsCollector.
    snapshot` freezes exactly those values, and :meth:`finalize` /
    :func:`aggregate_snapshots` reproduce the in-process arithmetic
    bit-for-bit, so a parallel node backend merging worker snapshots gets
    the identical floats a serial run computes from live collectors
    (pinned by tests).
    """

    requests: int
    hits: int
    tagged_hits: int
    prefetches: int
    remote_probes: int
    remote_hits: int
    retrieval_accum: float
    busy: float
    elapsed: float
    access: Tally
    demand: Tally
    prefetch: Tally
    remote: Tally

    def finalize(self) -> SimulationMetrics:
        """This shard's own metrics — same arithmetic as the live path."""
        return MetricsCollector._build(
            requests=self.requests,
            hits=self.hits,
            tagged_hits=self.tagged_hits,
            prefetches=self.prefetches,
            access_mean=self.access.mean,
            demand_mean=self.demand.mean,
            prefetch_mean=self.prefetch.mean,
            retrieval_accum=self.retrieval_accum,
            busy=self.busy,
            elapsed=self.elapsed,
            links=1,
            remote_probes=self.remote_probes,
            remote_hits=self.remote_hits,
            remote_mean=self.remote.mean if self.remote.count else 0.0,
        )


class MetricsCollector:
    """Streaming collector bound to one environment and link.

    Usage: create, call :meth:`start_measuring` at the warmup boundary
    (:meth:`arm_warmup` schedules it), feed per-request observations, then
    :meth:`finalize`.
    """

    def __init__(self, env: Environment, link: SharedLink, *, warmup_time: float = 0.0) -> None:
        self.env = env
        self.link = link
        self.warmup_time = float(warmup_time)
        self.access_time = Tally("access-time")
        self.demand_retrieval = Tally("demand-retrieval")
        self.prefetch_retrieval = Tally("prefetch-retrieval")
        self.remote_retrieval = Tally("remote-retrieval")
        self._requests = 0
        self._hits = 0
        self._tagged_hits = 0
        self._prefetches = 0
        self._remote_probes = 0
        self._remote_hits = 0
        self._measuring = self.warmup_time <= 0.0
        self._t_start: Optional[float] = 0.0 if self._measuring else None
        self._busy_start = 0.0
        self._retrieval_time_accum = 0.0
        # KPI feed (PR 8): access-time tail sketch + byte accounting.
        # Pure accumulation — no RNG draws, no event scheduling — so
        # enabling it cannot perturb a run's bit-exact behaviour.
        self.access_sketch = QuantileSketch()
        self._request_bytes = 0.0
        self._hit_bytes = 0.0

    # ------------------------------------------------------------------
    def start_measuring(self) -> None:
        """Mark the warmup boundary (call at ``env.now == warmup_time``)."""
        self._measuring = True
        self._t_start = self.env.now
        # Snapshot the server's cumulative busy time for interval stats.
        self.link.server._advance()
        self._busy_start = self.link.server._busy_time

    def arm_warmup(self) -> None:
        """Schedule :meth:`start_measuring` for ``warmup_time``."""
        self.env.call_at(self.warmup_time, lambda event: self.start_measuring())

    # ------------------------------------------------------------------
    # Observations (called by client processes).  Each counts iff it was
    # *issued* in the measurement window: ``issued_at >= warmup_time``.
    # ------------------------------------------------------------------
    def record_request(
        self,
        *,
        hit: bool,
        access_time: float,
        issued_at: float,
        tagged_hit: bool = False,
        size: float = 0.0,
    ) -> None:
        if issued_at < self.warmup_time:
            return
        self._requests += 1
        if hit:
            self._hits += 1
            self._hit_bytes += size
        if tagged_hit:
            self._tagged_hits += 1
        self._request_bytes += size
        self.access_time.record(access_time)
        self.access_sketch.record(access_time)

    def record_prefetch_issued(self, count: int = 1) -> None:
        if not self._measuring:
            return
        self._prefetches += count

    def record_retrieval(
        self,
        retrieval_time: float,
        *,
        issued_at: float,
        prefetch: bool = False,
        remote: bool = False,
    ) -> None:
        """A completed fetch's sojourn time (demand, prefetch or peer).

        ``remote=True`` marks a cooperative peer transfer: it still counts
        toward the per-request retrieval accumulator (it is retrieval work
        a user waited on) but is tallied separately so the demand/prefetch
        means keep their origin-uplink meaning.
        """
        if issued_at < self.warmup_time:
            return
        self._retrieval_time_accum += retrieval_time
        if remote:
            self.remote_retrieval.record(retrieval_time)
        elif prefetch:
            self.prefetch_retrieval.record(retrieval_time)
        else:
            self.demand_retrieval.record(retrieval_time)

    def record_remote_probe(self, *, hit: bool, issued_at: float) -> None:
        """A cooperative peer probe resolved (found the item or not)."""
        if issued_at < self.warmup_time:
            return
        self._remote_probes += 1
        if hit:
            self._remote_hits += 1

    def timeline_counters(self) -> tuple[int, int, float]:
        """Cheap cumulative ``(requests, hits, access-time sum)`` snapshot.

        Read by the fault runtime at each fault instant to build the KPI
        timeline; pure reads of already-maintained counters, so sampling
        them mid-run can never perturb the simulation.
        """
        return self._requests, self._hits, self.access_time.total

    # ------------------------------------------------------------------
    def kpi_shard(self, node_id: int = 0) -> KPIShard:
        """This shard's raw KPI feed (sketch + counts + busy interval).

        Safe to call alongside :meth:`finalize` — both only *read*
        accumulated state (the server's busy-time advance is idempotent
        at a fixed ``env.now``).
        """
        if self._t_start is None:
            raise RuntimeError("kpi_shard() before measurement started")
        self.link.server._advance()
        return KPIShard(
            node_id=node_id,
            sketch=self.access_sketch,
            requests=self._requests,
            hits=self._hits,
            request_bytes=self._request_bytes,
            hit_bytes=self._hit_bytes,
            busy=self.link.server._busy_time - self._busy_start,
            elapsed=self.env.now - self._t_start,
        )

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the accumulated state for aggregation.

        Every metric of a collector goes through a snapshot (the server
        busy-time advance is idempotent at a fixed ``env.now``), so
        :func:`aggregate_snapshots` over worker snapshots is bit-identical
        to :func:`finalize_aggregate` over the live collectors.
        """
        if self._t_start is None:
            raise RuntimeError("snapshot() before measurement started")
        self.link.server._advance()
        return MetricsSnapshot(
            requests=self._requests,
            hits=self._hits,
            tagged_hits=self._tagged_hits,
            prefetches=self._prefetches,
            remote_probes=self._remote_probes,
            remote_hits=self._remote_hits,
            retrieval_accum=self._retrieval_time_accum,
            busy=self.link.server._busy_time - self._busy_start,
            elapsed=self.env.now - self._t_start,
            access=self.access_time,
            demand=self.demand_retrieval,
            prefetch=self.prefetch_retrieval,
            remote=self.remote_retrieval,
        )

    def finalize(self) -> SimulationMetrics:
        """This shard's metrics: ``snapshot().finalize()``."""
        return self.snapshot().finalize()

    @staticmethod
    def _build(
        *,
        requests: int,
        hits: int,
        tagged_hits: int,
        prefetches: int,
        access_mean: float,
        demand_mean: float,
        prefetch_mean: float,
        retrieval_accum: float,
        busy: float,
        elapsed: float,
        links: int,
        remote_probes: int = 0,
        remote_hits: int = 0,
        remote_mean: float = 0.0,
    ) -> SimulationMetrics:
        return SimulationMetrics(
            duration=elapsed,
            requests=requests,
            hits=hits,
            mean_access_time=access_mean if requests else float("nan"),
            mean_demand_retrieval_time=demand_mean,
            mean_prefetch_retrieval_time=prefetch_mean,
            utilization=busy / (links * elapsed) if elapsed > 0 else float("nan"),
            retrieval_time_per_request=(
                retrieval_accum / requests if requests else float("nan")
            ),
            prefetches_issued=prefetches,
            prefetches_per_request=(
                prefetches / requests if requests else float("nan")
            ),
            tagged_hits=tagged_hits,
            remote_probes=remote_probes,
            remote_hits=remote_hits,
            mean_remote_retrieval_time=remote_mean,
        )


def finalize_aggregate(collectors: Sequence[MetricsCollector]) -> SimulationMetrics:
    """Exact global metrics over per-proxy collector shards.

    One collector degenerates to its own :meth:`MetricsCollector.finalize`
    (bit-identical to the pre-topology single-proxy path).  For several,
    counts and time accumulators sum exactly (in node order), per-event
    means merge through :meth:`Tally.merge` (Chan et al.), and utilisation
    becomes the *mean link busy fraction* — total busy time over
    ``num_links × elapsed`` — which reduces to the single-link busy
    fraction for one proxy.

    Every collector must share the environment and warmup boundary (the
    simulation builds them that way), so ``elapsed`` is common.
    """
    if not collectors:
        raise ValueError("finalize_aggregate() needs at least one collector")
    return aggregate_snapshots([c.snapshot() for c in collectors])


def aggregate_snapshots(snapshots: Sequence[MetricsSnapshot]) -> SimulationMetrics:
    """Exact global metrics over per-proxy *snapshots*, in node order.

    The snapshot-based twin of :func:`finalize_aggregate` — and since the
    refactor, its implementation: live collectors are frozen first, then
    merged here.  Because a snapshot carries precomputed per-shard busy/
    elapsed intervals and the Tally objects themselves, the arithmetic
    (and therefore every output bit) is independent of whether the
    snapshots were taken in this process or shipped back from the
    parallel node backend's workers.
    """
    if not snapshots:
        raise ValueError("aggregate_snapshots() needs at least one snapshot")
    if len(snapshots) == 1:
        return snapshots[0].finalize()
    elapsed = snapshots[0].elapsed
    busy = 0.0
    access = Tally("access-time")
    demand = Tally("demand-retrieval")
    prefetch = Tally("prefetch-retrieval")
    remote = Tally("remote-retrieval")
    requests = hits = tagged = prefetches = 0
    remote_probes = remote_hits = 0
    retrieval_accum = 0.0
    for s in snapshots:
        busy += s.busy
        access = access.merge(s.access)
        demand = demand.merge(s.demand)
        prefetch = prefetch.merge(s.prefetch)
        remote = remote.merge(s.remote)
        requests += s.requests
        hits += s.hits
        tagged += s.tagged_hits
        prefetches += s.prefetches
        remote_probes += s.remote_probes
        remote_hits += s.remote_hits
        retrieval_accum += s.retrieval_accum
    return MetricsCollector._build(
        requests=requests,
        hits=hits,
        tagged_hits=tagged,
        prefetches=prefetches,
        access_mean=access.mean,
        demand_mean=demand.mean,
        prefetch_mean=prefetch.mean,
        retrieval_accum=retrieval_accum,
        busy=busy,
        elapsed=elapsed,
        links=len(snapshots),
        remote_probes=remote_probes,
        remote_hits=remote_hits,
        remote_mean=remote.mean if remote.count else 0.0,
    )
