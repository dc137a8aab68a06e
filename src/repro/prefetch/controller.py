"""Prefetch controller: wires predictor + policy + cache + estimators.

One controller serves one client cache.  It owns the *logic* of the
prefetch pipeline but none of the *mechanics* of fetching — the simulation
(or a real client) asks :meth:`plan` what to fetch and reports outcomes
back through :meth:`on_user_access` / :meth:`on_fetch_complete`.  This
separation keeps the controller synchronously testable and reusable for
offline trace analysis.

Responsibilities:

* classify each user access per the §4 algorithm (tagged hit / untagged
  hit / miss) and feed the estimator,
* keep the predictor's model updated with the access stream,
* deduplicate against cache contents and in-flight fetches — including
  *demand* fetches when a :class:`~repro.sim.node.FetchTable` is attached
  (planning an item already being demand-fetched would duplicate the
  pending transfer; the unified table makes that class of bug impossible),
* account per-request prefetch counts (n̄(F)) and hit provenance
  (how many hits only happened because of prefetching).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, NamedTuple, Optional

from repro.cache.base import Cache
from repro.errors import SimulationError
from repro.estimation.utilization import ThresholdEstimator
from repro.predictors.base import Predictor
from repro.prefetch.policy import (
    Candidate,
    PolicyContext,
    PrefetchPolicy,
    unknown_load,
)

__all__ = ["PrefetchController", "AccessOutcome"]


class _PendingUnion:
    """Zero-copy membership union of the controller's own prefetch marks
    and the node's fetch table (both referents are live views)."""

    __slots__ = ("marks", "table")

    def __init__(self, marks, table) -> None:
        self.marks = marks
        self.table = table

    def __contains__(self, item: Hashable) -> bool:
        return item in self.marks or item in self.table


class AccessOutcome(NamedTuple):
    """What happened to one user request at the cache (immutable; built
    once per request, so a named tuple rather than a frozen dataclass)."""

    item: Hashable
    hit: bool
    #: §4 classification: "tagged_hit" | "untagged_hit" | "miss"
    kind: str
    #: True when the hit was only possible because of a prefetch
    #: (i.e. the entry was untagged = never demand-used before).
    prefetch_saved: bool


@dataclass(slots=True)
class ControllerStats:
    requests: int = 0
    prefetches_issued: int = 0
    prefetches_completed: int = 0
    prefetch_hits: int = 0  # user accesses served by a prefetched, unused entry

    @property
    def mean_prefetch_count(self) -> float:
        """Observed n̄(F) — prefetches issued per user request."""
        return self.prefetches_issued / self.requests if self.requests else 0.0

    @property
    def accuracy(self) -> float:
        """Fraction of completed prefetches that served a later request."""
        if self.prefetches_completed == 0:
            return float("nan")
        return self.prefetch_hits / self.prefetches_completed


class PrefetchController:
    """Per-client prefetch decision engine.

    Parameters
    ----------
    predictor:
        Access model producing next-request candidates.
    policy:
        Selection strategy (threshold rule, heuristic, ...).
    cache:
        The client cache (must be the same object the client uses for
        lookups, since tag state lives in its entries).
    estimator:
        Optional live threshold estimator; fed automatically.
    bandwidth:
        Link capacity, passed through to the policy context.
    fetch_table:
        Optional unified pending-fetch table (any ``in``-supporting view of
        the items currently being fetched, typically a
        :class:`~repro.sim.node.FetchTable`).  When attached, the planner's
        in-flight view is the union of the controller's own prefetch marks
        and the table — so items being *demand*-fetched are never selected.

    Notes
    -----
    The class is ``__slots__``-ed: at 100k+ controllers (one per client,
    or per client class) the per-instance ``__dict__`` would dominate
    bookkeeping memory.  The simulator's request path calls
    :meth:`on_user_access` and :meth:`plan` under their other names,
    ``_on_user_access`` and ``_plan``: perfbench's trace wraps those
    names to time the prefetch layer, and a test that scripts the
    controller's decisions patches them on the class.
    """

    __slots__ = (
        "predictor",
        "policy",
        "cache",
        "bandwidth",
        "estimator",
        "stats",
        "_in_flight",
        "fetch_table",
        "_pending_view",
    )

    def __init__(
        self,
        *,
        predictor: Predictor,
        policy: PrefetchPolicy,
        cache: Cache,
        bandwidth: float,
        estimator: Optional[ThresholdEstimator] = None,
        fetch_table=None,
    ) -> None:
        self.predictor = predictor
        self.policy = policy
        self.cache = cache
        self.bandwidth = float(bandwidth)
        self.estimator = estimator
        self.stats = ControllerStats()
        self._in_flight: set[Hashable] = set()
        self.fetch_table = None
        self._pending_view = self._in_flight
        if fetch_table is not None:
            self.attach_fetch_table(fetch_table)

    def attach_fetch_table(self, fetch_table) -> None:
        """Wire the node's unified pending-fetch table into planning."""
        self.fetch_table = fetch_table
        self._pending_view = _PendingUnion(self._in_flight, fetch_table)

    # ------------------------------------------------------------------
    # Access path
    # ------------------------------------------------------------------
    def on_user_access(self, item: Hashable, *, now: float, size: float) -> AccessOutcome:
        """Process one user request against the cache (no fetching here).

        Returns the outcome; on a miss the caller fetches the item and then
        calls :meth:`on_fetch_complete` with ``demand=True``.
        """
        self.stats.requests += 1
        entry = self.cache.entry(item)
        was_untagged = entry is not None and not entry.tagged
        hit_entry = self.cache.lookup(item, now=now)
        hit = hit_entry is not None
        if hit:
            kind = "untagged_hit" if was_untagged else "tagged_hit"
        else:
            kind = "miss"
        if was_untagged and hit:
            self.stats.prefetch_hits += 1
        if self.estimator is not None:
            self.estimator.observe_request(now, kind)
            if hit:
                self.estimator.observe_item_size(size)
        self.predictor.record(item)
        return AccessOutcome(item, hit, kind, was_untagged and hit)

    def on_fetch_complete(
        self,
        item: Hashable,
        *,
        now: float,
        size: float,
        prefetched: bool,
    ) -> None:
        """A fetch finished; admit the item with the right tag status (§4)."""
        self._in_flight.discard(item)
        self.cache.insert(item, now=now, size=size, prefetched=prefetched)
        if prefetched:
            self.stats.prefetches_completed += 1
        if self.estimator is not None and not prefetched:
            self.estimator.observe_item_size(size)

    def on_fetch_failed(self, item: Hashable) -> None:
        """A fetch was cancelled/aborted; release the in-flight slot."""
        self._in_flight.discard(item)

    def on_plan_superseded(self, item: Hashable) -> None:
        """A planned item turned out to already have a fetch pending, so
        the caller spawned nothing: undo the issue count.  The in-flight
        mark stays — the existing fetch's completion clears it, and it
        keeps the item out of further plans meanwhile."""
        self.stats.prefetches_issued -= 1

    # ------------------------------------------------------------------
    # Prefetch planning
    # ------------------------------------------------------------------
    def plan(
        self,
        *,
        now: float,
        load: Callable[[], float] = unknown_load,
    ) -> list[Candidate]:
        """Decide what to prefetch after the current request.

        ``load`` returns the live utilisation estimate; only a policy that
        reads it calls it.  Marks returned items in-flight — the caller
        *must* eventually call :meth:`on_fetch_complete` or
        :meth:`on_fetch_failed` for each.
        """
        context = PolicyContext(
            now=now,
            bandwidth=self.bandwidth,
            load=load,
            in_cache=self.cache,
            in_flight=self._pending_view,
        )
        chosen = self.policy.plan(self.predictor, context)
        for item, _p in chosen:
            if item in self._in_flight:
                raise SimulationError(
                    f"policy selected already-in-flight item {item!r}"
                )
            self._in_flight.add(item)
        self.stats.prefetches_issued += len(chosen)
        return chosen

    # The request path's names for the two methods (see the class notes).
    _on_user_access = on_user_access
    _plan = plan

    @property
    def in_flight(self) -> frozenset:
        return frozenset(self._in_flight)
