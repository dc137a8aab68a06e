"""Multi-user workload composition.

The paper's model is explicitly multi-user: "multiple users accessing the
network through a common proxy" at aggregate rate λ.  A
:class:`WorkloadSpec` describes the population (how many clients, their
per-client rate, reference locality, item sizes); :func:`generate_trace`
realises it as a merged, time-ordered trace for trace-driven runs, and the
live simulation consumes the same spec directly.

Populations need not be homogeneous: ``client_overrides`` maps a client id
to per-client parameter overrides (``request_rate`` — that client's *own*
rate instead of the λ/N share — ``catalog_size``, ``zipf_exponent``,
``follow_probability``), so one run can mix hot and cold clients, or
predictable and noisy ones.  All derived objects (arrival processes,
reference sources) are built through the per-client accessors, which fall
back to the homogeneous parameters when no override exists — a spec
without overrides behaves bit-identically to one predating the feature.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from repro.des.rng import RandomStreams
from repro.errors import ConfigurationError
from repro.workload.arrivals import ArrivalProcess, PoissonArrivals
from repro.workload.markov_source import MarkovChainSource
from repro.workload.phases import STATIONARY, PhaseSchedule, PhaseSpec, arrival_times
from repro.workload.sizes import FixedSize, SizeDistribution
from repro.workload.trace import TraceRecord
from repro.workload.zipf import ZipfCatalog, shared_catalog

__all__ = [
    "WorkloadSpec",
    "generate_trace",
    "entity_stream_names",
    "CLIENT_OVERRIDE_FIELDS",
]

#: WorkloadSpec fields that may be overridden per client.
CLIENT_OVERRIDE_FIELDS = (
    "request_rate",
    "catalog_size",
    "zipf_exponent",
    "follow_probability",
)


@dataclass
class WorkloadSpec:
    """Parameters of a multi-client reference stream.

    Attributes
    ----------
    num_clients:
        Number of users behind the proxy.
    request_rate:
        *Aggregate* rate λ across all clients (each client gets λ/N).
    catalog_size, zipf_exponent:
        The shared item catalogue.
    follow_probability:
        Markov predictability q of each client's stream (0 = i.i.d. Zipf).
    mean_item_size:
        s̄ for the size distribution.
    size_distribution:
        Optional override; default :class:`FixedSize` (s̄ exactly).
    client_overrides:
        ``client id -> {field: value}`` heterogeneous per-client overrides;
        allowed fields are :data:`CLIENT_OVERRIDE_FIELDS`.  An overridden
        ``request_rate`` is that client's *own* rate (the others keep their
        λ/N share), so the aggregate becomes the sum of effective rates.
    phases:
        Optional piecewise-stationary time structure: a sequence of
        :class:`~repro.workload.phases.PhaseSpec` (or plain mappings with
        its fields) repeated cyclically for the whole run.  Each phase
        scales every client's arrival rate by its ``rate_multiplier`` and
        may reshape the reference stream (``zipf_exponent`` override,
        ``popularity_shift`` rotation).  ``None`` (the default) is a
        stationary spec, run as one neutral phase
        (:data:`~repro.workload.phases.STATIONARY`): its draws are those
        of a spec predating the feature.
    """

    num_clients: int = 4
    request_rate: float = 30.0
    catalog_size: int = 500
    zipf_exponent: float = 1.0
    follow_probability: float = 0.0
    mean_item_size: float = 1.0
    size_distribution: SizeDistribution | None = field(default=None, repr=False)
    client_overrides: Mapping[int, Mapping[str, Any]] = field(default_factory=dict)
    phases: tuple[PhaseSpec, ...] | None = None

    def __post_init__(self) -> None:
        if self.num_clients < 1:
            raise ConfigurationError(f"num_clients must be >= 1, got {self.num_clients}")
        if self.request_rate <= 0:
            raise ConfigurationError(f"request_rate must be > 0, got {self.request_rate}")
        if self.catalog_size < 2:
            raise ConfigurationError(f"catalog_size must be >= 2, got {self.catalog_size}")
        if not 0.0 <= self.follow_probability <= 1.0:
            raise ConfigurationError("follow_probability must be in [0, 1]")
        if self.mean_item_size <= 0:
            raise ConfigurationError("mean_item_size must be > 0")
        # Canonical int-keyed copy (JSON round trips stringify keys); the
        # lookups in client_param expect ints.
        self.client_overrides = {
            int(client): dict(overrides)
            for client, overrides in dict(self.client_overrides).items()
        }
        for client, overrides in self.client_overrides.items():
            if not 0 <= int(client) < self.num_clients:
                raise ConfigurationError(
                    f"client_overrides for unknown client {client!r} "
                    f"(num_clients={self.num_clients})"
                )
            unknown = set(overrides) - set(CLIENT_OVERRIDE_FIELDS)
            if unknown:
                raise ConfigurationError(
                    f"client {client}: unknown override field(s) {sorted(unknown)}; "
                    f"allowed: {CLIENT_OVERRIDE_FIELDS}"
                )
            # Value validation, mirroring the top-level checks: a bad
            # override would otherwise surface only deep inside the run
            # (or not at all — e.g. a degenerate catalogue), far from the
            # spec that caused it.
            if "request_rate" in overrides and overrides["request_rate"] <= 0:
                raise ConfigurationError(
                    f"client {client}: request_rate override must be > 0, "
                    f"got {overrides['request_rate']!r}"
                )
            if "catalog_size" in overrides and int(overrides["catalog_size"]) < 2:
                raise ConfigurationError(
                    f"client {client}: catalog_size override must be >= 2, "
                    f"got {overrides['catalog_size']!r}"
                )
            if "follow_probability" in overrides and not (
                0.0 <= overrides["follow_probability"] <= 1.0
            ):
                raise ConfigurationError(
                    f"client {client}: follow_probability override must be "
                    f"in [0, 1], got {overrides['follow_probability']!r}"
                )
            if "zipf_exponent" in overrides and overrides["zipf_exponent"] < 0:
                raise ConfigurationError(
                    f"client {client}: zipf_exponent override must be >= 0, "
                    f"got {overrides['zipf_exponent']!r}"
                )
        if self.phases is not None:
            entries = tuple(
                p if isinstance(p, PhaseSpec) else PhaseSpec(**dict(p))
                for p in self.phases
            )
            if not entries:
                raise ConfigurationError(
                    "phases must be None or a non-empty sequence of PhaseSpec"
                )
            self.phases = entries

    def make_schedule(self) -> PhaseSchedule:
        """Resolved :class:`~repro.workload.phases.PhaseSchedule`
        (:data:`~repro.workload.phases.STATIONARY` for a stationary spec)."""
        if self.phases is None:
            return STATIONARY
        return PhaseSchedule(self.phases)

    @property
    def per_client_rate(self) -> float:
        return self.request_rate / self.num_clients

    def client_param(self, client: int | None, name: str):
        """Effective value of ``name`` for ``client`` (override-aware)."""
        if client is not None:
            overrides = self.client_overrides.get(client)
            if overrides and name in overrides:
                return overrides[name]
        if name == "request_rate":
            return self.per_client_rate
        return getattr(self, name)

    def rate_of(self, client: int | None = None) -> float:
        """That client's effective request rate (λ/N unless overridden)."""
        return float(self.client_param(client, "request_rate"))

    def make_catalog(self, client: int | None = None) -> ZipfCatalog:
        # Shared (memoised) instance: the catalogue is immutable, and at
        # large populations per-client copies dominate build memory.
        return shared_catalog(
            int(self.client_param(client, "catalog_size")),
            float(self.client_param(client, "zipf_exponent")),
        )

    def make_sizes(self) -> SizeDistribution:
        return self.size_distribution or FixedSize(self.mean_item_size)

    def make_arrivals(self, client: int | None = None) -> ArrivalProcess:
        return PoissonArrivals(self.rate_of(client))

    def make_source(
        self, client: int, streams: RandomStreams, memos: dict | None = None
    ) -> MarkovChainSource:
        """Per-client reference source (independent RNG stream; ``memos``
        as in :class:`~repro.workload.markov_source.MarkovChainSource`)."""
        return MarkovChainSource(
            self.make_catalog(client),
            follow_probability=float(
                self.client_param(client, "follow_probability")
            ),
            rng=streams.get(f"client{client}/items"),
            memos=memos,
        )

    # ------------------------------------------------------------------
    # Per-phase builders
    # ------------------------------------------------------------------
    def make_phase_arrivals(
        self, schedule: PhaseSchedule, client: int | None = None
    ) -> tuple[PoissonArrivals, ...]:
        """One arrival process per phase at that phase's effective rate."""
        base = self.rate_of(client)
        return tuple(PoissonArrivals(base * m) for m in schedule.multipliers)

    def make_phase_sources(
        self,
        client: int,
        streams: RandomStreams,
        schedule: PhaseSchedule,
        memos: dict | None = None,
    ) -> tuple[MarkovChainSource, ...]:
        """One reference source per item variant (dedicated RNG streams).

        The base variant keeps the unphased stream name
        (``client<c>/items``) and the workload's own catalogue, so a
        schedule that never reshapes items draws exactly what a
        stationary spec draws — its one source is :meth:`make_source`'s,
        built at that method's cost.
        """
        if schedule.variant_keys == STATIONARY.variant_keys:
            return (self.make_source(client, streams, memos),)
        catalogs = schedule.variant_catalogs(
            catalog_size=int(self.client_param(client, "catalog_size")),
            zipf_exponent=float(self.client_param(client, "zipf_exponent")),
        )
        names = schedule.stream_names(f"client{client}/items")
        q = float(self.client_param(client, "follow_probability"))
        return tuple(
            MarkovChainSource(
                catalog, follow_probability=q, rng=streams.get(name), memos=memos
            )
            for catalog, name in zip(catalogs, names)
        )


def entity_stream_names(
    labels: Sequence[str],
    schedule: PhaseSchedule,
    *,
    items: bool = True,
    arrivals: bool = True,
    evictions: bool = False,
) -> list[str]:
    """Every per-entity RNG stream name a build reads for ``labels``.

    An entity is a client (``client<c>``) or a client class (its
    ``stream_label``).  Each reads one item stream per item variant of
    ``schedule`` and, unless a trace drives it, its arrival stream; the
    ``random`` cache policy adds an eviction stream.  Builds pass this
    list to :meth:`RandomStreams.derive`: a simulation first derives the
    arrival streams (``items=False``) of the entities it screens for a
    first arrival, then every stream of the entities it builds.  A new
    per-entity stream must be listed here as well: one that is not still
    gets the right state from ``RandomStreams.get``, one derivation at a
    time.
    """
    suffixes = list(schedule.stream_names("/items")) if items else []
    if arrivals:
        suffixes.append("/arrivals")
    if evictions:
        suffixes.append("/evictions")
    return [label + suffix for label in labels for suffix in suffixes]


def generate_trace(
    spec: WorkloadSpec,
    *,
    duration: float,
    seed: int = 0,
) -> list[TraceRecord]:
    """Realise the spec as one merged, time-ordered trace.

    Clients are simulated independently and their request streams merged by
    timestamp (a k-way heap merge, so memory stays linear in the output).
    Arrivals follow :func:`~repro.workload.phases.arrival_times`, as in the
    live simulation; each item comes from the arrival phase's item variant,
    pre-generated in blocks from a dedicated per-client stream.  Like a
    simulation build, only a client with an arrival in the horizon builds
    its item sources: streams are keyed by name, so the others' would go
    unread.
    """
    if duration <= 0:
        raise ConfigurationError(f"duration must be > 0, got {duration!r}")
    schedule = spec.make_schedule()
    n = spec.num_clients
    labels = [f"client{c}" for c in range(n)]
    streams = RandomStreams(seed)
    streams.derive(entity_stream_names(labels, schedule, items=False))
    sizes = spec.make_sizes()
    size_rng = streams.get("sizes")
    variant_of_phase = schedule.variant_of_phase
    arrivals = [
        arrival_times(
            schedule,
            spec.rate_of(c),
            streams.get(f"{label}/arrivals"),
            horizon=duration,
        )
        for c, label in enumerate(labels)
    ]
    # Heap entries carry the arrival's phase, so the item comes from the
    # variant active when the request fires.
    heap: list[tuple[float, int, int]] = []

    def push_next(c: int) -> None:
        arrival = next(arrivals[c], None)
        if arrival is not None:
            heapq.heappush(heap, (arrival[0], c, arrival[1]))

    for c in range(n):
        push_next(c)
    arriving = sorted(c for _t, c, _phase in heap)
    streams.derive(
        entity_stream_names([labels[c] for c in arriving], schedule, arrivals=False)
    )
    item_streams: list = [None] * n
    for c in arriving:
        item_streams[c] = tuple(
            s.stream() for s in spec.make_phase_sources(c, streams, schedule)
        )
    records: list[TraceRecord] = []
    while heap:
        t, c, idx = heapq.heappop(heap)
        records.append(
            TraceRecord(
                time=t,
                client=c,
                item=next(item_streams[c][variant_of_phase[idx]]),
                size=float(sizes.sample(size_rng)),
            )
        )
        push_next(c)
    return records
