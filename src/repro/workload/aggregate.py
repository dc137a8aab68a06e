"""Client-class aggregation: homogeneous clients collapsed into one flow.

A per-client simulation pays one controller, one cache and one RNG stream
pair per client, which caps ``num_clients`` in the low thousands.
But the paper's population is *statistically homogeneous*: every client
behind a proxy draws from the same catalogue at the same rate.  The merged
request stream of ``k`` such clients has a closed form — the superposition
of ``k`` independent Poisson(λ) processes is Poisson(kλ), with each arrival
belonging to a uniformly-random member — so the whole class can be driven
by **one** arrival process without changing the law of the stream.

:func:`partition_client_classes` groups a :class:`~repro.workload.sessions.
WorkloadSpec`'s population into maximal homogeneous classes (same home
node, same effective per-client parameters — ``client_overrides`` split
classes off exactly where they make clients heterogeneous), and
:class:`AggregateClassSource` generates the merged reference stream of one
multi-member class in vectorized NumPy blocks.

Exactness
---------
* **Arrivals** are exact: Poisson superposition.  A class draws them
  from :func:`~repro.workload.phases.arrival_times` at its aggregate
  rate — the law, and the boundary rule, every client follows.
* **Items** are exact *in distribution* for any follow probability ``q``:
  each arrival picks a uniform member, then advances that member's own
  Markov chain — the same joint law as ``k`` independent per-client chains
  interleaved by their arrival times.  At ``q = 0`` the stream degenerates
  to i.i.d. Zipf and the per-member state vanishes entirely (the fully
  vectorized fast path).
* **Caching** is where aggregation approximates: the class shares one
  cache of per-client capacity instead of ``k`` private ones.  Under IRM
  (``q = 0``) the LRU/FIFO hit-ratio law depends only on the popularity
  distribution, not the request rate, so the shared cache is statistically
  indistinguishable from the private ones; for ``q > 0`` the shared chain
  state couples members through the cache and the equivalence is
  approximate (the equivalence pins therefore use ``q = 0`` for
  multi-member classes).
* **Singleton classes** are built exactly like clients (same RNG stream
  names, sources and draw order), so they are *bit-identical* to the
  per-client backend, stationary or phased — this is what lets
  heterogeneous populations (every client overridden) run under the
  aggregated backend with zero behavioural drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.workload.sessions import WorkloadSpec
from repro.workload.zipf import ZipfCatalog

__all__ = ["ClientClass", "partition_client_classes", "AggregateClassSource"]


@dataclass(frozen=True, eq=False)
class ClientClass:
    """One maximal homogeneous group of clients (same node, same params).

    ``request_rate`` is the *class aggregate* (per-member rate × size);
    the remaining parameters are the shared effective per-member values.
    ``members`` is the sorted array of client ids — its first entry is the
    :attr:`representative`, which names the class's RNG streams and its
    slot in the node's client/fetch-table maps.
    """

    class_id: int
    node_id: int
    members: np.ndarray
    request_rate: float
    catalog_size: int
    zipf_exponent: float
    follow_probability: float

    @property
    def size(self) -> int:
        return int(self.members.size)

    @property
    def representative(self) -> int:
        return int(self.members[0])

    @property
    def singleton(self) -> bool:
        return self.members.size == 1

    @property
    def stream_label(self) -> str:
        """RNG stream namespace of this class.

        Singletons keep the per-client name (``client<id>``) so their
        draws are bit-identical to the per-client backend; multi-member
        classes get their own namespace (``class<lowest member>``), which
        can never collide with a per-client name.
        """
        rep = self.representative
        return f"client{rep}" if self.singleton else f"class{rep}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ClientClass {self.class_id} node={self.node_id} "
            f"size={self.size} rep={self.representative} "
            f"rate={self.request_rate:g} q={self.follow_probability:g}>"
        )


def partition_client_classes(spec: WorkloadSpec, topology) -> list[ClientClass]:
    """Partition the spec's population into homogeneous classes.

    Clients group by ``(home node, effective per-client parameters)``:
    non-overridden clients form one class per node (computed vectorized —
    the million-client case never loops in Python), and ``client_overrides``
    split off exactly the clients they make different.  An override that
    restates the default values merges back into the default class.

    Classes come back ordered by representative (lowest member id), so the
    build order — and therefore every "sum over classes" — is deterministic.
    """
    num_proxies = topology.num_proxies
    n = spec.num_clients
    default_params = (
        float(spec.per_client_rate),
        int(spec.catalog_size),
        float(spec.zipf_exponent),
        float(spec.follow_probability),
    )
    overridden = sorted(spec.client_overrides)
    if overridden:
        plain_mask = np.ones(n, dtype=bool)
        plain_mask[np.asarray(overridden, dtype=np.int64)] = False
        plain = np.nonzero(plain_mask)[0]
    else:
        plain = np.arange(n, dtype=np.int64)
    groups: dict[tuple[int, tuple], list[np.ndarray]] = {}
    if num_proxies == 1:
        if plain.size:
            groups[(0, default_params)] = [plain]
    else:
        homes = plain % num_proxies  # TopologyConfig.home_of, vectorized
        for node in range(num_proxies):
            members = plain[homes == node]
            if members.size:
                groups[(node, default_params)] = [members]
    for c in overridden:
        params = (
            float(spec.rate_of(c)),
            int(spec.client_param(c, "catalog_size")),
            float(spec.client_param(c, "zipf_exponent")),
            float(spec.client_param(c, "follow_probability")),
        )
        key = (topology.home_of(c), params)
        groups.setdefault(key, []).append(np.asarray([c], dtype=np.int64))
    entries = []
    for (node, params), arrays in groups.items():
        members = arrays[0] if len(arrays) == 1 else np.sort(np.concatenate(arrays))
        entries.append((int(members[0]), node, params, members))
    entries.sort(key=lambda e: e[0])
    return [
        ClientClass(
            class_id=class_id,
            node_id=node,
            members=members,
            request_rate=rate * members.size,
            catalog_size=catalog_size,
            zipf_exponent=zipf_exponent,
            follow_probability=follow_probability,
        )
        for class_id, (_, node, (rate, catalog_size, zipf_exponent,
                                 follow_probability), members)
        in enumerate(entries)
    ]


class AggregateClassSource:
    """Merged reference stream of one homogeneous multi-member class.

    Mirrors the :class:`~repro.workload.markov_source.MarkovChainSource`
    surface the simulation builds against (``stream``, ``successor``,
    ``true_distribution``, ``catalog``, ``follow_probability``) but
    generates the *interleaved* stream of ``num_members`` chains: per
    arrival, a uniformly-random member either follows its own successor
    chain (probability ``q``) or draws fresh from the shared catalogue.
    That is exactly the law of ``num_members`` independent per-client
    sources merged by their (homogeneous-rate) Poisson arrival times.

    Block draw order per ``generate(count)`` call — members, follow
    checks, catalogue uniforms, each of length ``count`` — is fixed and
    documented because the class's RNG stream is dedicated: over-drawn
    catalogue uniforms (follow steps don't consume theirs) touch nothing
    else.  At ``q = 0`` the whole call collapses to one
    :meth:`~repro.workload.zipf.ZipfCatalog.sample_batch`.
    """

    __slots__ = (
        "catalog",
        "follow_probability",
        "successor_shift",
        "num_members",
        "_rng",
        "_state",
        "_dist_cache",
    )

    def __init__(
        self,
        catalog: ZipfCatalog,
        *,
        num_members: int,
        follow_probability: float = 0.0,
        successor_shift: int = 1,
        rng: np.random.Generator | None = None,
    ) -> None:
        if num_members < 1:
            raise ParameterError(f"num_members must be >= 1, got {num_members!r}")
        if not 0.0 <= follow_probability <= 1.0:
            raise ParameterError(
                f"follow_probability must be in [0, 1], got {follow_probability!r}"
            )
        if successor_shift % catalog.num_items == 0:
            raise ParameterError("successor_shift must not be a multiple of num_items")
        self.catalog = catalog
        self.follow_probability = float(follow_probability)
        self.successor_shift = int(successor_shift)
        self.num_members = int(num_members)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        #: per-member chain state (last item, -1 = none); allocated lazily
        #: because the q = 0 fast path never needs it
        self._state: np.ndarray | None = None
        self._dist_cache: dict[tuple[int, int], list[tuple[int, float]]] = {}

    def successor(self, item: int) -> int:
        return (item + self.successor_shift) % self.catalog.num_items

    # ------------------------------------------------------------------
    def generate(self, count: int) -> np.ndarray:
        """The next ``count`` merged accesses (vectorized draws)."""
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        rng = self._rng
        q = self.follow_probability
        if q == 0.0:
            # IRM: no chain state, the merged stream is i.i.d. Zipf.
            return self.catalog.sample_batch(rng, count)
        k = self.num_members
        if self._state is None:
            self._state = np.full(k, -1, dtype=np.int64)
        members = rng.integers(0, k, size=count)
        follow = rng.random(count) < q
        fresh = self.catalog.zipf_indices(rng.random(count))
        state = self._state
        out = np.empty(count, dtype=np.int64)
        shift = self.successor_shift
        num_items = self.catalog.num_items
        # The per-arrival loop is sequential by necessity (a member's next
        # step depends on its previous one), but it only indexes the
        # pre-drawn arrays — no RNG calls, no object dispatch.
        for j in range(count):
            m = members[j]
            s = state[m]
            item = (s + shift) % num_items if (s >= 0 and follow[j]) else fresh[j]
            out[j] = item
            state[m] = item
        return out

    def stream(self, block: int = 1024):
        """Endless merged-item iterator (python ints, like the per-client
        source's ``stream()`` — downstream hashing must not see numpy
        scalars, whose ``repr`` differs)."""
        while True:
            yield from self.generate(block).tolist()

    # ------------------------------------------------------------------
    # Ground truth for the "true-distribution" predictor
    # ------------------------------------------------------------------
    def true_next_probability(self, last_item: int, candidate: int) -> float:
        """``P(next = candidate | last merged item = last_item)``.

        The next arrival belongs to the observed member with probability
        ``1/k``, in which case its chain follows ``succ(last_item)`` with
        probability ``q``; other members' next items are approximated by
        the catalogue distribution (exact at ``q = 0``; for ``q > 0``
        their chain state is unobserved, so the successor mass seen by the
        class predictor is ``q/k`` — the aggregation-diluted signal).
        """
        q_eff = self.follow_probability / self.num_members
        base = (1.0 - q_eff) * self.catalog.probability(candidate)
        if candidate == self.successor(last_item):
            return q_eff + base
        return base

    def true_distribution(self, last_item: int, *, top: int = 10) -> list[tuple[int, float]]:
        """Top entries of the merged next-access distribution (cached)."""
        key = (last_item, top)
        cached = self._dist_cache.get(key)
        if cached is not None:
            return cached
        succ = self.successor(last_item)
        candidates = {succ} | {i for i, _ in self.catalog.top(top)}
        dist = [(i, self.true_next_probability(last_item, i)) for i in candidates]
        dist.sort(key=lambda pair: (-pair[1], pair[0]))
        self._dist_cache[key] = dist = dist[:top]
        return dist
