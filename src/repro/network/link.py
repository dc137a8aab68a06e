"""The shared bottleneck link — the paper's M/G/1-PS "server".

§2.1: "We treat the entire network accessed through the proxy as a server
that provides a processor-sharing service."  :class:`SharedLink` wraps the
DES :class:`~repro.des.processor_sharing.ProcessorSharingServer` with
fetch-level semantics: it counts the bytes and fetches of each kind
(demand, prefetch, peer), so experiments can read off utilisation ρ, the
offered load and the excess cost C directly.  Retrieval times belong to
the metrics collector (:class:`~repro.sim.metrics.MetricsCollector`): the
request path records each completed fetch there, under the issue-time
gate of the measurement window.
"""

from __future__ import annotations

from repro.des.environment import Environment
from repro.des.events import Event
from repro.des.processor_sharing import ProcessorSharingServer
from repro.network.messages import FetchKind, FetchRequest, FetchResult

__all__ = ["SharedLink"]

#: value -> kind; a member hashes and compares as its value, so it maps
#: to itself
_KINDS = {kind.value: kind for kind in FetchKind}


class SharedLink:
    """Processor-shared network path of capacity ``bandwidth``.

    Examples
    --------
    >>> from repro.des import Environment
    >>> env = Environment()
    >>> link = SharedLink(env, bandwidth=10.0)
    >>> times = []
    >>> def fetch(env, link):
    ...     result = yield link.fetch(item="x", size=5.0, kind="demand", client=0)
    ...     times.append(result.retrieval_time)
    >>> env.start(fetch(env, link))
    >>> env.run()
    >>> times
    [0.5]
    """

    def __init__(self, env: Environment, bandwidth: float) -> None:
        self.env = env
        self.bandwidth = float(bandwidth)
        self.server = ProcessorSharingServer(env, capacity=self.bandwidth)
        self._bytes = {kind: 0.0 for kind in FetchKind}
        self._fetches = {kind: 0 for kind in FetchKind}

    # ------------------------------------------------------------------
    def fetch(
        self,
        *,
        item,
        size: float,
        kind: FetchKind | str,
        client: int,
    ) -> Event:
        """Submit a fetch; the returned event succeeds with a
        :class:`FetchResult` when the download completes.  An unknown
        ``kind`` raises :class:`ValueError` before anything is counted."""
        try:
            kind = _KINDS[kind]
        except (KeyError, TypeError):
            raise ValueError(f"{kind!r} is not a valid FetchKind") from None
        env = self.env
        self._bytes[kind] += size
        self._fetches[kind] += 1
        done = Event(env)
        request = FetchRequest(item, size, kind, client, env._now)
        self.server.submit(size, (request, done), self._complete)
        return done

    def _complete(self, job, exc: BaseException | None) -> None:
        """The server finished (or aborted) a fetch: resolve its event."""
        request, done = job.tag
        if exc is not None:
            done.fail(exc)
            return
        done.succeed(FetchResult(request, self.env._now))

    # ------------------------------------------------------------------
    def fail_inflight(self, exc: BaseException) -> int:
        """Abort every transfer currently on the link (the server crashed).

        Each waiting fetcher sees ``exc`` raised from its pending fetch
        event via :meth:`_complete`.  Offered-load accounting
        is issue-time and therefore keeps the aborted bytes: the work was
        offered to the link before the crash.  Returns the abort count.
        """
        return self.server.fail_all(exc)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def demand_bytes(self) -> float:
        return self._bytes[FetchKind.DEMAND]

    @property
    def prefetch_bytes(self) -> float:
        return self._bytes[FetchKind.PREFETCH]

    @property
    def peer_bytes(self) -> float:
        return self._bytes[FetchKind.PEER]

    @property
    def demand_fetches(self) -> int:
        return self._fetches[FetchKind.DEMAND]

    @property
    def prefetch_fetches(self) -> int:
        return self._fetches[FetchKind.PREFETCH]

    @property
    def peer_fetches(self) -> int:
        return self._fetches[FetchKind.PEER]

    def utilization(self) -> float:
        """Busy fraction since time 0 (compare eq. 8/16's ρ)."""
        return self.server.utilization()

    def offered_load(self, *, horizon: float | None = None) -> float:
        """Injected work / capacity·time — the offered ρ (can exceed 1)."""
        elapsed = horizon if horizon is not None else self.env.now
        if elapsed <= 0:
            return 0.0
        total_bytes = self.demand_bytes + self.prefetch_bytes + self.peer_bytes
        return total_bytes / (self.bandwidth * elapsed)
