"""The shared bottleneck link — the paper's M/G/1-PS "server".

§2.1: "We treat the entire network accessed through the proxy as a server
that provides a processor-sharing service."  :class:`SharedLink` wraps the
DES :class:`~repro.des.processor_sharing.ProcessorSharingServer` with
fetch-level semantics: per-kind accounting (demand vs prefetch bytes and
retrieval times) so experiments can read off utilisation ρ, retrieval time
per request R, and the excess cost C directly.
"""

from __future__ import annotations

from repro.des.environment import Environment
from repro.des.events import Event
from repro.des.monitors import Tally
from repro.des.processor_sharing import ProcessorSharingServer
from repro.network.messages import FetchKind, FetchRequest, FetchResult

__all__ = ["SharedLink"]


class SharedLink:
    """Processor-shared network path of capacity ``bandwidth``.

    Examples
    --------
    >>> from repro.des import Environment
    >>> env = Environment()
    >>> link = SharedLink(env, bandwidth=10.0)
    >>> def fetch(env, link):
    ...     result = yield link.fetch(item="x", size=5.0, kind="demand", client=0)
    ...     return result.retrieval_time
    >>> env.run(env.process(fetch(env, link)))
    0.5
    """

    def __init__(self, env: Environment, bandwidth: float) -> None:
        self.env = env
        self.bandwidth = float(bandwidth)
        self.server = ProcessorSharingServer(env, capacity=self.bandwidth)
        self.demand_retrieval = Tally("demand-retrieval-time")
        self.prefetch_retrieval = Tally("prefetch-retrieval-time")
        self.peer_retrieval = Tally("peer-retrieval-time")
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
        :class:`FetchResult` when the download completes."""
        kind = FetchKind(kind)
        request = FetchRequest(
            item=item, size=size, kind=kind, client=client, issued_at=self.env.now
        )
        self._bytes[kind] += size
        self._fetches[kind] += 1
        done = Event(self.env)
        self.server.submit(size, (request, done), self._complete)
        return done

    def _complete(self, job, exc: BaseException | None) -> None:
        """The server finished (or aborted) a fetch: resolve its event."""
        request, done = job.tag
        if exc is not None:
            done.fail(exc)
            return
        result = FetchResult(request=request, completed_at=self.env.now)
        kind = request.kind
        if kind is FetchKind.DEMAND:
            tally = self.demand_retrieval
        elif kind is FetchKind.PREFETCH:
            tally = self.prefetch_retrieval
        else:
            tally = self.peer_retrieval
        tally.record(result.retrieval_time)
        done.succeed(result)

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
