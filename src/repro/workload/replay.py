"""Trace replay: feed a recorded request stream back through the DES.

:mod:`repro.workload.trace` defines the on-disk format; this module turns a
loaded trace into something the full simulation can *drive*:

* :class:`TraceReplaySource` — a per-client demultiplexer over a merged,
  time-ordered trace.  Each client's records keep their exact recorded
  timestamps, so a replayed run issues the byte-identical request sequence
  of the recording — unlike the synthetic path, where every policy under
  comparison perturbs the RNG stream differently.  Two modes:

  - **eager** (a record list, or ``from_file(path)``): the whole trace in
    memory, random access to any client's records;
  - **streaming** (``from_file(path, stream=True)``): one cheap summary
    pass up front (client count, size map, end time — constant memory in
    the record count), then :meth:`~TraceReplaySource.iter_merged` yields
    the records lazily from disk in their recorded (merged, time-sorted)
    order.  The simulation replays through one merged-order driver, so a
    multi-GB trace is never materialised and *nothing* is buffered — not
    even for clients with long idle gaps.

* :func:`trace_digest` — content hash of a trace file (streamed in chunks,
  never loading the file whole), used by the sweep engine's result cache
  so a cached trace-driven point is invalidated when (and only when) the
  trace file's bytes change.

The replay contract with :class:`repro.sim.simulation.Simulation`:

* ``SimulationConfig.trace_path`` attaches a trace; the Poisson arrival
  process is replaced by the recorded timestamps (scheduled at *absolute*
  simulation times via :meth:`Environment.call_at`, so replays are exact, not
  cumulative-float-drift approximations),
* item sizes recorded in the trace become the origin's size map (first
  record of an item wins; prefetch candidates outside the trace fall back
  to the workload spec's size distribution),
* everything downstream of arrival — cache lookups, prefetch planning,
  link contention — still *emerges* from the simulation, which is the
  point: one fixed workload, many competing policies.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Iterator

from repro.errors import TraceFormatError
from repro.workload.trace import TraceRecord, _check_sorted, iter_trace

__all__ = ["TraceReplaySource", "trace_digest"]

#: chunk size for the streaming content digest
_DIGEST_CHUNK = 1 << 20


def trace_digest(path: str | Path) -> str:
    """SHA-256 of the trace file's bytes (the replay cache identity).

    Streams the file in chunks, so hashing a multi-GB trace costs constant
    memory — the same contract as streaming replay itself.
    """
    path = Path(path)
    if not path.exists():
        raise TraceFormatError(f"trace file not found: {path}")
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(_DIGEST_CHUNK), b""):
            digest.update(chunk)
    return digest.hexdigest()


class TraceReplaySource:
    """Per-client demultiplexer over a merged, time-ordered trace.

    Parameters
    ----------
    records:
        The merged trace (as produced by :func:`~repro.workload.sessions.
        generate_trace` or :func:`~repro.workload.trace.load_trace`); must
        be non-empty and time-ordered.  Use :meth:`from_file` to build one
        from disk instead (optionally streaming).
    num_clients:
        Optional override for the client count; defaults to
        ``max(client id) + 1`` so client ids map onto simulation clients
        directly.  Clients without records simply stay idle.
    """

    def __init__(
        self,
        records: Iterable[TraceRecord],
        *,
        num_clients: int | None = None,
    ) -> None:
        self._path: Path | None = None
        self._records: tuple[TraceRecord, ...] = tuple(records)
        if not self._records:
            raise TraceFormatError("cannot replay an empty trace")
        _check_sorted(list(self._records))
        by_client: dict[int, list[TraceRecord]] = {}
        sizes: dict[int, float] = {}
        for record in self._records:
            if record.client < 0:
                raise TraceFormatError(f"negative client id {record.client!r}")
            by_client.setdefault(record.client, []).append(record)
            sizes.setdefault(record.item, record.size)
        self._by_client = {c: tuple(rs) for c, rs in by_client.items()}
        self._sizes = sizes
        self._count = len(self._records)
        self._end_time = self._records[-1].time
        self.num_clients = self._resolve_num_clients(
            max(by_client) + 1, num_clients
        )

    @staticmethod
    def _resolve_num_clients(inferred: int, requested: int | None) -> int:
        if requested is None:
            return inferred
        if requested < inferred:
            raise TraceFormatError(
                f"trace references client {inferred - 1} but num_clients="
                f"{requested}"
            )
        return int(requested)

    # ------------------------------------------------------------------
    @classmethod
    def from_file(
        cls,
        path: str | Path,
        *,
        num_clients: int | None = None,
        stream: bool = False,
    ) -> "TraceReplaySource":
        """Load (or lazily attach) a trace file (.csv or .jsonl).

        ``stream=True`` keeps the records on disk: a single summary pass
        computes the client count, size map and end time, and
        :meth:`iter_merged` then re-reads the file lazily, record by
        record — the whole trace is never held in memory at once.
        """
        if not stream:
            from repro.workload.trace import load_trace

            return cls(load_trace(path), num_clients=num_clients)
        source = cls.__new__(cls)
        source._path = Path(path)
        source._records = ()
        source._by_client = {}
        sizes: dict[int, float] = {}
        count = 0
        end_time = 0.0
        max_client = -1
        for record in iter_trace(path):
            if record.client < 0:
                raise TraceFormatError(f"negative client id {record.client!r}")
            sizes.setdefault(record.item, record.size)
            count += 1
            end_time = record.time
            if record.client > max_client:
                max_client = record.client
        if count == 0:
            raise TraceFormatError("cannot replay an empty trace")
        source._sizes = sizes
        source._count = count
        source._end_time = end_time
        source.num_clients = cls._resolve_num_clients(max_client + 1, num_clients)
        return source

    @property
    def streaming(self) -> bool:
        """True when records are demultiplexed lazily from disk."""
        return self._path is not None

    @property
    def records(self) -> tuple[TraceRecord, ...]:
        """The materialised trace (eager mode only)."""
        if self.streaming:
            raise TraceFormatError(
                "streaming replay source does not materialise records; "
                "use iter_merged() or load_trace()"
            )
        return self._records

    # ------------------------------------------------------------------
    def iter_merged(self) -> Iterator[TraceRecord]:
        """All records in recorded (merged, time-sorted) order.

        The replay driver's feed: eager mode iterates the in-memory
        tuple, streaming mode re-reads the file lazily — one record in
        flight at a time, so even a client with a long idle gap never
        forces anything to be buffered.  Re-entrant: each call starts a
        fresh pass.
        """
        if self.streaming:
            return iter_trace(self._path)
        return iter(self._records)

    def client_records(self, client: int) -> tuple[TraceRecord, ...]:
        """That client's records, in recorded order (empty if it has none).

        Eager mode only — a streaming source never holds a client's
        records together; replay consumes :meth:`iter_merged` instead.
        """
        if self.streaming:
            raise TraceFormatError(
                "streaming replay source does not demultiplex per client; "
                "iterate iter_merged() or load the trace eagerly"
            )
        return self._by_client.get(client, ())

    def size_map(self) -> dict[int, float]:
        """``item -> size`` from the trace, first record of an item winning
        (matching the origin's stable-size contract)."""
        return dict(self._sizes)

    @property
    def end_time(self) -> float:
        """Timestamp of the last record."""
        return self._end_time

    def __len__(self) -> int:
        return self._count

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "streaming" if self.streaming else "eager"
        return (
            f"<TraceReplaySource {self._count} records ({mode}), "
            f"{self.num_clients} client(s), ends at {self._end_time:.3f}>"
        )
