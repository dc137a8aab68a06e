"""The discrete-event simulation environment (event loop).

:class:`Environment` owns the simulation clock and a binary-heap event
queue.  Events scheduled at equal times are processed in (priority,
insertion-order) — deterministic and FIFO within a priority class, which
the test suite pins down because reproducibility of whole simulations
depends on it.
"""

from __future__ import annotations

import heapq
from heapq import heappop, heappush
from typing import Any, Generator, Iterable, Optional

from repro.des.events import AllOf, AnyOf, Event, Process, Timeout
from repro.errors import SimulationError

__all__ = ["Environment", "URGENT", "NORMAL"]

#: Priority for events that must precede same-time normal events
#: (process initialisation, interrupts).
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class EmptySchedule(Exception):
    """Internal: the event queue ran dry."""


class Environment:
    """Execution environment for a single simulation run.

    Parameters
    ----------
    initial_time:
        Starting clock value (default 0).

    Examples
    --------
    >>> env = Environment()
    >>> log = []
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     log.append(env.now)
    >>> _ = env.process(proc(env))
    >>> env.run()
    >>> log
    [5]
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing (None between steps)."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def __len__(self) -> int:
        """Number of scheduled (not yet processed) events."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: Event, *, delay: float = 0.0, priority: int = NORMAL) -> None:
        """Queue ``event`` to be processed ``delay`` after the current time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, priority, eid, event))

    def step(self) -> None:
        """Process exactly one event (advance the clock to it).

        :meth:`run` does not call this — it inlines the same logic in a
        monolithic loop — but single-stepping stays available for tests and
        debuggers.  Both paths preserve the (time, priority, insertion-order)
        processing contract.
        """
        if not self._queue:
            raise EmptySchedule()
        when, _prio, _eid, event = heappop(self._queue)
        if when < self._now:  # pragma: no cover - guarded by schedule()
            raise SimulationError("event queue went backwards in time")
        self._now = when
        callbacks = event.callbacks
        if callbacks is None:  # pragma: no cover - double-processing guard
            raise SimulationError(f"{event!r} processed twice")
        event.callbacks = None
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks:
            # A failed event nobody waited for: surface the error loudly
            # rather than silently dropping a crashed process.
            raise event._value

    def run(self, until: float | Event | None = None) -> Any:
        """Run until the queue empties, a deadline passes, or an event fires.

        Parameters
        ----------
        until:
            ``None`` — run to exhaustion; a number — run until the clock
            reaches it (the clock is set to exactly ``until``); an
            :class:`Event` — run until it is processed and return its value
            (raising if it failed; returning immediately if it was already
            processed).

        Notes
        -----
        This is the simulation hot loop: the per-event work of :meth:`step`
        is inlined (heap pop, clock advance, callback dispatch) so millions
        of events don't each pay a method call and repeated attribute
        lookups.  Processing order is identical to repeated ``step()`` calls.
        """
        queue = self._queue
        pop = heappop

        if until is None:
            while queue:
                when, _prio, _eid, event = pop(queue)
                self._now = when
                callbacks = event.callbacks
                if callbacks is None:  # pragma: no cover - double-processing
                    raise SimulationError(f"{event!r} processed twice")
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not callbacks:
                    raise event._value
            return None

        if isinstance(until, Event):
            sentinel = until
            if sentinel.callbacks is None:
                # Already processed before run() was called: no busy
                # polling, just report its outcome at the current time.
                if not sentinel._ok:
                    raise sentinel._value
                return sentinel._value
            # The sentinel flags completion via its own callback, so the
            # loop never probes ``sentinel.processed`` per step.
            fired: list[Event] = []
            sentinel.callbacks.append(fired.append)
            while not fired:
                if not queue:
                    raise SimulationError(
                        "run(until=event): queue exhausted before the event fired"
                    )
                when, _prio, _eid, event = pop(queue)
                self._now = when
                callbacks = event.callbacks
                if callbacks is None:  # pragma: no cover - double-processing
                    raise SimulationError(f"{event!r} processed twice")
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not callbacks:
                    raise event._value
            if not sentinel._ok:
                raise sentinel._value
            return sentinel._value

        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(
                f"run(until={deadline}) is in the past (now={self._now})"
            )
        while queue and queue[0][0] <= deadline:
            when, _prio, _eid, event = pop(queue)
            self._now = when
            callbacks = event.callbacks
            if callbacks is None:  # pragma: no cover - double-processing
                raise SimulationError(f"{event!r} processed twice")
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if not event._ok and not callbacks:
                raise event._value
        self._now = deadline
        return None

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A bare, un-triggered event (trigger it with ``succeed``/``fail``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` from now, carrying ``value``.

        Timeouts dominate event traffic, so this skips the
        ``Timeout.__init__`` → ``Event.__init__`` → :meth:`schedule` chain
        and builds the already-triggered event in place (identical queue
        entry, so processing order is unchanged).
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._ok = True
        event._value = value
        event.delay = delay
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, NORMAL, eid, event))
        return event

    def at(self, time: float, value: Any = None) -> Timeout:
        """An event firing at *absolute* simulation time ``time``.

        Unlike ``timeout(time - env.now)``, the queue entry carries ``time``
        itself, so a schedule built from absolute timestamps (e.g. trace
        replay) reproduces them exactly instead of accumulating float error
        through repeated ``now + delay`` round trips.
        """
        if time < self._now:
            raise SimulationError(
                f"at({time!r}) is in the past (now={self._now!r})"
            )
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._ok = True
        event._value = value
        event.delay = time - self._now
        self._eid = eid = self._eid + 1
        heappush(self._queue, (time, NORMAL, eid, event))
        return event

    def call_at(self, time: float, callback, value: Any = None) -> Timeout:
        """Schedule ``callback(event)`` directly at absolute time ``time``.

        The primitive behind the synthetic arrival driver: each arrival
        is pushed onto the heap with its callback already attached, so
        firing it costs one callback call — no generator resume, no
        ``Process`` machinery per event.  ``value`` rides on the event
        (``event.value``) for the callback to consume.  The queue entry is
        identical to :meth:`at`'s, so ordering against every other event
        is unchanged.
        """
        if time < self._now:
            raise SimulationError(
                f"call_at({time!r}) is in the past (now={self._now!r})"
            )
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = [callback]
        event._ok = True
        event._value = value
        event.delay = time - self._now
        self._eid = eid = self._eid + 1
        heappush(self._queue, (time, NORMAL, eid, event))
        return event

    def process(self, generator: Generator[Any, Any, Any]) -> Process:
        """Start a process from a generator; returns its completion event."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)
