"""The discrete-event simulation environment (event loop).

:class:`Environment` owns the simulation clock and a binary-heap event
queue.  Events scheduled at equal times are processed in (priority,
insertion-order) — deterministic and FIFO within a priority class, which
the test suite pins down because reproducibility of whole simulations
depends on it.  Work enters the queue as callbacks
(:meth:`~Environment.call_at`, :meth:`~Environment.call_soon`) or as
generators run by :meth:`~Environment.start`.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Generator

from repro.des.events import Event, Process, Timeout, _wait
from repro.errors import SimulationError

__all__ = ["Environment", "URGENT", "NORMAL"]

#: Priority for events that must precede same-time normal events
#: (:meth:`Environment.call_soon`).
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
    >>> env.start(proc(env))
    >>> env.run()
    >>> log
    [5.0]
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def __len__(self) -> int:
        """Number of scheduled (not yet processed) events."""
        return len(self._queue)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, event: Event, *, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed ``delay`` after the current time."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, NORMAL, eid, event))

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
            # rather than silently dropping it.
            raise event._value

    def run(self, until: float | None = None) -> None:
        """Process events until the queue empties or a deadline passes.

        Parameters
        ----------
        until:
            ``None`` — run to exhaustion; a number — process every event
            due by ``until``, then set the clock to exactly ``until``.

        Notes
        -----
        This is the simulation hot loop: the per-event work of :meth:`step`
        is inlined (heap pop, clock advance, callback dispatch) so millions
        of events don't each pay a method call and repeated attribute
        lookups.  Processing order is identical to repeated ``step()`` calls.
        """
        if until is None:
            deadline = math.inf
        else:
            deadline = float(until)
            if deadline < self._now:
                raise SimulationError(
                    f"run(until={deadline}) is in the past (now={self._now})"
                )
        queue = self._queue
        pop = heappop
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
        if until is not None:
            self._now = deadline

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A bare, un-triggered event (trigger it with ``succeed``/``fail``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` from now, carrying ``value``.

        Timeouts dominate event traffic, so this skips the
        ``Event.__init__`` → :meth:`schedule` chain and builds the
        already-triggered event in place.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        event = Timeout.__new__(Timeout)
        event.env = self
        event.callbacks = []
        event._ok = True
        event._value = value
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now + delay, NORMAL, eid, event))
        return event

    def call_at(self, time: float, callback, value: Any = None) -> Timeout:
        """Schedule ``callback(event)`` directly at absolute time ``time``.

        The primitive behind the arrival drivers: each arrival is pushed
        onto the heap with its callback already attached, so firing it
        costs one callback call, no generator resume.  ``value`` rides on
        the event (``event.value``) for the callback to consume.  The queue
        entry carries ``time`` itself, so a schedule built from absolute
        timestamps (trace replay) reproduces them exactly instead of
        accumulating float error through repeated ``now + delay`` round
        trips.  A process can wait on the returned event like any other.
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
        self._eid = eid = self._eid + 1
        heappush(self._queue, (time, NORMAL, eid, event))
        return event

    def call_soon(self, callback, value: Any = None) -> Event:
        """Schedule ``callback(event)`` now, at URGENT priority: after the
        URGENT events already queued, before any NORMAL event at this
        time."""
        event = Event.__new__(Event)
        event.env = self
        event.callbacks = [callback]
        event._ok = True
        event._value = value
        self._eid = eid = self._eid + 1
        heappush(self._queue, (self._now, URGENT, eid, event))
        return event

    def start(self, generator: Generator[Any, Any, Any]) -> None:
        """Run ``generator`` now, as a :class:`~repro.des.events.Process`.

        It runs to its first ``yield`` before this returns, then is resumed
        by each event it yields.  Starting and finishing it schedule
        nothing, and nothing can wait on it.  An exception it raises
        propagates to the caller, so from within the event loop out of
        :meth:`run`.  To start it at this time but behind the callback
        that is running, start it from :meth:`call_soon`.
        """
        try:
            event = generator.send(None)
        except StopIteration:
            return
        _wait(self, event, Process(self, generator)._resume)
