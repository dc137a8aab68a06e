"""Event primitives for the discrete-event simulation kernel.

The kernel follows the SimPy style (the reproduction plan called for
SimPy, which is unavailable offline — see DESIGN.md): an :class:`Event`
is a one-shot occurrence whose callbacks the environment runs when it
processes it, and a :class:`Process` drives a Python generator that
yields events, resuming it as each one is processed.  An event carries a
value (sent into the generator) or an exception (thrown into it).

Event lifecycle::

    PENDING ──succeed(value)──► TRIGGERED ──(env.step)──► PROCESSED
        └────fail(exception)──► TRIGGERED (failed)

A process is no event: :meth:`Environment.start` runs it at once, and
starting or finishing one schedules nothing, so nothing waits for it.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.des.environment import Environment

__all__ = ["Event", "Timeout", "Process"]

_PENDING = object()

#: :data:`repro.des.environment.NORMAL`, mirrored (importing it would
#: create a cycle); tests/des/test_environment.py pins the mirrored value
#: and the inlined queue-entry layout against drift.
_NORMAL = 1


class Event:
    """A one-shot occurrence at a simulation time.

    Parameters
    ----------
    env:
        Owning environment; the event can only be scheduled on its queue.

    Notes
    -----
    ``callbacks`` is a list of ``f(event)`` invoked when the environment
    processes the event; it becomes ``None`` afterwards, which is also the
    cheap "already processed" flag (as in SimPy).

    Events are the unit of allocation on the simulation hot path, so the
    whole hierarchy uses ``__slots__``; subclasses outside this module may
    omit ``__slots__`` (they then carry a ``__dict__`` as usual).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok = True

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """Whether the event has a value/exception (it may still be queued)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """Whether callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True when the event succeeded (valid only once triggered)."""
        if not self.triggered:
            raise SimulationError("event value not yet available")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or the exception for failed events)."""
        if self._value is _PENDING:
            raise SimulationError("event value not yet available")
        return self._value

    # ------------------------------------------------------------------
    # Triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None, *, delay: float = 0.0) -> "Event":
        """Trigger successfully with ``value`` after ``delay`` (default now)."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        # Inline of env.schedule(self, delay=delay): triggering is the
        # second-hottest event operation after timeout creation.
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + delay, _NORMAL, eid, self))
        return self

    def fail(self, exception: BaseException, *, delay: float = 0.0) -> "Event":
        """Trigger as failed; ``exception`` is thrown into waiting processes."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        env = self.env
        env._eid = eid = env._eid + 1
        heappush(env._queue, (env._now + delay, _NORMAL, eid, self))
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (
            "processed"
            if self.processed
            else ("triggered" if self.triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires a given delay after creation, carrying its value
    from the start (built by :meth:`Environment.timeout` and
    :meth:`~Environment.call_at`)."""

    __slots__ = ()


class Process:
    """A generator driven by the events it yields, with no events of its own.

    Started only by :meth:`Environment.start`, which runs it to its first
    ``yield`` at once.  It is not an event: finishing schedules nothing,
    so nothing can wait for it.  An exception the generator does not
    handle propagates out of the callback that resumed it, and so out of
    :meth:`Environment.run` at the instant it was raised.
    """

    __slots__ = ("env", "_generator")

    def __init__(self, env: "Environment", generator: Generator[Any, Any, Any]) -> None:
        self.env = env
        self._generator = generator

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._value)
        except StopIteration:
            return
        _wait(self.env, next_event, self._resume)


def _wait(env: "Environment", event: Any, resume: Callable[[Event], None]) -> None:
    """Call ``resume`` when ``event``, yielded by a generator, is processed.

    An event processed already resumes at the current time, through a
    fresh event carrying its outcome.
    """
    if not isinstance(event, Event):
        raise SimulationError(
            f"process yielded {event!r}; processes must yield Event "
            f"instances (timeouts, fetch events, ...)"
        )
    if event.env is not env:
        raise SimulationError("process yielded an event from another environment")
    if event.callbacks is None:
        immediate = Event(env)
        immediate._ok = event._ok
        immediate._value = event._value
        immediate.callbacks = [resume]
        env.schedule(immediate)
    else:
        event.callbacks.append(resume)
