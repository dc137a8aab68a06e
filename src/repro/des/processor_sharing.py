"""Event-driven egalitarian processor-sharing server (paper §2.1).

The paper models the whole network behind the proxy as one server running a
processor-sharing (round-robin with infinitesimal quantum) discipline: with
``n`` jobs in service, each receives ``capacity / n`` units of work per unit
time.  For Poisson arrivals the mean response time of a job of size ``x`` is
``x / (1 − ρ)`` (eq. 2) — the property every simulation experiment
validates against.

The implementation is *exact* (no time-stepping) and takes the virtual-time
form of generalized processor sharing (Parekh & Gallager, 1993).  A virtual
clock ``V`` counts the work each job in service has received; between
events it advances by ``elapsed · C / n``.  A job of work ``x`` arriving at
virtual time ``V`` gets the finish tag ``F = V + x`` and leaves when ``V``
reaches ``F``.  Jobs sit in a heap ordered by ``(F, arrival sequence)``, and
the next completion is due ``(F_head − V) · n / C`` from now, so an arrival
or a completion costs O(log n) and no per-job remaining work is updated.

* **Idle reset.**  ``V`` returns to 0 whenever the last job leaves, so
  ``F − V`` loses no precision to earlier busy periods, and a job arriving
  at an idle server finishes at exactly ``arrival + work / C``.
* **Timers.**  Every arrival and every completion arms one timer for the
  head of the heap: a :meth:`~repro.des.environment.Environment.call_at`
  entry that carries its epoch to :meth:`ProcessorSharingServer._on_timer`.
  An epoch counter turns superseded timers into no-ops instead of
  searching the event queue.
* **Tie tolerance.**  A live timer always completes the head job, so the
  server makes progress even where ``now + delay`` rounds to ``now`` at
  large clock values.  With it go every job whose tag lies within
  ``(F_head − V)·1e-9 + 1e-12`` of the head's, ``V`` read when the timer was
  armed, and every job with ``F − V ≤ 1e-12`` when it fires.  Tags are
  absolute virtual times, so work differences below the resolution of
  ``V`` (its last bit: 1.8e-12 at ``V`` = 1e4) are ties too.
* **Completion order.**  Jobs leaving at one instant complete in arrival
  order, so the events their callbacks schedule keep insertion order;
  :meth:`fail_all` aborts in arrival order too.
* **Completion callback.**  A job carries the caller's ``on_done(job,
  exc)``, called with ``exc`` None when the job completes (from the timer,
  with no event in between) and with the exception when :meth:`fail_all`
  aborts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import itemgetter
from typing import Any, Callable

from repro.des.environment import Environment
from repro.des.monitors import TimeWeightedValue
from repro.errors import SimulationError

__all__ = ["ProcessorSharingServer", "PSJob"]

#: Work at or below this counts as done: zero-size jobs complete on
#: arrival, and a job this close to its finish tag leaves with the head.
_WORK_EPSILON = 1e-12
#: Jobs whose remaining work is within this fraction of the head job's
#: (plus ``_WORK_EPSILON``) complete together with it.
_TIE_TOLERANCE = 1e-9

_by_arrival = itemgetter(1)


@dataclass(eq=False, slots=True)
class PSJob:
    """One job in (or through) the processor-sharing server.

    Attributes
    ----------
    work:
        Total service requirement (e.g. item size in bytes when the server
        rate is bytes/second).
    arrival_time:
        When the job entered service.
    completion_time:
        Filled in at departure; NaN while in service.
    tag:
        Caller-supplied context (e.g. the request that caused the fetch).
    on_done:
        Called as ``on_done(job, exc)`` when the job leaves: ``exc`` is None
        at completion, the abort's exception under :meth:`fail_all
        <ProcessorSharingServer.fail_all>`.
    """

    work: float
    arrival_time: float
    tag: Any = None
    on_done: Callable | None = field(default=None, repr=False)
    completion_time: float = float("nan")

    @property
    def response_time(self) -> float:
        """Sojourn time (arrival to completion); NaN while in service."""
        return self.completion_time - self.arrival_time

    @property
    def slowdown(self) -> float:
        """Response time per unit of work."""
        return self.response_time / self.work if self.work > 0 else float("nan")


class ProcessorSharingServer:
    """M/G/1-PS service centre with exact event-driven sharing.

    Parameters
    ----------
    env:
        Simulation environment.
    capacity:
        Total service rate ``b`` (work units per time unit), shared equally
        among active jobs.

    Notes
    -----
    The server keeps online statistics needed by the experiments: utilisation
    (busy-time weighted), time-averaged number in system, total work served,
    and per-job response times are handed to each job's ``on_done``.

    Examples
    --------
    >>> env = Environment()
    >>> server = ProcessorSharingServer(env, capacity=10.0)
    >>> times = []
    >>> _ = server.submit(5.0, None, lambda job, exc: times.append(job.response_time))
    >>> env.run()
    >>> times
    [0.5]
    """

    def __init__(self, env: Environment, capacity: float) -> None:
        if capacity <= 0:
            raise SimulationError(f"server capacity must be > 0, got {capacity!r}")
        self.env = env
        self.capacity = float(capacity)
        self._jobs: list[tuple[float, int, PSJob]] = []  # heap of (F, seq, job)
        self._vtime = 0.0  # V: work each job in service has received
        self._seq = 0
        self._limit = 0.0  # the armed timer completes every tag up to this
        self._last_update = env.now
        self._epoch = 0  # invalidates stale completion timers
        self._completed_jobs = 0
        self._total_work_served = 0.0
        self._busy_time = 0.0
        self._jobs_in_system = TimeWeightedValue(env, initial=0.0)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        """Jobs currently in service."""
        return len(self._jobs)

    def submit(self, work: float, tag: Any, on_done: Callable) -> PSJob:
        """Enter a job; ``on_done(job, None)`` runs at its completion time
        (inside this call for a zero-size job).  Returns the job."""
        if work < 0:
            raise SimulationError(f"job work must be >= 0, got {work!r}")
        self._advance()
        now = self.env._now
        job = PSJob(float(work), now, tag, on_done)
        if work <= _WORK_EPSILON:
            # Zero-size job: completes immediately without touching shares.
            job.completion_time = now
            self._completed_jobs += 1
            on_done(job, None)
            return job
        self._seq = seq = self._seq + 1
        heappush(self._jobs, (self._vtime + job.work, seq, job))
        self._jobs_in_system.set(len(self._jobs))
        self._reschedule()
        return job

    def fail_all(self, exc: BaseException) -> int:
        """Abort every in-service job at once (a crashed server).

        Each job's ``on_done`` gets ``exc``, in arrival order; work
        already served stays counted (the bandwidth was genuinely
        consumed before the crash).  Returns the number of jobs aborted.
        """
        self._advance()
        failed = sorted(self._jobs, key=_by_arrival)
        self._jobs.clear()
        self._jobs_in_system.set(0)
        for _finish, _seq, job in failed:
            job.completion_time = float("nan")
            job.on_done(job, exc)
        self._reschedule()
        return len(failed)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def completed_jobs(self) -> int:
        return self._completed_jobs

    @property
    def total_work_served(self) -> float:
        """Work units actually delivered (≤ capacity × busy time)."""
        return self._total_work_served

    def utilization(self) -> float:
        """Fraction of elapsed time the server was busy (≥1 active job)."""
        self._advance()
        now = self.env.now
        return self._busy_time / now if now > 0 else 0.0

    def mean_jobs_in_system(self) -> float:
        """Time-averaged number of concurrent jobs (compare ρ/(1−ρ))."""
        self._advance()
        return self._jobs_in_system.time_average()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Move the virtual clock to now, charging the elapsed work."""
        now = self.env._now
        elapsed = now - self._last_update
        if elapsed < 0:  # pragma: no cover - clock is monotone
            raise SimulationError("processor-sharing clock went backwards")
        if elapsed == 0:
            return
        n = len(self._jobs)
        if n:
            self._vtime += elapsed * self.capacity / n
            self._total_work_served += elapsed * self.capacity
            self._busy_time += elapsed
        self._last_update = now

    def _reschedule(self) -> None:
        """Arm the completion timer for the head of the heap.

        The new epoch makes any earlier timer a no-op.  With no job in
        service nothing is armed and the virtual clock resets to 0.
        """
        self._epoch += 1
        jobs = self._jobs
        if not jobs:
            self._vtime = 0.0
            return
        head = jobs[0][0]
        remaining = head - self._vtime
        self._limit = head + remaining * _TIE_TOLERANCE + _WORK_EPSILON
        delay = remaining * len(jobs) / self.capacity
        env = self.env
        env.call_at(
            env._now + (delay if delay > 0.0 else 0.0), self._on_timer, self._epoch
        )

    def _on_timer(self, timer) -> None:
        """Complete the head job (and its ties) if ``timer`` is current."""
        if timer._value != self._epoch:
            return  # a newer arrival/departure superseded this timer
        self._advance()
        jobs = self._jobs
        limit = self._vtime + _WORK_EPSILON
        if limit < self._limit:
            limit = self._limit
        finished = [heappop(jobs)]
        while jobs and jobs[0][0] <= limit:
            finished.append(heappop(jobs))
        if len(finished) > 1:
            finished.sort(key=_by_arrival)
        now = self.env._now
        for _finish, _seq, job in finished:
            job.completion_time = now
            job.on_done(job, None)
        self._completed_jobs += len(finished)
        self._jobs_in_system.set(len(jobs))
        self._reschedule()
