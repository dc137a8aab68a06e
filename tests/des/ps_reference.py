"""Reference processor-sharing server: the remaining-work implementation.

This is the server ``repro.des.processor_sharing`` shipped before it moved
to virtual time, kept here (minus the unused ``cancel``) as the oracle of
the differential tests.  It is deliberately the slow, direct form of the
model: on every arrival and departure it charges ``elapsed · C / n`` to
each job's ``remaining`` counter, takes the minimum, and arms one timer
for the jobs within a small tolerance of it.  Nothing under ``src/``
imports it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.des.environment import Environment
from repro.des.monitors import TimeWeightedValue
from repro.errors import SimulationError

__all__ = ["ReferencePSServer", "ReferencePSJob"]

#: Jobs whose remaining work falls below this are considered complete;
#: guards against float drift accumulating over millions of reschedules.
_WORK_EPSILON = 1e-12


@dataclass(eq=False, slots=True)  # identity semantics: jobs live in sets keyed by object
class ReferencePSJob:
    """One job; ``remaining`` is charged on every event."""

    work: float
    arrival_time: float
    tag: Any = None
    completion_time: float = float("nan")
    on_done: "Callable[[ReferencePSJob, BaseException | None], None] | None" = field(
        default=None, repr=False
    )
    remaining: float = field(init=False)

    def __post_init__(self) -> None:
        self.remaining = self.work

    @property
    def response_time(self) -> float:
        """Sojourn time (arrival to completion); NaN while in service."""
        return self.completion_time - self.arrival_time

    @property
    def slowdown(self) -> float:
        """Response time per unit of work."""
        return self.response_time / self.work if self.work > 0 else float("nan")


class ReferencePSServer:
    """M/G/1-PS server, same public API as the virtual-time one."""

    def __init__(self, env: Environment, capacity: float) -> None:
        if capacity <= 0:
            raise SimulationError(f"server capacity must be > 0, got {capacity!r}")
        self.env = env
        self.capacity = float(capacity)
        self._active: list[ReferencePSJob] = []
        self._last_update = env.now
        self._epoch = 0  # invalidates stale completion timers
        self._expected: list[ReferencePSJob] = []  # jobs the armed timer will complete
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
        return len(self._active)

    def submit(
        self,
        work: float,
        tag: Any,
        on_done: Callable[[ReferencePSJob, BaseException | None], None],
    ) -> ReferencePSJob:
        """Enter a job; ``on_done(job, None)`` runs at its completion time
        (at once, inside this call, for a zero-size job).  Returns the job."""
        if work < 0:
            raise SimulationError(f"job work must be >= 0, got {work!r}")
        self._advance()
        job = ReferencePSJob(
            work=float(work), arrival_time=self.env.now, tag=tag, on_done=on_done
        )
        if work <= _WORK_EPSILON:
            # Zero-size job: completes immediately without touching shares.
            job.remaining = 0.0
            job.completion_time = self.env.now
            self._completed_jobs += 1
            on_done(job, None)
            return job
        self._active.append(job)
        self._jobs_in_system.set(len(self._active))
        self._reschedule()
        return job

    def fail_all(self, exc: BaseException) -> int:
        """Abort every in-service job at once (a crashed server).

        Each job's ``on_done`` gets ``exc``; work already served
        stays counted (the bandwidth was genuinely consumed before the
        crash).  Returns the number of jobs aborted.
        """
        self._advance()
        failed = list(self._active)
        self._active.clear()
        self._jobs_in_system.set(0)
        for job in failed:
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
        """Charge work done since the last event to all active jobs."""
        now = self.env.now
        elapsed = now - self._last_update
        if elapsed < 0:  # pragma: no cover - clock is monotone
            raise SimulationError("processor-sharing clock went backwards")
        if elapsed == 0:
            return
        n = len(self._active)
        if n:
            per_job = elapsed * self.capacity / n
            for job in self._active:
                job.remaining -= per_job
                if job.remaining < 0:
                    # Float drift only: magnitude is bounded by scheduling
                    # precision, never a whole quantum.
                    job.remaining = 0.0
            self._total_work_served += elapsed * self.capacity
            self._busy_time += elapsed
        self._last_update = now

    def _reschedule(self) -> None:
        """(Re)arm the completion timer for the current job set.

        The timer remembers *which* jobs it was armed for.  When it fires
        (and is not stale) those jobs complete by construction — between
        events rates are constant, so the earliest finisher is exact.
        Completing the remembered set, rather than re-deriving it from the
        drifting ``remaining`` counters, avoids a float-precision livelock
        when ``now + delay`` rounds to ``now`` near large clock values.
        """
        self._epoch += 1
        active = self._active
        if not active:
            self._expected = []
            return
        n = len(active)
        if n == 1:
            # Single-job fast path (the common case at moderate load): the
            # tolerance scan below would select exactly this job anyway.
            min_remaining = active[0].remaining
            self._expected = [active[0]]
        else:
            min_remaining = min(job.remaining for job in active)
            tol = min_remaining * 1e-9 + _WORK_EPSILON
            self._expected = [j for j in active if j.remaining <= min_remaining + tol]
        delay = min_remaining * n / self.capacity
        epoch = self._epoch
        timer = self.env.timeout(delay if delay > 0.0 else 0.0)
        timer.callbacks.append(lambda _ev, e=epoch: self._on_timer(e))

    def _on_timer(self, epoch: int) -> None:
        if epoch != self._epoch:
            return  # a newer arrival/departure superseded this timer
        self._advance()
        finished = set(self._expected)
        finished.update(j for j in self._active if j.remaining <= _WORK_EPSILON)
        for job in self._active[:]:
            if job not in finished:
                continue
            self._active.remove(job)
            job.remaining = 0.0
            job.completion_time = self.env.now
            self._completed_jobs += 1
            job.on_done(job, None)
        self._jobs_in_system.set(len(self._active))
        self._reschedule()
