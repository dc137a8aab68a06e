"""Reference arrival law: the scalar chain the simulation drew from before.

This is ``phased_next_arrival`` as ``repro.workload.phases`` shipped it
before :func:`~repro.workload.phases.arrival_times` replaced it, kept
here as the oracle of the differential tests.  It is the direct form of
a piecewise-Poisson process: before every draw it locates the phase
covering ``t``, draws one scalar gap from that phase's
``PoissonArrivals``, and on a draw that crosses the phase's end drops it
and restarts at the boundary.  Nothing under ``src/`` imports it.
"""

from __future__ import annotations

from repro.workload.arrivals import PoissonArrivals
from repro.workload.phases import PhaseSchedule

__all__ = ["phased_next_arrival", "reference_arrivals"]


def phased_next_arrival(
    t: float, schedule: PhaseSchedule, phase_arrivals, rng
) -> tuple[float, int]:
    """Next arrival after ``t``: ``(arrival time, phase index)``."""
    while True:
        idx, end = schedule.locate(t)
        t2 = t + phase_arrivals[idx].next_gap(rng)
        if t2 > end:
            t = end
            continue
        return t2, idx


def reference_arrivals(
    schedule: PhaseSchedule, rate: float, rng, *, horizon: float
) -> list[tuple[float, int]]:
    """Every arrival ``<= horizon`` of the chain, from ``t = 0``."""
    phase_arrivals = tuple(PoissonArrivals(rate * m) for m in schedule.multipliers)
    out = []
    t = 0.0
    while True:
        t, idx = phased_next_arrival(t, schedule, phase_arrivals, rng)
        if t > horizon:
            return out
        out.append((t, idx))
