"""Discrete-event simulation kernel (SimPy-style, dependency-free).

Built because the planned SimPy substrate is unavailable offline; the API
mirrors SimPy's process-interaction model so the simulation code reads like
standard SimPy, plus an exact event-driven
:class:`~repro.des.processor_sharing.ProcessorSharingServer` which SimPy
itself lacks and the paper's M/G/1 round-robin model requires.  Besides
processes the kernel runs *tasks* (:meth:`Environment.start`): generators
that schedule no event of their own, which is how the request path runs.
"""

from repro.des.environment import NORMAL, URGENT, Environment
from repro.des.events import Event, Process, Timeout
from repro.des.monitors import Tally, TimeSeries, TimeWeightedValue
from repro.des.processor_sharing import ProcessorSharingServer, PSJob
from repro.des.rng import RandomStreams

__all__ = [
    "Environment",
    "Event",
    "NORMAL",
    "PSJob",
    "Process",
    "ProcessorSharingServer",
    "RandomStreams",
    "Tally",
    "TimeSeries",
    "TimeWeightedValue",
    "URGENT",
]
