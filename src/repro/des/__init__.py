"""Discrete-event simulation kernel (SimPy-style, dependency-free).

Built because the planned SimPy substrate is unavailable offline.  Events
and timeouts read like SimPy's, but the kernel runs only what the paper's
system needs: callbacks scheduled at a time (:meth:`Environment.call_at`,
:meth:`Environment.call_soon`) and generators started as processes
(:meth:`Environment.start`) that schedule no event of their own.  It adds
an exact event-driven
:class:`~repro.des.processor_sharing.ProcessorSharingServer`, which SimPy
itself lacks and the paper's M/G/1 round-robin model requires.
"""

from repro.des.environment import NORMAL, URGENT, Environment
from repro.des.events import Event, Process, Timeout
from repro.des.monitors import Tally, TimeWeightedValue
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
    "TimeWeightedValue",
    "URGENT",
]
