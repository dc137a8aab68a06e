"""Workload substrate: catalogues, arrivals, sizes, sources, traces."""

from repro.workload.arrivals import ArrivalProcess, PoissonArrivals
from repro.workload.ingest import IngestedTrace, ingest_common_log, ingest_csv
from repro.workload.markov_source import MarkovChainSource
from repro.workload.replay import TraceReplaySource, trace_digest
from repro.workload.sessions import (
    CLIENT_OVERRIDE_FIELDS,
    WorkloadSpec,
    generate_trace,
)
from repro.workload.sizes import (
    ExponentialSize,
    FixedSize,
    LognormalSize,
    ParetoSize,
    SizeDistribution,
)
from repro.workload.trace import TraceRecord, iter_trace, load_trace, save_trace
from repro.workload.zipf import ZipfCatalog

__all__ = [
    "ArrivalProcess",
    "CLIENT_OVERRIDE_FIELDS",
    "ExponentialSize",
    "FixedSize",
    "IngestedTrace",
    "LognormalSize",
    "MarkovChainSource",
    "ParetoSize",
    "PoissonArrivals",
    "SizeDistribution",
    "TraceRecord",
    "TraceReplaySource",
    "WorkloadSpec",
    "ZipfCatalog",
    "generate_trace",
    "ingest_common_log",
    "ingest_csv",
    "iter_trace",
    "load_trace",
    "save_trace",
    "trace_digest",
]
