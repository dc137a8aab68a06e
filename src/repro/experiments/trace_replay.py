"""`trace-replay` — one recorded request stream, every prefetch policy.

The synthetic comparison path (``policy-ablation``) runs each policy on
common random *numbers*, which pairs the replications but still lets each
policy realise its own request stream.  This experiment removes even that
freedom: a workload trace is recorded **once** (heterogeneous per-client
mix: a hot predictable client, a baseline pair, and a cold scattered
client), then replayed through the full DES under every policy — the
byte-identical request sequence, timestamps and all, the fixed-workload
methodology of the cache-eviction literature (CONF-KV in PAPERS.md).

Differences between rows are therefore attributable *only* to the policy:
cache state, prefetch traffic and link contention still evolve live, but
what the users ask for, and when, is frozen.

A pre-recorded trace can be substituted via the CLI: ``python -m repro
trace-replay --trace PATH`` (record one with ``python -m repro
record-trace --trace PATH``).  Trace-driven points are cached by the sweep
engine under the trace file's content digest, so warm ``--sweep`` re-runs
are free until the trace bytes change.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import replace
from pathlib import Path

from repro.errors import ConfigurationError
from repro.experiments.base import Experiment, ExperimentResult, register
from repro.sim.config import SimulationConfig
from repro.sim.sweep import SweepExecutor, SweepPoint
from repro.workload.sessions import WorkloadSpec, generate_trace
from repro.workload.trace import load_trace, save_trace

__all__ = ["TraceReplayExperiment"]

#: policy grid replayed against the recorded stream
POLICIES = {
    "none": {"policy": "none"},
    "threshold-dynamic": {"policy": "threshold-dynamic"},
    "fixed p0=0.5": {"policy": "fixed-threshold", "policy_params": {"p0": 0.5}},
    "top-2": {"policy": "top-k", "policy_params": {"k": 2}},
    "all": {"policy": "all"},
}


@register
class TraceReplayExperiment(Experiment):
    experiment_id = "trace-replay"
    paper_artifact = "Workload-diversity methodology (fixed recorded streams)"
    description = "Replay one recorded trace under every prefetch policy"

    #: optional pre-recorded trace (set by the CLI's ``--trace`` flag);
    #: ``None`` records a fresh trace from :meth:`workload`.
    trace_path: str | Path | None = None

    def workload(self) -> WorkloadSpec:
        """Heterogeneous recording population: hot, baseline and cold mix."""
        return WorkloadSpec(
            num_clients=4,
            request_rate=24.0,
            catalog_size=300,
            zipf_exponent=0.9,
            follow_probability=0.6,
            client_overrides={
                # a hot, highly predictable client ...
                0: {"request_rate": 12.0, "follow_probability": 0.9},
                # ... and a cold, scattered one
                3: {"request_rate": 2.0, "follow_probability": 0.1,
                    "zipf_exponent": 0.5},
            },
        )

    def _record_or_load(self, *, fast: bool):
        """``(path, records)`` of the trace to replay (one parse total)."""
        if self.trace_path is not None:
            path = Path(self.trace_path)
            return path, load_trace(path)
        duration = 60.0 if fast else 240.0
        seed = 11
        # Deterministic content -> stable digest -> the sweep cache stays
        # warm across runs even though the file lives in a temp dir.  The
        # name is per-user (shared /tmp) and the write goes through an
        # atomic rename so a concurrent run never reads a partial file.
        uid = os.getuid() if hasattr(os, "getuid") else "na"
        path = Path(tempfile.gettempdir()) / (
            f"repro_trace_replay_u{uid}_s{seed}_d{int(duration)}.jsonl"
        )
        records = generate_trace(self.workload(), duration=duration, seed=seed)
        scratch = path.with_name(f".{path.stem}.{os.getpid()}.jsonl")
        save_trace(records, scratch)
        os.replace(scratch, path)
        return path, records

    def _execute(self, *, fast: bool, engine: SweepExecutor) -> ExperimentResult:
        result = ExperimentResult(
            experiment_id=self.experiment_id,
            title="Trace replay: identical request sequence under every policy",
        )
        path, records = self._record_or_load(fast=fast)
        if not records:
            raise ConfigurationError(f"trace {path} is empty")
        end = records[-1].time
        base = SimulationConfig(
            workload=self.workload(),
            trace_path=str(path),
            bandwidth=40.0,
            cache_policy="lru",
            cache_capacity=40,
            predictor="markov",
            policy="none",
            duration=end + 10.0,  # drain margin past the last arrival
            warmup=min(20.0, 0.2 * end),
            seed=3,
        )
        # Replays are deterministic given the trace (every stochastic input
        # is frozen in the file), so one replication per policy suffices.
        outcomes = engine.run(
            [
                SweepPoint(key=name, config=replace(base, **overrides),
                           replications=1)
                for name, overrides in POLICIES.items()
            ]
        )
        rows = []
        arrival_counts = set()
        for name in POLICIES:
            rr = outcomes[name]
            output = outcomes.raw[name][0]
            # Count requests at *arrival* (controller-side): completion
            # counts could differ by stragglers still in flight at the
            # horizon, arrivals are fixed by the trace.
            arrival_counts.add(sum(s.requests for s in output.controller_stats))
            rows.append(
                [
                    name,
                    rr.mean("mean_access_time"),
                    rr.mean("hit_ratio"),
                    rr.mean("utilization"),
                    rr.mean("prefetches_per_request"),
                    rr.mean("prefetch_traffic_share"),
                ]
            )
        result.tables.append(
            (
                "policy comparison on one recorded trace",
                ["policy", "t_bar", "hit ratio", "rho", "n(F)", "prefetch traffic"],
                rows,
            )
        )
        result.notes.append(
            f"trace: {len(records)} requests over {end:.1f}s from {path}"
        )
        result.notes.append(
            "all policies observed the identical request sequence "
            f"(arrival counts {sorted(arrival_counts)}): the workload is "
            "byte-identical across rows, so differences are attributable "
            "to the policy alone"
        )
        t_by_name = {row[0]: row[1] for row in rows}
        result.notes.append(
            "improvement of threshold-dynamic over no-prefetch on this trace: "
            f"G = {t_by_name['none'] - t_by_name['threshold-dynamic']:.6f}"
        )
        return result
