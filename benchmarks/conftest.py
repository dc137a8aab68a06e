"""Benchmark harness helpers.

Each bench regenerates one paper artefact (figure or claim table), times it
with pytest-benchmark, and prints the rows/series the paper reports so the
run log doubles as the reproduction record (EXPERIMENTS.md is built from
these outputs).

A ``--benchmark-only`` run also writes ``BENCH_<NAME>.json`` (one per
bench module) into the repo root — the same files CI uploads as
artifacts — so the in-repo perf trajectory updates from local benchmark
runs too.  A plain test run (the tier-1 suite, which also executes the
benches once) writes nothing, so it leaves the checkout clean.

Run:  pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from repro.experiments import get_experiment

#: where the ``BENCH_<NAME>.json`` records go (the repository root)
RECORD_DIR = Path(__file__).resolve().parent.parent


def run_and_report(benchmark, experiment_id: str, *, fast: bool = True, plots: bool = True):
    """Time one experiment (single round — these are simulations, not
    microbenchmarks) and print its full report."""
    experiment = get_experiment(experiment_id)
    result = benchmark.pedantic(
        lambda: experiment.run(fast=fast), rounds=1, iterations=1, warmup_rounds=0
    )
    print()
    print(result.render(plots=plots))
    return result


def pytest_sessionfinish(session, exitstatus):
    """Persist per-module benchmark stats as BENCH_<NAME>.json in-repo.

    ``--benchmark-json`` only writes where CI points it; this hook writes
    the same trajectory locally on every ``--benchmark-only`` run (and
    never fails the session — an unwritable checkout just skips the
    record).  Other runs write nothing.
    """
    if not session.config.getoption("benchmark_only", default=False):
        return
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    by_module: dict[str, list] = {}
    for bench in bench_session.benchmarks:
        stem = Path(bench.fullname.split("::")[0]).stem
        label = stem.removeprefix("test_bench_").upper()
        try:
            row = bench.as_dict(include_data=False)
        except Exception:
            continue
        by_module.setdefault(label, []).append(row)
    for label, rows in sorted(by_module.items()):
        payload = {
            "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "benchmarks": rows,
        }
        try:
            (RECORD_DIR / f"BENCH_{label}.json").write_text(
                json.dumps(payload, indent=2, default=str) + "\n",
                encoding="utf-8",
            )
        except OSError:
            pass
