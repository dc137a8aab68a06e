"""Run the end-to-end benchmark of the prefetching simulator.

Usage, from the repository root::

    python3 perfbench/run.py [--seed N] [--rounds R] [--out FILE]
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs ``R`` untraced rounds (default
5) and one traced round.  With ``--workload`` one workload runs for about
``--seconds`` of wall time (or ``R`` rounds without ``--seconds``):
``--trace 0`` reports the end-to-end metrics of untraced rounds,
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones.

Each round runs in its own process, forked one at a time from this one
after every module is imported: imports stay out of the timings, memo
caches start cold in every round, and a round's peak RSS is its own.
Rounds are checked by :mod:`perfbench.checks`; a round that raises or
fails a check counts as failed and its timings are dropped.

Every metric is printed with its unit, median, quartiles and sample
count.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (medians).
``--out FILE`` also writes every sample, for ``perfbench/compare.py``,
and the traced rounds' spans to ``FILE`` with suffix ``.trace.json``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"perfbench: no simulator sources under {ROOT / 'src'}")
    # Rounds are forked from this process; keep the numeric library from
    # starting helper threads before the fork (the simulator does no
    # linear algebra, so this costs it nothing).
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    # Replace the script directory so perfbench/trace.py cannot shadow the
    # standard library's trace module.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import yaml  # noqa: E402,F401  (imported before timing; scenarios load it lazily)

from perfbench import checks, trace  # noqa: E402
from perfbench.workloads import WORKLOADS, Setups  # noqa: E402
from repro.sim.simulation import Simulation  # noqa: E402

BENCHMARK_FILE = ROOT / "BENCHMARK.json"

#: a round still running after this long is killed and counts as failed
ROUND_TIMEOUT_S = 150

#: fewest untraced rounds a time-budgeted run takes, whatever the budget
MIN_ROUNDS = 3


def _maxrss_kb(who: int = resource.RUSAGE_SELF) -> int:
    return resource.getrusage(who).ru_maxrss


def measure_round(
    workload: Setups,
    seed: int,
    *,
    quick: bool = False,
    traced: bool = False,
    clock=time.perf_counter,
    delays: dict[str, float] | None = None,
) -> dict:
    """Run one round in this process and return its JSON-safe record.

    ``wall_s`` covers set-up, the event loop and output assembly of every
    simulation of the round; ``setup_s`` covers scenario compile plus
    ``Simulation(...)`` construction.  ``clock`` and ``delays`` exist for
    the harness test (a deterministic clock, an injected slowdown).
    """
    tracer = calibration = None
    if traced:
        calibration = trace.calibrate(clock)
        tracer = trace.Tracer(clock, delays=delays)
    setups = workload(seed, quick)
    runs = []
    setup_s = 0.0
    build_rss_kb = 0
    with trace.instrument(tracer) if tracer else nullcontext():
        if tracer:
            setups = [tracer.wrap(s, trace.COMPILE_SPAN, keep=True) for s in setups]
        start = clock()
        for make_config in setups:
            t0 = clock()
            config = make_config()
            rss_before = _maxrss_kb()
            sim = Simulation(config)
            setup_s += clock() - t0
            build_rss_kb += _maxrss_kb() - rss_before
            runs.append((sim, sim.run()))
        wall_s = clock() - start
    requests = sum(c.requests for _, out in runs for c in out.controller_stats)
    record = {
        "traced": traced,
        "wall_s": wall_s,
        "setup_s": setup_s,
        "sim_requests_per_s": requests / wall_s,
        "peak_rss_mb": (_maxrss_kb() + _maxrss_kb(resource.RUSAGE_CHILDREN)) / 1024.0,
        "fingerprints": [checks.fingerprint(out) for _, out in runs],
        "errors": checks.check_round(runs),
    }
    if tracer:
        record["layers"] = trace.layer_metrics(
            tracer, calibration, wall_s, runs, build_rss_kb=build_rss_kb
        )
        record["trace"] = tracer.dump(calibration)
    return record


def _in_child(fn, *args, **kwargs) -> dict:
    """Run ``fn`` in a forked child; return its record (or a failure)."""
    sys.stdout.flush()
    sys.stderr.flush()
    # Every round starts from the same collector state, whatever this
    # process allocated since the last one.
    gc.collect()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            # Own process group, so the parent can stop any worker
            # processes the round started along with it.
            os.setpgid(0, 0)
            os.close(read_fd)
            signal.alarm(ROUND_TIMEOUT_S)
            try:
                record = fn(*args, **kwargs)
            except Exception:
                record = {"errors": ["round raised: " + traceback.format_exc(limit=4)]}
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(record).encode())
        finally:
            os._exit(0)
    try:
        os.setpgid(pid, pid)  # also from this side: no window without a group
    except OSError:
        pass  # the child got there first (or already exited)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            data = pipe.read()
    finally:
        # Nothing the round started may outlive it (a timed-out round
        # leaves its workers behind; an interrupt leaves the round itself).
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _, status = os.waitpid(pid, 0)
    try:
        return json.loads(data)
    except ValueError:
        return {"errors": [f"round process ended without a result (wait status {status})"]}


def run_workload(
    workload: Setups,
    seed: int,
    *,
    rounds: int,
    traced_rounds: int,
    seconds: float | None = None,
) -> list[dict]:
    """Run a workload's rounds one at a time, each in a fresh process.

    Without ``seconds``: ``rounds`` untraced then ``traced_rounds`` traced
    rounds.  With ``seconds``: untraced rounds (alternating with traced
    ones when ``traced_rounds`` > 0) until the next round would end past
    the budget, but at least :data:`MIN_ROUNDS` untraced rounds, or one of
    each kind when tracing.
    """
    def one_round(traced: bool) -> dict:
        record = _in_child(measure_round, workload, seed, traced=traced)
        record.setdefault("traced", traced)
        return record

    if seconds is None:
        kinds = [False] * rounds + [True] * traced_rounds
        return [one_round(traced) for traced in kinds]
    records, took = [], []
    start = time.monotonic()
    while True:
        enough = len(records) >= (2 if traced_rounds else MIN_ROUNDS)
        if enough and time.monotonic() - start + max(took) > seconds:
            break
        t0 = time.monotonic()
        records.append(one_round(traced_rounds > 0 and len(records) % 2 == 1))
        took.append(time.monotonic() - t0)
    return records


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def metric_specs() -> dict[str, dict]:
    """Units and directions of every metric, from ``BENCHMARK.json``."""
    spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    return {
        "end_to_end": {m["name"]: m for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m for m in spec["per_layer"]},
    }


def summarize(name: str, records: list[dict], specs: dict, seed: int) -> dict:
    """Samples, medians and quartiles of one workload's rounds.

    A round whose output fingerprints differ from the first round's
    counts as failed: every round of one invocation simulates the same
    inputs.
    """
    prints = [r["fingerprints"] for r in records if "fingerprints" in r]
    for r in records:
        if "fingerprints" in r and r["fingerprints"] != prints[0]:
            r["errors"].append("output fingerprint differs from the first round's")
    good = [r for r in records if not r["errors"]]
    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    samples: dict[str, list[float]] = {
        metric: [r[metric] for r in plain] for metric in specs["end_to_end"]
    }
    for metric in specs["per_layer"]:
        samples[metric] = [r["layers"][metric] for r in traced if metric in r["layers"]]
    if plain and traced:
        untraced_wall = statistics.median(r["wall_s"] for r in plain)
        samples["trace.overhead_s"] = [
            r["layers"]["trace.wall_s"] - untraced_wall for r in traced
        ]
    units = {**specs["end_to_end"], **specs["per_layer"]}
    metrics = {}
    for metric, values in samples.items():
        if not values:
            continue
        q1, median, q3 = _quartiles(values)
        metrics[metric] = {
            "unit": units[metric]["unit"],
            "better": units[metric]["better"],
            "samples": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "n": len(values),
        }
    pinned = checks.reference().get(name) if seed == checks.REFERENCE_SEED else None
    return {
        "attempted": len(records),
        "failed": len(records) - len(good),
        "errors": sorted({e for r in records for e in r["errors"]}),
        "fingerprints": prints[0] if prints else [],
        "fingerprint_changed": bool(pinned and prints and prints[0] != pinned),
        "metrics": metrics,
        "trace": next((r["trace"] for r in traced), None),
    }


def print_summary(name: str, summary: dict) -> None:
    failed, attempted = summary["failed"], summary["attempted"]
    print(f"\n{name}: {attempted} rounds, {failed} failed "
          f"(failed_share {failed / attempted:.3f})")
    for error in summary["errors"]:
        print(f"  check failed: {error}")
    if summary["fingerprint_changed"]:
        print("  fingerprint_changed: output differs from the pinned seed-7 reference")
    print(f"  {'metric':<28} {'unit':<10} {'median':>14} {'q1':>14} {'q3':>14} {'n':>3}")
    for metric, m in summary["metrics"].items():
        print(
            f"  {metric:<28} {m['unit']:<10} {m['median']:>14.6g} "
            f"{m['q1']:>14.6g} {m['q3']:>14.6g} {m['n']:>3}"
        )
    layers = summary["metrics"]
    if "trace.attributed_s" in layers and "wall_s" in layers:
        attributed = layers["trace.attributed_s"]["median"]
        wall = layers["wall_s"]["median"]
        traced_wall = layers["trace.wall_s"]["median"]
        print(
            f"  layer self times sum to {attributed:.4g} s: "
            f"{attributed / wall:.1%} of the untraced wall {wall:.4g} s, "
            f"{attributed / traced_wall:.1%} of the traced wall {traced_wall:.4g} s"
        )


def host() -> dict:
    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "system": platform.system(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload")
    parser.add_argument("--seed", type=int, default=7, help="input seed (default 7)")
    parser.add_argument(
        "--rounds", type=int, default=5, help="untraced rounds when --seconds is not given"
    )
    parser.add_argument("--seconds", type=float, help="wall-time budget per workload")
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), help="with --workload: 1 reports per-layer metrics"
    )
    parser.add_argument("--out", type=Path, help="write every sample to this JSON file")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    specs = metric_specs()
    names = [args.workload] if args.workload else list(WORKLOADS)
    # One workload: --trace picks the metric set.  All workloads: both.
    traced_rounds = 1 if args.workload is None or args.trace == 1 else 0
    summaries = {}
    for name in names:
        records = run_workload(
            WORKLOADS[name],
            args.seed,
            rounds=args.rounds,
            traced_rounds=traced_rounds,
            seconds=args.seconds,
        )
        summaries[name] = summarize(name, records, specs, args.seed)
        print_summary(name, summaries[name])
    if args.out is not None:
        document = {
            "seed": args.seed,
            "host": host(),
            "workloads": {
                name: {k: v for k, v in s.items() if k != "trace"}
                for name, s in summaries.items()
            },
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
        spans = {name: s["trace"] for name, s in summaries.items() if s["trace"]}
        trace_path = args.out.with_suffix(".trace.json")
        trace_path.write_text(json.dumps(spans) + "\n", encoding="utf-8")
    if args.workload is None:
        reported = {
            f"{name}/{metric}": m
            for name, s in summaries.items()
            for metric, m in s["metrics"].items()
        }
    else:
        wanted = specs["per_layer" if args.trace == 1 else "end_to_end"]
        reported = {
            metric: m
            for metric, m in summaries[args.workload]["metrics"].items()
            if metric in wanted
        }
    attempted = sum(s["attempted"] for s in summaries.values())
    failed = sum(s["failed"] for s in summaries.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": m["median"], "unit": m["unit"]}
            for metric, m in reported.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
