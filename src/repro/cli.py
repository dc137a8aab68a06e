"""Command-line interface: ``python -m repro <experiment-id> [options]``.

Examples
--------
List experiments::

    python -m repro --list

Regenerate Figure 2 (prints the series and an ASCII plot)::

    python -m repro fig2

Run everything quickly and save reports::

    python -m repro all --fast --output-dir reports/

Record a workload trace, then replay it under every prefetch policy::

    python -m repro record-trace --trace run.jsonl --trace-duration 120
    python -m repro trace-replay --trace run.jsonl

Run a declarative scenario file with the KPI scorecard::

    python -m repro run-scenario scenarios/flash_crowd.yaml --kpi
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments import all_experiments, get_experiment
from repro.sim.sweep import SweepExecutor

__all__ = ["main", "build_parser"]

#: default on-disk result-cache location for ``--sweep`` without a DIR
DEFAULT_SWEEP_CACHE = ".repro-sweep-cache"


def _cooperation_modes(raw: str) -> tuple[str, ...]:
    """Parse ``--cooperation`` ("none,owner-probe") into a mode tuple."""
    from repro.network.topology import COOPERATION_MODES

    modes = tuple(
        dict.fromkeys(part.strip() for part in raw.split(",") if part.strip())
    )
    if not modes or any(mode not in COOPERATION_MODES for mode in modes):
        raise argparse.ArgumentTypeError(
            f"--cooperation wants comma-separated modes from "
            f"{COOPERATION_MODES}, got {raw!r}"
        )
    return modes


def _proxy_counts(raw: str) -> tuple[int, ...]:
    """Parse ``--proxies`` ("1,2,8") into a tuple of positive ints."""
    try:
        counts = tuple(int(part) for part in raw.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--proxies wants comma-separated integers, got {raw!r}"
        ) from None
    if not counts or any(count < 1 for count in counts):
        raise argparse.ArgumentTypeError(
            f"--proxies wants positive proxy counts, got {raw!r}"
        )
    # dedupe, keeping order: repeated counts would collide as sweep keys
    return tuple(dict.fromkeys(counts))


def _fault_schedule(raw: str):
    """Parse ``--faults`` shorthand into a :class:`FaultSchedule`."""
    from repro.errors import ConfigurationError
    from repro.sim.faults import FaultSchedule

    try:
        return FaultSchedule.parse(raw)
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Effect of Speculative Prefetching on Network "
            "Load in Distributed Systems' (Tuah, Kumar, Venkatesh; IPDPS 2001)"
        ),
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help=(
            "experiment id (see --list), 'all', 'record-trace', or "
            "'run-scenario FILE'"
        ),
    )
    parser.add_argument(
        "scenario_file",
        nargs="?",
        type=Path,
        metavar="FILE",
        help=(
            "scenario document (.yaml/.json) for the 'run-scenario' "
            "command; see scenarios/ for the catalog"
        ),
    )
    parser.add_argument(
        "--kpi",
        action="store_true",
        help=(
            "attach the KPI scorecard (p50/p95/p99 access-time tails, "
            "byte-hit ratio, per-shard utilisation, peer share) to each "
            "scenario grid point (scenario experiment only)"
        ),
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "trace file (.csv/.jsonl): the output of 'record-trace', or the "
            "recorded stream the 'trace-replay' experiment replays instead "
            "of generating its own"
        ),
    )
    trace_opts = parser.add_argument_group(
        "record-trace options (with the 'record-trace' command)"
    )
    trace_opts.add_argument("--trace-duration", type=float, default=120.0,
                            metavar="T", help="recording horizon (default 120)")
    trace_opts.add_argument("--trace-seed", type=int, default=0, metavar="S",
                            help="workload seed (default 0)")
    trace_opts.add_argument("--trace-clients", type=int, default=4, metavar="N",
                            help="client count (default 4)")
    trace_opts.add_argument("--trace-rate", type=float, default=30.0,
                            metavar="LAMBDA",
                            help="aggregate request rate (default 30)")
    trace_opts.add_argument("--trace-catalog", type=int, default=500,
                            metavar="N", help="catalogue size (default 500)")
    trace_opts.add_argument("--trace-follow", type=float, default=0.7,
                            metavar="Q",
                            help="Markov follow probability (default 0.7)")
    parser.add_argument(
        "--proxies",
        type=_proxy_counts,
        default=None,
        metavar="N[,N...]",
        help=(
            "proxy counts for the 'sharding' experiment's sweep, e.g. "
            "'1,2,8' (topology-aware experiments only)"
        ),
    )
    parser.add_argument(
        "--cooperation",
        type=_cooperation_modes,
        default=None,
        metavar="MODE[,MODE...]",
        help=(
            "cooperation modes for the 'cooperative-caching' experiment's "
            "sweep: none, owner-probe, broadcast (comma list to compare "
            "several; cooperation-aware experiments only)"
        ),
    )
    parser.add_argument(
        "--faults",
        type=_fault_schedule,
        default=None,
        metavar="SCHEDULE",
        help=(
            "fault schedule for fault-aware experiments (e.g. "
            "'failure-recovery'): comma-separated 'kind@time:node' events "
            "(kinds: proxy-fail, proxy-recover, ring-grow, ring-shrink) "
            "plus an optional 'migration=cold|cooperative', e.g. "
            "'proxy-fail@60:1,proxy-recover@90:1,migration=cooperative'"
        ),
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--fast",
        action="store_true",
        help="shrink simulation durations/replications (CI-friendly)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help=(
            "run independent simulation replications across N worker "
            "processes (0 = one per CPU core; default 1 = serial; results "
            "are bit-identical to serial for the same seeds)"
        ),
    )
    parser.add_argument(
        "--node-backend",
        choices=["serial", "parallel"],
        default=None,
        metavar="BACKEND",
        help=(
            "how each simulation's proxy tier executes: 'serial' (one "
            "event loop, default) or 'parallel' (one event loop per proxy "
            "in worker processes, for tiers whose proxies share nothing; "
            "bit-identical to serial — tiers with coupled proxies fall "
            "back to the serial loop with a warning).  Composes with "
            "--jobs; the oversubscription guard caps node_workers x jobs "
            "at the core count"
        ),
    )
    parser.add_argument(
        "--node-workers",
        type=int,
        default=None,
        metavar="N",
        help=(
            "worker processes per parallel-backend simulation (default: "
            "one per shard group up to the core count); implies "
            "--node-backend parallel; purely an execution knob — results "
            "are identical for every value"
        ),
    )
    parser.add_argument(
        "--sweep",
        nargs="?",
        const=DEFAULT_SWEEP_CACHE,
        default=None,
        metavar="DIR",
        help=(
            "route every experiment's parameter grid through the sweep "
            "engine with an on-disk result cache at DIR (default "
            f"{DEFAULT_SWEEP_CACHE!r}); re-runs of unchanged operating "
            "points skip simulation entirely, and --jobs sizes the one "
            "pool shared by the whole grid"
        ),
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="repro-profile.pstats",
        default=None,
        metavar="FILE",
        help=(
            "profile the experiment run under cProfile: print the top "
            "functions by cumulative time and dump full pstats data to "
            "FILE (default 'repro-profile.pstats'; inspect with "
            "'python -m pstats FILE' or snakeviz).  cProfile covers the "
            "PARENT process only: with --jobs/--node-workers > 1 the "
            "simulation work happens in worker processes the profile "
            "cannot see (the stats are labelled accordingly) — rerun "
            "with --jobs 1 and the serial node backend for full coverage"
        ),
    )
    parser.add_argument(
        "--no-plots", action="store_true", help="suppress ASCII plots"
    )
    parser.add_argument(
        "--csv-dir",
        type=Path,
        default=None,
        help="also dump each sweep as CSV into this directory",
    )
    parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="write each report to <dir>/<id>.txt instead of stdout only",
    )
    return parser


def _record_trace(args: argparse.Namespace) -> int:
    """``record-trace``: realise a workload spec as a trace file."""
    from repro.workload.sessions import WorkloadSpec, generate_trace
    from repro.workload.trace import save_trace

    if args.trace is None:
        print("record-trace needs --trace PATH (.csv or .jsonl)",
              file=sys.stderr)
        return 2
    spec = WorkloadSpec(
        num_clients=args.trace_clients,
        request_rate=args.trace_rate,
        catalog_size=args.trace_catalog,
        follow_probability=args.trace_follow,
    )
    records = generate_trace(
        spec, duration=args.trace_duration, seed=args.trace_seed
    )
    count = save_trace(records, args.trace)
    print(
        f"recorded {count} requests over {args.trace_duration}s "
        f"({args.trace_clients} client(s), seed {args.trace_seed}) "
        f"-> {args.trace}"
    )
    return 0


def _run_one(
    experiment_id: str, args: argparse.Namespace, engine: SweepExecutor
) -> str:
    experiment = get_experiment(experiment_id)
    if args.trace is not None and hasattr(experiment, "trace_path"):
        experiment.trace_path = args.trace
    if args.proxies is not None and hasattr(experiment, "proxy_counts"):
        experiment.proxy_counts = args.proxies
    if args.cooperation is not None and hasattr(experiment, "cooperation_modes"):
        experiment.cooperation_modes = args.cooperation
    if args.faults is not None and hasattr(experiment, "fault_schedule"):
        experiment.fault_schedule = args.faults
    if args.scenario_file is not None and hasattr(experiment, "scenario_path"):
        experiment.scenario_path = args.scenario_file
    if args.kpi and hasattr(experiment, "show_kpis"):
        experiment.show_kpis = True
    result = experiment.run(fast=args.fast, engine=engine)
    report = result.render(plots=not args.no_plots)
    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)
        for i, sweep in enumerate(result.sweeps):
            safe = sweep.title.replace(" ", "_").replace("/", "-")[:60]
            sweep.to_csv(args.csv_dir / f"{experiment_id}_{i}_{safe}.csv")
    if args.output_dir is not None:
        args.output_dir.mkdir(parents=True, exist_ok=True)
        (args.output_dir / f"{experiment_id}.txt").write_text(
            report + "\n", encoding="utf-8"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.node_workers is not None and args.node_workers < 1:
        parser.error(f"--node-workers must be >= 1, got {args.node_workers}")
    registry = all_experiments()
    if args.experiment == "record-trace":
        return _record_trace(args)
    if args.experiment == "run-scenario":
        # Validate the file up front so authoring mistakes surface as one
        # path-qualified line, not a mid-run stack trace, then dispatch to
        # the registered 'scenario' experiment.
        from repro.scenario import ScenarioError, load_scenario

        if args.scenario_file is None:
            print(
                "run-scenario needs a scenario file: "
                "run-scenario FILE [--kpi] (see scenarios/)",
                file=sys.stderr,
            )
            return 2
        try:
            load_scenario(args.scenario_file)
        except ScenarioError as exc:
            print(f"invalid scenario: {exc}", file=sys.stderr)
            return 2
        args.experiment = "scenario"
    if args.list or not args.experiment:
        print("available experiments:")
        for key in sorted(registry):
            exp = registry[key]()
            print(f"  {key:18s} {exp.paper_artifact:45s} {exp.description}")
        return 0
    targets = sorted(registry) if args.experiment == "all" else [args.experiment]

    def warn_if_unconsumed(value, attr: str, flag: str, example: str) -> None:
        """Flags are consumed by experiments exposing a class attribute
        (no need to instantiate); warn when no selected target does."""
        if value is None:
            return
        known = [t for t in targets if t in registry]
        if known and not any(hasattr(registry[t], attr) for t in known):
            print(
                f"warning: {flag} is only consumed by experiments with "
                f"{attr} (e.g. {example}); {args.experiment!r} ignores it",
                file=sys.stderr,
            )

    warn_if_unconsumed(
        args.cooperation, "cooperation_modes", "--cooperation",
        "cooperative-caching",
    )
    warn_if_unconsumed(args.proxies, "proxy_counts", "--proxies", "sharding")
    warn_if_unconsumed(args.trace, "trace_path", "--trace", "trace-replay")
    warn_if_unconsumed(
        args.faults, "fault_schedule", "--faults", "failure-recovery"
    )
    # One engine runs every grid of every target: --jobs sizes its pool,
    # --sweep attaches the on-disk result cache, and --node-backend /
    # --node-workers set the node backend of the simulations it runs (a
    # bare --node-workers implies the parallel backend).
    node_backend = args.node_backend
    if node_backend is None:
        node_backend = "serial" if args.node_workers is None else "parallel"
    engine = SweepExecutor(
        args.jobs,
        cache_dir=None if args.sweep is None else Path(args.sweep),
        node_backend=node_backend,
        node_workers=args.node_workers,
    )
    if args.profile is not None:
        # Profile exactly the experiment execution (not argument parsing),
        # which is where all simulation time goes.
        import cProfile
        import pstats

        # cProfile instruments the parent process only.  Under --jobs /
        # --node-workers the simulation work happens in child processes
        # it cannot see, so say so up front and label the stats — a
        # near-empty profile silently attributed to "the run" sends the
        # reader chasing phantom overhead.
        worker_flags = []
        if engine.jobs > 1:
            worker_flags.append(f"--jobs {args.jobs}")
        if node_backend == "parallel":
            worker_flags.append("--node-backend parallel")
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            for target in targets:
                print(_run_one(target, args, engine))
        finally:
            profiler.disable()
            profiler.dump_stats(args.profile)
            if worker_flags:
                print(
                    f"note: profile covers the PARENT process only — "
                    f"{', '.join(worker_flags)} moves simulation work "
                    f"into worker processes cProfile cannot see (rerun "
                    f"with --jobs 1 and the serial node backend for "
                    f"full coverage)",
                    file=sys.stderr,
                )
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative").print_stats(15)
            scope = "parent process only" if worker_flags else "full run"
            print(
                f"profile data ({scope}) written to {args.profile}",
                file=sys.stderr,
            )
    else:
        for target in targets:
            print(_run_one(target, args, engine))
    if args.sweep is not None:
        print(
            f"sweep cache {args.sweep}: {engine.cache_hit_count} point(s) served "
            f"from cache, {engine.cache_miss_count} simulated"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
