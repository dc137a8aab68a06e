"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out and "policy-ablation" in out

    def test_no_args_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_run_fig1_with_csv_and_report(self, tmp_path, capsys):
        rc = main(
            [
                "fig1",
                "--fast",
                "--no-plots",
                "--csv-dir",
                str(tmp_path / "csv"),
                "--output-dir",
                str(tmp_path / "reports"),
            ]
        )
        assert rc == 0
        assert "p_th" in capsys.readouterr().out
        assert (tmp_path / "reports" / "fig1.txt").exists()
        csvs = list((tmp_path / "csv").glob("fig1_*.csv"))
        assert len(csvs) == 2  # one per panel

    def test_unknown_experiment_raises(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            main(["fig99"])

    def test_parser_flags(self):
        parser = build_parser()
        args = parser.parse_args(["fig2", "--fast", "--no-plots"])
        assert args.experiment == "fig2" and args.fast and args.no_plots

    def test_proxies_flag_parses_and_dedupes(self):
        parser = build_parser()
        assert parser.parse_args(["sharding", "--proxies", "1,2,8"]).proxies == (1, 2, 8)
        # repeated counts would collide as sweep keys: dedupe, keep order
        assert parser.parse_args(["sharding", "--proxies", "2,1,2"]).proxies == (2, 1)
        for bad in ("0,2", "a,b", ""):
            with pytest.raises(SystemExit):
                parser.parse_args(["sharding", "--proxies", bad])

    def test_cooperation_flag_parses_and_dedupes(self):
        parser = build_parser()
        args = parser.parse_args(
            ["cooperative-caching", "--cooperation", "none,owner-probe"]
        )
        assert args.cooperation == ("none", "owner-probe")
        args = parser.parse_args(
            ["cooperative-caching", "--cooperation", "broadcast,broadcast"]
        )
        assert args.cooperation == ("broadcast",)
        for bad in ("telepathy", "", "owner-probe,nope"):
            with pytest.raises(SystemExit):
                parser.parse_args(
                    ["cooperative-caching", "--cooperation", bad]
                )

    def test_cooperation_flag_warns_on_unaware_experiment(self, capsys):
        main(["fig1", "--cooperation", "owner-probe", "--no-plots"])
        assert "--cooperation is only consumed" in capsys.readouterr().err

    def test_sweep_flag_default_dir(self):
        from repro.cli import DEFAULT_SWEEP_CACHE

        parser = build_parser()
        assert parser.parse_args(["fig1"]).sweep is None
        assert parser.parse_args(["fig1", "--sweep"]).sweep == DEFAULT_SWEEP_CACHE
        assert parser.parse_args(["fig1", "--sweep", "d"]).sweep == "d"

    def test_record_trace_roundtrip(self, tmp_path, capsys):
        from repro.workload import load_trace

        out = tmp_path / "rec.jsonl"
        rc = main([
            "record-trace", "--trace", str(out),
            "--trace-duration", "10", "--trace-clients", "2",
            "--trace-rate", "8", "--trace-seed", "3",
        ])
        assert rc == 0
        assert "recorded" in capsys.readouterr().out
        records = load_trace(out)
        assert records and records[-1].time <= 10.0
        assert {r.client for r in records} <= {0, 1}

    def test_record_trace_requires_output_path(self, capsys):
        assert main(["record-trace"]) == 2

    def test_trace_flag_warns_when_ignored(self, tmp_path, capsys):
        out = tmp_path / "rec.jsonl"
        assert main(["record-trace", "--trace", str(out),
                     "--trace-duration", "5", "--trace-rate", "5"]) == 0
        capsys.readouterr()
        assert main(["fig1", "--fast", "--no-plots", "--trace", str(out)]) == 0
        assert "ignores it" in capsys.readouterr().err

    def test_trace_replay_experiment_with_recorded_trace(self, tmp_path, capsys):
        out = tmp_path / "rec.jsonl"
        assert main([
            "record-trace", "--trace", str(out),
            "--trace-duration", "20", "--trace-clients", "2",
            "--trace-rate", "10", "--trace-follow", "0.8",
        ]) == 0
        capsys.readouterr()
        assert main([
            "trace-replay", "--fast", "--no-plots", "--trace", str(out),
        ]) == 0
        report = capsys.readouterr().out
        assert "identical request sequence" in report
        assert str(out) in report

    def test_run_scenario_parses_file_and_kpi_flag(self):
        parser = build_parser()
        args = parser.parse_args(["run-scenario", "s.yaml", "--kpi"])
        assert args.experiment == "run-scenario"
        assert str(args.scenario_file) == "s.yaml"
        assert args.kpi

    def test_run_scenario_requires_file(self, capsys):
        assert main(["run-scenario"]) == 2
        assert "needs a scenario file" in capsys.readouterr().err

    def test_run_scenario_rejects_invalid_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "system": {"bandwidth": -3}}',
                       encoding="utf-8")
        assert main(["run-scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "invalid scenario" in err and "system.bandwidth" in err

    def test_run_scenario_executes_catalog_file(self, capsys):
        from pathlib import Path

        scenario = (Path(__file__).resolve().parents[1] / "scenarios"
                    / "flash_crowd.yaml")
        assert main(["run-scenario", str(scenario), "--fast",
                     "--no-plots"]) == 0
        report = capsys.readouterr().out
        assert "flash-crowd" in report
        assert "stationary" in report

    def test_sweep_cache_warm_rerun(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["load-impedance", "--fast", "--no-plots", "--sweep", str(cache)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "0 point(s) served from cache, 6 simulated" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "6 point(s) served from cache, 0 simulated" in warm
        # Cached and simulated reports are identical (modulo the run
        # record line, which carries wall-clock).
        strip = lambda text: [l for l in text.splitlines()
                              if not l.startswith("run:") and "sweep cache" not in l]
        assert strip(cold) == strip(warm)

    def test_one_engine_carries_the_execution_flags(self, monkeypatch, capsys):
        from repro.experiments import all_experiments

        engines = []
        monkeypatch.setattr(
            "repro.cli._run_one",
            lambda target, args, engine: engines.append(engine) or "",
        )
        assert main(["all", "--jobs", "2", "--node-workers", "3"]) == 0
        assert len(engines) == len(all_experiments())
        assert all(engine is engines[0] for engine in engines)
        engine = engines[0]
        # a bare --node-workers implies the parallel node backend
        assert (engine.jobs, engine.node_backend, engine.node_workers) == (
            2, "parallel", 3,
        )
        assert engine.cache_dir is None
        engines.clear()
        assert main(["fig1"]) == 0
        (engine,) = engines
        assert (engine.jobs, engine.node_backend, engine.node_workers) == (
            1, "serial", None,
        )

    def test_node_workers_below_one_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig1", "--node-workers", "0"])
        assert exit_info.value.code == 2
        assert "--node-workers must be >= 1" in capsys.readouterr().err

    def test_negative_node_workers_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig1", "--node-workers", "-3"])
        assert exit_info.value.code == 2
        assert "--node-workers must be >= 1, got -3" in capsys.readouterr().err

    def test_screen_flag_is_not_accepted(self, capsys):
        """Every experiment runs its grid in full: there is no flag that
        fills points from closed forms instead of simulating them."""
        with pytest.raises(SystemExit) as exit_info:
            main(["sim-vs-analytic", "--fast", "--screen"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --screen" in capsys.readouterr().err

    def test_execution_flags_leave_the_report_unchanged(self, tmp_path, capsys):
        """--jobs, --node-backend and --sweep change how a run executes,
        never what it reports: sharding's client-affinity tiers shard on
        the parallel node backend inside two replication workers."""
        argv = ["sharding", "--fast", "--no-plots"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        flags = ["--jobs", "2", "--node-backend", "parallel",
                 "--sweep", str(tmp_path / "cache")]
        assert main(argv + flags) == 0
        cold = capsys.readouterr().out
        assert "run: jobs=2" in cold
        assert main(argv + flags) == 0
        warm = capsys.readouterr().out
        assert "6 point(s) served from cache, 0 simulated" in warm
        strip = lambda text: [l for l in text.splitlines()
                              if not l.startswith("run:") and "sweep cache" not in l]
        assert strip(cold) == strip(plain)
        assert strip(warm) == strip(plain)
