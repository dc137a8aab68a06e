"""The benchmark hook writes ``BENCH_*.json`` only under ``--benchmark-only``.

The tier-1 suite collects ``benchmarks/`` too and runs each bench once;
those runs must leave the checkout clean.  Only the invocation that CI
and ``benchmarks/conftest.py`` document (``--benchmark-only``) records.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

CONFTEST = Path(__file__).resolve().parent.parent / "benchmarks" / "conftest.py"


@pytest.fixture
def bench_conftest(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_conftest_under_test", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RECORD_DIR", tmp_path)
    return module


class _Bench:
    fullname = "benchmarks/test_bench_demo.py::test_bench_demo"

    def as_dict(self, include_data=False):
        return {"name": "test_bench_demo", "stats": {"min": 1.0}}


def _session(benchmark_only: bool):
    options = {"benchmark_only": benchmark_only}
    config = SimpleNamespace(
        getoption=lambda name, default=None: options.get(name, default),
        _benchmarksession=SimpleNamespace(benchmarks=[_Bench()]),
    )
    return SimpleNamespace(config=config)


def test_plain_run_writes_no_record(bench_conftest, tmp_path):
    bench_conftest.pytest_sessionfinish(_session(benchmark_only=False), 0)
    assert list(tmp_path.iterdir()) == []


def test_benchmark_only_run_writes_record(bench_conftest, tmp_path):
    bench_conftest.pytest_sessionfinish(_session(benchmark_only=True), 0)
    record = json.loads((tmp_path / "BENCH_DEMO.json").read_text(encoding="utf-8"))
    assert record["benchmarks"] == [{"name": "test_bench_demo", "stats": {"min": 1.0}}]
