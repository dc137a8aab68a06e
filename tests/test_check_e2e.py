"""Tests for ``tools/check_e2e.py``, the CI gate over perfbench results."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_e2e  # noqa: E402


def result(**workloads) -> dict:
    """A result document shaped like ``perfbench/run.py --out``'s."""
    return {
        "seed": 7,
        "host": {"cpus": 2},
        "workloads": {
            name: {
                "attempted": 2,
                "failed": 0,
                "errors": [],
                "fingerprints": ["abc"],
                "fingerprint_changed": False,
                "metrics": {},
                **fields,
            }
            for name, fields in workloads.items()
        },
    }


def run(tmp_path, document, capsys) -> tuple[int, str]:
    path = tmp_path / "BENCH_E2E.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    status = check_e2e.main([str(path)])
    return status, capsys.readouterr().out


class TestE2EGate:
    def test_clean_result_passes(self, tmp_path, capsys):
        status, out = run(tmp_path, result(a={}, b={}), capsys)
        assert status == 0
        assert "::warning::" not in out

    def test_a_failed_round_fails_and_names_the_workload(self, tmp_path, capsys):
        document = result(
            a={},
            b={"failed": 1, "errors": ["requests 10 != hits 4 + misses 5"]},
        )
        status, out = run(tmp_path, document, capsys)
        assert status == 1
        assert "b: 1 of 2 rounds failed (requests 10 != hits 4 + misses 5)" in out
        assert "a:" not in out

    def test_changed_fingerprint_only_warns(self, tmp_path, capsys):
        status, out = run(tmp_path, result(a={"fingerprint_changed": True}), capsys)
        assert status == 0
        assert out.startswith("::warning::a: output fingerprint differs")

    def test_failure_and_warning_together_fail(self, tmp_path, capsys):
        document = result(a={"fingerprint_changed": True, "failed": 2})
        status, out = run(tmp_path, document, capsys)
        assert status == 1
        assert "::warning::a:" in out and "FAILED: a: 2 of 2" in out

    def test_empty_result_fails(self, tmp_path, capsys):
        status, out = run(tmp_path, {"seed": 7, "workloads": {}}, capsys)
        assert status == 1
        assert "no workload" in out

    def test_missing_file_fails(self, tmp_path):
        assert check_e2e.main([str(tmp_path / "absent.json")]) == 1

    def test_usage_error(self):
        assert check_e2e.main([]) == 2


def same_as_run(tmp_path, document, base, capsys) -> tuple[int, str]:
    path = tmp_path / "CHANGE.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    base_path = tmp_path / "PARENT.json"
    base_path.write_text(json.dumps(base), encoding="utf-8")
    status = check_e2e.main([str(path), "--same-as", str(base_path)])
    return status, capsys.readouterr().out


class TestSameAs:
    def test_identical_fingerprints_pass(self, tmp_path, capsys):
        document = result(a={"fingerprints": ["abc", "def"]}, b={})
        status, out = same_as_run(tmp_path, document, document, capsys)
        assert status == 0
        assert "fingerprints equal" in out

    def test_a_changed_fingerprint_fails_and_names_the_workload(
        self, tmp_path, capsys
    ):
        base = result(a={"fingerprints": ["abc", "def"]}, b={})
        change = result(a={"fingerprints": ["abc", "xyz"]}, b={})
        status, out = same_as_run(tmp_path, change, base, capsys)
        assert status == 1
        assert "FAILED: a: fingerprints ['abc', 'xyz'] differ" in out
        assert "b:" not in out

    def test_different_seeds_fail(self, tmp_path, capsys):
        base = result(a={})
        change = {**result(a={}), "seed": 11}
        status, out = same_as_run(tmp_path, change, base, capsys)
        assert status == 1
        assert "seed 11 differs from the base's 7" in out

    def test_a_workload_missing_from_one_side_fails(self, tmp_path, capsys):
        status, out = same_as_run(
            tmp_path, result(a={}), result(a={}, b={}), capsys
        )
        assert status == 1
        assert "FAILED: b: fingerprints None differ" in out

    def test_the_plain_gate_still_applies(self, tmp_path, capsys):
        change = result(a={"failed": 1})
        status, out = same_as_run(tmp_path, change, result(a={}), capsys)
        assert status == 1
        assert "a: 1 of 2 rounds failed" in out

    def test_missing_base_fails(self, tmp_path):
        path = tmp_path / "CHANGE.json"
        path.write_text(json.dumps(result(a={})), encoding="utf-8")
        missing = tmp_path / "absent.json"
        assert check_e2e.main([str(path), "--same-as", str(missing)]) == 1

    def test_flag_without_a_file_is_a_usage_error(self, tmp_path):
        assert check_e2e.main([str(tmp_path / "x.json"), "--same-as"]) == 2


def rss(mb: float) -> dict:
    """A workload's fields with a median ``peak_rss_mb`` of ``mb``."""
    return {"metrics": {"peak_rss_mb": {"unit": "MB", "median": mb, "samples": [mb]}}}


class TestPeakRss:
    def test_each_workload_is_printed_next_to_the_base(self, tmp_path, capsys):
        base = result(a=rss(60.0), b=rss(30.0))
        change = result(a=rss(52.5), b=rss(30.0))
        status, out = same_as_run(tmp_path, change, base, capsys)
        assert status == 0
        assert "a: peak_rss_mb 52.50 MB, base 60.00 MB (0.875x)" in out
        assert "b: peak_rss_mb 30.00 MB, base 30.00 MB (1.000x)" in out
        assert "::warning::" not in out

    def test_more_than_one_percent_above_the_base_only_warns(self, tmp_path, capsys):
        base = result(a=rss(60.0), b=rss(30.0))
        change = result(a=rss(60.0 * 1.02), b=rss(30.0 * 1.005))
        status, out = same_as_run(tmp_path, change, base, capsys)
        assert status == 0
        assert "::warning::a: peak_rss_mb 61.20 MB, base 60.00 MB (1.020x): more than 1%" in out
        assert "::warning::b:" not in out
        assert "fingerprints equal" in out

    def test_a_workload_without_the_metric_is_skipped(self, tmp_path, capsys):
        base = result(a=rss(60.0), b=rss(30.0))
        change = result(a={}, b=rss(29.0))
        status, out = same_as_run(tmp_path, change, base, capsys)
        assert status == 0
        assert "a: peak_rss_mb" not in out
        assert "b: peak_rss_mb 29.00 MB" in out

    def test_the_plain_gate_prints_no_memory(self, tmp_path, capsys):
        status, out = run(tmp_path, result(a=rss(60.0)), capsys)
        assert status == 0
        assert "peak_rss_mb" not in out
