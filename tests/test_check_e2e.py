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
