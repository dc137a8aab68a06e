"""Tests for ``tools/import_floor.py``, the import-floor report against a base."""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import import_floor  # noqa: E402


def floor(kb: float, modules: int = 357) -> dict:
    """A measurement shaped like ``import_floor.py --out``'s."""
    return {"rss_anon_kb": kb, "samples_kb": [kb] * 3, "modules": modules}


def run(tmp_path, change, base, capsys, *extra) -> tuple[int, str]:
    base_path = tmp_path / "FLOOR_BASE.json"
    base_path.write_text(json.dumps(base), encoding="utf-8")
    status = import_floor.main(
        ["--same-as", str(base_path), *extra], measure=lambda root: change
    )
    return status, capsys.readouterr().out


class TestSameAs:
    def test_a_lower_floor_is_reported_without_a_warning(self, tmp_path, capsys):
        status, out = run(tmp_path, floor(22440, 357), floor(23988, 385), capsys)
        assert status == 0
        assert (
            "import floor: 22440 kB, base 23988 kB (-1548 kB); "
            "modules 357, base 385" in out
        )
        assert "::warning::" not in out

    def test_growth_up_to_the_bound_does_not_warn(self, tmp_path, capsys):
        grown = 23988 + import_floor.WARN_ABOVE_KB
        status, out = run(tmp_path, floor(grown), floor(23988), capsys)
        assert status == 0
        assert "(+64 kB)" in out
        assert "::warning::" not in out

    def test_growth_above_the_bound_warns_and_passes(self, tmp_path, capsys):
        status, out = run(tmp_path, floor(24092), floor(23988), capsys)
        assert status == 0
        assert out.count("::warning::") == 1
        assert "::warning::import floor: 24092 kB, base 23988 kB (+104 kB)" in out

    def test_a_missing_base_warns_and_passes(self, tmp_path, capsys):
        status = import_floor.main(
            ["--same-as", str(tmp_path / "absent.json")],
            measure=lambda root: floor(22440),
        )
        out = capsys.readouterr().out
        assert status == 0
        assert "::warning::import floor: no base to compare with" in out

    def test_out_writes_what_same_as_reads(self, tmp_path, capsys):
        out_path = tmp_path / "FLOOR.json"
        import_floor.main(["--out", str(out_path)], measure=lambda root: floor(22440))
        assert json.loads(out_path.read_text(encoding="utf-8")) == floor(22440)
        assert "import floor: RssAnon 22440 kB" in capsys.readouterr().out


def test_a_measurement_reads_this_checkout():
    measured = import_floor.measure(REPO_ROOT, runs=1)
    assert measured["rss_anon_kb"] > 0
    assert measured["samples_kb"] == [measured["rss_anon_kb"]]
    assert measured["modules"] > 100
