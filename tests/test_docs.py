"""Docs-rot guards that are cheap enough for tier 1.

The full gate — including smoke-running every documented example script —
runs in CI (``python tools/check_docs.py``); here we pin the fast parts so
a dead link or a docs reference to a deleted example fails `pytest` too.
"""

import doctest
import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402

SRC = REPO_ROOT / "src"


def _modules_with_examples() -> list[str]:
    """Every ``repro`` module whose source holds a ``>>>`` example."""
    return sorted(
        ".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(
            ".__init__"
        )
        for path in (SRC / "repro").rglob("*.py")
        if ">>>" in path.read_text(encoding="utf-8")
    )


class TestDocsSurface:
    def test_core_documents_exist(self):
        for name in (
            "README.md",
            "ARCHITECTURE.md",
            "PERFORMANCE.md",
            "ROADMAP.md",
            "CHANGES.md",
            "docs/guide.md",
        ):
            assert (REPO_ROOT / name).is_file(), f"{name} is missing"

    def test_no_dead_links(self):
        files = check_docs.markdown_files()
        assert files, "no markdown files found"
        problems = check_docs.check_links(files)
        assert problems == []

    def test_documented_examples_exist_and_cover_the_suite(self):
        files = check_docs.markdown_files()
        documented = {p.name for p in check_docs.documented_examples(files)}
        on_disk = {p.name for p in (REPO_ROOT / "examples").glob("*.py")}
        # every documented script exists (guaranteed by construction) and
        # every shipped example is documented somewhere — no orphans
        assert documented == on_disk

    def test_readme_mentions_every_experiment(self):
        from repro.experiments import all_experiments

        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        missing = [
            experiment_id
            for experiment_id in all_experiments()
            if f"`{experiment_id}`" not in readme
        ]
        assert missing == [], f"README experiment catalog is stale: {missing}"


@pytest.mark.parametrize("module", _modules_with_examples())
def test_docstring_examples_run(module):
    result = doctest.testmod(importlib.import_module(module))
    assert result.attempted > 0
    assert result.failed == 0, f"{result.failed} example(s) in {module} failed"
