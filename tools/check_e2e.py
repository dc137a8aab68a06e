#!/usr/bin/env python3
"""End-to-end correctness gate over a perfbench result file.

``perfbench/run.py`` runs every canonical workload and checks each
round's output against the conservation laws (requests, fetches, bytes,
fetch-table registrations); a round that raises or fails a check counts
as *failed*.  This script reads the file that ``run.py --out`` writes and

* fails (exit 1) when the file holds no workload, or when any workload
  has a failed round, naming the workload and its check errors;
* warns, without failing, when a workload's output fingerprint differs
  from the pinned seed-7 reference (``fingerprint_changed``): a
  deliberate re-pin of the simulator changes fingerprints.

Warnings are printed as GitHub Actions ``::warning::`` annotations.

Usage::

    python3 perfbench/run.py --rounds 1 --out BENCH_E2E.json
    python3 tools/check_e2e.py BENCH_E2E.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def gate(document: dict) -> tuple[list[str], list[str]]:
    """The (failures, warnings) of one result document."""
    workloads = document.get("workloads") or {}
    if not workloads:
        return ["the result file holds no workload"], []
    failures, warnings = [], []
    for name, summary in sorted(workloads.items()):
        failed, attempted = summary["failed"], summary["attempted"]
        if failed:
            errors = "; ".join(summary.get("errors", [])) or "no error recorded"
            failures.append(f"{name}: {failed} of {attempted} rounds failed ({errors})")
        if summary.get("fingerprint_changed"):
            warnings.append(
                f"{name}: output fingerprint differs from the pinned seed-7 "
                "reference (expected only after a deliberate re-pin)"
            )
    return failures, warnings


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: check_e2e.py RESULT.json", file=sys.stderr)
        return 2
    path = Path(args[0])
    if not path.exists():
        print(f"e2e gate: no result file at {path}", file=sys.stderr)
        return 1
    failures, warnings = gate(json.loads(path.read_text(encoding="utf-8")))
    for warning in warnings:
        print(f"::warning::{warning}")
    for failure in failures:
        print(f"FAILED: {failure}")
    if not failures:
        print("e2e gate: every round of every workload passed its checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
