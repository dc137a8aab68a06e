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

With ``--same-as BASE.json`` it also checks bit-identity against another
result file, typically the parent commit's at the same seed: it fails
when the two files' seeds differ, or when any workload's output
fingerprints differ from BASE's (a workload present in only one file
counts as differing).  It also prints each workload's median
``peak_rss_mb`` next to BASE's, with their ratio, and warns, without
failing, when the change's exceeds BASE's by more than
:data:`RSS_WARN_ABOVE`: a memory step that no test sees.

Warnings are printed as GitHub Actions ``::warning::`` annotations.

Usage::

    python3 perfbench/run.py --rounds 1 --out BENCH_E2E.json
    python3 tools/check_e2e.py BENCH_E2E.json
    python3 tools/check_e2e.py BENCH_E2E.json --same-as PARENT.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


#: Share by which a workload's median ``peak_rss_mb`` may exceed the
#: base's before ``--same-as`` warns.  Peak RSS repeats to about 0.1 MB
#: between rounds, so 1% is past its noise on every workload.
RSS_WARN_ABOVE = 0.01


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


def same_as(document: dict, base: dict) -> list[str]:
    """Why ``document`` is not bit-identical to ``base`` (empty when it is)."""
    if document.get("seed") != base.get("seed"):
        return [
            f"seed {document.get('seed')} differs from the base's "
            f"{base.get('seed')}: fingerprints are comparable only at one seed"
        ]
    ours = document.get("workloads") or {}
    theirs = base.get("workloads") or {}
    failures = []
    for name in sorted(set(ours) | set(theirs)):
        mine = ours.get(name, {}).get("fingerprints")
        other = theirs.get(name, {}).get("fingerprints")
        if mine != other:
            failures.append(
                f"{name}: fingerprints {mine} differ from the base's {other}"
            )
    return failures


def peak_rss(document: dict, base: dict) -> tuple[list[str], list[str]]:
    """(one line per workload comparing its median ``peak_rss_mb`` with
    ``base``'s, warnings for those more than :data:`RSS_WARN_ABOVE` above)."""
    ours = document.get("workloads") or {}
    theirs = base.get("workloads") or {}
    lines, warnings = [], []
    for name in sorted(set(ours) & set(theirs)):
        mine = ours[name].get("metrics", {}).get("peak_rss_mb")
        other = theirs[name].get("metrics", {}).get("peak_rss_mb")
        if not (mine and other):
            continue
        ratio = mine["median"] / other["median"]
        line = (
            f"{name}: peak_rss_mb {mine['median']:.2f} MB, "
            f"base {other['median']:.2f} MB ({ratio:.3f}x)"
        )
        lines.append(line)
        if ratio > 1.0 + RSS_WARN_ABOVE:
            warnings.append(f"{line}: more than {RSS_WARN_ABOVE:.0%} above the base")
    return lines, warnings


def _usage() -> int:
    print("usage: check_e2e.py RESULT.json [--same-as BASE.json]", file=sys.stderr)
    return 2


def main(argv: list[str] | None = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    base_path = None
    if "--same-as" in args:
        at = args.index("--same-as")
        if at + 1 == len(args):
            return _usage()
        base_path = Path(args.pop(at + 1))
        args.pop(at)
    if len(args) != 1:
        return _usage()
    path = Path(args[0])
    for required in (path, base_path):
        if required is not None and not required.exists():
            print(f"e2e gate: no result file at {required}", file=sys.stderr)
            return 1
    document = json.loads(path.read_text(encoding="utf-8"))
    failures, warnings = gate(document)
    if base_path is not None:
        base = json.loads(base_path.read_text(encoding="utf-8"))
        failures += same_as(document, base)
        lines, rss_warnings = peak_rss(document, base)
        warnings += rss_warnings
        for line in lines:
            print(line)
    for warning in warnings:
        print(f"::warning::{warning}")
    for failure in failures:
        print(f"FAILED: {failure}")
    if not failures:
        print("e2e gate: every round of every workload passed its checks")
        if base_path is not None:
            print(f"e2e gate: every workload's fingerprints equal {base_path}'s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
