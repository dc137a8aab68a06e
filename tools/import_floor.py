#!/usr/bin/env python3
"""Measure the import floor: the memory every benchmark round starts from.

``perfbench/run.py`` forks each round from a process that has imported
everything the round uses, so that process's anonymous memory
(``RssAnon``) is the floor of every round's ``peak_rss_mb``.  A module
added to the import path, or a few more lines in one that is on it, can
raise the floor by a page-granular step of about 100 kB, enough to lose
every benchmark pair on the small workloads while no test notices.

Each of :data:`RUNS` fresh interpreters runs with ``-B`` and an empty
``PYTHONPYCACHEPREFIX`` of its own, so every module compiles from source
and no bytecode cache moves the number; it imports what
``perfbench/run.py`` imports, runs ``gc.collect()`` as ``run.py`` does
before each fork, and reads ``RssAnon`` from ``/proc/self/status`` (so
Linux only).  The script prints the median ``RssAnon`` in kB and the
number of loaded modules.

``--root DIR`` measures the checkout at ``DIR`` (default: this one);
``--out FILE`` writes the numbers as JSON; ``--same-as BASE.json``
prints the difference against a file written by ``--out`` and emits a
GitHub Actions ``::warning::`` when the floor grew by more than
:data:`WARN_ABOVE_KB`.  It never fails: the exit status is 0 whatever
the floor reads.  Module paths are strings in memory, so compare
checkouts at paths of equal length where the difference matters.

Usage::

    python3 tools/import_floor.py --root BASE_CHECKOUT --out FLOOR_BASE.json
    python3 tools/import_floor.py --out FLOOR.json --same-as FLOOR_BASE.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: fresh interpreters per measurement
RUNS = 3

#: growth of the floor over the base, in kB, above which ``--same-as`` warns
WARN_ABOVE_KB = 64

CHILD = """
import gc, os, sys
root = sys.argv[1]
sys.path[0:1] = [root, os.path.join(root, "src")]
import perfbench.run
gc.collect()
with open("/proc/self/status") as status:
    anon = next(int(l.split()[1]) for l in status if l.startswith("RssAnon:"))
print(anon, len(sys.modules))
"""


def measure(root: Path = ROOT, runs: int = RUNS) -> dict:
    """Median ``RssAnon`` (kB) and module count after ``root``'s imports."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["OPENBLAS_NUM_THREADS"] = "1"  # as perfbench/run.py sets it
    samples, modules = [], []
    for _ in range(runs):
        with tempfile.TemporaryDirectory() as prefix:
            env["PYTHONPYCACHEPREFIX"] = prefix
            done = subprocess.run(
                [sys.executable, "-B", "-c", CHILD, str(root)],
                capture_output=True,
                text=True,
                env=env,
                check=True,
                timeout=120,
            )
        anon, count = map(int, done.stdout.split())
        samples.append(anon)
        modules.append(count)
    return {
        "rss_anon_kb": statistics.median(samples),
        "samples_kb": samples,
        "modules": statistics.median(modules),
        "python": sys.version.split()[0],
    }


def describe(floor: dict) -> str:
    return (
        f"import floor: RssAnon {floor['rss_anon_kb']:g} kB "
        f"(samples {floor['samples_kb']}), {floor['modules']:g} modules"
    )


def compare(floor: dict, base: dict) -> tuple[str, list[str]]:
    """(the difference against ``base``, warnings)."""
    grew = floor["rss_anon_kb"] - base["rss_anon_kb"]
    line = (
        f"import floor: {floor['rss_anon_kb']:g} kB, base "
        f"{base['rss_anon_kb']:g} kB ({grew:+g} kB); modules "
        f"{floor['modules']:g}, base {base['modules']:g}"
    )
    warnings = []
    if grew > WARN_ABOVE_KB:
        warnings.append(
            f"{line}: more than {WARN_ABOVE_KB} kB above the base, and "
            "every benchmark round starts from it"
        )
    return line, warnings


def main(argv: list[str] | None = None, *, measure=measure) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=ROOT)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--same-as", type=Path, dest="base")
    args = parser.parse_args(argv)
    floor = measure(args.root)
    print(describe(floor))
    if args.out is not None:
        args.out.write_text(json.dumps(floor, indent=2) + "\n", encoding="utf-8")
    if args.base is not None:
        try:
            base = json.loads(args.base.read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            print(f"::warning::import floor: no base to compare with ({exc})")
            return 0
        line, warnings = compare(floor, base)
        print(line)
        for warning in warnings:
            print(f"::warning::{warning}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
