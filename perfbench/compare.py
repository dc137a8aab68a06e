"""Compare two benchmark results: ``python3 perfbench/compare.py BASE NEW``.

``BASE`` and ``NEW`` are files written by ``perfbench/run.py --out`` or
directories of such files, whose samples are pooled in file-name order.
One row is printed per (workload, metric) with one label:

* ``improved`` — with at least 10 pairs (samples paired by position),
  the new side wins at least 9 in 10 pairs and the medians differ by more
  than the base's interquartile range;
* ``regressed`` — the same rule in the other direction, or the new
  median is worse than the base median by more than the metric's bound
  in ``BENCHMARK.json``;
* ``unresolved`` — neither rule applies and the spread (interquartile
  range over median, either side) exceeds the bound, unless every new
  sample is better than every base sample;
* ``unchanged`` — otherwise.

Per-layer metrics have no bound: only the pair rule flags them, or a
count that repeats exactly across the samples of each side and differs
between the sides.
For the pairing to be fair, record the two sides alternately (for
example ``--rounds 1`` per file, one file per side in turn).

Every ratio is printed with its base.  The exit status is 1 when any row
regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: pairs needed before the win rule applies, and the share that must win
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict:
    """Pool the samples of one result file or a directory of them."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    files = [f for f in files if not f.name.endswith(".trace.json")]
    pooled: dict = {}
    for file in files:
        document = json.loads(file.read_text(encoding="utf-8"))
        for name, result in document["workloads"].items():
            into = pooled.setdefault(name, {"attempted": 0, "failed": 0, "metrics": {}})
            into["attempted"] += result["attempted"]
            into["failed"] += result["failed"]
            for metric, m in result["metrics"].items():
                entry = into["metrics"].setdefault(
                    metric, {"unit": m["unit"], "better": m["better"], "samples": []}
                )
                entry["samples"].extend(m["samples"])
    return {"workloads": pooled}


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def label(base: list[float], new: list[float], better: str, bound: float | None):
    """(label, reason) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    mb, mn = statistics.median(base), statistics.median(new)
    gain = sign * (mn - mb)  # > 0: the new side is better
    pairs = list(zip(base, new))
    if len(pairs) >= MIN_PAIRS and abs(mn - mb) > _iqr(base):
        wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
        losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
        if wins >= WIN_SHARE * len(pairs):
            return "improved", f"won {wins}/{len(pairs)} pairs"
        if losses >= WIN_SHARE * len(pairs):
            return "regressed", f"lost {losses}/{len(pairs)} pairs"
    if bound is None:
        repeats = len(base) > 1 and len(new) > 1 and len(set(base)) == len(set(new)) == 1
        if repeats and mn != mb:
            return ("improved" if gain > 0 else "regressed"), "exact count changed"
        return "unchanged", "no bound: only the pair rule or a repeated count flags it"
    if mb == 0:
        return ("unchanged", "zero base") if mn == 0 else ("unresolved", "zero base")
    worse = -gain / abs(mb)
    spread = max(_iqr(base) / abs(mb), _iqr(new) / abs(mn) if mn else 0.0)
    if worse > bound:
        return "regressed", f"worse by {worse:.1%} > bound {bound:.0%}"
    if spread > bound:
        if min(sign * n for n in new) > max(sign * b for b in base):
            return "unchanged", "every new sample better than every base sample"
        return "unresolved", f"spread {spread:.1%} > bound {bound:.0%}"
    return "unchanged", f"within bound {bound:.0%}"


def compare(base: dict, new: dict, spec: dict) -> list[dict]:
    """One row per (workload, metric) present on both sides."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for name, b in base["workloads"].items():
        n = new["workloads"].get(name)
        if n is None:
            continue
        b_share = b["failed"] / b["attempted"] if b["attempted"] else 0.0
        n_share = n["failed"] / n["attempted"] if n["attempted"] else 0.0
        rows.append({
            "workload": name,
            "metric": "failed_share",
            "unit": "fraction",
            "base": b_share,
            "new": n_share,
            "n": (b["attempted"], n["attempted"]),
            "label": "regressed" if n_share > b_share else "unchanged",
            "reason": "any increase regresses",
        })
        for metric, bm in b["metrics"].items():
            nm = n["metrics"].get(metric)
            if nm is None or not bm["samples"] or not nm["samples"]:
                continue
            verdict, reason = label(
                bm["samples"], nm["samples"], bm["better"], bounds.get(metric)
            )
            rows.append({
                "workload": name,
                "metric": metric,
                "unit": bm["unit"],
                "base": statistics.median(bm["samples"]),
                "new": statistics.median(nm["samples"]),
                "n": (len(bm["samples"]), len(nm["samples"])),
                "label": verdict,
                "reason": reason,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    rows = compare(load(args.base), load(args.new), spec)
    print(f"{'workload':<18} {'metric':<28} {'new/base':>9} {'base':>13} "
          f"{'unit':<10} {'n':>7}  label       reason")
    for row in rows:
        ratio = row["new"] / row["base"] if row["base"] else float("nan")
        print(
            f"{row['workload']:<18} {row['metric']:<28} {ratio:>9.4f} "
            f"{row['base']:>13.6g} {row['unit']:<10} "
            f"{row['n'][0]:>3}/{row['n'][1]:<3}  {row['label']:<11} {row['reason']}"
        )
    return 1 if any(row["label"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
