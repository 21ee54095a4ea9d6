"""Compare the parent and change runs of a trajectory file, metric by metric, against the benchmark's bounds.

Usage:
    python3 tools/bench_compare.py BENCH_<pr>.json

Reads the untraced full-size entries that ``tools/bench_trajectory.py`` wrote
under the labels ``parent`` and ``change``.  For each workload and each
end-to-end metric of ``BENCHMARK.json`` it prints the median of the per-run
medians of each side, the relative change, the spread between the quartiles of
the parent's per-run medians relative to their median, and a verdict:

* ``worse``: the change median is worse than the parent median by more than the
  metric's bound;
* ``unresolved``: the parent spread exceeds the bound, and not every change run
  beats every parent run, so the runs cannot tell the sides apart;
* ``ok``: otherwise.

Exits 1 if any verdict is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _spread(values: list[float]) -> float:
    """Distance between the quartiles of values (0 for a single value)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(parent: list[float], change: list[float], bound: float, better: str) -> dict:
    """One metric's comparison of the per-run medians of both sides."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    rel = (c_med - p_med) / p_med
    spread = _spread(parent) / p_med
    lower = better == "lower"
    beats_every_run = max(change) < min(parent) if lower else min(change) > max(parent)
    if (rel if lower else -rel) > bound:
        word = "worse"
    elif spread > bound and not beats_every_run:
        word = "unresolved"
    else:
        word = "ok"
    return {"parent": p_med, "change": c_med, "relative": rel, "parent_spread": spread, "n": (len(parent), len(change)),
            "verdict": word}


def compare(trajectory: dict, spec: dict) -> list[dict]:
    """One row per workload and end-to-end metric that both sides measured, in workload then metric order."""
    runs: dict[tuple[str, str, str], list[float]] = {}
    for e in trajectory["entries"]:
        if e["trace"] or e["size"] != "full":
            continue
        for name, stats in e["end_to_end"].items():
            runs.setdefault((e["workload"], name, e["run"]), []).append(stats["median"])
    rows = []
    for workload in sorted({w for w, _, _ in runs}):
        for metric in spec["end_to_end"]:
            parent = runs.get((workload, metric["name"], "parent"))
            change = runs.get((workload, metric["name"], "change"))
            if parent and change:
                rows.append({"workload": workload, "metric": metric["name"], "bound": metric["bound"],
                             **verdict(parent, change, metric["bound"], metric["better"])})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trajectory", type=Path, help="trajectory file, e.g. BENCH_24.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(json.loads(args.trajectory.read_text()), spec)
    print(f"{'workload':<10} {'metric':<12} {'parent':>10} {'change':>10} {'change%':>8} {'spread%':>8} "
          f"{'bound%':>7} {'runs':>5}  verdict")
    for r in rows:
        print(f"{r['workload']:<10} {r['metric']:<12} {r['parent']:>10.4g} {r['change']:>10.4g} "
              f"{100 * r['relative']:>+8.1f} {100 * r['parent_spread']:>8.1f} {100 * r['bound']:>7.0f} "
              f"{'%d/%d' % r['n']:>5}  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
