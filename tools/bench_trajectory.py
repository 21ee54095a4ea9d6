"""Append benchmark reports to a committed trajectory file, ``BENCH_<pr>.json`` at the repo root.

Usage:
    python3 tools/bench_trajectory.py BENCH_<pr>.json --run LABEL [REPORT ...]

Each REPORT is a ``report.json`` that ``perfbench/run.py`` wrote (by default every
``.perfbench_out/<workload>/report.json``).  Each becomes one entry under LABEL (say
``parent`` or ``change``): the workload, seed, size and trace flag, the git SHA and
``src`` digest of the checkout it ran, nproc, whether every output check passed,
the median and quartiles of each end-to-end metric over the calls that produced
it, and, for a ``--trace 1`` report, the traced per-layer values.  Entries already
in the file are kept, so parent and change runs can be added one report at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _samples(report: dict, name: str) -> list[float]:
    """The per-call values ``perfbench/run.py`` took the median of: untraced calls, plus set-up probes for set-up."""
    calls = [c for c in report["calls"] if not c.get("traced") and name in c]
    if name == "setup_s":
        calls = [c for c in report["setup_probes"] + report["calls"] if name in c]
    return [c[name] for c in calls]


def entry(report: dict, label: str, spec: dict) -> dict:
    """One trajectory entry from one benchmark report."""
    values = report["values"]
    end_to_end = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        samples = _samples(report, name)
        if name not in values or not samples:
            continue
        q1, _, q3 = statistics.quantiles(samples, n=4, method="inclusive") if len(samples) > 1 else samples * 3
        end_to_end[name] = {"median": values[name], "q1": q1, "q3": q3, "n": len(samples), "unit": metric["unit"]}
    env = report["environment"]
    return {
        "run": label,
        "workload": report["workload"],
        "seed": report["seed"],
        "size": report["size"],
        "trace": report["trace"],
        "git_sha": env["git_sha"],
        "src_sha256": env["src_sha256"],
        "nproc": env["nproc"],
        "correct": all(report["checks"].values()),
        "end_to_end": end_to_end,
        "layers": {m["name"]: values[m["name"]] for m in spec["per_layer"] if m["name"] in values},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path, help="trajectory file to create or extend, e.g. BENCH_10.json")
    parser.add_argument("--run", required=True, help="label of these reports, e.g. parent or change")
    parser.add_argument("reports", nargs="*", type=Path, help="report.json files (default: .perfbench_out/*/report.json)")
    args = parser.parse_intermixed_args(argv)

    paths = args.reports or sorted((ROOT / ".perfbench_out").glob("*/report.json"))
    if not paths:
        print("error: no report.json given or found under .perfbench_out", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    trajectory = json.loads(args.out.read_text()) if args.out.exists() else {"entries": []}
    for path in paths:
        trajectory["entries"].append(entry(json.loads(path.read_text()), args.run, spec))
    args.out.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")
    print(f"{args.out}: {len(trajectory['entries'])} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
