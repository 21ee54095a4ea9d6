"""plaplace benchmark: one study workload per run, timed end to end or traced layer by layer.

Usage:
    python3 perfbench/run.py --workload {fidelity,memorize,bounds} [--seed S]
                             [--seconds N] [--trace 0|1] [--size full|tiny]

Run from anywhere; the checkout is the directory above this file, and
``plaplace`` is imported from its ``src``.  Each CLI call is a fresh
single-process ``plaplace <subcommand>`` run (closed loop, one client, BLAS
threads as the environment sets them) into the same cleared output path, so
repeats can be compared byte for byte.

A run makes at least two calls and keeps calling while the next call is
expected to end within ``--seconds``.  ``--trace 0`` reports the medians of
the end-to-end metrics over its calls.  ``--trace 1`` alternates untraced and
traced calls and reports the median of each per-layer metric over the traced
ones; ``trace.overhead_s`` is the median traced minus the median untraced
wall time.  Set-up time is sampled in every call and in extra set-up-only
processes.  The metric names and units
come from ``BENCHMARK.json``.  Each run prints every metric, study figure and
check as ``name value unit`` lines, writes a full report to
``.perfbench_out/<workload>/report.json``, and prints one JSON result as its
last line.  ``--size tiny`` shrinks every workload for the harness self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_out"

MIN_CALLS = 2  # the determinism check needs two calls into the same path
SETUP_PROBES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")

# workload -> (CLI subcommand, artifact subdirectory, config for workload seed s).
# Each call takes about 7 s on 2 cores, so a run makes four or more calls and
# its medians ride out the machine's slow phases; a default-size fidelity
# (n_dense 1M) or five-seed memorize call takes 17-27 s.
WORKLOADS = {
    "fidelity": ("fidelity", "fidelity",
                 lambda s: {"experiment": "fidelity", "fidelity": {"n_dense": 250_000}, "seeds": [s]}),
    "memorize": ("memorize", "memorization",
                 lambda s: {"experiment": "memorization", "seeds": [s, s + 1]}),
    "bounds": ("bounds", "bounds",
               lambda s: {"experiment": "bounds", "bounds": {"n_anchors": 2000}, "seeds": [s]}),
}
# Units of the figures reported alongside the metrics in BENCHMARK.json.
REPORT_UNITS = {
    "failed_seed_ratio": "ratio",
    "malformed_cells": "count",
    "nondeterministic_files": "count",
    "fidelity_max_oracle_z": "z",
    "fidelity_oracle_rows_over_3": "count",
    "fidelity_oracle_z_gate": "z",
    "fidelity_median_cosine": "cos",
    "memorize_percentile": "%",
    "memorize_auc": "auc",
    "bounds_max_ratio": "ratio",
}
TINY = {
    "training": {"epochs": 2},
    "fidelity": {"n_dense": 1000, "n_repeats": 3},
    "memorization": {"grid_size": 5, "n_background": 5},
    "bounds": {"n_anchors": 5},
}


def workload_config(workload: str, seed: int, size: str) -> dict:
    cfg = WORKLOADS[workload][2](seed)
    if size == "tiny":
        for block, values in TINY.items():
            cfg[block] = {**cfg.get(block, {}), **values}
    return cfg


def environment() -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git_sha = out.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


class Runner:
    def __init__(self, workload: str, cfg_path: Path, work: Path, deadline: float) -> None:
        self.workload = workload
        self.subcommand, self.sub, _ = WORKLOADS[workload]
        self.cfg_path, self.work, self.deadline = cfg_path, work, deadline
        self.out = work / "artifacts"

    def _spawn(self, tag: str, extra: list[str]) -> dict:
        stats_path = self.work / f"{tag}.stats.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(ROOT), "--stats", str(stats_path), *extra,
               "--", self.subcommand, "--config", str(self.cfg_path), "--out", str(self.out.relative_to(ROOT))]
        load_before = os.getloadavg()
        spawned_at = time.time()
        with open(self.work / f"{tag}.log", "w") as log:
            try:
                code = subprocess.run(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=max(self.deadline - time.monotonic(), 1.0)).returncode
            except subprocess.TimeoutExpired:
                code = None
        stats = json.loads(stats_path.read_text()) if stats_path.exists() else {}
        stats.update(process_exit=code, load_before=load_before, load_after=os.getloadavg())
        if "resolved_at" in stats:
            stats["setup_s"] = stats["resolved_at"] - spawned_at
        return stats

    def setup_probe(self, i: int) -> dict:
        return self._spawn(f"setup{i}", ["--setup-only"])

    def call(self, tag: str, n_seeds: int, trace: bool = False) -> dict:
        """One CLI call into the cleared artifact path, with its outputs checked and hashed."""
        shutil.rmtree(self.out, ignore_errors=True)
        trace_path = self.work / f"{tag}.trace.json"
        stats = self._spawn(tag, ["--trace", str(trace_path)] if trace else [])
        stats["traced"] = trace
        out = str(self.out)
        exit_code = stats.get("exit_code", stats["process_exit"])
        result = checks.read_result(out, self.sub)
        # A nonzero exit or a missing result loses every seed.
        completed = len(result["completed_seeds"]) if exit_code == 0 and result is not None else 0
        stats["failed_seeds"] = n_seeds - completed
        stats["checks"] = {"exit_code_zero": exit_code == 0, "result_ok": result is not None and result["ok"] is True}
        stats["study"] = {}
        if stats["failed_seeds"] == 0:
            stats["study"], more = checks.CHECKS[self.workload](out, result["config"])
            stats["checks"].update(more)
        stats["malformed_cells"] = checks.malformed_cells(out)
        stats["bytes_written"] = checks.bytes_written(out)
        stats["hashes"] = checks.hash_artifacts(out)
        if trace and trace_path.exists():
            stats["trace"] = json.loads(trace_path.read_text())
        return stats


def _median(calls: list[dict], key: str) -> float:
    return statistics.median(c[key] for c in calls)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "plaplace" / "cli.py").is_file():
        print(f"error: no plaplace sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = workload_config(args.workload, args.seed, args.size)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2))
    n_seeds = len(cfg["seeds"])
    runner = Runner(args.workload, cfg_path, work, deadline)

    probes = [runner.setup_probe(i) for i in range(SETUP_PROBES)]
    # Untraced calls; with --trace 1, untraced and traced calls alternate.
    calls, started = [], time.monotonic()
    while True:
        traced = bool(args.trace) and len(calls) % 2 == 1
        call = runner.call(f"call{len(calls)}", n_seeds, trace=traced)
        calls.append(call)
        if "wall_s" not in call:
            break
        if len(calls) >= MIN_CALLS and time.monotonic() - started + call["wall_s"] > args.seconds:
            break
        if time.monotonic() + 1.5 * call["wall_s"] > deadline:
            break

    first = calls[0]
    nondeterministic = checks.nondeterministic_files([c["hashes"] for c in calls])
    attempted = n_seeds * len(calls)
    failed = sum(c["failed_seeds"] for c in calls)
    check_results = {name: all(c["checks"].get(name, False) for c in calls)
                     for name in {n for c in calls for n in c["checks"]}}
    check_results["deterministic_artifacts"] = nondeterministic == 0

    values = {
        "failed_seed_ratio": failed / attempted,
        "malformed_cells": first["malformed_cells"],
        "nondeterministic_files": nondeterministic,
        **first["study"],
    }
    untraced = [c for c in calls if not c["traced"] and "wall_s" in c]
    if untraced:
        setup = [c["setup_s"] for c in probes + calls if "setup_s" in c]
        values.update(
            wall_s=_median(untraced, "wall_s"),
            cpu_s=_median(untraced, "cpu_s"),
            peak_rss_mb=_median(untraced, "peak_rss_mb"),
            setup_s=statistics.median(setup),
        )
    traced = [c for c in calls if "trace" in c]
    if traced:
        layers = [tracing.layer_metrics(c["trace"]) for c in traced]
        values.update({name: statistics.median_low(m[name] for m in layers) for name in layers[0]})
        values.update({
            "experiments.bytes_written": traced[0]["bytes_written"],
            "experiments.seed.failed_ratio": traced[0]["failed_seeds"] / n_seeds,
            "experiments.write.malformed_cells": traced[0]["malformed_cells"],
            "experiments.write.nondeterministic_files": nondeterministic,
            "trace.overhead_s": _median(traced, "wall_s") - values.get("wall_s", 0.0),
        })

    units = {**REPORT_UNITS, **{m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    correct = all(check_results.values()) and not missing
    for name in sorted(values):
        print(f"{name} {values[name]!r} {units.get(name, '')}".rstrip())
    for name in sorted(check_results):
        print(f"check {name} {'PASS' if check_results[name] else 'FAIL'}")
    for name in missing:
        print(f"check metric_missing {name} FAIL")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "environment": {**environment(), **{k: probes[0].get(k) for k in ("python", "numpy", "scipy", "blas")}},
        "config": cfg,
        "values": values,
        "checks": check_results,
        "setup_probes": probes,
        "calls": [{k: v for k, v in c.items() if k not in ("trace", "hashes")} | {"artifacts": len(c["hashes"])}
                  for c in calls],
    }
    (work / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True))

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
