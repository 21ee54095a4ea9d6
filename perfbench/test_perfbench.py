"""Self-test of the benchmark harness at tiny size, so it cannot rot.

Run with: python3 -m pytest perfbench -q

Every workload runs untraced and traced on a tiny config; the test checks the
result line against BENCHMARK.json, that every check of the workload ran,
and that the harness refuses a directory without the plaplace sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

COMMON_CHECKS = {"exit_code_zero", "result_ok", "deterministic_artifacts"}
WORKLOAD_CHECKS = {
    "fidelity": {"summary_exact_matches_exact_csv", "oracle_z_within_family_3_sigma"},
    "memorize": {"detection_covers_every_seed", "auc_summary_matches_detection"},
    "bounds": {"dominance_holds", "every_report_row_dominated", "summary_ratio_matches_reports"},
}
STUDY = {
    "fidelity": {"fidelity_max_oracle_z", "fidelity_median_cosine"},
    "memorize": {"memorize_percentile", "memorize_auc"},
    "bounds": {"bounds_max_ratio"},
}
REPORTED = {"failed_seed_ratio", "malformed_cells", "nondeterministic_files"}


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_and_check(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
    assert result["attempted"] >= 2 and result["failed"] == 0

    reported = {line.split()[0] for line in lines[:-1] if not line.startswith("check ")}
    assert REPORTED | STUDY[workload] <= reported
    checks = {line.split()[1]: line.split()[2] for line in lines[:-1] if line.startswith("check ")}
    assert set(checks) == COMMON_CHECKS | WORKLOAD_CHECKS[workload]
    for name in COMMON_CHECKS:
        assert checks[name] == "PASS", name
    # A 3-repeat fidelity run is too small for its z-gate; every other check must pass.
    if workload != "fidelity":
        assert result["correct"] is True, checks


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "bounds", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_covered_children():
    spans = [
        ["outer", 0.0, 10.0, -1],
        ["inner", 1.0, 3.0, 0],
        ["inner", 4.0, 8.0, 0],
        ["leaf", 5.0, 6.0, 2],
    ]
    durations = tracing._durations(spans)
    assert durations["outer"]["self"] == [4.0]
    assert durations["inner"]["self"] == [2.0, 3.0]
    assert durations["inner"]["outer"] == [2.0, 4.0]
