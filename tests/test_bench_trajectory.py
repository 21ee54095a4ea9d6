"""Smoke test of ``tools/bench_trajectory.py`` on a fabricated benchmark report."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tool():
    spec = importlib.util.spec_from_file_location("bench_trajectory", ROOT / "tools" / "bench_trajectory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(trace: int) -> dict:
    calls = [
        {"traced": False, "wall_s": 4.0, "cpu_s": 4.5, "peak_rss_mb": 48.0, "setup_s": 0.3},
        {"traced": bool(trace), "wall_s": 5.0, "cpu_s": 5.5, "peak_rss_mb": 49.0, "setup_s": 0.5},
        {"traced": False, "wall_s": 6.0, "cpu_s": 6.5, "peak_rss_mb": 50.0, "setup_s": 0.4},
    ]
    untraced = [c for c in calls if not c["traced"]]
    values = {"wall_s": sorted(c["wall_s"] for c in untraced)[len(untraced) // 2], "cpu_s": 5.5,
              "peak_rss_mb": 49.0, "setup_s": 0.4, "memorize_auc": 0.9}
    if trace:
        values.update({"bounds.validate.anchors": 6000, "gmm.score.calls": 2000})
    return {
        "workload": "bounds", "seed": 0, "size": "full", "trace": trace,
        "environment": {"git_sha": "abc123", "src_sha256": "f00d", "nproc": 2},
        "values": values, "checks": {"exit_code_zero": True, "deterministic_artifacts": True},
        "setup_probes": [{"setup_s": 0.2}], "calls": calls,
    }


def test_reports_become_trajectory_entries(tmp_path):
    tool = _tool()
    paths = []
    for trace in (0, 1):
        paths.append(tmp_path / f"report{trace}.json")
        paths[-1].write_text(json.dumps(_report(trace)))
    out = tmp_path / "BENCH_0.json"
    assert tool.main([str(out), "--run", "parent", str(paths[0])]) == 0
    assert tool.main([str(out), "--run", "change", str(paths[1])]) == 0

    untraced, traced = json.loads(out.read_text())["entries"]
    assert (untraced["run"], traced["run"]) == ("parent", "change")
    for e in (untraced, traced):
        assert (e["workload"], e["git_sha"], e["src_sha256"], e["nproc"], e["correct"]) == (
            "bounds", "abc123", "f00d", 2, True)
        assert set(e["end_to_end"]) == {"wall_s", "cpu_s", "peak_rss_mb", "setup_s"}
    wall = untraced["end_to_end"]["wall_s"]
    assert (wall["median"], wall["q1"], wall["q3"], wall["n"], wall["unit"]) == (5.0, 4.5, 5.5, 3, "s")
    assert traced["end_to_end"]["wall_s"]["n"] == 2
    assert traced["end_to_end"]["setup_s"]["n"] == 4
    assert untraced["layers"] == {}
    assert traced["layers"] == {"bounds.validate.anchors": 6000, "gmm.score.calls": 2000}

