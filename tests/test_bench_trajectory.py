"""Smoke tests of ``tools/bench_trajectory.py`` and ``tools/bench_compare.py`` on fabricated benchmark data."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _tool(name="bench_trajectory"):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
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



def _entry(run: str, workload: str, medians: dict, trace: int = 0, size: str = "full") -> dict:
    return {"run": run, "workload": workload, "trace": trace, "size": size,
            "end_to_end": {name: {"median": value} for name, value in medians.items()}}


def _trajectory(cpu_change: float) -> dict:
    """Three fidelity pairs giving every verdict, plus bounds entries to skip: traced, tiny, or with no parent."""
    parent = {"wall_s": [4.0, 4.1, 4.2], "cpu_s": [4.0, 4.0, 4.0], "setup_s": [0.15, 0.2, 0.3],
              "peak_rss_mb": [40.0, 44.0, 48.0]}
    change = {"wall_s": [4.1, 4.2, 4.3], "cpu_s": [cpu_change] * 3, "setup_s": [0.18, 0.2, 0.22],
              "peak_rss_mb": [38.0, 38.5, 39.0]}
    entries = []
    for i in range(3):
        for run, side in (("parent", parent), ("change", change)):
            entries.append(_entry(run, "fidelity", {name: values[i] for name, values in side.items()}))
    entries += [_entry("parent", "bounds", {"wall_s": 2.0}, trace=1),
                _entry("parent", "bounds", {"wall_s": 2.0}, size="tiny"), _entry("change", "bounds", {"wall_s": 9.0})]
    return {"entries": entries}


def test_compare_gives_each_verdict(tmp_path, capsys):
    tool = _tool("bench_compare")
    rows = tool.compare(_trajectory(cpu_change=5.2), json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert {r["workload"] for r in rows} == {"fidelity"}
    by_metric = {r["metric"]: r for r in rows}
    # wall +2.4% inside a tight parent spread; cpu +30% past its 24% bound; setup's parent quartiles lie 37.5% apart,
    # past its 25% bound, and one change run is slower than the fastest parent run; peak RSS spreads 9% against a 5%
    # bound, but every change run beats every parent run.
    assert {name: r["verdict"] for name, r in by_metric.items()} == {
        "wall_s": "ok", "cpu_s": "worse", "setup_s": "unresolved", "peak_rss_mb": "ok"}
    setup = by_metric["setup_s"]
    assert (setup["parent"], setup["change"], setup["n"]) == (0.2, 0.2, (3, 3))
    assert setup["parent_spread"] == pytest.approx((0.25 - 0.175) / 0.2)
    assert by_metric["cpu_s"]["relative"] == pytest.approx(0.3)

    path = tmp_path / "BENCH_0.json"
    path.write_text(json.dumps(_trajectory(cpu_change=5.2)))
    assert tool.main([str(path)]) == 1
    assert capsys.readouterr().out.count("fidelity") == 4
    path.write_text(json.dumps(_trajectory(cpu_change=4.8)))
    assert tool.main([str(path)]) == 0


def test_compare_verdict_for_higher_is_better():
    tool = _tool("bench_compare")
    assert tool.verdict([1.0, 1.0, 1.0], [0.7, 0.7, 0.7], 0.24, "higher")["verdict"] == "worse"
    assert tool.verdict([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], 0.24, "higher")["verdict"] == "ok"
    assert tool.verdict([0.5, 1.0, 1.5], [1.2, 1.6, 2.0], 0.24, "higher")["verdict"] == "unresolved"
    assert tool.verdict([0.5, 1.0, 1.5], [1.6, 1.7, 2.0], 0.24, "higher")["verdict"] == "ok"


def _pairs(parent: list[float], change: list[float]) -> dict:
    """Fidelity cpu_s pairs in the order alternating runs append them: even pairs run the parent first, odd the change."""
    entries = []
    for k, (p, c) in enumerate(zip(parent, change)):
        pair = [_entry("parent", "fidelity", {"cpu_s": p}), _entry("change", "fidelity", {"cpu_s": c})]
        entries += pair if k % 2 == 0 else pair[::-1]
    return {"entries": entries}


def test_compare_pairs_runs_in_file_order_and_finds_a_gain():
    tool = _tool("bench_compare")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent = [7.0, 7.4, 6.9, 7.2, 7.6, 7.1, 6.8, 7.3, 7.0, 7.5]
    change = [5.2, 5.0, 5.4, 5.1, 7.7, 5.3, 5.0, 5.2, 5.5, 5.1]  # loses only the fifth pair
    (row,) = tool.compare(_pairs(parent, change), spec)
    assert (row["metric"], row["wins"], row["verdict"]) == ("cpu_s", (9, 10), "gain")
    # A tie counts for neither side, so 8 of 10 pairs won is no gain, however far apart the medians lie.
    (row,) = tool.compare(_pairs(parent, [parent[0]] + change[1:]), spec)
    assert (row["wins"], row["verdict"]) == ((8, 10), "ok")
    # The k-th parent run meets the k-th change run: every pair is won although the change's 5.5 s runs are slower
    # than the parent's 5 s runs, but the medians differ by less than the parent's quartile gap of 2 s (33%).
    (row,) = tool.compare(_pairs([7.0, 5.0] * 5, [5.5, 4.9] * 5), spec)
    assert (row["wins"], row["verdict"]) == ((10, 10), "unresolved")
    # Nine pairs are too few for a gain, even all won.
    assert tool.verdict(parent[:9], [5.0] * 9, 0.24, "lower")["verdict"] == "ok"
    assert tool.verdict([1.0] * 10, [1.3] * 10, 0.24, "higher") == {
        "parent": 1.0, "change": 1.3, "relative": pytest.approx(0.3), "parent_spread": 0.0, "n": (10, 10),
        "wins": (10, 10), "verdict": "gain"}
