"""Smoke test of ``tools/artifact_hashes.py`` on this checkout at the tiny workload size."""

import importlib.util
import json
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

spec = importlib.util.spec_from_file_location("artifact_hashes", ROOT / "tools" / "artifact_hashes.py")
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)


def test_hashes_every_study(tmp_path):
    hashes = tool.artifact_hashes(ROOT, tmp_path, "tiny")
    for study in ("fidelity", "memorization", "bounds"):
        assert f"{study}/result.json" in hashes
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in hashes.values())
    assert set(hashes) == {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}


def test_checkout_matches_itself(tmp_path, capsys):
    assert tool.main([str(ROOT), str(tmp_path), "--size", "tiny", "--against", str(ROOT)]) == 0
    assert json.loads(capsys.readouterr().out) == {}


def test_differing_names_changed_and_one_sided_paths():
    ours = {"a.csv": "1", "b.csv": "2", "c.csv": "3"}
    theirs = {"a.csv": "1", "b.csv": "9", "d.csv": "4"}
    assert tool.differing(ours, theirs) == {"b.csv": ["2", "9"], "c.csv": ["3", None], "d.csv": [None, "4"]}
    assert tool.differing(ours, dict(ours)) == {}


def test_column_differences_per_numeric_column():
    ours = "# config\nkind,p,value,n\na,1.0,2.0,3\nb,2.0,-4.0,3\n"
    theirs = "# config\nkind,p,value,n\na,1.0,2.0000000002,3\nc,2.0,-4.000000002,3\n"
    diff = tool.column_differences(ours, theirs)
    assert list(diff) == ["p", "value", "n"]  # "kind" holds strings
    assert diff["p"] == 0.0 and diff["n"] == 0.0
    assert diff["value"] == abs(-4.0 - -4.000000002) / 4.000000002
    assert tool.column_differences(ours, ours) == {"p": 0.0, "value": 0.0, "n": 0.0}
    assert tool.column_differences("x\n1.0\n", "x\n1.0\n2.0\n") is None  # row counts differ
    assert tool.column_differences("x\n1.0\n", "y\n1.0\n") is None  # headers differ
    assert tool.column_differences("x\ninf\nnan\n0.0\n", "x\ninf\nnan\n-0.0\n") == {"x": 0.0}
    assert tool.column_differences("x\ninf\n", "x\n1.0\n") == {"x": 1.0}


def test_against_a_checkout_that_writes_other_floats(tmp_path, capsys):
    """A copy that writes every float cell 2**-40 larger differs in its CSVs only, each by 2**-40 give or take
    the product's rounding (2**-53 relative, so 2**-52 of the difference)."""
    other = tmp_path / "other"
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, other / part, ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    tables = other / "src" / "plaplace" / "tables.py"
    text = tables.read_text()
    assert text.count("return repr(float(v))") == 1
    tables.write_text(text.replace("return repr(float(v))", "return repr(float(v) * (1 + 2**-40))"))

    assert tool.main([str(ROOT), str(tmp_path / "out"), "--size", "tiny", "--against", str(other)]) == 1
    diff = json.loads(capsys.readouterr().out)
    assert "fidelity/exact.csv" in diff and "fidelity/seed_1/estimates.csv" in diff
    for path, entry in diff.items():
        assert path.endswith(".csv") and all(re.fullmatch(r"[0-9a-f]{64}", d) for d in entry["sha256"])
        columns = entry["max_rel_diff"]
        assert 2**-40 - 2**-52 <= max(columns.values()) <= 2**-40 + 2**-52
    estimates = diff["fidelity/seed_1/estimates.csv"]["max_rel_diff"]
    assert "formulation" not in estimates and estimates["seed"] == 0.0
