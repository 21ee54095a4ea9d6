"""Smoke test of ``tools/artifact_hashes.py`` on this checkout at the tiny workload size."""

import importlib.util
import json
import re
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
