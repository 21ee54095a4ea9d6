"""Smoke test of ``tools/artifact_hashes.py`` on this checkout at the tiny workload size."""

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_hashes_every_study(tmp_path):
    spec = importlib.util.spec_from_file_location("artifact_hashes", ROOT / "tools" / "artifact_hashes.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    hashes = tool.artifact_hashes(ROOT, tmp_path, "tiny")
    for study in ("fidelity", "memorization", "bounds"):
        assert f"{study}/result.json" in hashes
    assert all(re.fullmatch(r"[0-9a-f]{64}", digest) for digest in hashes.values())
    assert set(hashes) == {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
