"""The public surface: every ``__all__`` name resolves, and the README quick start runs as written."""

import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np

import plaplace

README = Path(__file__).resolve().parents[1] / "README.md"


def test_all_names_resolve_and_quick_start_runs(capsys):
    modules = [importlib.import_module(f"plaplace.{info.name}") for info in pkgutil.iter_modules(plaplace.__path__)]
    listed = [(module.__name__, name) for module in modules for name in getattr(module, "__all__", ())]
    assert listed
    missing = [f"{module}.{name}" for module, name in listed if not hasattr(importlib.import_module(module), name)]
    assert not missing

    block = re.search(r"^## Library quick start\n+```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert block is not None
    exec(compile(block.group(1), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and np.all(np.isfinite([float(v) for v in printed]))
