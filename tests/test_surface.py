"""The public surface: every ``__all__`` name resolves, the README quick start runs as written, the
benchmark tracer finds every function it wraps, and the runtime imports nothing outside its declared
dependencies."""

import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import plaplace

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def test_benchmark_tracer_installs():
    """The benchmark tracer rebinds functions by name; a renamed one makes ``install`` raise here."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    code = "import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_runtime_imports_no_scipy():
    """scipy is a test dependency only: importing every plaplace module must not load it."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = (
        "import importlib, pkgutil, sys, plaplace\n"
        "for info in pkgutil.iter_modules(plaplace.__path__): importlib.import_module(f'plaplace.{info.name}')\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
