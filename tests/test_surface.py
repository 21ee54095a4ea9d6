"""The public surface: every ``__all__`` name resolves, every top-level function and class is used by the
package itself, the README quick start runs as written and its CLI block lists the parser's subcommands, the
benchmark tracer finds every function it wraps and sees every layer a workload runs, and the runtime imports
nothing outside its declared dependencies."""

import ast
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plaplace
from plaplace import cli

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


def _defined_name(node: ast.stmt) -> str | None:
    """The name a top-level statement defines: a function, a class, or a module constant other than a dunder."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    targets = node.targets if isinstance(node, ast.Assign) else [node.target] if isinstance(node, ast.AnnAssign) else []
    if len(targets) == 1 and isinstance(targets[0], ast.Name) and not targets[0].id.startswith("__"):
        return targets[0].id
    return None


def _uses(module: str, tree: ast.Module):
    """``(module, name, user)`` for each use of a package definition in one module's syntax tree, ``user`` being
    the top-level name whose statement holds it.  Three things count: importing the name from its own module
    (before any ``as``), an attribute of a module imported with ``from . import``, and a load of a bare name,
    which resolves to the module's own definition."""
    modules = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None for alias in node.names}
    for statement in tree.body:
        user = _defined_name(statement)
        for node in ast.walk(statement):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is not None:
                yield from ((node.module, alias.name, user) for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
                yield modules[node.value.id], node.attr, user
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield module, node.id, user


def unused_definitions(package: Path) -> list[str]:
    """``module.name`` of every top-level function, class and module constant that no code of the package uses
    outside its own definition.  A use names the definition's module, so a local variable or an attribute of the
    same name in another module is not one; ``__all__`` entries and docstrings are strings, so they are not one
    either."""
    defined, used = [], {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [(path.stem, name) for name in map(_defined_name, tree.body) if name is not None]
        for module, name, user in _uses(path.stem, tree):
            used.setdefault((module, name), set()).add((path.stem, user))
    return [f"{module}.{name}" for module, name in defined if not used.get((module, name), set()) - {(module, name)}]


def test_every_definition_is_used_by_the_package():
    """A function, class or module constant that only the tests use is a second route through the code: delete
    it, or use it."""
    assert unused_definitions(ROOT / "src" / "plaplace") == []


def test_a_shared_name_is_not_a_use(tmp_path):
    """A constant whose name is only a local variable or an attribute in other modules is still unused."""
    (tmp_path / "a.py").write_text("x: int = 3\nLIMIT = 4\n\n\ndef f(y):\n    return y * LIMIT\n")
    (tmp_path / "b.py").write_text("from . import a\n\n\ndef g(x):\n    return a.f(x).x\n")
    assert unused_definitions(tmp_path) == ["a.x", "b.g"]


def test_seeds_become_generators_only_in_the_drivers_and_config():
    """Every function that draws takes its generator: only the study drivers and ``build_gmm`` turn an integer
    seed into one, and ``geometry`` defines the factory.  Neither a seedless generator nor a training seed
    exists."""
    makers = {"make_rng", "default_rng"}
    seeding = set()
    for path in (ROOT / "src" / "plaplace").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and {getattr(node.func, "id", None), getattr(node.func, "attr", None)} & makers:
                seeding.add(path.stem)
    assert seeding <= {"experiments", "config", "geometry"}
    with pytest.raises(TypeError):
        plaplace.make_rng()
    with pytest.raises(TypeError):
        plaplace.TrainConfig(seed=0)


def test_readme_cli_block_names_every_subcommand():
    """The README's CLI block shows one line per subcommand: exactly those the parser accepts, in its order."""
    section = re.search(r"^## CLI\n(.*?)^## ", README.read_text(), re.S | re.M)
    assert section is not None
    block = re.search(r"^```sh\n(.*?)^```", section.group(1), re.S | re.M)
    assert block is not None
    shown = re.findall(r"^plaplace (\S+)", block.group(1), re.M)
    [subcommands] = [action.choices for action in cli.build_parser()._actions if action.dest == "command"]
    assert shown == list(subcommands)


def test_benchmark_tracer_installs():
    """The benchmark tracer rebinds functions by name; a renamed one makes ``install`` raise here."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    code = "import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# Per benchmark workload, traced metrics that must be nonzero on its tiny config.  A driver that
# calls a function other than through the module attribute the tracer rebinds reads 0 here.
TRACED_LAYERS = {
    "fidelity": ["gmm.dense.calls", "estimators.boundary.calls", "estimators.volume.calls",
                 "score_model.train.steps", "svgplot.files", "experiments.write.s"],
    "memorize": ["memorization.grid.nodes", "estimators.boundary.calls", "svgplot.files", "experiments.write.s"],
    "bounds": ["bounds.validate.anchors", "gmm.score.calls", "score_model.reverse_sample.points",
               "experiments.write.s"],
}

# Per workload, traced counts that must read exactly these values on its tiny config (one seed, 3 p, 3
# repeats, 1000 dense points, 2 epochs).  The fidelity estimator calls are its cells: 2 fields x 6 anchors x
# 3 p x 3 repeats per formulation, and one dense draw per anchor.  The field counts pin every evaluation of the
# oracle and the learned score.  A driver that drops or doubles a call fails.
TRACED_COUNTS = {
    "fidelity": {"estimators.boundary.calls": 108, "estimators.volume.calls": 108, "gmm.dense.calls": 6,
                 "gmm.dense.points": 6000, "score_model.train.steps": 64, "gmm.score.calls": 109,
                 "gmm.score.points": 29000, "score_model.predict.calls": 109, "score_model.predict.points": 29000},
    "memorize": {"score_model.train.steps": 160, "score_model.predict.calls": 72, "score_model.predict.points": 6662,
                 "estimators.boundary.calls": 6, "memorization.grid.nodes": 50, "svgplot.files": 8},
    "bounds": {"gmm.score.calls": 5, "gmm.score.points": 500, "score_model.train.steps": 64,
               "score_model.predict.calls": 105, "score_model.predict.points": 1000,
               "score_model.reverse_sample.points": 5, "bounds.validate.anchors": 15, "svgplot.files": 3},
}


@pytest.mark.parametrize("workload", sorted(TRACED_LAYERS))
def test_traced_layers_nonzero(workload, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])}
    code = (
        "import json, sys, run, tracing\n"
        "from plaplace.cli import main\n"
        "tracer = tracing.Tracer()\n"
        "tracing.install(tracer)\n"
        "workload, cfg_path, out = sys.argv[1:]\n"
        "with open(cfg_path, 'w') as f: json.dump(run.workload_config(workload, 0, 'tiny'), f)\n"
        "code = main([run.WORKLOADS[workload][0], '--config', cfg_path, '--out', out])\n"
        "print(json.dumps({'exit': code, 'metrics': tracing.layer_metrics(tracer.dump())}))"
    )
    args = [workload, str(tmp_path / "config.json"), str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    assert [name for name in TRACED_LAYERS[workload] if not result["metrics"][name] > 0] == []
    counts = TRACED_COUNTS.get(workload, {})
    assert {name: result["metrics"][name] for name in counts} == counts


def test_runtime_imports_no_scipy():
    """scipy and jsonschema are test dependencies only: importing every plaplace module must load neither, nor
    jsonschema's own dependencies."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    test_only = ["scipy", "jsonschema", "referencing", "rpds", "attr", "attrs", "jsonschema_specifications"]
    code = (
        "import importlib, pkgutil, sys, plaplace\n"
        "for info in pkgutil.iter_modules(plaplace.__path__): importlib.import_module(f'plaplace.{info.name}')\n"
        f"print(sorted(name for name in sys.modules if name.split('.')[0] in {test_only!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
