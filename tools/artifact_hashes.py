"""Hash every artifact of the three benchmark workloads, to compare two checkouts byte for byte.

Usage:
    python3 tools/artifact_hashes.py ROOT OUT [--size full|tiny] [--against OTHER_ROOT]

Runs the ``fidelity``, ``memorize`` and ``bounds`` workload configs of
``ROOT/perfbench/run.py`` (``workload_config(workload, 1, size)``) through the
``plaplace`` CLI of the checkout at ``ROOT``, one fresh process each, with
``--out OUT``.  Each study's directory under ``OUT`` is cleared first.  Prints
a JSON map from each artifact path, relative to ``OUT``, to its sha256, hashed as
the benchmark hashes its calls (``perfbench/checks.py`` ``hash_artifacts``).

Every artifact embeds the resolved config, ``output_dir`` included, so two
checkouts compare only when both are run with the same ``OUT``, one after the
other.  ``--against OTHER_ROOT`` does that: it runs ``ROOT``, keeps its CSV
files, then runs ``OTHER_ROOT`` into ``OUT``, and prints instead a JSON map
from each artifact whose sha256 differs, or that only one side writes, to
``{"sha256": [digest, other digest]}`` (``null`` for a missing side).  A CSV
that both sides write also gets, matching columns by name, ``"max_rel_diff"``,
the largest ``|a - b| / max(|a|, |b|)`` in each numeric column both write,
``"one_sided_columns"`` and ``"rows_differing"`` (see ``csv_differences``).
It exits 1 if the map is not empty.  At
``--size full`` the three runs of one checkout take about 20 s on 2 cores.
"""

from __future__ import annotations

import argparse
import csv
import importlib.util
import math
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = 1


def _perfbench_run(root: Path):
    """``ROOT/perfbench/run.py`` as a module; its sibling imports resolve in the same directory."""
    bench = root / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def artifact_hashes(root: Path, out: Path, size: str = "full") -> dict[str, str]:
    """Run every workload config of the checkout at ``root`` into ``out``; sha256 of each artifact written."""
    run = _perfbench_run(root)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    hashes = {}
    with tempfile.TemporaryDirectory() as configs:
        for workload, (subcommand, sub, _) in sorted(run.WORKLOADS.items()):
            cfg_path = Path(configs) / f"{workload}.json"
            cfg_path.write_text(json.dumps(run.workload_config(workload, SEED, size)))
            shutil.rmtree(out / sub, ignore_errors=True)
            cmd = [sys.executable, "-m", "plaplace.cli", subcommand, "--config", str(cfg_path), "--out", str(out)]
            proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
            if proc.returncode != 0:
                raise RuntimeError(f"plaplace {subcommand} exited {proc.returncode}:\n{proc.stderr}")
            hashes.update({f"{sub}/{rel}": digest for rel, digest in run.checks.hash_artifacts(str(out / sub)).items()})
    return hashes


def differing(hashes: dict[str, str], other: dict[str, str]) -> dict[str, list]:
    """``[digest, other digest]`` of each path whose digests differ, ``None`` standing for a missing side."""
    paths = sorted(hashes.keys() | other.keys())
    return {path: [hashes.get(path), other.get(path)] for path in paths if hashes.get(path) != other.get(path)}


def _rows(text: str) -> list[list[str]]:
    """The header and rows of a CSV artifact, its ``#`` comment line dropped."""
    return list(csv.reader(line for line in text.splitlines() if not line.startswith("#")))


def _rel_diff(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|): 0 for equal values (infinities and NaNs included), NaN against a number is 1."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isnan(a) or math.isnan(b) or math.isinf(a) or math.isinf(b):
        return 1.0
    return abs(a - b) / max(abs(a), abs(b))


def _columns(text: str) -> tuple[list[str], list[dict[str, str]]]:
    """The header of a CSV artifact and its rows as maps from column name to cell."""
    header, *rows = _rows(text) or [[]]
    return header, [dict(zip(header, row)) for row in rows]


def _cells_differ(a: str, b: str) -> bool:
    """Whether two cells differ: as floats by ``_rel_diff`` where both parse, else as text."""
    try:
        return _rel_diff(float(a), float(b)) > 0
    except ValueError:
        return a != b


def column_differences(text: str, other: str) -> dict[str, float] | None:
    """Largest relative difference in each numeric column that two CSV artifacts share, matched by name.

    Columns follow the first artifact's header.  A column is numeric when every
    cell on both sides parses as a float; the others are left out.  ``None``
    when the row counts differ.
    """
    (header, rows), (other_header, other_rows) = _columns(text), _columns(other)
    if len(rows) != len(other_rows):
        return None
    out = {}
    for name in (c for c in header if c in other_header):
        try:
            pairs = [(float(r[name]), float(o[name])) for r, o in zip(rows, other_rows)]
        except ValueError:
            continue
        out[name] = max((_rel_diff(a, b) for a, b in pairs), default=0.0)
    return out


def csv_differences(text: str, other: str) -> dict:
    """How two CSV artifacts differ, for ``--against``.

    ``max_rel_diff`` is ``column_differences``; ``one_sided_columns`` lists the
    columns only the first, then only the second, writes; ``rows_differing`` is
    ``[rows in which any shared column differs, rows]``, ``None`` when the row
    counts differ.
    """
    (header, rows), (other_header, other_rows) = _columns(text), _columns(other)
    shared = [c for c in header if c in other_header]
    rows_differing = None
    if len(rows) == len(other_rows):
        changed = sum(any(_cells_differ(r[c], o[c]) for c in shared) for r, o in zip(rows, other_rows))
        rows_differing = [changed, len(rows)]
    return {
        "max_rel_diff": column_differences(text, other),
        "one_sided_columns": [[c for c in header if c not in other_header], [c for c in other_header if c not in header]],
        "rows_differing": rows_differing,
    }


def _csv_texts(out: Path) -> dict[str, str]:
    """Every CSV artifact under ``out``, by its path relative to ``out``."""
    return {p.relative_to(out).as_posix(): p.read_text() for p in sorted(out.rglob("*.csv"))}


def compare(root: Path, other_root: Path, out: Path, size: str = "full") -> dict[str, dict]:
    """Run ``root``, then ``other_root``, into ``out``; each differing artifact with its digests and column diffs."""
    hashes = artifact_hashes(root, out, size)
    texts = _csv_texts(out)
    other_hashes = artifact_hashes(other_root, out, size)
    other_texts = _csv_texts(out)
    report = {}
    for path, digests in differing(hashes, other_hashes).items():
        report[path] = {"sha256": digests}
        if path in texts and path in other_texts:
            report[path].update(csv_differences(texts[path], other_texts[path]))
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path, help="checkout whose src and perfbench are run")
    parser.add_argument("out", type=Path, help="output directory passed to every CLI call as --out")
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--against", type=Path, metavar="OTHER_ROOT", help="checkout to compare ROOT with")
    args = parser.parse_args(argv)
    if args.against is None:
        print(json.dumps(artifact_hashes(args.root.resolve(), args.out.resolve(), args.size), indent=2, sort_keys=True))
        return 0
    diff = compare(args.root.resolve(), args.against.resolve(), args.out.resolve(), args.size)
    print(json.dumps(diff, indent=2))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
