"""Output checks on the artifacts of one ``plaplace`` CLI call.

Each ``check_<workload>`` returns ``(study, checks)``: the study metrics read
or recomputed from the artifacts, and a dict of named pass/fail results.
Nothing here trusts a number the program summarised when the rows it came
from are on disk: the oracle z-scores are recomputed from the summary and
exact-reference columns, and bound dominance is re-checked row by row.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import statistics

# Columns whose cells are labels; every other CSV cell must parse as a float.
TEXT_COLUMNS = {"field", "anchor_kind", "formulation", "criterion"}

# Two-sided tail of one 3-sigma test; the oracle gate spreads it over all comparisons.
THREE_SIGMA_TAIL = math.erfc(3.0 / math.sqrt(2.0))


def artifact_paths(out: str) -> list[str]:
    return sorted(
        os.path.relpath(os.path.join(d, f), out) for d, _, files in os.walk(out) for f in files
    )


def hash_artifacts(out: str) -> dict[str, str]:
    hashes = {}
    for rel in artifact_paths(out):
        with open(os.path.join(out, rel), "rb") as f:
            hashes[rel] = hashlib.sha256(f.read()).hexdigest()
    return hashes


def nondeterministic_files(runs: list[dict[str, str]]) -> int:
    """Artifacts missing from some repeat, or whose bytes differ between repeats."""
    names = set().union(*runs)
    return sum(len({run.get(name) for run in runs}) > 1 for name in names)


def bytes_written(out: str) -> int:
    return sum(os.path.getsize(os.path.join(out, rel)) for rel in artifact_paths(out))


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def malformed_cells(out: str) -> int:
    """Numeric CSV cells in the artifacts that do not parse as a float."""
    bad = 0
    for rel in artifact_paths(out):
        if rel.endswith(".csv"):
            for row in read_csv(os.path.join(out, rel)):
                bad += sum(not _is_float(v) for k, v in row.items() if k not in TEXT_COLUMNS)
    return bad


def _read_json(path: str) -> dict:
    with open(path) as f:
        return json.load(f)


def read_result(out: str, sub: str) -> dict | None:
    """The run's ``result.json`` (seed outcome and resolved config), or None if it was not written."""
    path = os.path.join(out, sub, "result.json")
    return _read_json(path) if os.path.exists(path) else None


def check_fidelity(out: str, cfg: dict) -> tuple[dict, dict]:
    base = os.path.join(out, "fidelity")
    n_repeats = cfg["fidelity"]["n_repeats"]
    exact = {(r["anchor_idx"], float(r["p"])): r for r in read_csv(os.path.join(base, "exact.csv"))}
    zs, cosines, exact_consistent = [], [], True
    for seed in cfg["seeds"]:
        seed_dir = os.path.join(base, f"seed_{seed}")
        for row in read_csv(os.path.join(seed_dir, "summary.csv")):
            if row["field"] != "oracle":
                continue
            ref = exact[(row["anchor_idx"], float(row["p"]))]
            exact_consistent &= float(row["exact_mean"]) == float(ref["exact_mean"])
            se_mean = float(row["std"]) / math.sqrt(n_repeats)
            err = abs(float(row["mean"]) - float(ref["exact_mean"]))
            zs.append(err / max(math.hypot(se_mean, float(ref["exact_std_error"])), 1e-300))
        cosines += [float(r["cosine"]) for r in read_csv(os.path.join(seed_dir, "field_errors.csv"))]
    # Bonferroni: every comparison at the 3-sigma tail divided by the number of comparisons.
    z_gate = statistics.NormalDist().inv_cdf(1.0 - THREE_SIGMA_TAIL / (2 * max(len(zs), 1)))
    study = {
        "fidelity_max_oracle_z": max(zs),
        "fidelity_oracle_rows_over_3": sum(z > 3.0 for z in zs),
        "fidelity_oracle_z_gate": z_gate,
        "fidelity_median_cosine": statistics.median(cosines),
    }
    checks = {
        "summary_exact_matches_exact_csv": exact_consistent,
        "oracle_z_within_family_3_sigma": max(zs) <= z_gate,
    }
    return study, checks


def check_memorize(out: str, cfg: dict) -> tuple[dict, dict]:
    base = os.path.join(out, "memorization")
    detection = _read_json(os.path.join(base, "detection.json"))["results"]
    auc = _read_json(os.path.join(base, "auc_summary.json"))["auc"]["p_laplace"]
    p_laplace = [d for d in detection if d["criterion"] == "p_laplace"]
    study = {
        "memorize_percentile": statistics.mean(d["percentile"] for d in p_laplace),
        "memorize_auc": auc["mean"],
    }
    checks = {
        "detection_covers_every_seed": sorted(d["seed"] for d in p_laplace) == sorted(cfg["seeds"]),
        "auc_summary_matches_detection": auc["per_seed"] == [d["auc"] for d in p_laplace],
    }
    return study, checks


def check_bounds(out: str, cfg: dict) -> tuple[dict, dict]:
    base = os.path.join(out, "bounds")
    summary = _read_json(os.path.join(base, "summary.json"))
    ratios, dominated = [], True
    for seed in cfg["seeds"]:
        for p in cfg["bounds"]["p_values"]:
            for row in read_csv(os.path.join(base, f"seed_{seed}", f"bound_reports_p{p:g}.csv")):
                if row["assumptions_ok"] == "1":
                    err, c_p = float(row["empirical_error"]), float(row["c_p"])
                    dominated &= err <= c_p
                    if c_p > 0:
                        ratios.append(err / c_p)
    study = {"bounds_max_ratio": summary["max_error_bound_ratio"]}
    checks = {
        "dominance_holds": summary["dominance_holds"] is True and summary["max_error_bound_ratio"] <= 1.0,
        "every_report_row_dominated": dominated,
        "summary_ratio_matches_reports": max(ratios, default=0.0) == summary["max_error_bound_ratio"],
    }
    return study, checks


CHECKS = {"fidelity": check_fidelity, "memorize": check_memorize, "bounds": check_bounds}
