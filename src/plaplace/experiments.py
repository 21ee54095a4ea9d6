"""End-to-end experiment drivers behind the CLI subcommands.

Each driver loops over the configured seeds, isolates per-seed failures,
and writes CSV/JSON/SVG artifacts that embed the resolved config, so a
rerun with the same config and seed reproduces files byte for byte.
"""

from __future__ import annotations

import json
import logging
import os

import numpy as np

from . import bounds as B
from . import estimators
from . import memorization as M
from . import svgplot
from .config import build_estimator_config, build_gmm, build_schedule, config_header
from .estimators import estimate_boundary, write_estimates_csv
from .geometry import make_rng, split_rng
from .gmm import averaged_p_laplace_dense, log_density, perturb, sample_gmm
from .gmm import score_field as gmm_score_field
from .memorization import auc, build_scenario, grid_p_laplace, make_grid, percentile_rank, score_norm_criterion
from .score_model import TrainConfig, learned_score, reverse_sample, train
from .score_model import score_field as model_score_field
from .tables import write_table

logger = logging.getLogger(__name__)

__all__ = ["run_fidelity", "run_memorization", "run_bounds"]


def _outdir(cfg: dict, *parts: str) -> str:
    path = os.path.join(cfg["output_dir"], *parts)
    os.makedirs(path, exist_ok=True)
    return path


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump({"schema_version": 1, **payload}, f, indent=2, sort_keys=True)


def _per_seed(cfg: dict, fn) -> tuple[dict, dict]:
    """Run fn(seed) for every configured seed, collecting failures instead of aborting.

    Returns the run's status and ``{seed: fn(seed)}`` over the completed seeds, in seed order.
    """
    outputs, failed = {}, {}
    for seed in cfg["seeds"]:
        try:
            outputs[seed] = fn(seed)
        except Exception as exc:  # deliberate: a bad seed must not sink the others
            logger.exception("seed %d failed", seed)
            failed[str(seed)] = f"{type(exc).__name__}: {exc}"
    return {"completed_seeds": list(outputs), "failed_seeds": failed, "ok": not failed}, outputs


def _write_result(out: str, cfg: dict, result: dict) -> dict:
    """The study's result.json, with errors.json beside it exactly when a seed failed; returns result."""
    errors = os.path.join(out, "errors.json")
    if not result["ok"]:
        _write_json(errors, result)
    elif os.path.exists(errors):
        os.remove(errors)
    _write_json(os.path.join(out, "result.json"), {**result, "config": cfg})
    return result


def _train(cfg: dict, data: np.ndarray, schedule, seed: int):
    """Score model trained on data with the config's training recipe and this seed."""
    block = cfg["training"]
    train_cfg = TrainConfig(
        epochs=block["epochs"], learning_rate=block["learning_rate"], batch_size=block["batch_size"], seed=seed
    )
    return train(data, schedule, train_cfg, hidden_width=block["hidden_width"], embed_dim=block["embed_dim"])


def fidelity_anchors(gmm) -> tuple[np.ndarray, list[str]]:
    """Six anchor neighborhoods: the mixture means and the pairwise midpoints."""
    means = gmm.means
    k = means.shape[0]
    mids = np.array([(means[i] + means[j]) / 2.0 for i in range(k) for j in range(i + 1, k)]).reshape(-1, gmm.dim)
    anchors = np.vstack([means, mids])
    labels = ["maximum"] * k + ["midpoint"] * mids.shape[0]
    return anchors, labels


def _field_error_stats(gmm, model, schedule, seed: int):
    """Direction and magnitude agreement of the learned score with the oracle at 2000 mixture draws."""
    pts = sample_gmm(gmm, 2000, make_rng(10_000 + seed))
    oracle = gmm_score_field(perturb(gmm, schedule.alphas[0]))(pts)
    learned = learned_score(model, schedule, pts, 0)
    on = np.linalg.norm(oracle, axis=1)
    ln = np.linalg.norm(learned, axis=1)
    cos = np.sum(oracle * learned, axis=1) / np.maximum(on * ln, 1e-300)
    ratio = ln / np.maximum(on, 1e-300)
    return cos, ratio


def run_fidelity(cfg: dict) -> dict:
    """Estimator-vs-exact study at six anchors, oracle and learned fields."""
    gmm = build_gmm(cfg)
    schedule = build_schedule(cfg)
    anchors, labels = fidelity_anchors(gmm)
    p_values = cfg["estimator"]["p_values"]
    n_repeats = cfg["fidelity"]["n_repeats"]
    ecfgs = [build_estimator_config(cfg, p) for p in p_values]
    # Looked up at call time, so a rebound module attribute (e.g. a tracing wrapper) is the one called.
    formulations = (("boundary", estimators.estimate_boundary), ("volume", estimators.estimate_volume))
    out = _outdir(cfg, "fidelity")

    # Dense reference values are seed-independent: one draw per anchor serves every p.
    dense_rng = make_rng(990_001)
    exact = [  # per anchor, one PLaplaceEstimate per p
        averaged_p_laplace_dense(
            gmm, anchor, p_values, cfg["estimator"]["radius"], cfg["fidelity"]["n_dense"], dense_rng
        )
        for anchor in anchors
    ]
    write_table(
        os.path.join(out, "exact.csv"),
        ["anchor_idx", "anchor_kind", *(f"x0_{i}" for i in range(gmm.dim)), "p", "exact_mean", "exact_std_error",
         "n_dense"],
        ([i, label, *anchor, p, est.value, est.std_error, est.n_used]
         for i, (anchor, label, refs) in enumerate(zip(anchors, labels, exact)) for p, est in zip(p_values, refs)),
        config_header(cfg),
    )

    if gmm.dim == 2:
        grid = make_grid(gmm, 60, 2.0)
        svgplot.heatmap(
            os.path.join(out, "density.svg"), log_density(gmm, grid.points).reshape(grid.shape), grid.extent,
            title="oracle log-density with anchors", comment=config_header(cfg),
            markers=[(float(a[0]), float(a[1]), "red" if l == "maximum" else "white") for a, l in zip(anchors, labels)],
        )

    def one_seed(seed: int) -> None:
        seed_out = _outdir(cfg, "fidelity", f"seed_{seed}")
        header = config_header(cfg, seed)
        model = _train(cfg, sample_gmm(gmm, cfg["training"]["n_train"], make_rng(seed)), schedule, seed)
        fields = {"oracle": gmm_score_field(gmm), "learned": model_score_field(model, schedule, 0)}

        cos, ratio = _field_error_stats(gmm, model, schedule, seed)
        write_table(os.path.join(seed_out, "field_errors.csv"), ["cosine", "magnitude_ratio"], zip(cos, ratio), header)
        svgplot.histogram(
            os.path.join(seed_out, "direction_error.svg"), cos,
            title=f"score direction agreement (median {np.median(cos):.3f})", comment=header,
        )
        svgplot.histogram(
            os.path.join(seed_out, "magnitude_error.svg"), ratio,
            title=f"score magnitude ratio (median {np.median(ratio):.3f})", comment=header,
        )

        cells = []  # per (field, anchor, p, formulation): the estimates.csv row prefix and its repeats' columns
        summary_rows = []
        # One substream per repeat, spawned cell by cell.
        rep_rng = make_rng(seed + 500_000)
        for field_name, field in fields.items():
            for i, (anchor, label, refs) in enumerate(zip(anchors, labels, exact)):
                for p, ecfg, ref in zip(p_values, ecfgs, refs):
                    for formulation, estimator in formulations:
                        ests = [estimator(field, anchor, ecfg, sub) for sub in split_rng(rep_rng, n_repeats)]
                        values = np.array([e.value for e in ests])
                        cells.append(([*anchor, p, formulation, ecfg.n_samples, ecfg.radius, seed], values,
                                      np.array([e.std_error for e in ests]),
                                      np.array([e.singular_hits for e in ests])))
                        mean = float(values.mean())
                        se_mean = float(values.std(ddof=1) / np.sqrt(n_repeats))
                        q = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
                        summary_rows.append(
                            [field_name, i, label, p, formulation, mean, values.std(ddof=1), *q,
                             ref.value, abs(mean - ref.value),
                             abs(mean - ref.value) / max(np.hypot(se_mean, ref.std_error), 1e-300)]
                        )
        # Rows are expanded inside the writer, one at a time.
        estimate_rows = ([*prefix, *columns] for prefix, *repeats in cells for columns in zip(*repeats))
        write_estimates_csv(os.path.join(seed_out, "estimates.csv"), gmm.dim, estimate_rows, header)
        write_table(
            os.path.join(seed_out, "summary.csv"),
            ["field", "anchor_idx", "anchor_kind", "p", "formulation", "mean", "std",
             "min", "q25", "median", "q75", "max", "exact_mean", "abs_error", "z_score"],
            summary_rows, header,
        )

    return _write_result(out, cfg, _per_seed(cfg, one_seed)[0])


def run_memorization(cfg: dict) -> dict:
    """Replica-injection study: percentile tables, grids, and AUC summary.

    Every criterion ranks one way: a lower value at the memorized point flags memorization.
    """
    gmm = build_gmm(cfg)
    schedule = build_schedule(cfg)
    mem_cfg = cfg["memorization"]
    p_values = cfg["estimator"]["p_values"]
    out = _outdir(cfg, "memorization")
    grid = make_grid(gmm, mem_cfg["grid_size"], mem_cfg["pad_sigma"])
    ecfgs = [build_estimator_config(cfg, p) for p in p_values]
    lowest = p_values.index(min(p_values))  # the p-Laplace detection reads the smallest p

    def one_seed(seed: int) -> tuple[list, list]:
        seed_out = _outdir(cfg, "memorization", f"seed_{seed}")
        header = config_header(cfg, seed)
        scenario = build_scenario(gmm, mem_cfg["n_base"], mem_cfg["n_replicas"], seed)
        _write_json(os.path.join(seed_out, "scenario.json"), {"config": cfg, "scenario": scenario.to_dict()})
        model = _train(cfg, scenario.training_set(), schedule, seed)
        field = model_score_field(model, schedule, 0)
        mem_pt = scenario.memorized_point

        svgplot.scatter(
            os.path.join(seed_out, "training_set.svg"),
            [("base samples", scenario.base_samples, "#4878a8"), ("memorized", mem_pt[None, :], "red")],
            title=f"training set, seed {seed}", comment=header,
        )

        rows, mem_vals = [], []
        matrices = grid_p_laplace(field, grid, ecfgs, make_rng(seed + 100_000))
        for p, ecfg, matrix in zip(p_values, ecfgs, matrices):
            mem_val = estimate_boundary(field, mem_pt, ecfg, make_rng(seed + 200_000)).value
            pct = percentile_rank(matrix, mem_val)
            rows.append([seed, "p_laplace", p, mem_val, pct])
            mem_vals.append(mem_val)
            M.write_grid_csv(os.path.join(seed_out, f"grid_p{p:g}.csv"), grid, matrix, header_comment=header)
            svgplot.heatmap(
                os.path.join(seed_out, f"grid_p{p:g}.svg"), matrix, grid.extent,
                title=f"p={p:g} averaged operator, memorized pct {pct:.1f}%", comment=header,
                markers=[(float(mem_pt[0]), float(mem_pt[1]), "red")],
            )

        background = sample_gmm(gmm, mem_cfg["n_background"], make_rng(seed + 300_000))
        [bg_vals] = M.boundary_at_points(field, background, [ecfgs[lowest]], make_rng(seed + 400_000))
        criteria = {
            "p_laplace": (mem_vals[lowest], matrices[lowest], bg_vals),
            "score_norm": (score_norm_criterion(field, mem_pt), score_norm_criterion(field, grid.points),
                           score_norm_criterion(field, background)),
        }
        detections = [
            {"seed": seed, "criterion": name, "percentile": percentile_rank(grid_values, mem), "auc": auc([mem], bg),
             "values_memorized": [float(mem)], "values_background": [float(v) for v in bg]}
            for name, (mem, grid_values, bg) in criteria.items()
        ]
        baseline = detections[-1]  # score_norm, the last criterion
        rows.append([seed, "score_norm", p_values[lowest], baseline["values_memorized"][0], baseline["percentile"]])
        return rows, detections

    result, outputs = _per_seed(cfg, one_seed)
    write_table(
        os.path.join(out, "percentiles.csv"), ["seed", "criterion", "p", "value_at_memorized", "percentile"],
        (row for rows, _ in outputs.values() for row in rows), config_header(cfg),
    )
    detections = [d for _, seed_detections in outputs.values() for d in seed_detections]
    auc_summary = {}
    for name in ("p_laplace", "score_norm"):
        vals = [d["auc"] for d in detections if d["criterion"] == name]
        auc_summary[name] = {"per_seed": vals, "mean": float(np.mean(vals)) if vals else None}
    _write_json(os.path.join(out, "auc_summary.json"), {"auc": auc_summary, "config": cfg})
    _write_json(os.path.join(out, "detection.json"), {"config": cfg, "results": detections})
    return _write_result(out, cfg, result)


def run_bounds(cfg: dict) -> dict:
    """Bound-dominance study on model-sampled anchors."""
    gmm = build_gmm(cfg)
    schedule = build_schedule(cfg)
    out = _outdir(cfg, "bounds")
    p_values = cfg["bounds"]["p_values"]
    ecfgs = [build_estimator_config(cfg, p) for p in p_values]
    oracle = gmm_score_field(gmm)

    def one_seed(seed: int) -> dict:
        seed_out = _outdir(cfg, "bounds", f"seed_{seed}")
        header = config_header(cfg, seed)
        model = _train(cfg, sample_gmm(gmm, cfg["training"]["n_train"], make_rng(seed)), schedule, seed)
        anchors = reverse_sample(model, schedule, cfg["bounds"]["n_anchors"], make_rng(seed + 700_000))
        learned = model_score_field(model, schedule, 0)
        summaries = {}
        all_reports = B.validate_bound(oracle, learned, anchors, ecfgs, make_rng(seed + 800_000))
        for p, ecfg, reports in zip(p_values, ecfgs, all_reports.reshape(len(ecfgs), -1)):
            B.write_bound_reports_csv(
                os.path.join(seed_out, f"bound_reports_p{p:g}.csv"), reports, header_comment=header
            )
            summaries[f"p{p:g}"] = B.bound_summary(reports)

            ok = reports[reports.assumptions_ok]
            if len(ok):
                deltas_rng = (0.0, float(ok.delta.max()) * 1.1 + 1e-9)
                ms_rng = (max(float(ok.m.min()) * 0.9, 1e-6), float(ok.m.max()) * 1.1)
                dg, mg, surface = B.bound_surface(p, gmm.dim, ecfg.radius, deltas_rng, ms_rng, M=float(ok.M.max()))
                write_table(
                    os.path.join(seed_out, f"bound_surface_p{p:g}.csv"), ["delta", "m", "c_p"],
                    ([d, m, surface[i, j]] for i, m in enumerate(mg) for j, d in enumerate(dg)), header,
                )
                svgplot.heatmap(
                    os.path.join(seed_out, f"bound_surface_p{p:g}.svg"), np.log10(np.maximum(surface, 1e-12)),
                    (deltas_rng[0], deltas_rng[1], ms_rng[0], ms_rng[1]),
                    title=f"log10 bound surface p={p:g} with observed (delta, m)", comment=header,
                    markers=zip(ok.delta, ok.m, ["red"] * len(ok)),
                )
        return summaries

    result, outputs = _per_seed(cfg, one_seed)
    dominance = {str(seed): summaries for seed, summaries in outputs.items()}
    # With no completed seed there is no evidence either way: both fields are null.
    ratios = [summary["max_error_bound_ratio"] for per_p in dominance.values() for summary in per_p.values()]
    worst = max(ratios, default=None)
    _write_json(
        os.path.join(out, "summary.json"),
        {"per_seed": dominance, "max_error_bound_ratio": worst,
         "dominance_holds": None if worst is None else worst <= 1.0, "config": cfg},
    )
    return _write_result(out, cfg, result)
