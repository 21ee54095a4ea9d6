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
from .errors import EstimationError
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


def _per_seed(cfg: dict, fn) -> dict:
    """Run fn(seed) for every configured seed, collecting failures instead of aborting."""
    completed, failed = [], {}
    for seed in cfg["seeds"]:
        try:
            fn(seed)
            completed.append(seed)
        except Exception as exc:  # deliberate: a bad seed must not sink the others
            logger.exception("seed %d failed", seed)
            failed[str(seed)] = f"{type(exc).__name__}: {exc}"
    return {"completed_seeds": completed, "failed_seeds": failed, "ok": not failed}


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
    # Looked up at call time, so a rebound module attribute (e.g. a tracing wrapper) is the one called.
    formulations = (("boundary", estimators.estimate_boundary), ("volume", estimators.estimate_volume))
    out = _outdir(cfg, "fidelity")

    # Dense reference values are seed-independent: one draw per anchor serves every p.
    dense_rng = make_rng(990_001)
    exact: dict[tuple[int, float], tuple[float, float]] = {}
    exact_rows = []
    for i, (anchor, label) in enumerate(zip(anchors, labels)):
        try:
            dense = averaged_p_laplace_dense(
                gmm, anchor, p_values, cfg["estimator"]["radius"], cfg["fidelity"]["n_dense"], dense_rng
            )
        except EstimationError as exc:  # every seed compares with the reference, so each one fails with it
            reason = f"dense reference at anchor {i}: EstimationError: {exc}"
            logger.error("%s", reason)
            failed = {str(seed): reason for seed in cfg["seeds"]}
            return _write_result(out, cfg, {"completed_seeds": [], "failed_seeds": failed, "ok": False})
        for p, est in zip(p_values, dense):
            exact[(i, p)] = (est.value, est.std_error)
            exact_rows.append([i, label, *anchor, p, est.value, est.std_error, est.n_used])
    write_table(
        os.path.join(out, "exact.csv"),
        ["anchor_idx", "anchor_kind", *(f"x0_{i}" for i in range(gmm.dim)), "p", "exact_mean", "exact_std_error",
         "n_dense"],
        exact_rows, config_header(cfg),
    )

    if gmm.dim == 2:
        extent = (
            float(gmm.means[:, 0].min() - 2), float(gmm.means[:, 0].max() + 2),
            float(gmm.means[:, 1].min() - 2), float(gmm.means[:, 1].max() + 2),
        )
        gx = np.linspace(extent[0], extent[1], 60)
        gy = np.linspace(extent[2], extent[3], 60)
        mx, my = np.meshgrid(gx, gy)
        dens = log_density(gmm, np.column_stack([mx.ravel(), my.ravel()])).reshape(60, 60)
        svgplot.heatmap(
            os.path.join(out, "density.svg"), dens, extent,
            title="oracle log-density with anchors", comment=config_header(cfg),
            markers=[(float(a[0]), float(a[1]), "red" if l == "maximum" else "white") for a, l in zip(anchors, labels)],
        )

    def one_seed(seed: int) -> None:
        seed_out = _outdir(cfg, "fidelity", f"seed_{seed}")
        model = _train(cfg, sample_gmm(gmm, cfg["training"]["n_train"], make_rng(seed)), schedule, seed)
        fields = {"oracle": gmm_score_field(gmm), "learned": model_score_field(model, schedule, 0)}

        cos, ratio = _field_error_stats(gmm, model, schedule, seed)
        write_table(
            os.path.join(seed_out, "field_errors.csv"), ["cosine", "magnitude_ratio"], zip(cos, ratio),
            config_header(cfg, seed),
        )
        svgplot.histogram(
            os.path.join(seed_out, "direction_error.svg"), cos,
            title=f"score direction agreement (median {np.median(cos):.3f})", comment=config_header(cfg, seed),
        )
        svgplot.histogram(
            os.path.join(seed_out, "magnitude_error.svg"), ratio,
            title=f"score magnitude ratio (median {np.median(ratio):.3f})", comment=config_header(cfg, seed),
        )

        estimate_rows = []
        summary_rows = []
        # One substream per repeat, spawned cell by cell.
        rep_rng = make_rng(seed + 500_000)
        for field_name, field in fields.items():
            for i, anchor in enumerate(anchors):
                for p in p_values:
                    ecfg = build_estimator_config(cfg, p)
                    for formulation, estimator in formulations:
                        values = np.empty(n_repeats)
                        for rep, sub in enumerate(split_rng(rep_rng, n_repeats)):
                            est = estimator(field, anchor, ecfg, sub)
                            values[rep] = est.value
                            estimate_rows.append([*anchor, p, formulation, ecfg.n_samples, ecfg.radius, seed,
                                                  est.value, est.std_error, est.singular_hits])
                        exact_mean, exact_se = exact[(i, p)]
                        mean = float(values.mean())
                        se_mean = float(values.std(ddof=1) / np.sqrt(n_repeats))
                        q = np.quantile(values, [0.0, 0.25, 0.5, 0.75, 1.0])
                        summary_rows.append(
                            [field_name, i, labels[i], p, formulation, mean, values.std(ddof=1), *q,
                             exact_mean, abs(mean - exact_mean),
                             abs(mean - exact_mean) / max(np.hypot(se_mean, exact_se), 1e-300)]
                        )
        write_estimates_csv(os.path.join(seed_out, "estimates.csv"), gmm.dim, estimate_rows, config_header(cfg, seed))
        write_table(
            os.path.join(seed_out, "summary.csv"),
            ["field", "anchor_idx", "anchor_kind", "p", "formulation", "mean", "std",
             "min", "q25", "median", "q75", "max", "exact_mean", "abs_error", "z_score"],
            summary_rows, config_header(cfg, seed),
        )

    return _write_result(out, cfg, _per_seed(cfg, one_seed))


def run_memorization(cfg: dict) -> dict:
    """Replica-injection study: percentile tables, grids, and AUC summary."""
    gmm = build_gmm(cfg)
    schedule = build_schedule(cfg)
    mem_cfg = cfg["memorization"]
    p_values = cfg["estimator"]["p_values"]
    out = _outdir(cfg, "memorization")

    percentile_rows = []
    detections = []

    def one_seed(seed: int) -> None:
        # This seed's rows join the aggregates only once the whole seed has completed.
        seed_rows, seed_detections = [], []
        seed_out = _outdir(cfg, "memorization", f"seed_{seed}")
        grid = make_grid(gmm, mem_cfg["grid_size"], mem_cfg["pad_sigma"])
        scenario = build_scenario(gmm, mem_cfg["n_base"], mem_cfg["n_replicas"], seed)
        _write_json(os.path.join(seed_out, "scenario.json"), {"config": cfg, "scenario": scenario.to_dict()})
        model = _train(cfg, scenario.training_set(), schedule, seed)
        field = model_score_field(model, schedule, 0)
        mem_pt = scenario.memorized_point

        svgplot.scatter(
            os.path.join(seed_out, "training_set.svg"),
            [("base samples", scenario.base_samples, "#4878a8"), ("memorized", mem_pt[None, :], "red")],
            title=f"training set, seed {seed}", comment=config_header(cfg, seed),
        )

        ecfgs = [build_estimator_config(cfg, p) for p in p_values]
        matrices = grid_p_laplace(field, grid, ecfgs, make_rng(seed + 100_000))
        for p, ecfg, matrix in zip(p_values, ecfgs, matrices):
            mem_val = estimate_boundary(field, mem_pt, ecfg, make_rng(seed + 200_000)).value
            pct = percentile_rank(matrix, mem_val)
            seed_rows.append([seed, "p_laplace", p, mem_val, pct])
            M.write_grid_csv(
                os.path.join(seed_out, f"grid_p{p:g}.csv"), grid, matrix, header_comment=config_header(cfg, seed)
            )
            svgplot.heatmap(
                os.path.join(seed_out, f"grid_p{p:g}.svg"), matrix,
                (float(grid.xs[0]), float(grid.xs[-1]), float(grid.ys[0]), float(grid.ys[-1])),
                title=f"p={p:g} averaged operator, memorized pct {pct:.1f}%",
                comment=config_header(cfg, seed),
                markers=[(float(mem_pt[0]), float(mem_pt[1]), "red")],
            )
            if p == min(p_values):
                background = sample_gmm(gmm, mem_cfg["n_background"], make_rng(seed + 300_000))
                [bg_vals] = M.boundary_at_points(field, background, [ecfg], make_rng(seed + 400_000))
                seed_detections.append({
                    "seed": seed, "criterion": "p_laplace", "percentile": pct,
                    "auc": auc([mem_val], bg_vals, "lower_is_positive"),
                    "values_memorized": [float(mem_val)], "values_background": [float(v) for v in bg_vals],
                })
                mem_norm = score_norm_criterion(field, mem_pt)
                bg_norms = score_norm_criterion(field, background)
                norm_grid = score_norm_criterion(field, grid.points).reshape(grid.shape)
                # rank from the top: a large score norm is the suspicious direction here
                pct_norm = 100.0 - percentile_rank(norm_grid, mem_norm)
                seed_detections.append({
                    "seed": seed, "criterion": "score_norm", "percentile": pct_norm,
                    "auc": auc([mem_norm], bg_norms, "higher_is_positive"),
                    "values_memorized": [float(mem_norm)], "values_background": [float(v) for v in bg_norms],
                })
                seed_rows.append([seed, "score_norm", p, mem_norm, pct_norm])
        percentile_rows.extend(seed_rows)
        detections.extend(seed_detections)

    result = _per_seed(cfg, one_seed)
    write_table(
        os.path.join(out, "percentiles.csv"), ["seed", "criterion", "p", "value_at_memorized", "percentile"],
        percentile_rows, config_header(cfg),
    )
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
    dominance: dict[str, dict] = {}

    def one_seed(seed: int) -> None:
        seed_out = _outdir(cfg, "bounds", f"seed_{seed}")
        model = _train(cfg, sample_gmm(gmm, cfg["training"]["n_train"], make_rng(seed)), schedule, seed)
        anchors = reverse_sample(model, schedule, cfg["bounds"]["n_anchors"], make_rng(seed + 700_000))
        oracle = gmm_score_field(gmm)
        learned = model_score_field(model, schedule, 0)
        seed_summaries = {}
        ecfgs = [build_estimator_config(cfg, p) for p in p_values]
        all_reports = B.validate_bound(oracle, learned, anchors, ecfgs, make_rng(seed + 800_000))
        for p, ecfg in zip(p_values, ecfgs):
            reports = [r for r in all_reports if r.p == p]
            B.write_bound_reports_csv(
                os.path.join(seed_out, f"bound_reports_p{p:g}.csv"), reports, header_comment=config_header(cfg, seed)
            )
            summary = B.bound_summary(reports)
            seed_summaries[f"p{p:g}"] = summary

            ok = [r for r in reports if r.assumptions_ok]
            if ok:
                deltas = np.array([r.delta for r in ok])
                ms = np.array([r.m for r in ok])
                deltas_rng = (0.0, float(deltas.max()) * 1.1 + 1e-9)
                ms_rng = (max(float(ms.min()) * 0.9, 1e-6), float(ms.max()) * 1.1)
                dg, mg, surface = B.bound_surface(p, gmm.dim, ecfg.radius, deltas_rng, ms_rng,
                                                  M=float(max(r.M for r in ok)))
                write_table(
                    os.path.join(seed_out, f"bound_surface_p{p:g}.csv"), ["delta", "m", "c_p"],
                    ([d, m, surface[i, j]] for i, m in enumerate(mg) for j, d in enumerate(dg)),
                    config_header(cfg, seed),
                )
                svgplot.heatmap(
                    os.path.join(seed_out, f"bound_surface_p{p:g}.svg"), np.log10(np.maximum(surface, 1e-12)),
                    (deltas_rng[0], deltas_rng[1], ms_rng[0], ms_rng[1]),
                    title=f"log10 bound surface p={p:g} with observed (delta, m)",
                    comment=config_header(cfg, seed),
                    markers=[(r.delta, r.m, "red") for r in ok],
                )
        dominance[str(seed)] = seed_summaries

    result = _per_seed(cfg, one_seed)
    # With no completed seed there is no evidence either way: both fields are null.
    ratios = [summary["max_error_bound_ratio"] for per_p in dominance.values() for summary in per_p.values()]
    worst = max(ratios, default=None)
    _write_json(
        os.path.join(out, "summary.json"),
        {"per_seed": dominance, "max_error_bound_ratio": worst,
         "dominance_holds": None if worst is None else worst <= 1.0, "config": cfg},
    )
    return _write_result(out, cfg, result)
