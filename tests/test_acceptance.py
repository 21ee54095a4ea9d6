"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one machine-readable line, e.g.::

    ACCEPTANCE 1 estimator-correctness: PASS (worst z 1.83, ...)

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines inline.
Seeds are frozen so the whole suite is deterministic.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from plaplace.bounds import bound_constant, validate_bound
from plaplace.estimators import EstimatorConfig, _flux_values, estimate_boundary, estimate_volume
from plaplace.geometry import make_rng
from plaplace.gmm import GmmParams, averaged_p_laplace_dense, log_density, perturb, sample_gmm, score
from plaplace.gmm import score_field as gmm_score_field
from plaplace.memorization import auc, build_scenario, grid_p_laplace, make_grid, percentile_rank
from plaplace.score_model import (
    TrainConfig,
    _mlp_loss_and_grads,
    learned_score,
    reverse_sample,
)
from plaplace.score_model import score_field as model_score_field
from plaplace.experiments import fidelity_anchors

P_VALUES = (1.0, 2.0, 3.0)


@contextmanager
def report(tag: str):
    info = {}
    try:
        yield info
    except Exception:
        print(f"ACCEPTANCE {tag}: FAIL")
        raise
    detail = f" ({info['detail']})" if "detail" in info else ""
    print(f"ACCEPTANCE {tag}: PASS{detail}")


def test_criterion_1_estimator_correctness(default_gmm, schedule, trained_model):
    """Boundary/volume vs dense-MC exact at 6 anchors; variance ordering; direction fidelity."""
    with report("1 estimator-correctness") as info:
        t0 = time.monotonic()
        field = gmm_score_field(default_gmm)
        anchors, _ = fidelity_anchors(default_gmm)
        assert anchors.shape[0] == 6

        dense_rng = make_rng(990_001)
        worst_z = 0.0
        variances = {}
        rep_master = make_rng(12_346)
        for i, anchor in enumerate(anchors):
            dense = averaged_p_laplace_dense(default_gmm, anchor, P_VALUES, 1.0, 1_000_000, dense_rng)
            for p, ref in zip(P_VALUES, dense):
                for formulation, fn in (("boundary", estimate_boundary), ("volume", estimate_volume)):
                    cfg = EstimatorConfig(p=p)
                    values = np.array(
                        [fn(field, anchor, cfg, r).value for r in rep_master.spawn(100)]
                    )
                    mean = values.mean()
                    se_mean = values.std(ddof=1) / 10.0
                    z = abs(mean - ref.value) / np.hypot(se_mean, ref.std_error)
                    worst_z = max(worst_z, z)
                    assert z <= 3.0, (
                        f"anchor {i}, p={p}, {formulation}: mean {mean:.4f} vs dense "
                        f"{ref.value:.4f}, z={z:.2f}"
                    )
                    if p == 1.0:
                        variances[(i, formulation)] = values.var(ddof=1)

        # (a) the boundary route is never noisier than the volume route at p=1
        for i in range(anchors.shape[0]):
            assert variances[(i, "boundary")] <= variances[(i, "volume")], f"anchor {i}"

        # (b) learned direction fidelity on a 20x20 grid after the default recipe
        pad = 2.0 * np.sqrt(default_gmm.sigma2)
        lo = default_gmm.means.min(axis=0) - pad
        hi = default_gmm.means.max(axis=0) + pad
        gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 20), np.linspace(lo[1], hi[1], 20))
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        learned = learned_score(trained_model, schedule, pts, 0)
        oracle = score(perturb(default_gmm, schedule.alphas[0]), pts)
        cos = np.sum(learned * oracle, axis=1) / (
            np.linalg.norm(learned, axis=1) * np.linalg.norm(oracle, axis=1)
        )
        median_cos = float(np.median(cos))
        assert median_cos > 0.9

        elapsed = time.monotonic() - t0
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"
        info["detail"] = f"worst z {worst_z:.2f}, median cos {median_cos:.3f}, {elapsed:.0f}s"


def test_criterion_2_homogeneity(default_gmm):
    """Scaled potentials move estimates and the dense reference by a|a|^(p-2); p=1 flux ignores positive rescaling."""
    with report("2 homogeneity") as info:
        field = gmm_score_field(default_gmm)
        anchors = [np.array([1.0, 2.0]), np.array([-2.0, 0.5])]
        worst_rel = 0.0
        for a in (-2.0, 0.5, 3.0):
            factor_of = {p: a * abs(a) ** (p - 2.0) for p in P_VALUES}
            for p in P_VALUES:
                for formulation, fn in (("boundary", estimate_boundary), ("volume", estimate_volume)):
                    cfg = EstimatorConfig(p=p)
                    for k, anchor in enumerate(anchors):
                        base = fn(field, anchor, cfg, make_rng(40 + k))
                        scaled = fn(lambda x: a * field(x), anchor, cfg, make_rng(40 + k))
                        err = abs(scaled.value - factor_of[p] * base.value)
                        tol = 3.0 * np.hypot(scaled.std_error, abs(factor_of[p]) * base.std_error) + 1e-9
                        assert err <= tol, f"a={a}, p={p}, {formulation}: err {err}"
                        worst_rel = max(worst_rel, err / max(abs(scaled.value), 1e-12))

        # p=1 flux values are bit-stable under positive rescaling, constant or pointwise
        rng = make_rng(41)
        ys = rng.uniform(-4, 4, size=(100, 2))
        normals = rng.standard_normal((100, 2))
        normals /= np.linalg.norm(normals, axis=1, keepdims=True)

        def pointwise_rescaled(x):
            return (1.0 + np.sum(x * x, axis=1))[:, None] * field(x)

        base = _flux_values(field(ys), normals, 1.0)
        assert np.all(np.abs(_flux_values(3.7 * field(ys), normals, 1.0) - base) <= 1e-12)
        assert np.all(np.abs(_flux_values(pointwise_rescaled(ys), normals, 1.0) - base) <= 1e-12)

        # The dense reference at a single Gaussian's mean: sigma2 scales the potential by a = 1/sigma2, so on
        # one draw value * sigma2^(p-1) and std_error * sigma2^(p-1) are the sigma2 = 1 figures, from every sample,
        # however small the score norms get (|s| <= 1e-12 at sigma2 = 1e12).
        n, dense_p = 200_000, (1.0, 1.5, 2.0, 3.0)

        def dense_at(sigma2):
            g = GmmParams(means=[[0.0, 0.0]], sigma2=sigma2, weights=[1.0])
            return averaged_p_laplace_dense(g, np.zeros(2), dense_p, 1.0, n, make_rng(3))

        unit = dense_at(1.0)
        worst_dense = 0.0
        for sigma2 in (1e7, 1e12):
            for p, ref, est in zip(dense_p, unit, dense_at(sigma2)):
                assert est.n_used == n, f"sigma2={sigma2}, p={p}: {est.n_used} of {n} samples"
                for got, want in ((est.value, ref.value), (est.std_error, ref.std_error)):
                    err = abs(got * sigma2 ** (p - 1.0) - want)
                    assert err <= 1e-12 * abs(want), f"sigma2={sigma2}, p={p}: {got} vs {want}"
                    worst_dense = max(worst_dense, err / max(abs(want), 1e-300))
        info["detail"] = f"worst relative deviation {worst_rel:.2e}, dense reference {worst_dense:.1e}"


def test_criterion_3_divergence_theorem(default_gmm):
    """Volume and boundary estimates agree within 3 sigma at 20 random anchors."""
    with report("3 divergence-theorem") as info:
        field = gmm_score_field(default_gmm)
        rng = make_rng(777)
        anchors = rng.uniform(-5, 5, size=(20, 2))
        worst_z = 0.0
        for p in P_VALUES:
            for x0 in anchors:
                rb, rv = rng.spawn(2)
                eb = estimate_boundary(field, x0, EstimatorConfig(p=p), rb)
                ev = estimate_volume(field, x0, EstimatorConfig(p=p), rv)
                z = abs(eb.value - ev.value) / np.hypot(eb.std_error, ev.std_error)
                worst_z = max(worst_z, z)
                assert z <= 3.0, f"p={p}, anchor {x0}: z={z:.2f}"
        info["detail"] = f"worst z {worst_z:.2f} over 60 comparisons"


def test_criterion_4_bound_dominance(default_gmm, schedule, train_once):
    """Zero violations of the error bound at 50 model-sampled anchors, for every p."""
    with report("4 bound-dominance") as info:
        t0 = time.monotonic()
        data = sample_gmm(default_gmm, 1000, make_rng(0))
        model = train_once(data, schedule, TrainConfig(), 0)
        anchors = reverse_sample(model, schedule, 50, make_rng(99))
        oracle = gmm_score_field(default_gmm)
        learned = model_score_field(model, schedule, 0)
        n_ok = 0
        worst_ratio = 0.0
        # one call: each anchor's sphere draw serves every p
        all_reports = validate_bound(oracle, learned, anchors, [EstimatorConfig(p=p) for p in P_VALUES], make_rng(500))
        assert [r.p for r in all_reports] == [p for p in P_VALUES for _ in range(50)]
        for p in P_VALUES:
            reports = [r for r in all_reports if r.p == p]
            ok = [r for r in reports if r.assumptions_ok]
            n_ok += len(ok)
            assert len(ok) >= 50, f"p={p}: only {len(ok)} anchors satisfy the assumptions"
            for r in ok:
                assert r.empirical_error <= r.c_p, (
                    f"p={p}: violation at {r.anchor}: {r.empirical_error} > {r.c_p}"
                )
                if r.c_p > 0:
                    worst_ratio = max(worst_ratio, r.empirical_error / r.c_p)

        # branch continuity of the constant at p = 2
        for delta, m, M in [(0.1, 0.5, 2.0), (0.7, 0.02, 40.0)]:
            lo = bound_constant(2.0 - 1e-12, delta, m, M, 2, 1.0)
            hi = bound_constant(2.0 + 1e-12, delta, m, M, 2, 1.0)
            assert abs(hi - lo) <= 1e-10

        elapsed = time.monotonic() - t0
        assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5 minutes"
        info["detail"] = (
            f"{n_ok} anchor-reports, 0 violations, max error/bound {worst_ratio:.3f}, {elapsed:.0f}s"
        )


def test_criterion_5_memorization_detection(default_gmm, schedule, train_once):
    """Replica injection detected by the 1-Laplace percentile; clean null; AUC > 0.8."""
    with report("5 memorization-detection") as info:
        seeds = range(5)
        grid = make_grid(default_gmm, 40, 2.0)
        cfg1 = EstimatorConfig(p=1.0)
        cfg3 = EstimatorConfig(p=3.0)

        pct1, pct3, aucs = [], [], []
        for seed in seeds:
            training_set, mem = build_scenario(default_gmm, 1000, 250, make_rng(seed))
            model = train_once(training_set, schedule, TrainConfig(), seed)
            field = model_score_field(model, schedule, 0)

            mat1, mat3 = grid_p_laplace(field, grid, [cfg1, cfg3], make_rng(seed + 100_000))
            val1 = estimate_boundary(field, mem, cfg1, make_rng(seed + 200_000)).value
            pct1.append(percentile_rank(mat1, val1))

            val3 = estimate_boundary(field, mem, cfg3, make_rng(seed + 200_000)).value
            pct3.append(percentile_rank(mat3, val3))

            background = sample_gmm(default_gmm, 50, make_rng(seed + 300_000))
            bg_rngs = make_rng(seed + 400_000).spawn(50)
            bg_vals = [estimate_boundary(field, b, cfg1, r).value for b, r in zip(background, bg_rngs)]
            aucs.append(auc([val1], bg_vals))

        hits = sum(p < 10.0 for p in pct1)
        assert hits >= 4, f"bottom-decile hits {hits}/5, percentiles {pct1}"

        ordering = sum(p1 <= p3 for p1, p3 in zip(pct1, pct3))
        assert ordering >= 3, f"p=1 percentile not <= p=3 in majority: {pct1} vs {pct3}"

        null_hits = 0
        for seed in seeds:
            training_set, mem = build_scenario(default_gmm, 1000, 0, make_rng(seed))
            model = train_once(training_set, schedule, TrainConfig(), seed)
            field = model_score_field(model, schedule, 0)
            [mat] = grid_p_laplace(field, grid, [cfg1], make_rng(seed + 100_000))
            val = estimate_boundary(field, mem, cfg1, make_rng(seed + 200_000)).value
            null_hits += percentile_rank(mat, val) < 10.0
        assert null_hits <= 2, f"null control placed {null_hits}/5 seeds in the bottom decile"

        mean_auc = float(np.mean(aucs))
        assert mean_auc > 0.8, f"mean AUC {mean_auc:.3f} with per-seed {aucs}"
        info["detail"] = (
            f"percentiles {[f'{p:.1f}' for p in pct1]}, ordering {ordering}/5, "
            f"null hits {null_hits}/5, mean AUC {mean_auc:.3f}"
        )


def test_criterion_6_numerics(default_gmm):
    """Gradient checks at their stated tolerances, and the exact surface/volume factor d/R."""
    with report("6 numerics") as info:
        # backprop vs central finite differences, 12-parameter spot check: weight and bias rows of both layers
        rng = make_rng(7)
        d, hidden, embed, n = 2, 6, 4, 12
        in_dim = d + embed
        w1 = rng.standard_normal((in_dim, hidden)) * 0.3
        b1 = rng.standard_normal(hidden) * 0.1
        w2 = rng.standard_normal((hidden, d)) * 0.3
        b2 = rng.standard_normal(d) * 0.1
        z = np.column_stack([rng.standard_normal((n, in_dim)), np.ones(n)])
        eps = rng.standard_normal((n, d))
        layers = np.vstack([w1, b1]), np.vstack([w2, b2])
        _, grads = _mlp_loss_and_grads(*layers, z, eps)
        worst_grad_err = 0.0
        h = 1e-5
        for layer, grad in zip(layers, grads):
            for rows in (slice(None, -1), slice(-1, None)):  # the weights, then the bias row
                flat = layer[rows].ravel()
                assert np.shares_memory(flat, layer)
                for k in range(3):
                    idx = (k * 5) % flat.size
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp, _ = _mlp_loss_and_grads(*layers, z, eps)
                    flat[idx] = orig - h
                    lm, _ = _mlp_loss_and_grads(*layers, z, eps)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    rel = abs(grad[rows].ravel()[idx] - fd) / max(abs(fd), 1e-8)
                    worst_grad_err = max(worst_grad_err, rel)
                    assert rel < 1e-4

        # oracle score vs finite-difference gradient of the log-density
        xs = make_rng(8).uniform(-6, 6, size=(100, 2))
        eye = np.eye(2)
        worst_score_err = 0.0
        for x in xs:
            fd = np.array(
                [(log_density(default_gmm, x + 1e-5 * e) - log_density(default_gmm, x - 1e-5 * e)) / 2e-5 for e in eye]
            )
            s = score(default_gmm, x)
            rel = np.linalg.norm(s - fd) / max(np.linalg.norm(fd), 1e-12)
            worst_score_err = max(worst_score_err, rel)
            assert rel < 1e-6

        # at p = 2 with unit constants the bound is the surface/volume factor alone, exactly d/R
        for dim in range(1, 65):
            for radius in (0.5, 1.0, 2.0):
                assert bound_constant(2.0, 1.0, 1.0, 1.0, dim, radius) == dim / radius

        info["detail"] = (
            f"grad rel err {worst_grad_err:.1e}, score rel err {worst_score_err:.1e}, "
            f"factor d/R exact to d=64"
        )
