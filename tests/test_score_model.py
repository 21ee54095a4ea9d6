import logging

import numpy as np
import pytest

from plaplace.errors import CheckpointError, SamplingError, TrainingDivergedError
from plaplace.geometry import make_rng
from plaplace.gmm import GmmParams, PerturbedGmm, sample_gmm, score
from plaplace.score_model import (
    MlpScoreModel,
    NoiseSchedule,
    TrainConfig,
    _mlp_loss_and_grads,
    denoising_loss,
    forward_perturb,
    gaussian_perturb,
    learned_score,
    load_checkpoint,
    reverse_sample,
    save_checkpoint,
    score_field,
    sinusoidal_embed,
    train,
)


def zero_model(d=2, hidden=8, embed=4):
    """Untrained model: zero output layer, so it predicts zero noise."""
    rng = make_rng(0)
    in_dim = d + embed
    return MlpScoreModel(
        input_dim=d,
        hidden_width=hidden,
        embed_dim=embed,
        freq_base=1e4,
        w1=rng.uniform(-0.1, 0.1, size=(in_dim, hidden)),
        b1=np.zeros(hidden),
        w2=np.zeros((hidden, d)),
        b2=np.zeros(d),
    )


def test_model_arrays_read_only():
    model = zero_model()
    for name in ("w1", "b1", "w2", "b2"):
        with pytest.raises(ValueError):
            getattr(model, name)[0] = 9.0
    w1 = np.ones((6, 8))
    frozen = MlpScoreModel(input_dim=2, hidden_width=8, embed_dim=4, freq_base=1e4,
                           w1=w1, b1=model.b1, w2=model.w2, b2=model.b2)
    w1[0, 0] = 9.0  # the caller's own array is copied, not frozen
    assert frozen.w1[0, 0] == 1.0


class TestNoiseSchedule:
    def test_linear_defaults(self):
        sched = NoiseSchedule.linear()
        assert sched.t_steps == 100
        assert sched.betas[0] == pytest.approx(1e-4) and sched.betas[-1] == pytest.approx(0.02)
        assert np.all(sched.alphas > 0) and np.all(sched.alphas < 1)
        assert np.all(np.diff(sched.alphas) >= 0)

    def test_cumulative_identity(self):
        betas = np.array([0.1, 0.2, 0.3])
        sched = NoiseSchedule.from_betas(betas)
        np.testing.assert_allclose(sched.alphas, 1.0 - np.cumprod(1.0 - betas), rtol=1e-15)

    def test_variance_preservation(self):
        sched = NoiseSchedule.linear()
        np.testing.assert_allclose(np.sqrt(1 - sched.alphas) ** 2 + sched.alphas, 1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSchedule.from_betas([0.5, 1.0])
        with pytest.raises(ValueError):
            NoiseSchedule.from_betas([-0.1, 0.2])
        # zero betas are allowed (drift-free degenerate schedule)
        sched = NoiseSchedule.from_betas(np.zeros(5))
        assert np.all(sched.alphas == 0.0)


class TestSinusoidalEmbed:
    def test_t_zero(self):
        e = sinusoidal_embed(0, 16)
        np.testing.assert_array_equal(e[:8], 0.0)
        np.testing.assert_array_equal(e[8:], 1.0)
        assert np.linalg.norm(e) == pytest.approx(np.sqrt(8.0), rel=1e-14)

    def test_distinct_over_schedule(self):
        embs = sinusoidal_embed(np.arange(100), 32)
        assert np.unique(embs, axis=0).shape[0] == 100

    def test_even_dim_required(self):
        with pytest.raises(ValueError):
            sinusoidal_embed(3, 7)


class TestForwardPerturb:
    def test_alpha_zero_identity(self):
        x0 = np.array([1.0, -2.0])
        xt, eps = gaussian_perturb(x0, 0.0, make_rng(0))
        np.testing.assert_array_equal(xt, x0)

    def test_alpha_one_pure_noise(self):
        x0 = np.array([1.0, -2.0])
        xt, eps = gaussian_perturb(x0, 1.0, make_rng(0))
        np.testing.assert_array_equal(xt, eps)

    def test_variance_identity(self):
        x0 = np.zeros((100_000, 2))
        xt, _ = gaussian_perturb(x0, 0.3, make_rng(1))
        np.testing.assert_allclose(xt.var(axis=0), 0.3, atol=0.01)

    def test_schedule_lookup(self, schedule):
        x0 = np.ones((4, 2))
        xt, eps = forward_perturb(x0, 10, schedule, make_rng(2))
        a = schedule.alphas[10]
        np.testing.assert_allclose(xt, np.sqrt(1 - a) * x0 + np.sqrt(a) * eps, rtol=1e-15)


class TestBackprop:
    def test_gradients_match_finite_differences(self):
        """Central-difference check on a spot sample of parameters."""
        rng = make_rng(7)
        d, hidden, embed, n = 2, 6, 4, 12
        in_dim = d + embed
        w1 = rng.standard_normal((in_dim, hidden)) * 0.3
        b1 = rng.standard_normal(hidden) * 0.1
        w2 = rng.standard_normal((hidden, d)) * 0.3
        b2 = rng.standard_normal(d) * 0.1
        z = rng.standard_normal((n, in_dim))
        eps = rng.standard_normal((n, d))
        _, grads = _mlp_loss_and_grads(w1, b1, w2, b2, z, eps)
        params = [w1, b1, w2, b2]
        h = 1e-5
        checked = 0
        for pi, param in enumerate(params):
            flat = param.ravel()
            for k in range(3):
                idx = (k * 7) % flat.size
                orig = flat[idx]
                flat[idx] = orig + h
                lp, _ = _mlp_loss_and_grads(w1, b1, w2, b2, z, eps)
                flat[idx] = orig - h
                lm, _ = _mlp_loss_and_grads(w1, b1, w2, b2, z, eps)
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                an = grads[pi].ravel()[idx]
                assert abs(an - fd) <= 1e-4 * max(abs(fd), 1e-8)
                checked += 1
        assert checked >= 10

    def test_zero_init_loss_is_dimension(self, schedule):
        model = zero_model(d=2)
        data = make_rng(3).standard_normal((2000, 2))
        loss = denoising_loss(model, data, schedule, make_rng(4))
        assert loss == pytest.approx(2.0, abs=0.25)

    def test_zero_model_predicts_zero(self, schedule):
        model = zero_model()
        np.testing.assert_array_equal(model.predict_noise(np.ones((5, 2)), 3), 0.0)


class TestTraining:
    def test_deterministic(self, schedule):
        data = make_rng(5).standard_normal((50, 2))
        cfg = TrainConfig(epochs=20, seed=9)
        m1 = train(data, schedule, cfg, hidden_width=16, embed_dim=8)
        m2 = train(data, schedule, cfg, hidden_width=16, embed_dim=8)
        np.testing.assert_array_equal(m1.w1, m2.w1)
        np.testing.assert_array_equal(m1.w2, m2.w2)
        np.testing.assert_array_equal(m1.b1, m2.b1)
        np.testing.assert_array_equal(m1.b2, m2.b2)

    def test_loss_logged_and_decreasing(self, schedule, caplog):
        gmm = GmmParams(means=[[2.0, 0.0], [-2.0, 0.0]], sigma2=1.0, weights=[0.5, 0.5])
        data = sample_gmm(gmm, 300, make_rng(6))
        with caplog.at_level(logging.DEBUG, logger="plaplace.score_model"):
            train(data, schedule, TrainConfig(epochs=80, seed=0), hidden_width=32, embed_dim=8)
        losses = [float(r.message.split("loss ")[1]) for r in caplog.records if "loss" in r.message]
        assert len(losses) == 80
        assert losses[-1] < losses[0]

    def test_single_point_dataset_pulls_to_origin(self, schedule):
        """Trained on one replicated point, the learned score points at it."""
        data = np.zeros((256, 2))
        model = train(data, schedule, TrainConfig(seed=0))
        theta = np.linspace(0, 2 * np.pi, 100, endpoint=False)
        ring = 0.5 * np.column_stack([np.cos(theta), np.sin(theta)])
        learned = learned_score(model, schedule, ring, 0)
        # oracle score of the point mass seen at noise level alpha_0 is -x/alpha_0
        oracle = -ring
        cos = np.sum(learned * oracle, axis=1) / (
            np.linalg.norm(learned, axis=1) * np.linalg.norm(oracle, axis=1)
        )
        assert np.median(cos) > 0.9

    def test_divergence_raises(self, schedule):
        data = make_rng(8).standard_normal((64, 2)) * 5
        with pytest.raises(TrainingDivergedError) as exc_info:
            with np.errstate(over="ignore", invalid="ignore"):
                train(data, schedule, TrainConfig(epochs=50, learning_rate=1e12, seed=0))
        assert exc_info.value.epoch >= 0

    def test_empty_data_rejected(self, schedule):
        with pytest.raises(ValueError):
            train(np.empty((0, 2)), schedule, TrainConfig())


class TestLearnedScore:
    def test_zero_predictor_zero_score(self, schedule):
        model = zero_model()
        np.testing.assert_array_equal(learned_score(model, schedule, np.ones((3, 2)), 0), 0.0)

    def test_alpha_zero_guard(self):
        sched = NoiseSchedule.from_betas([0.0, 0.01])
        with pytest.raises(ValueError):
            learned_score(zero_model(), sched, np.ones(2), 0)

    def test_single_gaussian_matches_perturbed_oracle(self, schedule):
        """Direction agreement with the analytic corrupted-Gaussian score."""
        g = GmmParams(means=[[1.0, -2.0]], sigma2=1.0, weights=[1.0])
        data = sample_gmm(g, 1000, make_rng(0))
        model = train(data, schedule, TrainConfig(seed=0))
        pts = sample_gmm(g, 300, make_rng(1))
        learned = learned_score(model, schedule, pts, 0)
        oracle = score(PerturbedGmm(g, float(schedule.alphas[0])), pts)
        cos = np.sum(learned * oracle, axis=1) / (
            np.linalg.norm(learned, axis=1) * np.linalg.norm(oracle, axis=1)
        )
        assert np.median(cos) > 0.9

    def test_median_cosine_on_grid(self, default_gmm, schedule, trained_model):
        """Default recipe reaches >0.9 median direction agreement on a 20x20 grid."""
        pad = 2.0 * np.sqrt(default_gmm.sigma2)
        lo = default_gmm.means.min(axis=0) - pad
        hi = default_gmm.means.max(axis=0) + pad
        gx, gy = np.meshgrid(np.linspace(lo[0], hi[0], 20), np.linspace(lo[1], hi[1], 20))
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        learned = learned_score(trained_model, schedule, pts, 0)
        oracle = score(PerturbedGmm(default_gmm, float(schedule.alphas[0])), pts)
        cos = np.sum(learned * oracle, axis=1) / (
            np.linalg.norm(learned, axis=1) * np.linalg.norm(oracle, axis=1)
        )
        assert np.median(cos) > 0.9


class OracleNoisePredictor:
    """Noise prediction backed by the analytic perturbed-mixture score."""

    def __init__(self, gmm, schedule):
        self.gmm = gmm
        self.schedule = schedule
        self.input_dim = gmm.dim

    def predict_noise(self, x, t):
        alpha = float(self.schedule.alphas[t])
        return -np.sqrt(alpha) * score(PerturbedGmm(self.gmm, alpha), x)


class TestReverseSample:
    def test_drift_free_limit(self):
        """Zero score and zero betas leave the initial standard normal draws untouched."""
        sched = NoiseSchedule.from_betas(np.zeros(10))
        samples = reverse_sample(zero_model(), sched, 32, make_rng(42))
        np.testing.assert_array_equal(samples, make_rng(42).standard_normal((32, 2)))

    def test_deterministic(self, default_gmm, schedule, trained_model):
        s1 = reverse_sample(trained_model, schedule, 16, make_rng(3))
        s2 = reverse_sample(trained_model, schedule, 16, make_rng(3))
        np.testing.assert_array_equal(s1, s2)

    def test_mode_coverage_ideal_model(self, default_gmm, schedule):
        """With the exact perturbed score, samples land near the mixture means."""
        predictor = OracleNoisePredictor(default_gmm, schedule)
        samples = reverse_sample(predictor, schedule, 1000, make_rng(42))
        dmin = np.min(
            np.linalg.norm(samples[:, None, :] - default_gmm.means[None, :, :], axis=2), axis=1
        )
        assert np.mean(dmin <= 3.0 * np.sqrt(default_gmm.sigma2)) >= 0.95

    def test_mode_coverage_trained_model(self, default_gmm, schedule, trained_model):
        samples = reverse_sample(trained_model, schedule, 1000, make_rng(42))
        dmin = np.min(
            np.linalg.norm(samples[:, None, :] - default_gmm.means[None, :, :], axis=2), axis=1
        )
        assert np.mean(dmin <= 3.0 * np.sqrt(default_gmm.sigma2)) >= 0.7

    def test_non_finite_raises(self, schedule):
        model = zero_model()
        broken = MlpScoreModel(
            input_dim=model.input_dim,
            hidden_width=model.hidden_width,
            embed_dim=model.embed_dim,
            freq_base=model.freq_base,
            w1=model.w1,
            b1=model.b1,
            w2=model.w2,
            b2=np.full(2, 1e308),
        )
        with pytest.raises(SamplingError):
            with np.errstate(over="ignore", invalid="ignore"):
                reverse_sample(broken, schedule, 4, make_rng(0))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, schedule, trained_model, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(trained_model, schedule, path)
        loaded, sched2 = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.w1, trained_model.w1)
        np.testing.assert_array_equal(loaded.b1, trained_model.b1)
        np.testing.assert_array_equal(loaded.w2, trained_model.w2)
        np.testing.assert_array_equal(loaded.b2, trained_model.b2)
        np.testing.assert_array_equal(sched2.betas, schedule.betas)
        x = make_rng(1).standard_normal((5, 2))
        np.testing.assert_array_equal(
            loaded.predict_noise(x, 0), trained_model.predict_noise(x, 0)
        )

    def test_schema_version_checked(self, schedule, trained_model, tmp_path):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(trained_model, schedule, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_score_field_binds_level(default_gmm, schedule, trained_model):
    field = score_field(trained_model, schedule, 0)
    x = make_rng(2).standard_normal((7, 2))
    np.testing.assert_array_equal(field(x), learned_score(trained_model, schedule, x, 0))
