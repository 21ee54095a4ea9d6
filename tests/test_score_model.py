import logging
from types import SimpleNamespace

import numpy as np
import pytest

from plaplace import score_model
from plaplace.errors import SamplingError, TrainingDivergedError
from plaplace.geometry import make_rng
from plaplace.gmm import GmmParams, perturb, sample_gmm, score
from plaplace.score_model import (
    PREDICT_BLOCK,
    TRAIN_BLOCK,
    MlpScoreModel,
    NoiseSchedule,
    TrainConfig,
    _mlp_loss_and_grads,
    learned_score,
    reverse_sample,
    score_field,
    sinusoidal_embed,
    train,
)


def zero_model(d=2, hidden=8, embed=4):
    """Untrained model: zero bias row and output layer, so it predicts zero noise."""
    W1 = np.zeros((d + embed + 1, hidden))
    W1[:-1] = make_rng(0).uniform(-0.1, 0.1, size=(d + embed, hidden))
    return MlpScoreModel(W1, np.zeros((hidden + 1, d)))


@pytest.mark.parametrize("W1_shape,W2_shape,match", [
    ((7,), (9, 2), "W1"),
    ((7, 8), (9, 2, 1), "W1"),
    ((7, 8), (8, 2), "W1"),
    ((7, 8), (9, 0), "even embedding width"),
    ((7, 0), (1, 2), "even embedding width"),
    ((6, 8), (9, 2), "even embedding width"),
    ((3, 8), (9, 2), "even embedding width"),
], ids=["W1_not_2d", "W2_not_2d", "W2_rows", "no_input", "no_hidden", "odd_embed", "no_embed"])
def test_model_layer_shapes_checked(W1_shape, W2_shape, match):
    """W1 is (d + e + 1, h) and W2 is (h + 1, d) for some d >= 1, h >= 1 and positive even e; any other pair is
    rejected before a prediction."""
    with pytest.raises(ValueError, match=match):
        MlpScoreModel(np.zeros(W1_shape), np.zeros(W2_shape))


def test_model_sizes_are_read_off_the_layers(schedule):
    """A trained model's sizes are those train was given, and its layers hold the biases as last rows."""
    model = train(make_rng(1).standard_normal((20, 3)), schedule, TrainConfig(epochs=1), make_rng(0), hidden_width=5,
                  embed_dim=6)
    assert (model.input_dim, model.hidden_width, model.embed_dim) == (3, 5, 6)
    assert (model.W1.shape, model.W2.shape) == ((10, 5), (6, 3))


@pytest.mark.parametrize("bad", [{"epochs": 0}, {"learning_rate": 0.0}, {"learning_rate": float("nan")},
                                 {"batch_size": 0}])
def test_train_config_validation(bad):
    with pytest.raises(ValueError):
        TrainConfig(**bad)


def test_model_arrays_read_only():
    model = zero_model()
    for layer in (model.W1, model.W2):
        with pytest.raises(ValueError):
            layer[0] = 9.0
    W1 = np.ones((7, 8))
    frozen = MlpScoreModel(W1, model.W2)
    W1[0, 0] = 9.0  # the caller's own array is copied, not frozen
    assert frozen.W1[0, 0] == 1.0


class TestNoiseSchedule:
    def test_linear_defaults(self):
        sched = NoiseSchedule.linear()
        assert sched.t_steps == 100
        assert sched.betas[0] == pytest.approx(1e-4) and sched.betas[-1] == pytest.approx(0.02)
        assert np.all(sched.alphas > 0) and np.all(sched.alphas < 1)
        assert np.all(np.diff(sched.alphas) >= 0)

    def test_cumulative_identity(self):
        betas = np.array([0.1, 0.2, 0.3])
        sched = NoiseSchedule(betas)
        np.testing.assert_allclose(sched.alphas, 1.0 - np.cumprod(1.0 - betas), rtol=1e-15)

    def test_keeps_a_frozen_copy_of_betas(self):
        """Writing to the caller's array afterwards changes neither betas nor alphas, and neither can be written."""
        b = np.full(3, 0.1)
        s = NoiseSchedule(b)
        b[0] = 0.9
        np.testing.assert_array_equal(s.betas, [0.1, 0.1, 0.1])
        np.testing.assert_allclose(s.alphas, [0.1, 0.19, 0.271], rtol=1e-14)
        for frozen in (s.betas, s.alphas):
            with pytest.raises(ValueError, match="read-only"):
                frozen[0] = 0.5

    def test_variance_preservation(self):
        sched = NoiseSchedule.linear()
        np.testing.assert_allclose(np.sqrt(1 - sched.alphas) ** 2 + sched.alphas, 1.0, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSchedule([0.5, 1.0])
        with pytest.raises(ValueError):
            NoiseSchedule([-0.1, 0.2])
        with pytest.raises(ValueError):
            NoiseSchedule([float("nan")])
        # a zero beta after the first step is allowed: it leaves alpha where it was
        sched = NoiseSchedule([0.01, 0.0])
        assert sched.alphas[1] == sched.alphas[0] > 0.0


class TestSinusoidalEmbed:
    def test_t_zero(self):
        e = sinusoidal_embed(0, 16)
        np.testing.assert_array_equal(e[:8], 0.0)
        np.testing.assert_array_equal(e[8:], 1.0)
        assert np.linalg.norm(e) == pytest.approx(np.sqrt(8.0), rel=1e-14)

    def test_frequencies_are_the_base_1e4_ladder(self):
        """The trained weights depend on the ladder w_j = 1e4^(-j / (dim/2)), bit for bit."""
        angles = 3.0 * 1.0e4 ** (-np.arange(4) / 4)
        np.testing.assert_array_equal(sinusoidal_embed(3, 8), np.concatenate([np.sin(angles), np.cos(angles)]))

    def test_distinct_over_schedule(self):
        embs = sinusoidal_embed(np.arange(100), 32)
        assert np.unique(embs, axis=0).shape[0] == 100

    def test_even_dim_required(self):
        with pytest.raises(ValueError):
            sinusoidal_embed(3, 7)


class TestBackprop:
    def test_gradients_match_finite_differences(self):
        """Central-difference check on a spot sample of parameters: three in the weight rows and three in the bias
        row of each stacked layer."""
        rng = make_rng(7)
        d, hidden, embed, n = 2, 6, 4, 12
        in_dim = d + embed
        layers = rng.standard_normal((in_dim + 1, hidden)) * 0.3, rng.standard_normal((hidden + 1, d)) * 0.3
        z = np.column_stack([rng.standard_normal((n, in_dim)), np.ones(n)])
        eps = rng.standard_normal((n, d))
        _, grads = _mlp_loss_and_grads(*layers, z, eps)
        h = 1e-5
        checked = 0
        for layer, grad in zip(layers, grads):
            for rows in (slice(None, -1), slice(-1, None)):  # the weights, then the bias row
                flat = layer[rows].ravel()
                assert np.shares_memory(flat, layer)
                for k in range(3):
                    idx = (k * 7) % flat.size
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp, _ = _mlp_loss_and_grads(*layers, z, eps)
                    flat[idx] = orig - h
                    lm, _ = _mlp_loss_and_grads(*layers, z, eps)
                    flat[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    an = grad[rows].ravel()[idx]
                    assert abs(an - fd) <= 1e-4 * max(abs(fd), 1e-8)
                    checked += 1
        assert checked >= 10

    def test_scale_multiplies_the_gradients(self):
        """A residual scaled by 2 * lr / n returns lr times the gradients; the loss does not change."""
        rng = make_rng(8)
        W1, W2 = rng.standard_normal((7, 5)), rng.standard_normal((6, 2))
        z = np.column_stack([rng.standard_normal((10, 6)), np.ones(10)])
        eps = rng.standard_normal((10, 2))
        loss, grads = _mlp_loss_and_grads(W1, W2, z, eps)
        scaled_loss, updates = _mlp_loss_and_grads(W1, W2, z, eps, scale=2.0 * 0.25 / 10)
        assert scaled_loss == loss
        for grad, update in zip(grads, updates):
            np.testing.assert_allclose(update, 0.25 * grad, rtol=1e-14, atol=0)

    def test_zero_init_loss_is_dimension(self, schedule):
        model = zero_model(d=2)
        data = make_rng(3).standard_normal((2000, 2))
        rng = make_rng(4)
        t = rng.integers(0, schedule.t_steps, size=data.shape[0])
        a = schedule.alphas[t][:, None]
        eps = rng.standard_normal(data.shape)
        x_t = np.sqrt(1 - a) * data + np.sqrt(a) * eps
        z = np.concatenate([x_t, sinusoidal_embed(t, model.embed_dim), np.ones((data.shape[0], 1))], axis=1)
        loss, _ = _mlp_loss_and_grads(model.W1, model.W2, z, eps)
        assert loss == pytest.approx(2.0, abs=0.25)

    def test_zero_model_predicts_zero(self, schedule):
        model = zero_model()
        np.testing.assert_array_equal(model.predict_noise(np.ones((5, 2)), 3), 0.0)


class TestTraining:
    def test_deterministic(self, schedule):
        data = make_rng(5).standard_normal((50, 2))
        cfg = TrainConfig(epochs=20)
        m1 = train(data, schedule, cfg, make_rng(9), hidden_width=16, embed_dim=8)
        m2 = train(data, schedule, cfg, make_rng(9), hidden_width=16, embed_dim=8)
        np.testing.assert_array_equal(m1.W1, m2.W1)
        np.testing.assert_array_equal(m1.W2, m2.W2)

    def test_loss_logged_and_decreasing(self, schedule, caplog):
        gmm = GmmParams(means=[[2.0, 0.0], [-2.0, 0.0]], sigma2=1.0, weights=[0.5, 0.5])
        data = sample_gmm(gmm, 300, make_rng(6))
        with caplog.at_level(logging.DEBUG, logger="plaplace.score_model"):
            train(data, schedule, TrainConfig(epochs=80), make_rng(0), hidden_width=32, embed_dim=8)
        losses = [float(r.message.split("loss ")[1]) for r in caplog.records if "loss" in r.message]
        assert len(losses) == 80
        assert losses[-1] < losses[0]

    def test_single_point_dataset_pulls_to_origin(self, schedule):
        """Trained on one replicated point, the learned score points at it."""
        data = np.zeros((256, 2))
        model = train(data, schedule, TrainConfig(), make_rng(0))
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
        """Training stops at the same step as the textbook loop: the first non-finite step loss, before its update."""
        data = make_rng(8).standard_normal((64, 2)) * 5
        cfg = TrainConfig(epochs=50, learning_rate=1e12)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDivergedError) as got:
                train(data, schedule, cfg, make_rng(0), hidden_width=16, embed_dim=8)
            with pytest.raises(TrainingDivergedError) as expected:
                textbook_train(data, schedule, cfg, 0, hidden_width=16, embed_dim=8)
        assert got.value.epoch == expected.value.epoch > 0
        np.testing.assert_equal(got.value.loss, expected.value.loss)

    def test_empty_data_rejected(self, schedule):
        with pytest.raises(ValueError):
            train(np.empty((0, 2)), schedule, TrainConfig(), make_rng(0))

    def test_one_d_data_rejected(self, schedule):
        """50 scalars are not one 50-dimensional point: data must be (n, d)."""
        with pytest.raises(ValueError, match=r"\(n, d\)"):
            train(np.linspace(-1, 1, 50), schedule, TrainConfig(epochs=1), make_rng(0))


def textbook_train(data, schedule, cfg, seed, hidden_width, embed_dim):
    """The plain per-batch SGD loop ``train`` must match bit for bit.

    The layers are stacked with their biases as last rows, W1 = [w1; b1] and W2 = [w2; b2].  After the w1 init
    the generator spawns a timestep stream and a noise stream and keeps the epoch permutations.  Every batch
    draws its t and its eps from those streams, corrupts x0 to sqrt(1 - alpha_t) x0 + sqrt(alpha_t) eps,
    concatenates [x_t, embed(t), 1] and [tanh(z @ W1), 1], backpropagates the residual scaled by 2 * lr / m
    and subtracts the update from each layer.

    Returns the layers (W1, W2) and each epoch's mean step loss; raises ``TrainingDivergedError`` at the first
    non-finite step loss, before that step's update."""
    n, d = data.shape
    rng = make_rng(seed)
    in_dim = d + embed_dim
    bound = 1.0 / np.sqrt(in_dim)
    W1 = np.vstack([rng.uniform(-bound, bound, size=(in_dim, hidden_width)), np.zeros((1, hidden_width))])
    W2 = np.zeros((hidden_width + 1, d))
    t_rng, eps_rng = rng.spawn(2)
    batch = min(cfg.batch_size, n)
    epoch_means = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            m = idx.shape[0]
            t = t_rng.integers(0, schedule.t_steps, size=m)
            eps = eps_rng.standard_normal((m, d))
            a = schedule.alphas[t][:, None]
            x_t = np.sqrt(1 - a) * data[idx] + np.sqrt(a) * eps
            z = np.concatenate([x_t, sinusoidal_embed(t, embed_dim), np.ones((m, 1))], axis=1)
            act = np.tanh(z @ W1)
            h = np.concatenate([act, np.ones((m, 1))], axis=1)
            resid = h @ W2 - eps
            loss = float(np.vdot(resid, resid)) / m
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, loss)
            resid = resid * (2.0 * cfg.learning_rate / m)
            dW2 = h.T @ resid
            dW1 = z.T @ ((resid @ W2[:hidden_width].T) * (1.0 - act * act))
            W1 -= dW1
            W2 -= dW2
            losses.append(loss)
        epoch_means.append(sum(losses) / len(losses))
    return (W1, W2), epoch_means


@pytest.mark.parametrize(
    "n,d,batch_size,embed_dim,train_block",
    [(50, 2, 32, 32, None), (50, 2, 64, 32, None), (40, 3, 16, 32, None), (40, 2, 16, 8, None), (50, 2, 16, 8, 48)],
    ids=["ragged_last_batch", "full_batch", "d3", "embed8", "block_edge"],
)
def test_train_is_bitwise_the_textbook_loop(schedule, monkeypatch, caplog, n, d, batch_size, embed_dim, train_block):
    """Same weights and epoch losses; block_edge builds its inputs in blocks of 48 rows, then a 2-row block
    holding one short batch."""
    if train_block is not None:
        monkeypatch.setattr(score_model, "TRAIN_BLOCK", train_block)
    data = make_rng(11).standard_normal((n, d))
    cfg = TrainConfig(epochs=15, learning_rate=1e-2, batch_size=batch_size)
    with caplog.at_level(logging.DEBUG, logger="plaplace.score_model"):
        model = train(data, schedule, cfg, make_rng(3), hidden_width=16, embed_dim=embed_dim)
    expected, epoch_means = textbook_train(data, schedule, cfg, 3, hidden_width=16, embed_dim=embed_dim)
    assert np.array_equal(model.W1, expected[0]) and np.array_equal(model.W2, expected[1])
    assert caplog.messages == [f"epoch {epoch}: loss {mean:.6f}" for epoch, mean in enumerate(epoch_means)]


def test_train_does_not_depend_on_train_block(schedule, monkeypatch):
    """Each block draws its timesteps and its noise in one call, and split draws give the same values, so blocks
    of 4096 rows (the whole epoch), 96 rows (with a ragged last block) and one batch give the same weights."""
    data = make_rng(13).standard_normal((300, 2))
    cfg = TrainConfig(epochs=5, learning_rate=1e-2, batch_size=32)
    models = []
    for block in (4096, 96, 32):
        monkeypatch.setattr(score_model, "TRAIN_BLOCK", block)
        models.append(train(data, schedule, cfg, make_rng(4), hidden_width=16, embed_dim=8))
    for model in models[1:]:
        assert np.array_equal(model.W1, models[0].W1) and np.array_equal(model.W2, models[0].W2)


def test_train_working_set_is_bounded(schedule, traced_peak):
    """Inputs are built a block at a time: quadrupling n adds only the epoch permutation's 8 bytes per row."""
    cfg = TrainConfig(epochs=1, batch_size=256)
    small, big = (make_rng(12).standard_normal((k * TRAIN_BLOCK, 2)) for k in (2, 8))
    grown = (traced_peak(train, big, schedule, cfg, make_rng(0), 4, 4)
             - traced_peak(train, small, schedule, cfg, make_rng(0), 4, 4))
    assert grown <= 8 * (big.shape[0] - small.shape[0]) + 16_384


def folded_predict(model, x, t):
    """eps_hat in one pass, with t's embedding folded into the bias row embed(t) @ W1[d:-1] + W1[-1]: the
    reference."""
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    d = model.input_dim
    row = sinusoidal_embed(t, model.embed_dim) @ model.W1[d:-1] + model.W1[-1]
    return np.tanh(xb @ model.W1[:d] + row) @ model.W2[:-1] + model.W2[-1]


def concatenated_predict(model, x, t):
    """The textbook forward: t's embedding repeated on every row and concatenated to the points."""
    xb = np.atleast_2d(np.asarray(x, dtype=float))
    tb = np.broadcast_to(np.asarray(t, dtype=float), (xb.shape[0],))
    z = np.concatenate([xb, sinusoidal_embed(tb, model.embed_dim)], axis=1)
    return np.tanh(z @ model.W1[:-1] + model.W1[-1]) @ model.W2[:-1] + model.W2[-1]


@pytest.mark.parametrize("t", [7, np.array(7)], ids=["int", "0-d"])
def test_predict_noise_is_bitwise_the_folded_path(trained_model, t):
    x = make_rng(4).standard_normal((5, 2))
    np.testing.assert_array_equal(trained_model.predict_noise(x, t), folded_predict(trained_model, x, t))
    np.testing.assert_array_equal(trained_model.predict_noise(x[2:3], t), folded_predict(trained_model, x[2:3], t))


@pytest.mark.parametrize("t,block,n", [(7, PREDICT_BLOCK, 2 * PREDICT_BLOCK + 17), (7, 4, 3200), (7, 100, 3200),
                                       (7, 4, 9), (7, 4, 25)]
                         + [(t, PREDICT_BLOCK, n) for n in (257, 513, 3073) for t in (0, 7, 99)],
                         ids=["scalar-t", "block4", "block100", "block4-tail1-9", "block4-tail1-25"]
                         + [f"tail1-{n}-t{t}" for n in (257, 513, 3073) for t in (0, 7, 99)])
def test_predict_noise_blocks_are_bitwise_one_pass(trained_model, monkeypatch, t, block, n):
    """The row-blocked forward equals one pass over all rows and its own per-block calls: over a 17-row ragged last
    block, over the 3,200 rows of the studies' largest call in blocks of 4 rows and of 100 (the studies'
    per-center call), which keep every row in the place it takes in the one pass's 4-row GEMM tiles, and where the
    last block would hold one row, whose one-row GEMM rounds otherwise: that block takes the 4 rows before it."""
    monkeypatch.setattr(score_model, "PREDICT_BLOCK", block)
    x = make_rng(5).standard_normal((n, 2))
    got = trained_model.predict_noise(x, t)
    np.testing.assert_array_equal(got, folded_predict(trained_model, x, t))
    bounds = [*range(0, n, block), n]
    if n > block and n % block == 1:
        bounds[-2] -= 4
    per_block = [trained_model.predict_noise(x[i:j], t) for i, j in zip(bounds, bounds[1:])]
    np.testing.assert_array_equal(got, np.concatenate(per_block))


@pytest.mark.parametrize("t", [0, 7, 99])
@pytest.mark.parametrize("n", [5, 2 * PREDICT_BLOCK + 17, 3200])
def test_predict_noise_matches_the_concatenated_forward(trained_model, t, n):
    """Folding the embedding regroups the first layer's sum, so only the last bits move: the largest difference
    from the textbook forward is 6.7e-16 here (3,200 rows, t = 0).  Up to the 3,200 rows the studies call with,
    the blocked forward stays bitwise one folded pass."""
    x = make_rng(5).standard_normal((n, 2))
    got = trained_model.predict_noise(x, t)
    np.testing.assert_array_equal(got, folded_predict(trained_model, x, t))
    np.testing.assert_allclose(got, concatenated_predict(trained_model, x, t), rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", [5, 100, 400, 2000])
def test_predict_noise_does_not_depend_on_memory_layout(trained_model, n):
    """Blocks go to matmul as views of the caller's points: Fortran order, a strided column view and a
    negative-stride view give the bits of the C-contiguous call."""
    x = make_rng(6).standard_normal((n, 2))
    big = np.zeros((n, 4))
    big[:, 1::2] = x
    flipped = np.ascontiguousarray(x[::-1])[::-1]
    expected = trained_model.predict_noise(x, 3)
    for view in (np.asfortranarray(x), big[:, 1::2], flipped):
        assert not view.flags.c_contiguous
        np.testing.assert_array_equal(trained_model.predict_noise(view, 3), expected)


@pytest.mark.parametrize("shape", [(3, 1), (1,), (), (3, 3), (2, 2, 2), (2,)])
def test_predict_noise_rejects_points_of_the_wrong_shape(trained_model, shape):
    """A 2-d model takes (n, 2) rows, so one point is a (1, 2) batch; any other shape raises."""
    with pytest.raises(ValueError, match=r"\(n, 2\)"):
        trained_model.predict_noise(np.ones(shape), 0)


def test_predict_noise_empty_batch(trained_model):
    assert trained_model.predict_noise(np.empty((0, 2)), 3).shape == (0, 2)


@pytest.mark.parametrize("t", [np.array([1, 2]), np.array([1]), 1.0], ids=["array", "one-element-array", "float"])
def test_predict_noise_takes_one_timestep_index(trained_model, t):
    """One call evaluates one noise level: an array of timesteps or a float index is a TypeError, not a per-row t."""
    with pytest.raises(TypeError):
        trained_model.predict_noise(np.zeros((2, 2)), t)


def test_predict_noise_working_set_is_bounded(trained_model, traced_peak):
    """A 2000-row call holds its output and one block's scratch, not three (2000, hidden) temporaries (4.7 MB)."""
    x = make_rng(7).standard_normal((2000, 2))
    assert traced_peak(trained_model.predict_noise, x, 0) <= 1_000_000


class TestLearnedScore:
    def test_zero_predictor_zero_score(self, schedule):
        model = zero_model()
        np.testing.assert_array_equal(learned_score(model, schedule, np.ones((3, 2)), 0), 0.0)

    @pytest.mark.parametrize("t", [-1, 100])
    def test_timestep_outside_schedule_rejected(self, schedule, trained_model, t):
        """t = -1 would embed -1 but divide by the noise of the last step; t = T has no alpha at all."""
        with pytest.raises(ValueError, match=r"\[0, 100\)"):
            learned_score(trained_model, schedule, np.ones((3, 2)), t)
        with pytest.raises(ValueError, match=r"\[0, 100\)"):
            score_field(trained_model, schedule, t)

    @pytest.mark.parametrize("t", [0, 99])
    def test_first_and_last_timestep_unchanged(self, schedule, trained_model, t):
        x = make_rng(3).standard_normal((4, 2))
        expected = -trained_model.predict_noise(x, t) / np.sqrt(schedule.alphas[t])
        np.testing.assert_array_equal(learned_score(trained_model, schedule, x, t), expected)
        np.testing.assert_array_equal(score_field(trained_model, schedule, t)(x), expected)

    def test_alpha_zero_guard(self):
        """alpha_t = 0 has no score; the schedule cannot hold one, so learned_score never sees it."""
        for betas in ([0.0, 0.01], [1e-20, 0.01]):
            with pytest.raises(ValueError, match="alphas"):
                NoiseSchedule(betas)

    def test_single_gaussian_matches_perturbed_oracle(self, schedule):
        """Direction agreement with the analytic corrupted-Gaussian score."""
        g = GmmParams(means=[[1.0, -2.0]], sigma2=1.0, weights=[1.0])
        data = sample_gmm(g, 1000, make_rng(0))
        model = train(data, schedule, TrainConfig(), make_rng(0))
        pts = sample_gmm(g, 300, make_rng(1))
        learned = learned_score(model, schedule, pts, 0)
        oracle = score(perturb(g, schedule.alphas[0]), pts)
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
        oracle = score(perturb(default_gmm, schedule.alphas[0]), pts)
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
        return -np.sqrt(alpha) * score(perturb(self.gmm, alpha), x)


class TestReverseSample:
    def test_drift_free_limit(self):
        """Zero score and zero betas leave the initial standard normal draws untouched."""
        # reverse_sample reads t_steps, betas and alphas; zero alphas are outside any valid NoiseSchedule.
        sched = SimpleNamespace(t_steps=10, betas=np.zeros(10), alphas=np.zeros(10))
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
        W2 = model.W2.copy()
        W2[-1] = 1e308
        broken = MlpScoreModel(model.W1, W2)
        with pytest.raises(SamplingError):
            with np.errstate(over="ignore", invalid="ignore"):
                reverse_sample(broken, schedule, 4, make_rng(0))


def test_score_field_binds_level(default_gmm, schedule, trained_model):
    field = score_field(trained_model, schedule, 0)
    x = make_rng(2).standard_normal((7, 2))
    np.testing.assert_array_equal(field(x), learned_score(trained_model, schedule, x, 0))
