"""Small denoising diffusion model for low-dimensional data.

A discrete variance-preserving corruption x_t = sqrt(1 - alpha_t) x0
+ sqrt(alpha_t) eps is inverted by a one-hidden-layer MLP trained to
predict the noise.  The learned score at noise level t is
-eps_hat(x, t) / sqrt(alpha_t); estimators consume it at the last
denoising step (t = 0, the smallest trained noise level).

Everything is plain numpy with hand-written backpropagation; training is
deterministic given (data, config, generator).  The model is its two layers,
each stacked with its bias as a last row, ``W1 = [w1; b1]`` and
``W2 = [w2; b2]``: training fits them in that layout, the model holds them
and inference reads its blocks of them in place, so nothing converts
between layouts.  Training is SGD over tables built once per call.  Each
layer is trained against inputs that carry a column of ones, so a step is
little more than its four GEMMs and its tanh: the residual is scaled by
2 * lr / m, the gradient GEMMs return the update itself, and one in-place
subtraction applies it to a flat parameter buffer.  Each epoch's inputs
are built ``TRAIN_BLOCK`` rows (whole batches) at a time, each block
drawing its timesteps and its noise in one call apiece from two streams of
their own.  Split draws give the same values, so the weights do not depend
on ``TRAIN_BLOCK``, and they are bitwise those of the textbook loop that
corrupts, embeds, concatenates and updates per batch; the tests keep that
loop as the reference.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import SamplingError, TrainingDivergedError
from .fields import ScoreField

logger = logging.getLogger(__name__)

__all__ = [
    "NoiseSchedule",
    "MlpScoreModel",
    "TrainConfig",
    "sinusoidal_embed",
    "train",
    "learned_score",
    "score_field",
    "reverse_sample",
]

# Rows per block of the inference forward pass (a multiple of 4): bounds its (rows, hidden) scratch.
PREDICT_BLOCK = 256

# Rows of training inputs built per pass, rounded down to whole batches (at least one batch).
TRAIN_BLOCK = 4096

# Base of the timestep embedding's geometric frequency ladder.
EMBED_BASE = 1.0e4


@dataclass(frozen=True)
class NoiseSchedule:
    """Discrete noise schedule: per-step betas and the cumulative noise fractions they give.

    ``alphas[t]`` is the total noise fraction after step t, computed as
    1 - prod(1 - beta_i), so the forward corruption identity holds exactly
    in discrete time.  Index 0 is the last denoising step (least noise).
    """

    betas: np.ndarray
    alphas: np.ndarray = field(init=False)

    def __post_init__(self):
        # A frozen copy: the caller's array stays writable, and alphas always matches betas.
        betas = np.array(self.betas, dtype=float)
        if betas.ndim != 1 or betas.shape[0] < 1:
            raise ValueError("betas must be a nonempty 1-d array")
        if not np.all((betas >= 0) & (betas < 1)):
            raise ValueError("betas must lie in [0, 1)")
        alphas = 1.0 - np.cumprod(1.0 - betas)
        # alpha_t = 0 leaves no noise to predict, so the score -eps_hat / sqrt(alpha_t) would not exist.
        if np.any(alphas <= 0) or np.any(alphas >= 1):
            raise ValueError("alphas must lie in (0, 1)")
        betas.setflags(write=False)
        alphas.setflags(write=False)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas", alphas)

    @property
    def t_steps(self) -> int:
        return self.betas.shape[0]

    @classmethod
    def linear(cls, t_steps: int = 100, beta_min: float = 1e-4, beta_max: float = 0.02) -> "NoiseSchedule":
        """Linear beta ramp; the standard baseline schedule."""
        return cls(np.linspace(beta_min, beta_max, t_steps))


def sinusoidal_embed(t, dim: int) -> np.ndarray:
    """Sinusoidal embedding of a timestep index.

    Pairs (sin(t * w_j), cos(t * w_j)) with geometrically spaced frequencies
    w_j = EMBED_BASE^(-j / (dim/2)).  ``t`` may be a scalar or an array; the
    output gains a trailing axis of length ``dim``.
    """
    if dim <= 0 or dim % 2 != 0:
        raise ValueError(f"embedding dim must be a positive even integer, got {dim}")
    t = np.asarray(t, dtype=float)
    half = dim // 2
    freqs = EMBED_BASE ** (-np.arange(half) / half)
    angles = t[..., None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=-1)


@dataclass(frozen=True)
class MlpScoreModel:
    """One-hidden-layer tanh MLP predicting the corruption noise.

    Input is the point concatenated with the sinusoidal embedding of the
    timestep; output has the same dimension as the point.  The model is the
    two layers ``train`` fits, each stacked with its bias as a last row:
    ``W1 = [w1; b1]`` of shape (d + embed_dim + 1, hidden_width) and
    ``W2 = [w2; b2]`` of shape (hidden_width + 1, d).  ``input_dim``,
    ``hidden_width`` and ``embed_dim`` are read off those shapes; a pair
    that fits no d >= 1, hidden width >= 1 and positive even embedding width
    raises ``ValueError``.  Both are read-only copies, so concurrent
    evaluation is safe.
    """

    W1: np.ndarray
    W2: np.ndarray

    def __post_init__(self):
        # Frozen copies: the caller's arrays stay writable, these never are.
        for name in ("W1", "W2"):
            frozen = np.array(getattr(self, name), dtype=float)
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)
        W1, W2 = self.W1, self.W2
        if W1.ndim != 2 or W2.ndim != 2 or W2.shape[0] != W1.shape[1] + 1:
            raise ValueError(f"need W1 (d + e + 1, h) and W2 (h + 1, d), got {W1.shape} and {W2.shape}")
        d, h, e = self.input_dim, self.hidden_width, self.embed_dim
        if min(d, h, e) < 1 or e % 2:
            raise ValueError(f"need positive d and hidden width and even embedding width, got {d}, {h}, {e}")

    @property
    def input_dim(self) -> int:
        return self.W2.shape[1]

    @property
    def hidden_width(self) -> int:
        return self.W1.shape[1]

    @property
    def embed_dim(self) -> int:
        return self.W1.shape[0] - 1 - self.input_dim

    def predict_noise(self, x, t) -> np.ndarray:
        """eps_hat(x, t); ``x`` is (n, d) and ``t`` one timestep index for every row.

        The embedding's share of the first layer is the same for every row, so
        it is formed once per call as the bias row ``embed(t) @ W1[d:-1] + W1[-1]``;
        each block of ``PREDICT_BLOCK`` rows then multiplies only its points by
        ``W1[:d]``, reading them where they lie (no input scratch), and its
        hidden activations by ``W2[:-1]`` before adding ``W2[-1]``; a last block
        of one row takes the 4 rows before it, as one pass rounds.  At d = 2
        that first-layer GEMM is small enough that OpenBLAS keeps it on one
        thread.  One hidden scratch array is allocated per call and each block
        is written into the output, so the working set does not grow with n.
        Any other shape of ``x`` raises ``ValueError``; an array ``t`` raises
        ``TypeError``.
        """
        x = np.asarray(x, dtype=float)
        d = self.input_dim
        if x.ndim != 2 or x.shape[1] != d:
            raise ValueError(f"x must have shape (n, {d}), got {x.shape}")
        n = x.shape[0]
        a, w2, b2 = self.W1[:d], self.W2[:-1], self.W2[-1]
        row = sinusoidal_embed(operator.index(t), self.embed_dim) @ self.W1[d:-1] + self.W1[-1]
        bounds = [*range(0, n, PREDICT_BLOCK), n]
        if n > PREDICT_BLOCK and n % PREDICT_BLOCK == 1:
            bounds[-2] -= 4  # a one-row GEMM takes another BLAS path, so that row's block takes the 4 rows before it
        h = np.empty((np.max(np.diff(bounds), initial=0), self.hidden_width))
        y = np.empty((n, d))
        for start, stop in zip(bounds, bounds[1:]):
            hb = h[: stop - start]
            np.tanh(np.add(np.matmul(x[start:stop], a, out=hb), row, out=hb), out=hb)
            np.add(np.matmul(hb, w2, out=y[start:stop]), b2, out=y[start:stop])
        return y


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; a batch_size of at least the data size means full-batch steps.

    The minibatch default matters: full-batch runs take one (permuted) step
    per epoch and leave the score direction visibly under-fit at the default
    epoch budget.
    """

    epochs: int = 500
    learning_rate: float = 1e-3
    batch_size: int = 32

    def __post_init__(self):
        if not (self.epochs > 0 and self.learning_rate > 0 and self.batch_size > 0):
            raise ValueError("epochs, learning_rate and batch_size must be positive")


def _mlp_loss_and_grads(W1, W2, z, eps, scale=None, grads=None, work=None):
    """Mean squared noise-prediction error and the gradients of the stacked layers, times ``scale * n / 2``.

    ``W1`` and ``W2`` are the stacked layers that :class:`MlpScoreModel`
    holds, and ``z`` carries a trailing column of ones, so one
    GEMM gives each pre-activation with its bias and one GEMM gives each
    ``[dw; db]``.  The loss is mean over the batch of the squared norm of
    (prediction - eps), so a zero predictor scores about the data dimension.
    The residual is multiplied by ``scale`` before backpropagation; the
    default 2 / n gives the true gradients, and 2 * lr / n gives the SGD
    update itself.  ``grads`` (arrays shaped like W1, W2) receives the
    gradients and ``work`` (arrays shaped (n, hidden), (n, hidden + 1) with a
    last column of ones, (n, d), (n, hidden)) the intermediates, so a
    training loop can run without allocating; either may be omitted, and the
    arithmetic is the same.
    """
    n, hidden = z.shape[0], W1.shape[1]
    dW1, dW2 = (None, None) if grads is None else grads
    if work is None:
        work = (np.empty((n, hidden)), np.ones((n, hidden + 1)), np.empty((n, W2.shape[1])), np.empty((n, hidden)))
    a, h, y, dh = work
    # tanh runs on the contiguous scratch a and is copied once: a strided out= costs more than the copy.
    np.tanh(np.matmul(z, W1, out=a), out=a)
    h[:, :hidden] = a
    resid = np.subtract(np.matmul(h, W2, out=y), eps, out=y)
    loss = float(np.vdot(resid, resid)) / n
    resid *= 2.0 / n if scale is None else scale
    dW2 = np.matmul(h.T, resid, out=dW2)
    dh = np.matmul(resid, W2[:hidden].T, out=dh)
    # a is spent once h holds it: it becomes the tanh derivative 1 - a^2 in place.
    a *= a
    np.subtract(1.0, a, out=a)
    dh *= a
    dW1 = np.matmul(z.T, dh, out=dW1)
    return loss, (dW1, dW2)


def train(
    data,
    schedule: NoiseSchedule,
    cfg: TrainConfig,
    rng: np.random.Generator,
    hidden_width: int = 128,
    embed_dim: int = 32,
) -> MlpScoreModel:
    """Fit the noise predictor with plain SGD on fresh (t, eps) draws each epoch.

    ``data`` is a nonempty (n, d) array (``ValueError`` otherwise), visited in
    a fresh permutation every epoch, full-batch runs included.  Weight init is
    scaled-uniform fan-in for the hidden layer and zeros for the output
    layer, so the untrained model predicts zero noise.  Raises
    :class:`TrainingDivergedError` if the loss becomes non-finite.

    Everything a step cannot change is built once per call: the embedding
    row and the sqrt(1 - alpha_t), sqrt(alpha_t) factors of every timestep,
    block buffers of at most ``TRAIN_BLOCK`` rows (whole batches, at least
    one) with each batch's views into them, and one flat parameter and
    gradient buffer that the stacked layers ``W1`` and ``W2`` view; the
    model is built on them.  ``rng`` draws the w1 init, spawns a timestep
    stream and a noise stream, then draws the epoch permutations.  Each
    block draws its timesteps in one call and its noise in one call, then
    builds the corrupted inputs and embedding columns of all its rows in one
    pass (the input buffer's last column of ones is written once).  Each step
    then runs the kernel with the residual scaled by 2 * lr / m, so the
    gradient buffer holds the update, and subtracts it from the parameters.
    Splitting a draw leaves its values unchanged, so the weights do not
    depend on ``TRAIN_BLOCK`` and are bitwise those of a per-batch loop on
    the same streams; the working set does not grow with the data beyond
    the epoch's permutation.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.size == 0:
        raise ValueError(f"training data must be a nonempty (n, d) array, got shape {data.shape}")
    n, d = data.shape

    in_dim = d + embed_dim
    bound = 1.0 / np.sqrt(in_dim)
    split = (in_dim + 1) * hidden_width
    params = np.zeros(split + (hidden_width + 1) * d)
    grads = np.empty_like(params)
    layers = (params[:split].reshape(in_dim + 1, hidden_width), params[split:].reshape(hidden_width + 1, d))
    updates = (grads[:split].reshape(in_dim + 1, hidden_width), grads[split:].reshape(hidden_width + 1, d))
    layers[0][:in_dim] = rng.uniform(-bound, bound, size=(in_dim, hidden_width))
    t_rng, eps_rng = rng.spawn(2)

    embeddings = sinusoidal_embed(np.arange(schedule.t_steps), embed_dim)
    signal = np.sqrt(1.0 - schedule.alphas)[:, None]
    noise = np.sqrt(schedule.alphas)[:, None]

    batch = min(cfg.batch_size, n)
    block = max(TRAIN_BLOCK // batch, 1) * batch
    rows = min(block, n)
    x_buf = np.empty((rows, d))
    eps_buf = np.empty((rows, d))
    z_buf = np.ones((rows, in_dim + 1))
    work_bufs = (
        np.empty((batch, hidden_width)),
        np.ones((batch, hidden_width + 1)),
        np.empty((batch, d)),
        np.empty((batch, hidden_width)),
    )
    lr = cfg.learning_rate

    def batch_views(size):
        """(z, eps, work, 2 * lr / m) of each batch of a ``size``-row block; only the last batch may be short."""
        edges = [(lo, min(lo + batch, size)) for lo in range(0, size, batch)]
        return [
            (z_buf[lo:hi], eps_buf[lo:hi], tuple(buf[: hi - lo] for buf in work_bufs), 2.0 * lr / (hi - lo))
            for lo, hi in edges
        ]

    # Every block but an epoch's last is full, so two view lists serve every epoch.
    views = {size: batch_views(size) for size in {min(block, n - start) for start in range(0, n, block)}}
    n_batches = -(-n // batch)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, block):
            size = min(block, n - start)
            t = t_rng.integers(0, schedule.t_steps, size=size)
            x_t, eps, z = x_buf[:size], eps_buf[:size], z_buf[:size]
            eps_rng.standard_normal(out=eps)
            # x_t = sqrt(1 - alpha_t) x0 + sqrt(alpha_t) eps, formed contiguous: a strided out= costs more than the copy
            np.take(data, order[start : start + size], axis=0, out=x_t)
            x_t *= signal.take(t, axis=0)
            x_t += noise.take(t, axis=0) * eps
            z[:, :d] = x_t
            z[:, d:in_dim] = embeddings.take(t, axis=0)
            for batch_z, batch_eps, work, scale in views[size]:
                loss, _ = _mlp_loss_and_grads(*layers, batch_z, batch_eps, scale, updates, work)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(epoch, loss)
                params -= grads
                epoch_loss += loss
        logger.debug("epoch %d: loss %.6f", epoch, epoch_loss / n_batches)

    return MlpScoreModel(*layers)


def _level(schedule: NoiseSchedule, t) -> int:
    """The timestep index t; ``ValueError`` unless it names a level of the schedule."""
    t = operator.index(t)
    if not 0 <= t < schedule.t_steps:
        raise ValueError(f"timestep must be in [0, {schedule.t_steps}), got {t}")
    return t


def learned_score(model: MlpScoreModel, schedule: NoiseSchedule, x, t: int) -> np.ndarray:
    """Score of the learned noise-level-t density: -eps_hat(x, t) / sqrt(alpha_t)."""
    t = _level(schedule, t)
    return -model.predict_noise(x, t) / np.sqrt(schedule.alphas[t])


def score_field(model: MlpScoreModel, schedule: NoiseSchedule, t: int = 0) -> ScoreField:
    """The learned score bound to one noise level (default: last denoising step)."""
    t = _level(schedule, t)

    def field(x: np.ndarray) -> np.ndarray:
        return learned_score(model, schedule, x, t)

    return field


def reverse_sample(model, schedule: NoiseSchedule, n: int, rng: np.random.Generator) -> np.ndarray:
    """Euler-Maruyama integration of the reverse-time dynamics.

    Starts from standard normal draws at the noisiest step and walks down to
    t = 0, using the model's noise prediction for the drift.  ``model`` needs
    only an ``input_dim`` and a ``predict_noise(x, t)`` method.  No noise is
    injected on the final step.  Raises :class:`SamplingError` on a non-finite state.
    """
    d = model.input_dim
    x = rng.standard_normal((n, d))
    for t in range(schedule.t_steps - 1, -1, -1):
        beta = float(schedule.betas[t])
        if beta > 0.0:
            x = x + 0.5 * beta * x + beta * learned_score(model, schedule, x, t)
            if t > 0:
                x = x + np.sqrt(beta) * rng.standard_normal((n, d))
        if not np.all(np.isfinite(x)):
            raise SamplingError(f"non-finite state during reverse integration at t={t}")
    return x
