"""Small denoising diffusion model for low-dimensional data.

A discrete variance-preserving corruption x_t = sqrt(1 - alpha_t) x0
+ sqrt(alpha_t) eps is inverted by a one-hidden-layer MLP trained to
predict the noise.  The learned score at noise level t is
-eps_hat(x, t) / sqrt(alpha_t); estimators consume it at the last
denoising step (t = 0, the smallest trained noise level).

Everything is plain numpy with hand-written backpropagation; training is
deterministic given (data, config, seed).  Training is SGD over tables
built once per call.  Each epoch's inputs are built ``TRAIN_BLOCK`` rows
(whole batches) at a time: every batch draws its timesteps and noise, then
one pass gathers the block's data, corruption factors and embeddings into
preallocated buffers, so a step runs only the MLP kernel and one in-place
update of a flat parameter buffer.  Its weights are bitwise those of the
textbook loop that corrupts, embeds, concatenates and updates each weight
array per step; the tests keep that loop as the reference.
"""

from __future__ import annotations

import logging
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import SamplingError, TrainingDivergedError
from .fields import ScoreField
from .geometry import make_rng

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

# Rows per block of the inference forward pass: bounds its (rows, hidden) scratch.
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
    timestep; output has the same dimension as the point.  Immutable after
    training, so concurrent evaluation is safe.
    """

    input_dim: int
    hidden_width: int
    embed_dim: int
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    def __post_init__(self):
        d, h, e = self.input_dim, self.hidden_width, self.embed_dim
        if min(d, h, e) < 1 or e % 2:
            raise ValueError(f"need positive input_dim, hidden_width and even embed_dim, got {d}, {h}, {e}")
        # Frozen copies: the caller's arrays stay writable, these never are.
        for name, shape in (("w1", (d + e, h)), ("b1", (h,)), ("w2", (h, d)), ("b2", (d,))):
            frozen = np.array(getattr(self, name), dtype=float)
            if frozen.shape != shape:
                raise ValueError(f"{name} has shape {frozen.shape}, expected {shape}")
            frozen.setflags(write=False)
            object.__setattr__(self, name, frozen)

    def predict_noise(self, x, t) -> np.ndarray:
        """eps_hat(x, t); ``x`` is (d,) or (n, d) and ``t`` one timestep index for every row.

        The embedding's share of the first layer is the same for every row, so
        it is formed once per call as the bias row ``embed(t) @ w1[d:] + b1``;
        each block of ``PREDICT_BLOCK`` rows then multiplies only its points by
        ``w1[:d]``, reading them where they lie (no input scratch).  At d = 2
        that first-layer GEMM is small enough that OpenBLAS keeps it on one
        thread.  One hidden scratch array is allocated per call and each block
        is written into the output, so the working set does not grow with n.
        Any other shape of ``x`` raises ``ValueError``; an array ``t`` raises
        ``TypeError``.
        """
        x = np.asarray(x, dtype=float)
        d = self.input_dim
        if x.ndim not in (1, 2) or x.shape[-1] != d:
            raise ValueError(f"x must have shape ({d},) or (n, {d}), got {x.shape}")
        xb = np.atleast_2d(x)
        n = xb.shape[0]
        row = sinusoidal_embed(operator.index(t), self.embed_dim) @ self.w1[d:] + self.b1
        h = np.empty((min(n, PREDICT_BLOCK), self.hidden_width))
        y = np.empty((n, d))
        for start in range(0, n, PREDICT_BLOCK):
            block = slice(start, start + PREDICT_BLOCK)
            m = min(n - start, PREDICT_BLOCK)
            _mlp_forward(self.w1[:d], row, self.w2, self.b2, xb[block], h[:m], y[block])
        return y[0] if x.ndim == 1 else y


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters; a batch_size of at least the data size means full-batch steps.

    The minibatch default matters: full-batch runs take one step per epoch
    and leave the score direction visibly under-fit at the default epoch
    budget.
    """

    epochs: int = 500
    learning_rate: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not (self.epochs > 0 and self.learning_rate > 0 and self.batch_size > 0):
            raise ValueError("epochs, learning_rate and batch_size must be positive")


def _mlp_forward(w1, b1, w2, b2, z, h=None, y=None):
    """Forward pass; returns (prediction, hidden activations), written into ``y`` and ``h`` when given."""
    h = np.tanh(np.add(np.matmul(z, w1, out=h), b1, out=h), out=h)
    return np.add(np.matmul(h, w2, out=y), b2, out=y), h


def _mlp_loss_and_grads(w1, b1, w2, b2, z, eps, grads=None, work=None):
    """Mean squared noise-prediction error and its parameter gradients.

    The loss is mean over the batch of the squared norm of (prediction - eps),
    so a zero predictor scores about the data dimension.  ``grads`` (arrays
    shaped like w1, b1, w2, b2) receives the gradients and ``work`` (arrays
    shaped (n, hidden), (n, d), (n, hidden)) the intermediates, so a training
    loop can run without allocating; either may be omitted, and the
    arithmetic is the same.
    """
    n = z.shape[0]
    dw1, db1, dw2, db2 = (None,) * 4 if grads is None else grads
    h, y, dh = (None,) * 3 if work is None else work
    y, h = _mlp_forward(w1, b1, w2, b2, z, h, y)
    resid = np.subtract(y, eps, out=y)
    loss = float(np.add.reduce(resid * resid, axis=None) / n)
    dy = resid  # 2 * resid / n, formed in place
    dy *= 2.0
    dy /= n
    dw2 = np.matmul(h.T, dy, out=dw2)
    db2 = np.add.reduce(dy, axis=0, out=db2)
    dh = np.matmul(dy, w2.T, out=dh)
    # h is spent once dw2 is formed: it becomes the tanh derivative 1 - h^2 in place.
    h *= h
    np.subtract(1.0, h, out=h)
    da = np.multiply(dh, h, out=dh)
    dw1 = np.matmul(z.T, da, out=dw1)
    db1 = np.add.reduce(da, axis=0, out=db1)
    return loss, (dw1, db1, dw2, db2)


def train(
    data,
    schedule: NoiseSchedule,
    cfg: TrainConfig,
    hidden_width: int = 128,
    embed_dim: int = 32,
) -> MlpScoreModel:
    """Fit the noise predictor with plain SGD on fresh (t, eps) draws each epoch.

    Weight init is scaled-uniform fan-in for the hidden layer and zeros for
    the output layer, so the untrained model predicts zero noise.  Raises
    :class:`TrainingDivergedError` if the loss becomes non-finite.

    Everything a step cannot change is built once per call: the embedding
    row and the sqrt(1 - alpha_t), sqrt(alpha_t) factors of every timestep,
    block buffers of at most ``TRAIN_BLOCK`` rows (whole batches, at least
    one) with each batch's views into them, and one flat parameter and
    gradient buffer that the weights view.  Each block draws every batch's
    t and eps in the per-batch order, then builds the corrupted inputs and
    embedding columns of all its rows in one pass; each step then runs the
    kernel and updates every weight with one in-place subtraction.  The
    float operations are those of the per-array textbook loop, so the
    weights are bitwise those of that loop, and the working set does not
    grow with the data beyond the epoch's permutation.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.size == 0:
        raise ValueError("training data must be nonempty")
    n, d = data.shape
    rng = make_rng(cfg.seed)

    in_dim = d + embed_dim
    bound = 1.0 / np.sqrt(in_dim)
    shapes = ((in_dim, hidden_width), (hidden_width,), (hidden_width, d), (d,))
    ends = np.cumsum([math.prod(shape) for shape in shapes])
    params = np.zeros(ends[-1])
    grads = np.empty_like(params)
    w1, b1, w2, b2 = (part.reshape(shape) for part, shape in zip(np.split(params, ends[:-1]), shapes))
    grad_views = tuple(part.reshape(shape) for part, shape in zip(np.split(grads, ends[:-1]), shapes))
    w1[...] = rng.uniform(-bound, bound, size=(in_dim, hidden_width))

    embeddings = sinusoidal_embed(np.arange(schedule.t_steps), embed_dim)
    signal = np.sqrt(1.0 - schedule.alphas)[:, None]
    noise = np.sqrt(schedule.alphas)[:, None]

    batch = min(cfg.batch_size, n)
    block = max(TRAIN_BLOCK // batch, 1) * batch
    rows = min(block, n)
    t_buf = np.empty(rows, dtype=np.int64)
    x0_buf = np.empty((rows, d))
    eps_buf = np.empty((rows, d))
    z_buf = np.empty((rows, in_dim))
    work_bufs = (np.empty((batch, hidden_width)), np.empty((batch, d)), np.empty((batch, hidden_width)))

    def batch_views(size):
        """(t, z, eps, work) views of each batch of a ``size``-row block; only the last batch may be short."""
        edges = [(lo, min(lo + batch, size)) for lo in range(0, size, batch)]
        return [
            (t_buf[lo:hi], z_buf[lo:hi], eps_buf[lo:hi], tuple(buf[: hi - lo] for buf in work_bufs))
            for lo, hi in edges
        ]

    # Every block but an epoch's last is full, so two view lists serve every epoch.
    views = {size: batch_views(size) for size in {min(block, n - start) for start in range(0, n, block)}}
    n_batches = -(-n // batch)
    lr = cfg.learning_rate
    for epoch in range(cfg.epochs):
        if batch == n:
            order = np.arange(n)
        else:
            order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, block):
            size = min(block, n - start)
            steps = views[size]
            for batch_t, _, batch_eps, _ in steps:  # each batch draws its t, then its eps, as a per-batch loop would
                batch_t[...] = rng.integers(0, schedule.t_steps, size=batch_t.shape[0])
                rng.standard_normal(out=batch_eps)
            t, x0, eps, z = t_buf[:size], x0_buf[:size], eps_buf[:size], z_buf[:size]
            np.take(data, order[start : start + size], axis=0, out=x0)
            np.multiply(signal[t], x0, out=z[:, :d])  # x_t = sqrt(1 - alpha_t) x0 + sqrt(alpha_t) eps
            z[:, :d] += noise[t] * eps
            np.take(embeddings, t, axis=0, out=z[:, d:])
            for _, batch_z, batch_eps, work in steps:
                loss, _ = _mlp_loss_and_grads(w1, b1, w2, b2, batch_z, batch_eps, grad_views, work)
                if not math.isfinite(loss):
                    raise TrainingDivergedError(epoch, loss)
                grads *= lr  # params -= lr * grads, with no temporary
                params -= grads
                epoch_loss += loss
        logger.debug("epoch %d: loss %.6f", epoch, epoch_loss / n_batches)

    return MlpScoreModel(
        input_dim=d,
        hidden_width=hidden_width,
        embed_dim=embed_dim,
        w1=w1,
        b1=b1,
        w2=w2,
        b2=b2,
    )


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
