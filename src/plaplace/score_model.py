"""Small denoising diffusion model for low-dimensional data.

A discrete variance-preserving corruption x_t = sqrt(1 - alpha_t) x0
+ sqrt(alpha_t) eps is inverted by a one-hidden-layer MLP trained to
predict the noise.  The learned score at noise level t is
-eps_hat(x, t) / sqrt(alpha_t); estimators consume it at the last
denoising step (t = 0, the smallest trained noise level).

Everything is plain numpy with hand-written backpropagation; training is
deterministic given (data, config, seed).
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, SamplingError, TrainingDivergedError
from .fields import ScoreField
from .geometry import make_rng

logger = logging.getLogger(__name__)

__all__ = [
    "NoiseSchedule",
    "MlpScoreModel",
    "TrainConfig",
    "sinusoidal_embed",
    "forward_perturb",
    "train",
    "learned_score",
    "score_field",
    "reverse_sample",
    "save_checkpoint",
    "load_checkpoint",
]

CHECKPOINT_SCHEMA_VERSION = 1
_CHECKPOINT_FIELDS = ("input_dim", "hidden_width", "embed_dim", "freq_base", "betas", "w1", "b1", "w2", "b2")


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
        betas = np.asarray(self.betas, dtype=float)
        if betas.ndim != 1 or betas.shape[0] < 1:
            raise ValueError("betas must be a nonempty 1-d array")
        if np.any(betas < 0) or np.any(betas >= 1):
            raise ValueError("betas must lie in [0, 1)")
        alphas = 1.0 - np.cumprod(1.0 - betas)
        # alpha_t = 0 leaves no noise to predict, so the score -eps_hat / sqrt(alpha_t) would not exist.
        if np.any(alphas <= 0) or np.any(alphas >= 1):
            raise ValueError("alphas must lie in (0, 1)")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alphas", alphas)

    @property
    def t_steps(self) -> int:
        return self.betas.shape[0]

    @classmethod
    def linear(cls, t_steps: int = 100, beta_min: float = 1e-4, beta_max: float = 0.02) -> "NoiseSchedule":
        """Linear beta ramp; the standard baseline schedule."""
        return cls(np.linspace(beta_min, beta_max, t_steps))


def sinusoidal_embed(t, dim: int, base: float = 1.0e4) -> np.ndarray:
    """Sinusoidal embedding of a timestep index.

    Pairs (sin(t * w_j), cos(t * w_j)) with geometrically spaced frequencies
    w_j = base^(-j / (dim/2)).  ``t`` may be a scalar or an array; the output
    gains a trailing axis of length ``dim``.
    """
    if dim <= 0 or dim % 2 != 0:
        raise ValueError(f"embedding dim must be a positive even integer, got {dim}")
    t = np.asarray(t, dtype=float)
    half = dim // 2
    freqs = base ** (-np.arange(half) / half)
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
    freq_base: float
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

    def embed(self, t) -> np.ndarray:
        return sinusoidal_embed(t, self.embed_dim, self.freq_base)

    def predict_noise(self, x, t) -> np.ndarray:
        """eps_hat(x, t); ``x`` is (d,) or (n, d), ``t`` an index or (n,) of indices."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        xb = np.atleast_2d(x)
        tb = np.broadcast_to(np.asarray(t, dtype=float), (xb.shape[0],))
        z = np.concatenate([xb, self.embed(tb)], axis=1)
        y, _ = _mlp_forward(self.w1, self.b1, self.w2, self.b2, z)
        return y[0] if single else y


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
        if self.epochs <= 0 or self.learning_rate <= 0 or self.batch_size <= 0:
            raise ValueError("epochs, learning_rate and batch_size must be positive")


def forward_perturb(
    x0, t, schedule: NoiseSchedule, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Variance-preserving corruption of x0 to timestep t of the schedule; returns (x_t, eps)."""
    x0 = np.asarray(x0, dtype=float)
    alpha = np.asarray(schedule.alphas[t], dtype=float)
    eps = rng.standard_normal(x0.shape)
    a = alpha[..., None] if alpha.ndim else alpha
    return np.sqrt(1.0 - a) * x0 + np.sqrt(a) * eps, eps


def _mlp_forward(w1, b1, w2, b2, z):
    """Forward pass; returns (prediction, hidden activations)."""
    h = np.tanh(z @ w1 + b1)
    return h @ w2 + b2, h


def _mlp_loss_and_grads(w1, b1, w2, b2, z, eps):
    """Mean squared noise-prediction error and its parameter gradients.

    The loss is mean over the batch of the squared norm of (prediction - eps),
    so a zero predictor scores about the data dimension.
    """
    n = z.shape[0]
    y, h = _mlp_forward(w1, b1, w2, b2, z)
    resid = y - eps
    loss = float(np.sum(resid * resid) / n)
    dy = 2.0 * resid / n
    dw2 = h.T @ dy
    db2 = dy.sum(axis=0)
    dh = dy @ w2.T
    da = dh * (1.0 - h * h)
    dw1 = z.T @ da
    db1 = da.sum(axis=0)
    return loss, (dw1, db1, dw2, db2)


def train(
    data,
    schedule: NoiseSchedule,
    cfg: TrainConfig,
    hidden_width: int = 128,
    embed_dim: int = 32,
    freq_base: float = 1.0e4,
) -> MlpScoreModel:
    """Fit the noise predictor with plain SGD on fresh (t, eps) draws each epoch.

    Weight init is scaled-uniform fan-in for the hidden layer and zeros for
    the output layer, so the untrained model predicts zero noise.  Raises
    :class:`TrainingDivergedError` if the loss becomes non-finite.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    if data.size == 0:
        raise ValueError("training data must be nonempty")
    n, d = data.shape
    rng = make_rng(cfg.seed)

    in_dim = d + embed_dim
    bound = 1.0 / np.sqrt(in_dim)
    w1 = rng.uniform(-bound, bound, size=(in_dim, hidden_width))
    b1 = np.zeros(hidden_width)
    w2 = np.zeros((hidden_width, d))
    b2 = np.zeros(d)

    batch = min(cfg.batch_size, n)
    for epoch in range(cfg.epochs):
        if batch == n:
            order = np.arange(n)
        else:
            order = rng.permutation(n)
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            x0 = data[idx]
            t = rng.integers(0, schedule.t_steps, size=idx.shape[0])
            x_t, eps = forward_perturb(x0, t, schedule, rng)
            z = np.concatenate([x_t, sinusoidal_embed(t, embed_dim, freq_base)], axis=1)
            loss, (dw1, db1, dw2, db2) = _mlp_loss_and_grads(w1, b1, w2, b2, z, eps)
            if not np.isfinite(loss):
                raise TrainingDivergedError(epoch, loss)
            lr = cfg.learning_rate
            w1 -= lr * dw1
            b1 -= lr * db1
            w2 -= lr * dw2
            b2 -= lr * db2
            epoch_loss += loss
            n_batches += 1
        logger.debug("epoch %d: loss %.6f", epoch, epoch_loss / n_batches)

    return MlpScoreModel(
        input_dim=d,
        hidden_width=hidden_width,
        embed_dim=embed_dim,
        freq_base=freq_base,
        w1=w1,
        b1=b1,
        w2=w2,
        b2=b2,
    )


def learned_score(model: MlpScoreModel, schedule: NoiseSchedule, x, t: int) -> np.ndarray:
    """Score of the learned noise-level-t density: -eps_hat(x, t) / sqrt(alpha_t)."""
    return -model.predict_noise(x, t) / np.sqrt(schedule.alphas[t])


def score_field(model: MlpScoreModel, schedule: NoiseSchedule, t: int = 0) -> ScoreField:
    """The learned score bound to one noise level (default: last denoising step)."""

    def field(x: np.ndarray) -> np.ndarray:
        return learned_score(model, schedule, x, t)

    return field


def reverse_sample(model, schedule: NoiseSchedule, n: int, rng: np.random.Generator) -> np.ndarray:
    """Euler-Maruyama integration of the reverse-time dynamics.

    Starts from standard normal draws at the noisiest step and walks down to
    t = 0, using the model's noise prediction for the drift.  ``model`` needs
    only a ``predict_noise(x, t)`` method.  No noise is injected on the final
    step.  Raises :class:`SamplingError` on a non-finite state.
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


def save_checkpoint(model: MlpScoreModel, schedule: NoiseSchedule, path) -> None:
    """Write model and schedule as JSON; float64 values round-trip bit-exactly.

    Fields: schema_version, input_dim, hidden_width, embed_dim, freq_base,
    betas, and row-major weight arrays w1, b1, w2, b2.
    """
    payload = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "input_dim": model.input_dim,
        "hidden_width": model.hidden_width,
        "embed_dim": model.embed_dim,
        "freq_base": model.freq_base,
        "betas": schedule.betas.tolist(),
        "w1": model.w1.tolist(),
        "b1": model.b1.tolist(),
        "w2": model.w2.tolist(),
        "b2": model.b2.tolist(),
    }
    with open(path, "w") as f:
        json.dump(payload, f)


def load_checkpoint(path) -> tuple[MlpScoreModel, NoiseSchedule]:
    """Inverse of :func:`save_checkpoint`.

    Raises :class:`CheckpointError` for a file that is not JSON, lacks a
    field, holds betas that make no schedule, or holds weights whose shapes
    do not match ``input_dim``, ``embed_dim`` and ``hidden_width``.
    """
    with open(path) as f:
        try:
            payload = json.load(f)
        except ValueError as exc:  # not JSON, or not text
            raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(f"unsupported checkpoint schema in {path}: {version}")
    missing = [key for key in _CHECKPOINT_FIELDS if key not in payload]
    if missing:
        raise CheckpointError(f"checkpoint {path} lacks {', '.join(missing)}")
    try:
        schedule = NoiseSchedule(payload["betas"])
        model = MlpScoreModel(
            input_dim=int(payload["input_dim"]),
            hidden_width=int(payload["hidden_width"]),
            embed_dim=int(payload["embed_dim"]),
            freq_base=float(payload["freq_base"]),
            w1=payload["w1"],
            b1=payload["b1"],
            w2=payload["w2"],
            b2=payload["b2"],
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid checkpoint {path}: {exc}") from exc
    return model, schedule
