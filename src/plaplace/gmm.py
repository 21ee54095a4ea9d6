"""Analytic Gaussian mixture oracle.

Isotropic, shared-variance mixtures with closed forms for the log-density,
its gradient (the score), and the Laplacian and s^T H s parts behind the
dense p-Laplace reference: the ground truth for learned score fields.  The
exact operator is finite at every point for every p >= 1, so the reference
averages every sample it draws.

All evaluation functions are vectorized: ``x`` may be a single point of
shape ``(d,)`` or a batch of shape ``(n, d)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import PLaplaceEstimate
from .fields import ScoreField, p_weight
from .geometry import sample_ball_blocks

# Rows per block of the dense reference: bounds its (rows, K, d) temporaries.
CHUNK = 8192

__all__ = [
    "GmmParams",
    "perturb",
    "draw_gmm",
    "log_density",
    "score",
    "averaged_p_laplace_dense",
    "sample_gmm",
    "score_field",
]


@dataclass(frozen=True)
class GmmParams:
    """Mixture of K isotropic Gaussians N(mean_k, sigma2 * I) with the given weights."""

    means: np.ndarray
    sigma2: float
    weights: np.ndarray

    def __post_init__(self):
        # Frozen copies: the caller's arrays stay writable, these never are.
        means = np.atleast_2d(np.array(self.means, dtype=float))
        weights = np.array(self.weights, dtype=float)
        means.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if not self.sigma2 > 0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")
        if weights.ndim != 1 or weights.shape[0] != means.shape[0]:
            raise ValueError("weights must be one per mixture component")
        if np.any(weights <= 0):
            raise ValueError("weights must be positive")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {float(weights.sum())!r}")

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]


def perturb(g: GmmParams, alpha: float) -> GmmParams:
    """The mixture after variance-preserving Gaussian corruption at noise fraction alpha.

    Means shrink by sqrt(1 - alpha) and the component variance becomes
    (1 - alpha) * sigma2 + alpha, so alpha = 0 recovers the base mixture.
    """
    alpha = float(alpha)
    if not 0.0 <= alpha < 1.0:
        raise ValueError(f"alpha must be in [0, 1), got {alpha}")
    return GmmParams(means=np.sqrt(1.0 - alpha) * g.means, sigma2=(1.0 - alpha) * g.sigma2 + alpha, weights=g.weights)


def draw_gmm(
    n_components: int = 3,
    dim: int = 2,
    sigma2: float = 1.0,
    low: float = -5.0,
    high: float = 5.0,
    seed: int = 0,
) -> GmmParams:
    """Equal-weight mixture with means drawn uniformly in [low, high]^dim from a seed."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(low, high, size=(n_components, dim))
    weights = np.full(n_components, 1.0 / n_components)
    return GmmParams(means=means, sigma2=sigma2, weights=weights)


def _responsibilities(g: GmmParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one mixture kernel: diffs, responsibilities and the log-normalizer.

    With l_k = log w_k - |mean_k - x|^2 / (2 sigma2) (the Gaussian constant
    dropped), returns diffs = mean_k - x with shape (..., K, d), the
    responsibilities r_k = exp(l_k) / sum_j exp(l_j), and
    log sum_k exp(l_k).  Both exponentiate l_k - max_j l_j, so neither
    underflows to 0 / 0 or log(0) far from every mean.
    """
    if x.ndim < 1 or x.shape[-1] != g.dim:
        raise ValueError(f"points must have shape (..., {g.dim}), got {x.shape}")
    diffs = g.means - x[..., None, :]
    log_resp = np.log(g.weights) - 0.5 * np.einsum("...kd,...kd->...k", diffs, diffs) / g.sigma2
    top = log_resp.max(axis=-1, keepdims=True)
    resp = np.exp(log_resp - top)
    total = resp.sum(axis=-1, keepdims=True)
    return diffs, resp / total, (top + np.log(total))[..., 0]


def log_density(g: GmmParams, x) -> np.ndarray | float:
    """log of the mixture density, via the max-shifted log-sum-exp over components."""
    out = _responsibilities(g, np.asarray(x, dtype=float))[2] - 0.5 * g.dim * np.log(2.0 * np.pi * g.sigma2)
    return float(out) if out.ndim == 0 else out


def score(g: GmmParams, x) -> np.ndarray:
    """Gradient of the log-density: responsibility-weighted pull toward the means."""
    return _moments(g, np.asarray(x, dtype=float))[2]


def _moments(g: GmmParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Responsibilities r_k, pulls g_k = (mean_k - x)/sigma2, and the score s = sum_k r_k g_k."""
    diffs, resp, _ = _responsibilities(g, x)
    gk = diffs / g.sigma2
    return resp, gk, np.einsum("...k,...kd->...d", resp, gk)


def _p_laplace_parts(g: GmmParams, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Score s, Laplacian, and quadratic form s^T H s, all batched."""
    resp, gk, s = _moments(g, x)
    s_sq = np.einsum("...d,...d->...", s, s)
    lap = np.einsum("...k,...kd,...kd->...", resp, gk, gk) - g.dim / g.sigma2 - s_sq
    # H s = sum_k r_k g_k (g_k . s) - s/sigma2 - s * |s|^2
    gk_dot_s = np.einsum("...kd,...d->...k", gk, s)
    hs = (
        np.einsum("...k,...kd->...d", resp * gk_dot_s, gk)
        - s / g.sigma2
        - s * s_sq[..., None]
    )
    return s, lap, np.einsum("...d,...d->...", s, hs)


def _p_laplace_values(s: np.ndarray, lap: np.ndarray, quad: np.ndarray, p: float) -> np.ndarray:
    """|s|^(p-2) * (lap + (p-2) * s^T H s / |s|^2) from the parts.

    Every row is finite: ``p_weight`` floors the norm, so quad / |s|^2 is
    0 / 1e-300 = 0 at a critical point (s = 0), and the weight stays finite
    for p < 2 however small |s| is.  Scaling the potential by a scales the
    value by a |a|^(p-2) while every score norm stays at or above
    ``fields.NORM_FLOOR``.
    """
    norm, weight = p_weight(s, p)
    return weight * (lap + (p - 2.0) * quad / (norm * norm))


def _block_moments(values: np.ndarray, shift: float, scale: float) -> tuple[int, float, float]:
    """Count, sum and M2 (the sum of squared deviations about their own mean) of ``(values - shift) * scale``."""
    dev = values - shift
    dev *= scale
    total = float(dev.sum())
    dev -= total / dev.shape[0]
    return dev.shape[0], total, float(np.square(dev, out=dev).sum())


def _moment_scale(values: np.ndarray) -> float:
    """The power of two that brings the largest |value| into [0.5, 1), kept a normal float (2^-1022 to 2^1023).

    Multiplying by it is exact, and it keeps the squares of M2 from underflowing or overflowing."""
    exponent = math.frexp(float(np.abs(values).max()))[1]
    return math.ldexp(1.0, min(max(-exponent, -1022), 1023))


def _merged_estimate(shift: float, scale: float, blocks: list[tuple[int, float, float]]) -> PLaplaceEstimate:
    """Mean and standard error of values from per-block ``_block_moments`` of ``(values - shift) * scale``.

    Chan, Golub and LeVeque's pairwise merge: mean = shift + sum_b sum_b / N and
    M2 = sum_b M2_b + sum_b n_b (mean_b - mean)^2, each sum over blocks correctly
    rounded by ``math.fsum``.  A shift near the mean keeps the block sums small, so
    values that barely vary lose no bits of M2 to their block means' rounding.  The
    power-of-two ``scale`` is divided back out of the mean and the standard error;
    it changes no bit unless the unscaled squares would underflow or overflow.
    """
    n_used = sum(count for count, _, _ in blocks)
    mean = math.fsum(total for _, total, _ in blocks) / n_used
    m2 = math.fsum([m2 for _, _, m2 in blocks] + [count * (total / count - mean) ** 2 for count, total, _ in blocks])
    std_error = math.sqrt(m2 / (n_used - 1)) / math.sqrt(n_used) / scale if n_used > 1 else math.inf
    return PLaplaceEstimate(value=shift + mean / scale, std_error=std_error, n_used=n_used, singular_hits=0)


def averaged_p_laplace_dense(
    g: GmmParams, x0, p_values, radius: float, n: int, rng: np.random.Generator
) -> list[PLaplaceEstimate]:
    """Dense Monte Carlo average of the exact pointwise operator over a ball, for every p.

    The reference value for the ball-averaged p-Laplace: one draw of n
    uniform ball samples serves every p in ``p_values``, and every sample
    enters the mean.  The draw arrives ``CHUNK`` rows at a time from
    ``sample_ball_blocks``; each block's mixture parts give, per p, the
    count, sum and M2 of the block's values, shifted by the mean of the
    first block and scaled by the power of two that its largest |value|
    gives (``_block_moments``, ``_moment_scale``), and the blocks are merged
    at the end (``_merged_estimate``).  No array spans every point: the
    working set is one block's, whatever n.  Returns one estimate per p, in
    order; ``ValueError`` before any draw if a p is below 1.
    """
    for p in p_values:
        if not p >= 1:
            raise ValueError(f"p must be >= 1, got {p}")
    shifts, scales = [], []  # per p, the mean and the _moment_scale of the first block
    moments = [[] for _ in p_values]  # per p, the _block_moments of every block
    for b, xs in enumerate(sample_ball_blocks(x0, radius, n, rng, CHUNK)):
        parts = _p_laplace_parts(g, xs)
        for k, p in enumerate(p_values):
            values = _p_laplace_values(*parts, p)
            if b == 0:
                shifts.append(float(values.mean()))
                scales.append(_moment_scale(values))
            moments[k].append(_block_moments(values, shifts[k], scales[k]))
    return [_merged_estimate(*args) for args in zip(shifts, scales, moments)]


def sample_gmm(g: GmmParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the mixture: component choice by weight, then isotropic Gaussian."""
    comps = rng.choice(g.n_components, size=n, p=g.weights)
    return g.means[comps] + np.sqrt(g.sigma2) * rng.standard_normal((n, g.dim))


def score_field(g: GmmParams) -> ScoreField:
    """The oracle score as a batch-evaluatable field."""

    def field(x: np.ndarray) -> np.ndarray:
        return score(g, x)

    return field
