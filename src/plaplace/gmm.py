"""Analytic Gaussian mixture oracle.

Isotropic, shared-variance mixtures with closed forms for the log-density,
its gradient (the score), and the Laplacian and s^T H s parts behind the
dense p-Laplace reference: the ground truth for learned score fields.

All evaluation functions are vectorized: ``x`` may be a single point of
shape ``(d,)`` or a batch of shape ``(n, d)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .estimators import PLaplaceEstimate, _reduce
from .fields import ScoreField, p_weight
from .geometry import sample_ball_blocks

# Rows per block of the dense reference: bounds its (rows, K, d) temporaries.
CHUNK = 8192

# Gradient floor: below this score norm the exact p < 2 operator is singular.
EPS_GRAD = 1e-8

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


def _p_laplace_values(s: np.ndarray, lap: np.ndarray, quad: np.ndarray, p: float):
    """|s|^(p-2) * (lap + (p-2) * s^T H s / |s|^2) from the parts; returns (values, singular mask).

    For p < 2 the operator blows up as |s| -> 0, so the mask marks the rows
    whose score norm is below ``EPS_GRAD``; a value under it is not the
    operator, and the dense reference skips it.  For p >= 2 no row is
    singular: quad = s^T H s vanishes quadratically with |s|, so with the
    floored norm of ``p_weight`` the ratio quad / |s|^2 stays bounded.
    """
    norm, weight = p_weight(s, p)
    singular = norm < EPS_GRAD if p < 2 else np.zeros(norm.shape, dtype=bool)
    return weight * (lap + (p - 2.0) * quad / (norm * norm)), singular


def averaged_p_laplace_dense(
    g: GmmParams, x0, p_values, radius: float, n: int, rng: np.random.Generator
) -> list[PLaplaceEstimate]:
    """Dense Monte Carlo average of the exact pointwise operator over a ball, for every p.

    The reference value for the ball-averaged p-Laplace: one draw of n
    uniform ball samples serves every p in ``p_values``.  The draw arrives
    ``CHUNK`` rows at a time from ``sample_ball_blocks``; each block's mixture
    parts fill one value array and one singular mask per p, allocated up
    front.  Neither the samples nor the parts are ever held at full length.
    Points where a p < 2 evaluation is singular are skipped and counted;
    :class:`EstimationError` if every one is.  Returns one estimate per p,
    in order; ``ValueError`` before any draw if a p is below 1.
    """
    for p in p_values:
        if not p >= 1:
            raise ValueError(f"p must be >= 1, got {p}")
    filled = [(np.empty(n), np.empty(n, dtype=bool)) for _ in p_values]  # (values, singular) per p
    start = 0
    for xs in sample_ball_blocks(x0, radius, n, rng, CHUNK):
        parts = _p_laplace_parts(g, xs)
        stop = start + xs.shape[0]
        for (values, singular), p in zip(filled, p_values):
            values[start:stop], singular[start:stop] = _p_laplace_values(*parts, p)
        start = stop
    if any(singular.all() for _, singular in filled):
        raise EstimationError("every dense sample was singular")
    # values itself where nothing is skipped: the same data as values[~singular], without the copy
    return [_reduce(values[~singular] if singular.any() else values, 1.0, int(singular.sum()))
            for values, singular in filled]


def sample_gmm(g: GmmParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n draws from the mixture: component choice by weight, then isotropic Gaussian."""
    comps = rng.choice(g.n_components, size=n, p=g.weights)
    return g.means[comps] + np.sqrt(g.sigma2) * rng.standard_normal((n, g.dim))


def score_field(g: GmmParams) -> ScoreField:
    """The oracle score as a batch-evaluatable field."""

    def field(x: np.ndarray) -> np.ndarray:
        return score(g, x)

    return field
