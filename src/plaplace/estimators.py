"""Monte Carlo estimators for the ball-averaged p-Laplace of a score field.

Two routes to the same quantity, one function each:

* volume formulation (``estimate_volume``): average the pointwise
  divergence of |s|^(p-2) s (central finite differences) over uniform
  samples inside the ball;
* boundary formulation (``estimate_boundary``): average the outward flux
  |s|^(p-2) s . n over uniform samples on the sphere, scaled by
  surface/volume (d/R) so the result is normalized by the ball volume.

For p < 2 the integrand is undefined where the score vanishes; samples
whose score norm falls below ``EPS_GRAD`` are skipped and counted rather
than interpolated (they carry negligible mass).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError, SingularGradientError
from .fields import EPS_GRAD, ScoreField, p_weight
from .geometry import BallSpec, ball_volume, sample_ball_uniform, sample_sphere_uniform, sphere_area
from .tables import write_table

__all__ = [
    "EstimatorConfig",
    "PLaplaceEstimate",
    "flux_density",
    "divergence_fd",
    "estimate_volume",
    "estimate_boundary",
    "dirichlet_energy_mc",
    "write_estimates_csv",
]


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for one averaged p-Laplace estimate; the estimator called picks the formulation."""

    p: float
    radius: float = 1.0
    n_samples: int = 100
    fd_step: float = 1e-3

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.fd_step <= 0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")


@dataclass(frozen=True)
class PLaplaceEstimate:
    """Monte Carlo estimate with its standard error and sample accounting."""

    value: float
    std_error: float
    n_used: int
    singular_hits: int


def _flux_values(s: np.ndarray, normals: np.ndarray, p: float):
    """Flux integrand |s|^(p-2) (s . n) of score values s; returns (values, singular mask)."""
    _, weight, singular = p_weight(s, p)
    vals = weight * np.sum(s * normals, axis=1)
    return np.where(singular, np.nan, vals), singular


def flux_density(field: ScoreField, y, normal, p: float) -> float:
    """|s(y)|^(p-2) * (s(y) . normal); for p = 1 this is the score/normal cosine."""
    y = np.asarray(y, dtype=float)
    normal = np.asarray(normal, dtype=float)
    vals, singular = _flux_values(field(y[None, :]), normal[None, :], p)
    if singular[0]:
        raise SingularGradientError(f"score norm below {EPS_GRAD} at flux sample with p={p}")
    return float(vals[0])


def _divergence_values(field: ScoreField, xs: np.ndarray, p: float, h: float):
    """Central-difference divergence of |s|^(p-2) s at each row of xs.

    One field evaluation covers all 2*d stencil points of all rows; a row is
    singular if any of its stencil evaluations falls below the gradient floor
    (p < 2 only).  Returns (values, singular mask).
    """
    n, d = xs.shape
    offsets = np.concatenate([np.eye(d) * h, -np.eye(d) * h])  # (2d, d): +e_j then -e_j
    stencil = (xs[:, None, :] + offsets[None, :, :]).reshape(n * 2 * d, d)
    s = field(stencil)
    _, weight, singular_pts = p_weight(s, p)
    v = weight[:, None] * s
    v = v.reshape(n, 2, d, d)  # (row, +/-, coordinate axis j, vector component)
    jj = np.arange(d)
    div = np.sum(v[:, 0, jj, jj] - v[:, 1, jj, jj], axis=1) / (2.0 * h)
    singular = singular_pts.reshape(n, 2 * d).any(axis=1)
    return np.where(singular, np.nan, div), singular


def divergence_fd(field: ScoreField, x, p: float, h: float = 1e-3) -> float:
    """Pointwise p-Laplace of the field's potential by finite-difference divergence."""
    x = np.asarray(x, dtype=float)
    vals, singular = _divergence_values(field, x[None, :], p, h)
    if singular[0]:
        raise SingularGradientError(f"score norm below {EPS_GRAD} on FD stencil with p={p}")
    return float(vals[0])


def _reduce(vals: np.ndarray, singular: np.ndarray, factor: float, what: str) -> PLaplaceEstimate:
    kept = vals[~singular]
    n_used = kept.shape[0]
    if n_used == 0:
        raise EstimationError(f"every {what} sample was singular")
    std = kept.std(ddof=1) / np.sqrt(n_used) if n_used > 1 else np.inf
    return PLaplaceEstimate(
        value=factor * float(kept.mean()),
        std_error=abs(factor) * float(std),
        n_used=n_used,
        singular_hits=int(singular.sum()),
    )


def estimate_volume(
    field: ScoreField, x0, cfg: EstimatorConfig, rng: np.random.Generator
) -> PLaplaceEstimate:
    """Ball-averaged p-Laplace as the mean pointwise divergence over uniform ball samples."""
    x0 = np.asarray(x0, dtype=float)
    spec = BallSpec.around(x0, cfg.radius)
    xs = sample_ball_uniform(spec, cfg.n_samples, rng)
    vals, singular = _divergence_values(field, xs, cfg.p, cfg.fd_step)
    return _reduce(vals, singular, 1.0, "volume")


def estimate_boundary(
    field: ScoreField, x0, cfg: EstimatorConfig, rng: np.random.Generator
) -> PLaplaceEstimate:
    """Ball-averaged p-Laplace as the mean flux over uniform sphere samples times surface/volume (d/R)."""
    x0 = np.asarray(x0, dtype=float)
    spec = BallSpec.around(x0, cfg.radius)
    ys, normals = sample_sphere_uniform(spec, cfg.n_samples, rng)
    vals, singular = _flux_values(field(ys), normals, cfg.p)
    factor = sphere_area(spec.dim, cfg.radius) / ball_volume(spec.dim, cfg.radius)
    return _reduce(vals, singular, factor, "boundary")


def dirichlet_energy_mc(field: ScoreField, samples, p: float, region_volume: float = 1.0) -> float:
    """(1/p) * mean |s|^p over the samples, scaled by the sampled region's volume."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    norms = np.linalg.norm(field(samples), axis=1)
    return float(region_volume * np.mean(norms**p) / p)


def write_estimates_csv(path, records: list[dict], header_comment: str | None = None) -> None:
    """Batch estimation results, one row per estimate.

    Columns: one per anchor coordinate (x0_0, x0_1, ...), then
    p, formulation, n_samples, radius, seed, value, std_error, singular_hits.
    An optional comment line carries the resolved run configuration.
    """
    if not records:
        raise ValueError("no records to write")
    dim = len(records[0]["x0"])
    cols = [f"x0_{i}" for i in range(dim)] + [
        "p", "formulation", "n_samples", "radius", "seed", "value", "std_error", "singular_hits",
    ]
    rows = (
        [*rec["x0"], rec["p"], rec["formulation"], rec["n_samples"], rec["radius"], rec["seed"],
         rec["value"], rec["std_error"], rec["singular_hits"]]
        for rec in records
    )
    write_table(path, cols, rows, header_comment)
