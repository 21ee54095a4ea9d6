"""Monte Carlo estimators for the ball-averaged p-Laplace of a score field.

Two routes to the same quantity, one function each:

* volume formulation (``estimate_volume``): average the pointwise
  divergence of |s|^(p-2) s (central finite differences) over uniform
  samples inside the ball;
* boundary formulation (``estimate_boundary``): average the outward flux
  |s|^(p-2) s . n over uniform samples on the sphere, scaled by
  surface/volume, which is exactly d/R, so the result is normalized by
  the ball volume.

Drivers that estimate several p at many centers (the bound check, the
memorization grid) draw each center's sphere once and call the field once
on it for every p, through one kernel that ``estimate_boundary`` also runs.

For p < 2 the integrand is undefined where the score vanishes; samples
whose score norm falls below ``fields.EPS_GRAD`` are skipped and counted rather
than interpolated (they carry negligible mass).  The singular mask alone marks
them: a value under it is not the integrand, and no caller reads it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EstimationError
from .fields import ScoreField, p_weight
from .geometry import sample_ball_uniform, sample_sphere_uniform, split_rng
from .tables import write_table

__all__ = [
    "EstimatorConfig",
    "PLaplaceEstimate",
    "estimate_volume",
    "estimate_boundary",
    "write_estimates_csv",
]


# Centers per kernel call where a driver estimates at many centers: the flux and
# reduction arithmetic runs once per block instead of once per center.  Larger
# blocks gain little time and raise the studies' peak memory.
SPHERE_BLOCK = 32


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for one averaged p-Laplace estimate; the estimator called picks the formulation."""

    p: float
    radius: float = 1.0
    n_samples: int = 100
    fd_step: float = 1e-3

    def __post_init__(self):
        if not self.p >= 1:
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
    return weight * np.sum(s * normals, axis=1), singular


def _shared_sphere(cfgs) -> tuple[float, int, list[float]]:
    """``(radius, n_samples, ps)`` of configs that share one sphere draw; ``ValueError`` if they cannot."""
    cfgs = list(cfgs)
    if not cfgs:
        raise ValueError("need at least one estimator config")
    if len({(c.radius, c.n_samples) for c in cfgs}) > 1:
        raise ValueError("configs sharing one sphere draw must share radius and n_samples")
    return cfgs[0].radius, cfgs[0].n_samples, [c.p for c in cfgs]


def _sphere_fluxes(fields, centers, radius: float, n_samples: int, ps, rngs):
    """Flux values of each field at each p, on one sphere draw per center.

    Center i draws ``n_samples`` sphere points from ``rngs[i]``, and each field
    is called once per center (one call over all centers is not bitwise equal
    to it for a learned model).  The draw and the field values serve every p:
    only the flux weight and the p < 2 singular mask depend on p.  Returns
    ``(values, fluxes)``: ``values[k]`` holds ``fields[k]`` on the spheres,
    shape ``(n_centers, n_samples, d)``, and ``fluxes[k][j]`` is the
    :func:`_flux_values` pair of ``fields[k]`` at ``ps[j]``, each of shape
    ``(n_centers, n_samples)``.
    """
    draws = [sample_sphere_uniform(c, radius, n_samples, r) for c, r in zip(centers, rngs)]
    normals = np.concatenate([n for _, n in draws])
    values = [np.concatenate([f(ys) for ys, _ in draws]) for f in fields]
    rows = (len(draws), n_samples)
    fluxes = [[tuple(a.reshape(rows) for a in _flux_values(v, normals, p)) for p in ps] for v in values]
    return [v.reshape(*rows, -1) for v in values], fluxes


def _sphere_blocks(fields, centers: np.ndarray, radius: float, n_samples: int, ps, rng: np.random.Generator):
    """:func:`_sphere_fluxes` over the rows of ``centers``, ``SPHERE_BLOCK`` at a time.

    Yields ``(start, values, fluxes)`` per block, ``start`` being its first
    row.  Each block spawns one ``split_rng`` substream per center from
    ``rng``, in row order, as it is drawn, so a center's draw does not depend
    on the block size and only one block's substreams are alive at a time.
    """
    for start in range(0, centers.shape[0], SPHERE_BLOCK):
        block = centers[start : start + SPHERE_BLOCK]
        yield start, *_sphere_fluxes(fields, block, radius, n_samples, ps, split_rng(rng, block.shape[0]))


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
    return div, singular_pts.reshape(n, 2 * d).any(axis=1)


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
    xs = sample_ball_uniform(x0, cfg.radius, cfg.n_samples, rng)
    vals, singular = _divergence_values(field, xs, cfg.p, cfg.fd_step)
    return _reduce(vals, singular, 1.0, "volume")


def estimate_boundary(
    field: ScoreField, x0, cfg: EstimatorConfig, rng: np.random.Generator
) -> PLaplaceEstimate:
    """Ball-averaged p-Laplace as the mean flux over uniform sphere samples times surface/volume = d/R."""
    values, [[(vals, singular)]] = _sphere_fluxes([field], [x0], cfg.radius, cfg.n_samples, [cfg.p], [rng])
    return _reduce(vals[0], singular[0], values[0].shape[2] / cfg.radius, "boundary")


def write_estimates_csv(path, dim: int, rows, header_comment: str | None = None) -> None:
    """Batch estimation results, one row per estimate.

    Columns: one per anchor coordinate (x0_0, ..., x0_{dim-1}), then
    p, formulation, n_samples, radius, seed, value, std_error, singular_hits.
    An optional comment line carries the resolved run configuration.
    """
    cols = [f"x0_{i}" for i in range(dim)] + [
        "p", "formulation", "n_samples", "radius", "seed", "value", "std_error", "singular_hits",
    ]
    write_table(path, cols, rows, header_comment)
