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
memorization grid) draw each center's sphere once, through ``_sphere_blocks``,
call the field once on it, and reduce each p's ``_flux_values`` over a whole
block of centers at a time; ``estimate_boundary`` runs the same
``_flux_values`` on its one sphere.

Both routes evaluate only F(s) = |s|^(p-2) s, which is bounded for every
p >= 1 and 0 at s = 0 (``fields.p_weight``), so every sample enters the mean:
``n_used`` is ``n_samples`` and ``singular_hits`` is 0, as for the dense
reference (``gmm``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        if not self.radius > 0:
            raise ValueError(f"radius must be positive, got {self.radius}")
        if not self.n_samples >= 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")
        if not self.fd_step > 0:
            raise ValueError(f"fd_step must be positive, got {self.fd_step}")


@dataclass(frozen=True)
class PLaplaceEstimate:
    """Monte Carlo estimate with its standard error and sample accounting."""

    value: float
    std_error: float
    n_used: int
    singular_hits: int


def _flux_values(s: np.ndarray, normals: np.ndarray, p: float) -> np.ndarray:
    """Flux integrand |s|^(p-2) (s . n) of score values s, over the last axis."""
    return p_weight(s, p)[1] * np.sum(s * normals, axis=-1)


def _sphere_blocks(fields, centers: np.ndarray, cfgs, rng: np.random.Generator):
    """One sphere draw per row of ``centers``, and each field on it, ``SPHERE_BLOCK`` rows at a time.

    The draw serves every config in ``cfgs``, so they must share ``radius``
    and ``n_samples`` (``ValueError`` otherwise, or if there are none).
    Yields ``(start, normals, values)`` per block, ``start`` being its first
    row: ``normals`` has shape ``(rows, n_samples, d)`` and ``values[k]``
    holds ``fields[k]`` on the spheres in the same shape.  Each block spawns
    one ``split_rng`` substream per center from ``rng``, in row order, so a
    center's draw does not depend on the block size and only one block's
    substreams are alive at a time.  Each field is called once per center
    (one call over all centers is not bitwise equal to it for a learned model).
    """
    if not cfgs:
        raise ValueError("need at least one estimator config")
    if len({(c.radius, c.n_samples) for c in cfgs}) > 1:
        raise ValueError("configs sharing one sphere draw must share radius and n_samples")
    radius, n_samples = cfgs[0].radius, cfgs[0].n_samples
    for start in range(0, centers.shape[0], SPHERE_BLOCK):
        block = centers[start : start + SPHERE_BLOCK]
        subs = split_rng(rng, block.shape[0])
        draws = [sample_sphere_uniform(c, radius, n_samples, r) for c, r in zip(block, subs)]
        yield start, np.stack([n for _, n in draws]), [np.stack([f(ys) for ys, _ in draws]) for f in fields]


def _divergence_values(field: ScoreField, xs: np.ndarray, p: float, h: float) -> np.ndarray:
    """Central-difference divergence of |s|^(p-2) s at each row of xs.

    One field evaluation covers all 2*d stencil points of all rows.
    """
    n, d = xs.shape
    offsets = np.concatenate([np.eye(d) * h, -np.eye(d) * h])  # (2d, d): +e_j then -e_j
    stencil = (xs[:, None, :] + offsets[None, :, :]).reshape(n * 2 * d, d)
    s = field(stencil)
    v = (p_weight(s, p)[1][:, None] * s).reshape(n, 2, d, d)  # (row, +/-, coordinate axis j, vector component)
    jj = np.arange(d)
    return np.sum(v[:, 0, jj, jj] - v[:, 1, jj, jj], axis=1) / (2.0 * h)


def _reduce(vals: np.ndarray, factor: float) -> PLaplaceEstimate:
    """Mean of ``factor * vals`` with its standard error; every sample is used."""
    n_used = vals.shape[0]
    std = vals.std(ddof=1) / np.sqrt(n_used) if n_used > 1 else np.inf
    return PLaplaceEstimate(
        value=factor * float(vals.mean()),
        std_error=abs(factor) * float(std),
        n_used=n_used,
        singular_hits=0,
    )


def estimate_volume(
    field: ScoreField, x0, cfg: EstimatorConfig, rng: np.random.Generator
) -> PLaplaceEstimate:
    """Ball-averaged p-Laplace as the mean pointwise divergence over uniform ball samples."""
    xs = sample_ball_uniform(x0, cfg.radius, cfg.n_samples, rng)
    return _reduce(_divergence_values(field, xs, cfg.p, cfg.fd_step), 1.0)


def estimate_boundary(
    field: ScoreField, x0, cfg: EstimatorConfig, rng: np.random.Generator
) -> PLaplaceEstimate:
    """Ball-averaged p-Laplace as the mean flux over uniform sphere samples times surface/volume = d/R."""
    ys, normals = sample_sphere_uniform(x0, cfg.radius, cfg.n_samples, rng)
    return _reduce(_flux_values(field(ys), normals, cfg.p), ys.shape[1] / cfg.radius)


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
