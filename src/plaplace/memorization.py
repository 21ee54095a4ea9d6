"""Memorization injection and detection.

A controlled scenario replicates one training sample many times, a score
model is trained on the inflated set, and the learned 1-Laplace is read
off a grid.  A score-norm criterion is kept as the promptless baseline.
Both criteria rank one way: a lower value flags memorization, because a
sharp learned peak at the replicated point makes the score vanish and the
1-Laplace very negative there.  Each AUC ranks one memorized value against
the background values, so it is a rank in steps of 1/n_background, not a
ROC area.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .estimators import EstimatorConfig, _flux_values, _sphere_blocks
from .estimators import estimate_boundary  # noqa: F401  the benchmark tracer rebinds it by this module's name
from .fields import ScoreField
from .gmm import GmmParams, sample_gmm
from .tables import write_table

__all__ = [
    "Grid",
    "build_scenario",
    "make_grid",
    "boundary_at_points",
    "grid_p_laplace",
    "percentile_rank",
    "auc",
    "score_norm_criterion",
    "write_grid_csv",
]


def build_scenario(gmm: GmmParams, n_base: int, n_replicas: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``(training_set, memorized)``: n_base mixture draws, then n_replicas copies of one of them picked uniformly."""
    if n_base < 1:
        raise ValueError(f"n_base must be >= 1, got {n_base}")
    base = sample_gmm(gmm, n_base, rng)
    memorized = base[int(rng.integers(n_base))]
    return np.vstack([base, np.tile(memorized, (n_replicas, 1))]), memorized


class Grid(NamedTuple):
    """Rectangular 2-d lattice; points are row-major, y varying slowest."""

    xs: np.ndarray
    ys: np.ndarray
    points: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ys.shape[0], self.xs.shape[0])

    @property
    def extent(self) -> tuple[float, float, float, float]:
        return (float(self.xs[0]), float(self.xs[-1]), float(self.ys[0]), float(self.ys[-1]))


def make_grid(gmm: GmmParams, n: int = 40, pad_sigma: float = 2.0) -> Grid:
    """n x n lattice over the bounding box of the means, inflated by pad_sigma std devs."""
    if gmm.dim != 2:
        raise ValueError("grid evaluation is a 2-d diagnostic")
    pad = pad_sigma * np.sqrt(gmm.sigma2)
    lo = gmm.means.min(axis=0) - pad
    hi = gmm.means.max(axis=0) + pad
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    gx, gy = np.meshgrid(xs, ys)
    return Grid(xs=xs, ys=ys, points=np.column_stack([gx.ravel(), gy.ravel()]))


def boundary_at_points(
    field: ScoreField, points: np.ndarray, cfgs: list[EstimatorConfig], rng: np.random.Generator
) -> np.ndarray:
    """Boundary-formulation estimates at every row of ``points``, one row per config: ``(len(cfgs), n)``.

    Each point draws one sphere from its own substream, in row order
    (``estimators._sphere_blocks``), and that draw serves every config, so the
    configs must share ``radius`` and ``n_samples`` (``ValueError`` otherwise).  Each value is
    bitwise the ``estimate_boundary`` value on that substream; the values of
    one point at different p are correlated.
    """
    values = np.empty((len(cfgs), points.shape[0]))
    for start, normals, [sv] in _sphere_blocks([field], points, cfgs, rng):
        for out, cfg in zip(values, cfgs):
            means = _flux_values(sv, normals, cfg.p).mean(axis=1)
            out[start : start + means.shape[0]] = points.shape[1] / cfg.radius * means
    return values


def grid_p_laplace(
    field: ScoreField, grid: Grid, cfgs: list[EstimatorConfig], rng: np.random.Generator
) -> np.ndarray:
    """:func:`boundary_at_points` over the grid nodes: one grid-shaped matrix per config, ``(len(cfgs), ny, nx)``."""
    if grid.points.shape[1] != 2:
        raise ValueError("grid evaluation is a 2-d diagnostic")
    return boundary_at_points(field, grid.points, cfgs, rng).reshape(-1, *grid.shape)


def percentile_rank(grid_values, value_at_point: float) -> float:
    """Rank of a value among grid values, in [0, 100]; ties get half weight."""
    vals = np.asarray(grid_values, dtype=float).ravel()
    if vals.size == 0:
        raise ValueError("grid of values is empty")
    below = np.count_nonzero(vals < value_at_point)
    ties = np.count_nonzero(vals == value_at_point)
    return 100.0 * (below + 0.5 * ties) / vals.size


def auc(memorized_values, background_values) -> float:
    """Mann-Whitney rank AUC of memorized against background values, lower values positive.

    Invariant under strictly monotone increasing transforms of the values.
    """
    mem = np.asarray(memorized_values, dtype=float).ravel()
    bg = np.asarray(background_values, dtype=float).ravel()
    if mem.size == 0 or bg.size == 0:
        raise ValueError("both value lists must be nonempty")
    wins = (mem[:, None] < bg[None, :]).sum()
    ties = (mem[:, None] == bg[None, :]).sum()
    return float((wins + 0.5 * ties) / (mem.size * bg.size))


def score_norm_criterion(field: ScoreField, x) -> float | np.ndarray:
    """Score magnitude at x: the promptless baseline criterion."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    norms = np.linalg.norm(field(np.atleast_2d(x)), axis=1)
    return float(norms[0]) if single else norms


def write_grid_csv(path, grid: Grid, matrix: np.ndarray, header_comment: str) -> None:
    """Grid values as (x, y, value) rows, colormap-ready."""
    rows = ([x, y, matrix[iy, ix]] for iy, y in enumerate(grid.ys) for ix, x in enumerate(grid.xs))
    write_table(path, ["x", "y", "value"], rows, header_comment)
