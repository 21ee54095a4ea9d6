"""Uniform sampling on and in d-balls, and the generators that drive it.

Randomness policy: every sampling function takes an explicit
``numpy.random.Generator``.  Harnesses derive one child generator per
estimation call (or per grid node / per seed) via :func:`split_rng`, which
wraps numpy's SeedSequence spawning, so runs are reproducible no matter how
work is distributed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sample_ball_uniform",
    "sample_sphere_uniform",
    "make_rng",
    "split_rng",
]


def make_rng(seed: int | None = None) -> np.random.Generator:
    """A 64-bit-seedable PCG64 generator."""
    return np.random.default_rng(seed)


def split_rng(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """n independent child generators; one substream per estimation call."""
    return rng.spawn(n)


def _center_and_directions(center, radius: float, n: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Checked (center, directions): n uniform unit vectors from normalized standard Gaussians."""
    center = np.asarray(center, dtype=float)
    if center.ndim != 1 or center.shape[0] < 1:
        raise ValueError(f"center must be a nonempty 1-d vector, got shape {center.shape}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    v = rng.standard_normal((n, center.shape[0]))
    return center, v / np.linalg.norm(v, axis=1, keepdims=True)


def sample_sphere_uniform(
    center, radius: float, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points on the sphere of the given radius around ``center``.

    Returns ``(points, normals)`` where ``points`` has shape ``(n, dim)``
    and ``normals`` are the outward unit normals ``(points - center) / radius``.
    """
    center, normals = _center_and_directions(center, radius, n, rng)
    return center + radius * normals, normals


def sample_ball_uniform(center, radius: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform points inside the ball: uniform direction, radius R * U^(1/dim)."""
    center, dirs = _center_and_directions(center, radius, n, rng)
    radii = radius * rng.uniform(0.0, 1.0, size=n) ** (1.0 / center.shape[0])
    return center + radii[:, None] * dirs
